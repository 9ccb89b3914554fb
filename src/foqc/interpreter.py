"""Exact statevector semantics for FOQ programs.

Evaluation is a walk, then a replay.  Classical control never depends on
the state, so the walk evaluates it alone, on an explicit stack: it
carries the current sorted list of qubit indices, an environment binding
the running procedure's classical parameter (a call binds its callee's
parameter afresh, so a body never sees its caller's bindings), and the
positions the enclosing quantum cases pin.  It records each executed
assignment as one op (`circuit.one_target_op`): the target qubit, the
pins as a control mask and wanted bits, and the 2x2 entries, or a flip
for NOT.  Equal calls (same procedure, list and argument) are walked once
and share one block of ops, as `compile` merges them; the op list is
expanded from the blocks when it is first read.  The replay applies the
ops to the non-zero amplitudes of the input, on the kernel that simulates
circuits (`circuit._SparseState`).
Qubit 1 is the most significant bit of the basis-state index, and
evaluation is exact (no measurement, no sampling).

Evaluation produces either a normal terminal (with a mutual-call nesting
level used by the resource analysis) or an error terminal, which arises
exactly when a statement touches a qubit outside the accessible set: an
index outside the current list, or a position an enclosing quantum case
controls.  The walk raises BottomError at the first such access, depth
first, as `compile` does, so `run` raises it without replaying any op.

`guard_errors` rewrites a program so that every qubit access is wrapped in
a classical bounds test, so out-of-range accesses become skips.  Reusing a
quantum case's control qubit inside its branches still reaches the error
terminal on the guarded program.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .circuit import _LazyNumpy, check_dense_wires, one_target_op, replay_dense
from .syntax import (
    Assign,
    BoolBin,
    BoolCmp,
    BoolExpr,
    BoolNot,
    Call,
    FoqError,
    If,
    IntExpr,
    IntLit,
    IntOffset,
    IntVar,
    Program,
    ProcDecl,
    QCase,
    QubitExpr,
    Seq,
    SetExpr,
    SetNil,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
    Statement,
    format_qubit,
    gate_entries,
)

np = _LazyNumpy(globals())

DEFAULT_BUDGET = 1_000_000

STATE_TOLERANCE = 1e-9


class EvalError(FoqError):
    """An expression could not be evaluated (free variable, bad program)."""


class BottomError(FoqError):
    """The program reached the error terminal (inaccessible qubit)."""


class BudgetExceededError(FoqError):
    """The interpreter exceeded its statement-step budget."""


class QuantumState:
    """A normalized statevector over n qubits (qubit 1 = most significant)."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes):
        if n < 0:
            raise ValueError("qubit count must be nonnegative")
        check_dense_wires(n)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes for {n} qubits, got {amps.shape[0]}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        # Negated, so that a NaN norm fails the test too.
        if not abs(norm - 1.0) <= STATE_TOLERANCE:
            raise ValueError(f"state is not normalized (norm {norm!r})")
        self.n = n
        self.amplitudes = amps

    @classmethod
    def from_bits(cls, bits: str) -> "QuantumState":
        if set(bits) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {bits!r}")
        n = len(bits)
        check_dense_wires(n)
        amps = np.zeros(1 << n, dtype=complex)
        amps[int(bits, 2) if bits else 0] = 1.0
        return cls(n, amps)

    @classmethod
    def from_json(cls, text: str) -> "QuantumState":
        data = json.loads(text)
        if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
            raise ValueError("state JSON must be an object with 'n' and 'amplitudes'")
        n = data["n"]
        if type(n) is not int:
            raise ValueError(f"'n' must be an integer, got {json.dumps(n)}")
        amps = [complex(re, im) for re, im in data["amplitudes"]]
        return cls(n, amps)

    def __repr__(self) -> str:
        return f"QuantumState(n={self.n})"


# ---------------------------------------------------------------------------
# Classical expression evaluation against the current sorted list l and the
# environment env, which binds the running procedure's classical parameter.
# ---------------------------------------------------------------------------

Env = Mapping[str, int]

NO_ENV: Env = MappingProxyType({})


def eval_int(e: IntExpr, l: tuple[int, ...], env: Env = NO_ENV) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, SetSize):
        return len(eval_set(e.set_expr, l, env))
    if isinstance(e, IntVar):
        value = env.get(e.name)
        if value is None:
            raise EvalError(f"unbound integer variable {e.name!r}")
        return value
    if isinstance(e, IntOffset):
        value = eval_int(e.base, l, env)
        for op, k in e.steps:
            value = value + k if op == "+" else value - k
        return value
    raise TypeError(f"not an integer expression: {e!r}")


def eval_set(s: SetExpr, l: tuple[int, ...], env: Env = NO_ENV) -> tuple[int, ...]:
    """Evaluate a sorted-set expression to a list of qubit positions.

    Each removal index is evaluated against the list left by the removals
    before it, so chained removals see the progressively shrinking list.
    An out-of-range removal index yields the empty list.
    """
    if isinstance(s, SetVar):
        return l
    if isinstance(s, SetNil):
        return ()
    if isinstance(s, SetRemove):
        base = () if isinstance(s.base, SetNil) else l
        for index in s.indices:
            k = eval_int(index, base, env)
            base = base[: k - 1] + base[k:] if 1 <= k <= len(base) else ()
        return base
    raise TypeError(f"not a set expression: {s!r}")


def eval_bool(b: BoolExpr, l: tuple[int, ...], env: Env = NO_ENV) -> bool:
    if isinstance(b, BoolCmp):
        lhs, rhs = eval_int(b.left, l, env), eval_int(b.right, l, env)
        if b.op == ">":
            return lhs > rhs
        if b.op == ">=":
            return lhs >= rhs
        if b.op == "=":
            return lhs == rhs
        raise ValueError(f"unknown comparison {b.op!r}")
    if isinstance(b, BoolBin):
        # Short-circuit: left to right, up to the first operand that decides.
        decides = b.op == "||"
        for operand in b.operands:
            if eval_bool(operand, l, env) == decides:
                return decides
        return not decides
    if isinstance(b, BoolNot):
        return not eval_bool(b.inner, l, env)
    raise TypeError(f"not a boolean expression: {b!r}")


def eval_qubit(q: QubitExpr, l: tuple[int, ...], env: Env = NO_ENV) -> int:
    """The global position of s[i], or 0 when the index is out of range."""
    positions = eval_set(q.set_expr, l, env)
    k = eval_int(q.index, l, env)
    if 1 <= k <= len(positions):
        return positions[k - 1]
    return 0


def bind_callee(
    call: Call, decls: Mapping[str, ProcDecl], l: tuple[int, ...], env: Env
) -> tuple[ProcDecl, Env]:
    """The declaration and env of a call whose list is not empty.

    The env binds only the callee's own classical parameter, so a body
    never sees its caller's bindings.  A call whose list is empty does
    nothing, and its callee and argument are not looked at.
    """
    decl = decls.get(call.proc)
    if decl is None:
        raise EvalError(f"call to undeclared procedure {call.proc!r}")
    if decl.param is None:
        return decl, NO_ENV
    if call.arg is None:
        raise EvalError(f"procedure {call.proc!r} requires a classical argument")
    return decl, {decl.param: eval_int(call.arg, l, env)}


# ---------------------------------------------------------------------------
# The walk: classical control and the ops it reaches.
# ---------------------------------------------------------------------------


def _naming(stmt: Assign | QCase) -> str:
    what = "assignment to" if isinstance(stmt, Assign) else "quantum case on"
    return f"{what} {format_qubit(stmt.qubit)}"


def access_error(stmt: Assign | QCase, pos: int) -> str:
    """The error-terminal diagnostic for stmt touching inaccessible position pos."""
    return f"{_naming(stmt)}: position {pos} is not accessible"


def _range_error(stmt: Assign | QCase, index: int, length: int) -> str:
    return f"{_naming(stmt)}: index {index} is out of range for a list of length {length}"


class Walk:
    """What one evaluation's classical control decides.

    The mutual-call nesting level and, in execution order, each executed
    assignment as one lowered op (`circuit.one_target_op`) on indices over
    the n qubits.  `blocks` counts the calls the walk recorded for sharing
    (see `walk`).  `ops` is expanded from the record when it is first read,
    so a walk read only for its level builds no ops.
    """

    __slots__ = ("level", "blocks", "_record", "_ops")

    def __init__(self, level: int, blocks: int, record: list, repeats: bool):
        self.level = level
        self.blocks = blocks
        self._record = record
        self._ops = None if repeats else record

    @property
    def ops(self) -> list:
        if self._ops is None:
            self._ops = _expand(self._record)
            self._record = None
        return self._ops


def _expand(record: list) -> list:
    """The ops a walk's record stands for, in one pass.

    An item is an op, or a repeat (start, end, mask, want): the ops that
    record[start:end] expands to, with `mask` and `want` xored into their
    pins.  A repeat comes after its range, so those ops are already a
    slice of the output.
    """
    ops: list = []
    at: list[int] = []  # at[i]: where record[i]'s ops begin in the output
    for item in record:
        at.append(len(ops))
        if len(item) == 5:
            ops.append(item)
            continue
        start, end, xmask, xwant = item
        span = ops[at[start] : at[end]]
        if xmask or xwant:
            span = [(kind, m ^ xmask, w ^ xwant, bit, data) for kind, m, w, bit, data in span]
        ops += span
    return ops


def _call_list(
    s: SetExpr, l: tuple[int, ...], lid: int, env: Env
) -> tuple[tuple[int, ...], int]:
    """`eval_set` of a call's list, and the list's id.

    An id is the mask of the positions removed from 1..n, one bit per
    position, so equal ids are exactly equal lists, whatever removals
    built them.  The id of an empty list means nothing.
    """
    if isinstance(s, SetVar):
        return l, lid
    if isinstance(s, SetNil):
        return (), lid
    base = () if isinstance(s.base, SetNil) else l
    for index in s.indices:
        k = eval_int(index, base, env)
        if 1 <= k <= len(base):
            lid |= 1 << base[k - 1]
            base = base[: k - 1] + base[k:]
        else:
            base = ()
    return base, lid


# Frame kinds of the walk's explicit stack.  A call on a new list records
# no block, and its frame holds nothing else.
_SEQ, _QCASE, _CALL = range(3)
_NEW_CALL_FRAME = (_CALL,)


def walk(p: Program, n: int, budget: int = DEFAULT_BUDGET) -> Walk:
    """Walk the main statement on n qubits without touching any state.

    Raises BottomError at the first inaccessible access, depth first, and
    walks nothing after it.  Neither long sequences nor deep call chains use
    the Python stack.  A step is one statement rule: every statement costs
    one on entry, and a k-item sequence k - 1 more, charged before each item
    but the first and the last, as k - 1 nested binary sequences did.  The
    positions the enclosing quantum cases pin are `mask` as index bits,
    holding `want`.

    Equal calls share one block.  A body depends only on its procedure,
    list and argument, so a call returning records its block under that
    key: its level, its steps, the index bits its body touched, and the
    span of the record its ops fill.  A later call with the key adds the
    block's level, charges its steps (raising BudgetExceededError exactly
    when the expanded walk would) and records one repeat of the span under
    its own pins.  If those pins meet the touched bits, the expanded walk
    stops inside the call, at the error terminal or earlier on the budget,
    so that call is walked again, to the same stop.  A call on a list that
    no earlier call was made on records no block: no earlier call can have
    had its key, and a later one walks it again and records it then.  So
    the calls of a chain that derives a new list at each step, as `qft`'s
    do, keep no block.
    """
    decls = p.decl_map()
    remaining = budget
    # Each op walked, and for each shared call one repeat of its block.
    record: list = []
    repeats = False
    # (procedure, digest, list id, argument) -> the block of the call's first walk:
    # (level, steps, touched bits, start, end, mask, want), where the call's
    # ops are what record[start:end] expands to, under the pins mask, want.
    blocks: dict = {}
    # The digests (ids modulo the prime 10^9 + 7) of the lists calls were
    # made on, and the root's.  Python hashes an int modulo 2^61 - 1, which
    # maps the ids of ranges 61 positions apart together, so keys hold the
    # digest too; a digest two ids share only records an unneeded block.
    seen = {0}
    # (id(operator), argument) -> its 2x2 entries: p keeps its operators
    # alive, and an id hashes without walking the phase tree.
    entries: dict = {}
    frames: list = []
    stmt, mask, want, l, lid, env = p.main, 0, 0, tuple(range(1, n + 1)), 0, NO_ENV
    touched = 0  # the index bits accessed since the innermost recording call began
    while True:
        # Descend from stmt until a statement yields its level.
        remaining -= 1
        if remaining < 0:
            raise BudgetExceededError("statement-step budget exceeded")
        if isinstance(stmt, Seq):
            frames.append([_SEQ, stmt.items, 0, 0, mask, want, l, lid, env])
            stmt = stmt.items[0]
            continue
        if isinstance(stmt, If):
            stmt = stmt.then_branch if eval_bool(stmt.cond, l, env) else stmt.else_branch
            continue
        if isinstance(stmt, Call):
            sub_l, sub_id = _call_list(stmt.set_expr, l, lid, env)
            if sub_l:
                decl, sub_env = bind_callee(stmt, decls, l, env)
                digest = sub_id % 1_000_000_007
                if digest not in seen:
                    seen.add(digest)
                    frames.append(_NEW_CALL_FRAME)
                    stmt, l, lid, env = decl.body, sub_l, sub_id, sub_env
                    continue
                arg = None if sub_env is NO_ENV else sub_env[decl.param]
                key = (stmt.proc, digest, sub_id, arg)
                block = blocks.get(key)
                if block is None or mask & block[2]:
                    frames.append((_CALL, key, remaining, len(record), touched, mask, want))
                    stmt, l, lid, env, touched = decl.body, sub_l, sub_id, sub_env, 0
                    continue
                level, steps, block_touched, start, end, block_mask, block_want = block
                if remaining < steps:
                    raise BudgetExceededError("statement-step budget exceeded")
                remaining -= steps
                touched |= block_touched
                if end > start:
                    record.append((start, end, block_mask ^ mask, block_want ^ want))
                    repeats = True
            else:
                level = 1
        elif isinstance(stmt, (Assign, QCase)):
            positions = eval_set(stmt.qubit.set_expr, l, env)
            k = eval_int(stmt.qubit.index, l, env)
            if not 1 <= k <= len(positions):
                raise BottomError(_range_error(stmt, k, len(positions)))
            bit = 1 << (n - positions[k - 1])
            if mask & bit:
                raise BottomError(access_error(stmt, positions[k - 1]))
            touched |= bit
            if isinstance(stmt, QCase):
                frames.append([_QCASE, stmt, bit, None, mask, want, l, lid, env])
                stmt, mask = stmt.if_zero, mask | bit
                continue
            op = stmt.op
            arg = eval_int(op.arg, l, env) if op.arg is not None else 0
            u = entries.get((id(op), arg))
            if u is None:
                u = entries[id(op), arg] = gate_entries(op, arg)
            record.append(one_target_op(mask, want, bit, u))
            level = 0
        elif isinstance(stmt, Skip):
            level = 0
        else:
            raise TypeError(f"not a statement: {stmt!r}")
        # Ascend: hand the level to the enclosing frames until one of them
        # has a statement left to run.  A call adds one (and records its
        # block), a sequence sums and a quantum case takes the max of its
        # branches.
        while True:
            if not frames:
                return Walk(level, len(blocks), record, repeats)
            frame = frames[-1]
            if frame[0] == _CALL:
                frames.pop()
                level += 1
                if len(frame) > 1:  # a call that records its block
                    _, key, entered, start, outer, call_mask, call_want = frame
                    steps = entered - remaining
                    blocks[key] = (level, steps, touched, start, len(record), call_mask, call_want)
                    touched |= outer
            elif frame[0] == _SEQ:
                items, i = frame[1], frame[2] + 1
                frame[3] += level
                if i == len(items):
                    frames.pop()
                    level = frame[3]
                    continue
                frame[2] = i
                stmt, (mask, want, l, lid, env) = items[i], frame[4:]
                if i < len(items) - 1:
                    # Checked with the item's own step, which comes next.
                    remaining -= 1
                else:
                    # The last item: drop the context, so a tail call does
                    # not pin the caller's list.
                    del frame[4:]
                break
            elif frame[3] is None:  # the quantum case's 0-branch is done
                frame[3] = level
                bit = frame[2]
                stmt, mask, want = frame[1].if_one, frame[4] | bit, frame[5] | bit
                l, lid, env = frame[6], frame[7], frame[8]
                del frame[4:]  # as for a sequence's last item
                break
            else:
                frames.pop()
                level = max(frame[3], level)


# ---------------------------------------------------------------------------
# Evaluation: a walk, then its ops replayed on a sparse state.
# ---------------------------------------------------------------------------


@dataclass
class EvalOutcome:
    state: QuantumState
    level: int


def run(p: Program, state: QuantumState, budget: int = DEFAULT_BUDGET) -> EvalOutcome:
    """Evaluate the main statement on `state`.

    Raises BottomError on the error terminal, before any op is replayed.
    """
    walked = walk(p, state.n, budget)
    psi = replay_dense(walked.ops, state.amplitudes, state.n)
    return EvalOutcome(QuantumState(state.n, psi), walked.level)


# ---------------------------------------------------------------------------
# Error-freeing transformation.
# ---------------------------------------------------------------------------


def _bounds_guard(q: QubitExpr) -> BoolExpr:
    """0 < i and i <= size(s) for the qubit expression s[i]."""
    bounds = (BoolCmp(">", q.index, IntLit(0)), BoolCmp(">=", SetSize(q.set_expr), q.index))
    return BoolBin("&&", bounds)


def guard_statement(stmt: Statement) -> Statement:
    if isinstance(stmt, (Skip, Call)):
        return stmt
    if isinstance(stmt, Assign):
        return If(_bounds_guard(stmt.qubit), stmt, Skip())
    if isinstance(stmt, Seq):
        return Seq(*(guard_statement(item) for item in stmt.items))
    if isinstance(stmt, If):
        return If(
            stmt.cond,
            guard_statement(stmt.then_branch),
            guard_statement(stmt.else_branch),
        )
    if isinstance(stmt, QCase):
        guarded = QCase(
            stmt.qubit, guard_statement(stmt.if_zero), guard_statement(stmt.if_one)
        )
        return If(_bounds_guard(stmt.qubit), guarded, Skip())
    raise TypeError(f"not a statement: {stmt!r}")


def guard_errors(p: Program) -> Program:
    """Wrap every qubit access in a classical bounds test.

    On the guarded program any access whose index falls outside the
    current sorted set collapses to skip; only reuse of a quantum case's
    control qubit inside its branches still reaches the error terminal.
    The guarded program computes the same states as the original wherever
    the original terminates normally.
    """
    decls = tuple(
        ProcDecl(d.name, d.param, d.set_param, guard_statement(d.body)) for d in p.decls
    )
    return Program(decls, guard_statement(p.main))
