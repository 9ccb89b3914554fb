"""Exact statevector semantics for FOQ programs.

The interpreter evaluates a statement against a configuration made of the
full n-qubit statevector, the set of accessible qubit positions, the
current sorted list of qubit indices, and an environment binding the
running procedure's classical parameter.  A call binds its callee's
parameter afresh, so a body is evaluated as written and never sees its
caller's bindings.  Qubit 1 is the most significant bit of the
basis-state index.  Evaluation is exact (no measurement, no sampling)
and works in place on a [2] * n + [k] tensor view of k columns of
amplitudes, one axis per qubit and a trailing column axis: an assignment
updates the two halves of its qubit's axis, and a quantum case evaluates
each branch on the width-1 slice where the control qubit holds that
branch's bit, with the control removed from the accessible set.  The
branches cannot touch the control, so the slices are independent and
nothing is recombined.  Classical control never depends on the state, so
`run_basis` evaluates k basis states as the columns of one matrix in one
pass; `eval_program` is the one-column case.

Evaluation produces either a normal terminal (with a mutual-call nesting
level used by the resource analysis) or an error terminal, which arises
exactly when a statement touches a qubit position outside the accessible
set (for instance an out-of-range index, which evaluates to position 0).
The error terminal leaves the state unchanged.

`guard_errors` rewrites a program so that every qubit access is wrapped in
a classical bounds test, so out-of-range accesses become skips.  Reusing a
quantum case's control qubit inside its branches still reaches the error
terminal on the guarded program.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .circuit import check_dense_wires
from .syntax import (
    Assign,
    BoolAnd,
    BoolCmp,
    BoolExpr,
    BoolNot,
    BoolOr,
    Call,
    FoqError,
    If,
    IntAdd,
    IntExpr,
    IntLit,
    IntSub,
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
    gate_matrix,
)

TOP = "top"
BOTTOM = "bottom"

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
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_TOLERANCE:
            raise ValueError(f"state is not normalized (norm {norm!r})")
        self.n = n
        self.amplitudes = amps

    @classmethod
    def zero(cls, n: int) -> "QuantumState":
        return cls.from_bits("0" * n)

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
    def random(cls, n: int, rng: np.random.Generator) -> "QuantumState":
        check_dense_wires(n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        return cls(n, amps / np.linalg.norm(amps))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QuantumState":
        data = json.loads(text)
        if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
            raise ValueError("state JSON must be an object with 'n' and 'amplitudes'")
        amps = [complex(re, im) for re, im in data["amplitudes"]]
        return cls(int(data["n"]), amps)

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
    if isinstance(e, IntVar):
        value = env.get(e.name)
        if value is None:
            raise EvalError(f"unbound integer variable {e.name!r}")
        return value
    if isinstance(e, IntAdd):
        return eval_int(e.base, l, env) + e.offset
    if isinstance(e, IntSub):
        return eval_int(e.base, l, env) - e.offset
    if isinstance(e, SetSize):
        return len(eval_set(e.set_expr, l, env))
    raise TypeError(f"not an integer expression: {e!r}")


def eval_set(s: SetExpr, l: tuple[int, ...], env: Env = NO_ENV) -> tuple[int, ...]:
    """Evaluate a sorted-set expression to a list of qubit positions.

    A removal's index is evaluated against the list produced by the base
    expression, so chained removals see the progressively shrinking list.
    An out-of-range removal index yields the empty list.
    """
    if isinstance(s, SetNil):
        return ()
    if isinstance(s, SetVar):
        return l
    if isinstance(s, SetRemove):
        base = eval_set(s.base, l, env)
        k = eval_int(s.index, base, env)
        if 1 <= k <= len(base):
            return base[: k - 1] + base[k:]
        return ()
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
    if isinstance(b, BoolAnd):
        return eval_bool(b.left, l, env) and eval_bool(b.right, l, env)
    if isinstance(b, BoolOr):
        return eval_bool(b.left, l, env) or eval_bool(b.right, l, env)
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


def bind_call(
    call: Call, decls: Mapping[str, ProcDecl], l: tuple[int, ...], env: Env
) -> tuple[tuple[int, ...], ProcDecl, Env] | None:
    """Evaluate a call's arguments: the callee's list, declaration and env.

    The callee's env binds only its own classical parameter, so a body never
    sees its caller's bindings.  None when the list is empty: such a call
    does nothing, and neither the callee nor its argument is looked at.
    """
    sub_l = eval_set(call.set_expr, l, env)
    if not sub_l:
        return None
    decl = decls.get(call.proc)
    if decl is None:
        raise EvalError(f"call to undeclared procedure {call.proc!r}")
    if decl.param is None:
        return sub_l, decl, NO_ENV
    if call.arg is None:
        raise EvalError(f"procedure {call.proc!r} requires a classical argument")
    return sub_l, decl, {decl.param: eval_int(call.arg, l, env)}


# ---------------------------------------------------------------------------
# In-place state updates on the [2] * n tensor view of the amplitudes.
# ---------------------------------------------------------------------------


def _half(t: np.ndarray, pos: int, bit: int) -> np.ndarray:
    """The width-1 view of t where qubit position pos holds `bit`."""
    return t[(slice(None),) * (pos - 1) + (slice(bit, bit + 1),)]


def _apply_single_qubit(t: np.ndarray, pos: int, matrix: np.ndarray) -> None:
    """Apply a 2x2 unitary in place to qubit position pos (1-based)."""
    a0, a1 = _half(t, pos, 0), _half(t, pos, 1)
    (u00, u01), (u10, u11) = matrix
    if u01 == 0 and u10 == 0:  # a phase: scale each half
        if u00 != 1:
            a0 *= u00
        if u11 != 1:
            a1 *= u11
        return
    old0 = a0.copy()
    if u00 == 0 and u11 == 0:  # anti-diagonal, as NOT: exchange the halves
        np.multiply(a1, u01, out=a0)
        np.multiply(old0, u10, out=a1)
        return
    a0 *= u00
    a0 += u01 * a1
    a1 *= u11
    a1 += u10 * old0


# ---------------------------------------------------------------------------
# Statement evaluation.
# ---------------------------------------------------------------------------


def access_error(stmt: Assign | QCase, pos: int) -> str:
    """The error-terminal diagnostic for stmt touching inaccessible position pos."""
    what = "assignment to" if isinstance(stmt, Assign) else "quantum case on"
    return f"{what} {format_qubit(stmt.qubit)}: position {pos} is not accessible"


@dataclass
class EvalOutcome:
    terminal: str  # TOP or BOTTOM
    state: QuantumState
    level: int
    error: str | None = None  # description of the first access violation


class _Run:
    """What one evaluation shares: declarations and the step budget."""

    __slots__ = ("decls", "remaining")

    def __init__(self, decls: dict[str, ProcDecl], steps: int):
        self.decls = decls
        self.remaining = steps

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("statement-step budget exceeded")


def _eval(
    stmt: Statement,
    t: np.ndarray,
    allowed: frozenset[int],
    l: tuple[int, ...],
    env: Env,
    run: _Run,
) -> tuple[str, int, str | None]:
    """Evaluate stmt, updating the tensor view t in place.

    Returns (terminal, level, error).  On the error terminal t may be left
    partly updated; the caller then discards it.
    """
    run.tick()
    if isinstance(stmt, Skip):
        return TOP, 0, None
    if isinstance(stmt, Assign):
        pos = eval_qubit(stmt.qubit, l, env)
        if pos not in allowed:
            return BOTTOM, 0, access_error(stmt, pos)
        arg = eval_int(stmt.op.arg, l, env) if stmt.op.arg is not None else 0
        _apply_single_qubit(t, pos, gate_matrix(stmt.op, arg))
        return TOP, 0, None
    if isinstance(stmt, Seq):
        # A k-item sequence costs k - 1 steps, as k - 1 nested binary
        # sequences did: the entry tick pays for the first item, and each
        # later item but the last is charged just before it runs.
        last = len(stmt.items) - 1
        level = 0
        for i, item in enumerate(stmt.items):
            if 0 < i < last:
                run.tick()
            terminal, m, err = _eval(item, t, allowed, l, env, run)
            level += m
            if terminal == BOTTOM:
                return BOTTOM, level, err
        return TOP, level, None
    if isinstance(stmt, If):
        branch = stmt.then_branch if eval_bool(stmt.cond, l, env) else stmt.else_branch
        return _eval(branch, t, allowed, l, env, run)
    if isinstance(stmt, QCase):
        pos = eval_qubit(stmt.qubit, l, env)
        if pos not in allowed:
            return BOTTOM, 0, access_error(stmt, pos)
        # Each branch gets the width-1 slice where the control holds its
        # bit; the branches cannot touch the control, so axes keep their
        # global positions and the two halves need no recombination.
        sub_allowed = allowed - {pos}
        t0, m0, err0 = _eval(stmt.if_zero, _half(t, pos, 0), sub_allowed, l, env, run)
        t1, m1, err1 = _eval(stmt.if_one, _half(t, pos, 1), sub_allowed, l, env, run)
        level = max(m0, m1)
        if t0 == BOTTOM or t1 == BOTTOM:
            return BOTTOM, level, err0 if t0 == BOTTOM else err1
        return TOP, level, None
    if isinstance(stmt, Call):
        bound = bind_call(stmt, run.decls, l, env)
        if bound is None:
            return TOP, 1, None
        sub_l, decl, sub_env = bound
        terminal, m, err = _eval(decl.body, t, allowed, sub_l, sub_env, run)
        return terminal, m + 1, err
    raise TypeError(f"not a statement: {stmt!r}")


def _evaluate(p: Program, n: int, psi: np.ndarray, budget: int) -> tuple[str, int, str | None]:
    """Evaluate the main statement in place on the (2^n, k) columns psi.

    Returns (terminal, level, error).  Classical control does not depend
    on the state, so the steps taken, the level and the terminal are those
    of evaluating each column alone.  On the error terminal psi may be
    left partly updated.
    """
    # Sequences are evaluated in a loop, but every call nests two frames;
    # give deep call chains headroom and report exhaustion of either
    # resource the same way.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        return _eval(
            p.main,
            psi.reshape([2] * n + [psi.shape[1]]),
            frozenset(range(1, n + 1)),
            tuple(range(1, n + 1)),
            NO_ENV,
            _Run(p.decl_map(), budget),
        )
    except RecursionError:
        raise BudgetExceededError(
            "call recursion exceeded the interpreter stack"
        ) from None
    finally:
        sys.setrecursionlimit(limit)


def eval_program(
    p: Program, state: QuantumState, budget: int = DEFAULT_BUDGET
) -> EvalOutcome:
    """Evaluate the main statement on `state`; never raises on the error terminal.

    The input is copied once and updated in place; on the error terminal
    the outcome carries the untouched input state.
    """
    psi = state.amplitudes.copy()
    terminal, level, error = _evaluate(p, state.n, psi.reshape(-1, 1), budget)
    if terminal == BOTTOM:
        psi = state.amplitudes
    return EvalOutcome(terminal, QuantumState(state.n, psi), level, error)


def _bottom(error: str | None) -> BottomError:
    return BottomError(error or "program reached the error terminal")


def run(p: Program, state: QuantumState, budget: int = DEFAULT_BUDGET) -> EvalOutcome:
    """Like eval_program, but raises BottomError on the error terminal."""
    outcome = eval_program(p, state, budget)
    if outcome.terminal == BOTTOM:
        raise _bottom(outcome.error)
    return outcome


def run_basis(
    p: Program, n: int, basis, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The outputs of `run` on the basis states `basis`, as (2^n, k) columns.

    Column j is the output on basis state basis[j] (qubit 1 the most
    significant bit).  All k states are evaluated in one pass, which ticks
    the budget as one `run` does; the error terminal raises BottomError
    with `run`'s message.
    """
    check_dense_wires(n)
    k = len(basis)
    psi = np.zeros((1 << n, k), dtype=complex)
    psi[np.asarray(basis, dtype=np.int64), np.arange(k)] = 1.0
    terminal, _, error = _evaluate(p, n, psi, budget)
    if terminal == BOTTOM:
        raise _bottom(error)
    return psi


def level_of(p: Program, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """The mutual-call nesting level of the program on n qubits."""
    return eval_program(p, QuantumState.zero(n), budget).level


# ---------------------------------------------------------------------------
# Error-freeing transformation.
# ---------------------------------------------------------------------------


def _bounds_guard(q: QubitExpr) -> BoolExpr:
    """0 < i and i <= size(s) for the qubit expression s[i]."""
    return BoolAnd(
        BoolCmp(">", q.index, IntLit(0)),
        BoolCmp(">=", SetSize(q.set_expr), q.index),
    )


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
