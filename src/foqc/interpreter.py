"""Exact statevector semantics for FOQ programs.

The interpreter evaluates a statement against a configuration made of the
full n-qubit statevector, the set of accessible qubit positions, and the
current sorted list of qubit indices.  Qubit 1 is the most significant bit
of the basis-state index.  Evaluation is exact (no measurement, no
sampling) and works in place on a [2] * n tensor view of one copy of the
input amplitudes, one axis per qubit: an assignment updates the two halves
of its qubit's axis, and a quantum case evaluates each branch on the
width-1 slice where the control qubit holds that branch's bit, with the
control removed from the accessible set.  The branches cannot touch the
control, so the slices are independent and nothing is recombined.

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
from dataclasses import dataclass

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
    substituted_body,
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
# Classical expression evaluation against the current sorted list l.
# ---------------------------------------------------------------------------


def eval_int(e: IntExpr, l: tuple[int, ...]) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, IntVar):
        raise EvalError(f"unsubstituted integer variable {e.name!r}")
    if isinstance(e, IntAdd):
        return eval_int(e.base, l) + e.offset
    if isinstance(e, IntSub):
        return eval_int(e.base, l) - e.offset
    if isinstance(e, SetSize):
        return len(eval_set(e.set_expr, l))
    raise TypeError(f"not an integer expression: {e!r}")


def eval_set(s: SetExpr, l: tuple[int, ...]) -> tuple[int, ...]:
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
        base = eval_set(s.base, l)
        k = eval_int(s.index, base)
        if 1 <= k <= len(base):
            return base[: k - 1] + base[k:]
        return ()
    raise TypeError(f"not a set expression: {s!r}")


def eval_bool(b: BoolExpr, l: tuple[int, ...]) -> bool:
    if isinstance(b, BoolCmp):
        lhs, rhs = eval_int(b.left, l), eval_int(b.right, l)
        if b.op == ">":
            return lhs > rhs
        if b.op == ">=":
            return lhs >= rhs
        if b.op == "=":
            return lhs == rhs
        raise ValueError(f"unknown comparison {b.op!r}")
    if isinstance(b, BoolAnd):
        return eval_bool(b.left, l) and eval_bool(b.right, l)
    if isinstance(b, BoolOr):
        return eval_bool(b.left, l) or eval_bool(b.right, l)
    if isinstance(b, BoolNot):
        return not eval_bool(b.inner, l)
    raise TypeError(f"not a boolean expression: {b!r}")


def eval_qubit(q: QubitExpr, l: tuple[int, ...]) -> int:
    """The global position of s[i], or 0 when the index is out of range."""
    positions = eval_set(q.set_expr, l)
    k = eval_int(q.index, l)
    if 1 <= k <= len(positions):
        return positions[k - 1]
    return 0


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
    """What one evaluation shares: declarations, step budget, call bodies."""

    __slots__ = ("decls", "remaining", "bodies")

    def __init__(self, decls: dict[str, ProcDecl], steps: int):
        self.decls = decls
        self.remaining = steps
        # Substituted bodies per (procedure, classical argument).
        self.bodies: dict[tuple[str, int], Statement] = {}

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("statement-step budget exceeded")


def _eval(
    stmt: Statement,
    t: np.ndarray,
    allowed: frozenset[int],
    l: tuple[int, ...],
    run: _Run,
) -> tuple[str, int, str | None]:
    """Evaluate stmt, updating the tensor view t in place.

    Returns (terminal, level, error).  On the error terminal t may be left
    partly updated; `eval_program` then discards it.
    """
    run.tick()
    if isinstance(stmt, Skip):
        return TOP, 0, None
    if isinstance(stmt, Assign):
        pos = eval_qubit(stmt.qubit, l)
        if pos not in allowed:
            return BOTTOM, 0, access_error(stmt, pos)
        arg = eval_int(stmt.op.arg, l) if stmt.op.arg is not None else 0
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
            terminal, m, err = _eval(item, t, allowed, l, run)
            level += m
            if terminal == BOTTOM:
                return BOTTOM, level, err
        return TOP, level, None
    if isinstance(stmt, If):
        branch = stmt.then_branch if eval_bool(stmt.cond, l) else stmt.else_branch
        return _eval(branch, t, allowed, l, run)
    if isinstance(stmt, QCase):
        pos = eval_qubit(stmt.qubit, l)
        if pos not in allowed:
            return BOTTOM, 0, access_error(stmt, pos)
        # Each branch gets the width-1 slice where the control holds its
        # bit; the branches cannot touch the control, so axes keep their
        # global positions and the two halves need no recombination.
        sub_allowed = allowed - {pos}
        t0, m0, err0 = _eval(stmt.if_zero, _half(t, pos, 0), sub_allowed, l, run)
        t1, m1, err1 = _eval(stmt.if_one, _half(t, pos, 1), sub_allowed, l, run)
        level = max(m0, m1)
        if t0 == BOTTOM or t1 == BOTTOM:
            return BOTTOM, level, err0 if t0 == BOTTOM else err1
        return TOP, level, None
    if isinstance(stmt, Call):
        sub_l = eval_set(stmt.set_expr, l)
        if not sub_l:
            return TOP, 1, None
        decl = run.decls.get(stmt.proc)
        if decl is None:
            raise EvalError(f"call to undeclared procedure {stmt.proc!r}")
        arg = None
        if decl.param is not None:
            if stmt.arg is None:
                raise EvalError(f"procedure {stmt.proc!r} requires a classical argument")
            arg = eval_int(stmt.arg, l)
        body = substituted_body(decl, arg, run.bodies)
        terminal, m, err = _eval(body, t, allowed, sub_l, run)
        return terminal, m + 1, err
    raise TypeError(f"not a statement: {stmt!r}")


def eval_program(
    p: Program, state: QuantumState, budget: int = DEFAULT_BUDGET
) -> EvalOutcome:
    """Evaluate the main statement on `state`; never raises on the error terminal.

    The input is copied once and updated in place; on the error terminal
    the outcome carries the untouched input state.
    """
    n = state.n
    allowed = frozenset(range(1, n + 1))
    l = tuple(range(1, n + 1))
    psi = state.amplitudes.copy()
    # Sequences are evaluated in a loop, but every call nests two frames;
    # give deep call chains headroom and report exhaustion of either
    # resource the same way.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        terminal, level, error = _eval(
            p.main, psi.reshape([2] * n), allowed, l, _Run(p.decl_map(), budget)
        )
    except RecursionError:
        raise BudgetExceededError(
            "call recursion exceeded the interpreter stack"
        ) from None
    finally:
        sys.setrecursionlimit(limit)
    if terminal == BOTTOM:
        psi = state.amplitudes
    return EvalOutcome(terminal, QuantumState(n, psi), level, error)


def run(p: Program, state: QuantumState, budget: int = DEFAULT_BUDGET) -> EvalOutcome:
    """Like eval_program, but raises BottomError on the error terminal."""
    outcome = eval_program(p, state, budget)
    if outcome.terminal == BOTTOM:
        raise BottomError(outcome.error or "program reached the error terminal")
    return outcome


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
