"""Abstract syntax for FOQ programs.

FOQ is a first-order quantum programming language: a program is a list of
procedure declarations over a sorted set of qubits, followed by a main
statement.  This module defines the expression and statement trees, the
phase-function DSL used by the rotation and phase operators, plus the basic
operations on them: operator matrix evaluation and a pretty printer whose
output re-parses to a structurally identical program.  The well-formedness
rules live with the tractability check in `analysis`.

All node types are immutable dataclasses, safe to share freely.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass


class FoqError(Exception):
    """Base class for all toolchain errors."""


class PhaseEvalError(FoqError):
    """Raised when a phase expression cannot be evaluated (e.g. x/0)."""


# ---------------------------------------------------------------------------
# Phase expressions: a closed DSL over one bound integer variable.
# ---------------------------------------------------------------------------


class PhaseExpr:
    """Base class for phase-function expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class PhaseConst(PhaseExpr):
    value: int


@dataclass(frozen=True)
class PhasePi(PhaseExpr):
    pass


@dataclass(frozen=True)
class PhaseVar(PhaseExpr):
    """The single bound variable of the phase function."""


@dataclass(frozen=True)
class PhaseBin(PhaseExpr):
    """`first op x op y ...`, left-associative, all ops "+"/"-" or all "*"/"/"."""

    first: PhaseExpr  # never a PhaseBin of the same family
    steps: tuple[tuple[str, PhaseExpr], ...]  # (op, operand) pairs, one or more


@dataclass(frozen=True)
class PhasePow2(PhaseExpr):
    """2 raised to a sub-expression."""

    exponent: PhaseExpr


@dataclass(frozen=True)
class PhaseNeg(PhaseExpr):
    inner: PhaseExpr


TWO_PI = 2.0 * math.pi

_PHASE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval_phase_raw(f: PhaseExpr, n: int) -> float:
    if isinstance(f, PhaseConst):
        return float(f.value)
    if isinstance(f, PhasePi):
        return math.pi
    if isinstance(f, PhaseVar):
        return float(n)
    if isinstance(f, PhaseBin):
        # Each denominator is checked before anything to its left is evaluated:
        # the "/" operands right to left, then the rest left to right.
        denoms = []
        for op, x in reversed(f.steps):
            if op == "/":
                denoms.append(_eval_phase_raw(x, n))
                if denoms[-1] == 0.0:
                    raise PhaseEvalError(f"division by zero in phase expression at n={n}")
        value = _eval_phase_raw(f.first, n)
        for op, x in f.steps:
            value = value / denoms.pop() if op == "/" else _PHASE_OPS[op](value, _eval_phase_raw(x, n))
        return value
    if isinstance(f, PhasePow2):
        return 2.0 ** _eval_phase_raw(f.exponent, n)
    if isinstance(f, PhaseNeg):
        return -_eval_phase_raw(f.inner, n)
    raise TypeError(f"not a phase expression: {f!r}")


def eval_phase(f: PhaseExpr, n: int) -> float:
    """Evaluate a phase function at integer n, reduced into [0, 2*pi)."""
    try:
        value = _eval_phase_raw(f, n) % TWO_PI
    except OverflowError:
        raise PhaseEvalError(f"phase expression overflows at n={n}") from None
    if not math.isfinite(value):
        raise PhaseEvalError(f"phase expression is not finite at n={n}")
    # The modulo can land exactly on 2*pi through rounding; normalize.
    if value >= TWO_PI:
        value = 0.0
    return value


def phase_neg(f: PhaseExpr) -> PhaseExpr:
    """Syntactic negation of a phase function, collapsing double negation."""
    if isinstance(f, PhaseNeg):
        return f.inner
    return PhaseNeg(f)


# ---------------------------------------------------------------------------
# Classical expressions: integers, booleans, sorted sets, qubits.
# ---------------------------------------------------------------------------


class IntExpr:
    __slots__ = ()


@dataclass(frozen=True)
class IntLit(IntExpr):
    value: int


@dataclass(frozen=True)
class IntVar(IntExpr):
    name: str


@dataclass(frozen=True)
class IntOffset(IntExpr):
    """`base op k op k ...`, where the grammar restricts each k to a literal;
    each op keeps its sign as written, so `x - 0` prints back."""

    base: IntExpr  # never an IntOffset
    steps: tuple[tuple[str, int], ...]  # ("+" or "-", k) pairs, one or more


class SetExpr:
    __slots__ = ()


@dataclass(frozen=True)
class SetSize(IntExpr):
    """size(s): the number of elements of a sorted set."""

    set_expr: SetExpr


@dataclass(frozen=True)
class SetNil(SetExpr):
    pass


@dataclass(frozen=True)
class SetVar(SetExpr):
    name: str


@dataclass(frozen=True)
class SetRemove(SetExpr):
    """base with the elements at positions `indices` removed, one at a time:
    each index is evaluated against the list the removals before it left,
    so `p \\ [1, size(p)]` drops the first and last elements of p."""

    base: SetNil | SetVar  # `p \\ [1] \\ [2]` reads as `p \\ [1, 2]`
    indices: tuple[IntExpr, ...]  # one or more


class BoolExpr:
    __slots__ = ()


@dataclass(frozen=True)
class BoolCmp(BoolExpr):
    op: str  # one of ">", ">=", "="
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True)
class BoolBin(BoolExpr):
    """`a op b op c ...`, left-associative; `a` is never a BoolBin of this op."""

    op: str  # "&&" or "||"
    operands: tuple[BoolExpr, ...]  # two or more


@dataclass(frozen=True)
class BoolNot(BoolExpr):
    inner: BoolExpr


@dataclass(frozen=True)
class QubitExpr:
    """s[i]: one qubit of a sorted set."""

    set_expr: SetExpr
    index: IntExpr


# ---------------------------------------------------------------------------
# Operators and statements.
# ---------------------------------------------------------------------------

OP_NOT = "NOT"
OP_RY = "RY"
OP_PH = "PH"


@dataclass(frozen=True)
class Operator:
    """A single-qubit operator: NOT, RY[f](i), or PH[f](i)."""

    kind: str
    phase: PhaseExpr | None = None
    arg: IntExpr | None = None

    def __post_init__(self) -> None:
        if self.kind == OP_NOT:
            if self.phase is not None or self.arg is not None:
                raise ValueError("NOT carries neither phase nor argument")
        elif self.kind in (OP_RY, OP_PH):
            if self.phase is None or self.arg is None:
                raise ValueError(f"{self.kind} requires a phase and an argument")
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")


class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Statement):
    pass


@dataclass(frozen=True)
class Assign(Statement):
    qubit: QubitExpr
    op: Operator


@dataclass(frozen=True, init=False)
class Seq(Statement):
    """Two or more statements in order.  The constructor splices nested
    sequences, so sequences of the same statements are equal."""

    items: tuple[Statement, ...]

    def __init__(self, *stmts: Statement):
        items = tuple(item for stmt in stmts for item in seq_items(stmt))
        if len(items) < 2:
            raise ValueError("a sequence holds at least two statements")
        object.__setattr__(self, "items", items)

    # The binary reading Seq(first, second), for outside callers; `second`
    # builds a new Seq on every read.
    @property
    def first(self) -> Statement:
        return self.items[0]

    @property
    def second(self) -> Statement:
        return self.items[1] if len(self.items) == 2 else Seq(*self.items[1:])


@dataclass(frozen=True)
class If(Statement):
    cond: BoolExpr
    then_branch: Statement
    else_branch: Statement


@dataclass(frozen=True)
class QCase(Statement):
    qubit: QubitExpr
    if_zero: Statement
    if_one: Statement


@dataclass(frozen=True)
class Call(Statement):
    proc: str
    arg: IntExpr | None
    set_expr: SetExpr


@dataclass(frozen=True)
class ProcDecl:
    name: str
    param: str | None  # optional classical integer parameter
    set_param: str  # sorted-set parameter
    body: Statement


@dataclass(frozen=True)
class Program:
    decls: tuple[ProcDecl, ...]
    main: Statement

    def decl_map(self) -> dict[str, ProcDecl]:
        return {d.name: d for d in self.decls}


def seq_all(stmts: list[Statement]) -> Statement:
    """The sequence of a statement list: skip when empty, the statement
    itself when alone, otherwise a flat Seq."""
    if not stmts:
        return Skip()
    if len(stmts) == 1:
        return stmts[0]
    return Seq(*stmts)


def seq_items(stmt: Statement) -> tuple[Statement, ...]:
    """The items of a sequence, or the statement alone."""
    if isinstance(stmt, Seq):
        return stmt.items
    return (stmt,)


# ---------------------------------------------------------------------------
# Operator matrices.
# ---------------------------------------------------------------------------


def gate_entries(op: Operator, n: int = 0) -> tuple[complex, complex, complex, complex]:
    """The 2x2 unitary of an operator evaluated at integer argument n, as
    its entries (u00, u01, u10, u11)."""
    if op.kind == OP_NOT:
        return 0j, 1 + 0j, 1 + 0j, 0j
    theta = eval_phase(op.phase, n)
    if op.kind == OP_RY:
        c, s = math.cos(theta), math.sin(theta)
        return complex(c), complex(-s), complex(s), complex(c)
    if op.kind == OP_PH:
        return 1 + 0j, 0j, 0j, cmath.exp(1j * theta)
    raise ValueError(f"unknown operator kind {op.kind!r}")


def invert_operator(op: Operator) -> Operator:
    """The adjoint of an operator: NOT is self-inverse, RY/PH negate phases."""
    if op.kind == OP_NOT:
        return op
    return Operator(op.kind, phase_neg(op.phase), op.arg)


# ---------------------------------------------------------------------------
# Pretty printer.  The output re-parses to a structurally identical program.
# ---------------------------------------------------------------------------

_PHASE_PREC_ADD = 1
_PHASE_PREC_MUL = 2
_PHASE_PREC_ATOM = 3


def _fmt_phase(f: PhaseExpr, prec: int) -> str:
    if isinstance(f, PhaseConst):
        text, mine = str(f.value), _PHASE_PREC_ATOM
    elif isinstance(f, PhasePi):
        text, mine = "pi", _PHASE_PREC_ATOM
    elif isinstance(f, PhaseVar):
        text, mine = "x", _PHASE_PREC_ATOM
    elif isinstance(f, PhaseBin):
        # Both families are left-associative: a later operand at the
        # chain's own precedence is parenthesized.
        mine = _PHASE_PREC_MUL if f.steps[0][0] in ("*", "/") else _PHASE_PREC_ADD
        text = _fmt_phase(f.first, mine)
        for op, x in f.steps:
            text += f" {op} {_fmt_phase(x, mine + 1)}"
    elif isinstance(f, PhasePow2):
        text, mine = f"2^{_fmt_phase(f.exponent, _PHASE_PREC_ATOM)}", _PHASE_PREC_ATOM
    elif isinstance(f, PhaseNeg):
        text, mine = f"-{_fmt_phase(f.inner, _PHASE_PREC_ATOM)}", _PHASE_PREC_MUL
    else:
        raise TypeError(f"not a phase expression: {f!r}")
    return f"({text})" if mine < prec else text


def format_phase(f: PhaseExpr) -> str:
    return _fmt_phase(f, _PHASE_PREC_ADD)


def format_int(e: IntExpr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, IntVar):
        return e.name
    if isinstance(e, IntOffset):
        return format_int(e.base) + "".join(f" {op} {k}" for op, k in e.steps)
    if isinstance(e, SetSize):
        return f"size({format_set(e.set_expr)})"
    raise TypeError(f"not an integer expression: {e!r}")


def format_set(s: SetExpr) -> str:
    if isinstance(s, SetNil):
        return "nil"
    if isinstance(s, SetVar):
        return s.name
    if isinstance(s, SetRemove):
        return f"{format_set(s.base)} \\ [{', '.join(map(format_int, s.indices))}]"
    raise TypeError(f"not a set expression: {s!r}")


def format_bool(b: BoolExpr) -> str:
    if isinstance(b, BoolCmp):
        return f"{format_int(b.left)} {b.op} {format_int(b.right)}"
    if isinstance(b, BoolBin):
        # One bracket pair per chain, (a && b && c), so a long chain prints
        # text the parser reads back without nesting.
        return "(" + f" {b.op} ".join(map(format_bool, b.operands)) + ")"
    if isinstance(b, BoolNot):
        return f"!({format_bool(b.inner)})"
    raise TypeError(f"not a boolean expression: {b!r}")


def format_qubit(q: QubitExpr) -> str:
    return f"{format_set(q.set_expr)}[{format_int(q.index)}]"


def format_operator(op: Operator) -> str:
    if op.kind == OP_NOT:
        return "NOT"
    return f"{op.kind}[{format_phase(op.phase)}]({format_int(op.arg)})"


def _print_stmt(stmt: Statement, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, Skip):
        out.append(f"{pad}skip;")
    elif isinstance(stmt, Assign):
        out.append(f"{pad}{format_qubit(stmt.qubit)} *= {format_operator(stmt.op)};")
    elif isinstance(stmt, Seq):
        for item in stmt.items:
            _print_stmt(item, indent, out)
    elif isinstance(stmt, If):
        out.append(f"{pad}if {format_bool(stmt.cond)} then {{")
        _print_stmt(stmt.then_branch, indent + 1, out)
        out.append(f"{pad}}} else {{")
        _print_stmt(stmt.else_branch, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, QCase):
        out.append(f"{pad}qcase {format_qubit(stmt.qubit)} of {{")
        out.append(f"{pad}  0 ->")
        _print_stmt(stmt.if_zero, indent + 2, out)
        out.append(f"{pad}  ,")
        out.append(f"{pad}  1 ->")
        _print_stmt(stmt.if_one, indent + 2, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, Call):
        arg = f"[{format_int(stmt.arg)}]" if stmt.arg is not None else ""
        out.append(f"{pad}call {stmt.proc}{arg}({format_set(stmt.set_expr)});")
    else:
        raise TypeError(f"not a statement: {stmt!r}")


def pretty_print(p: Program) -> str:
    """Render a program in the concrete surface syntax."""
    out: list[str] = []
    for d in p.decls:
        param = f"[{d.param}]" if d.param is not None else ""
        out.append(f"decl {d.name}{param}({d.set_param}) {{")
        _print_stmt(d.body, 1, out)
        out.append("},")
    out.append("::")
    _print_stmt(p.main, 0, out)
    return "\n".join(out) + "\n"
