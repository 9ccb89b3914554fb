"""A function algebra over statevectors and its translation into programs.

Terms denote length-preserving transformations of n-qubit states:

  - ``i``            identity
  - ``(ph THETA)``   phase THETA on qubit 1
  - ``(rot THETA)``  rotation by THETA on qubit 1
  - ``not``          X on qubit 1
  - ``swap``         swap qubits 1 and 2 (identity when n <= 1)
  - ``(comp F G)``   composition F(G(psi)); n-ary comp nests to the right
  - ``(branch F G)`` apply F under qubit 1 = 0 and G under qubit 1 = 1 to
                     the remaining qubits (identity when n <= 1)
  - ``(kqrec :k K :t T :f F :g G :h H :sel (W rec|i)...)``
                     recursion: when n <= T apply F; otherwise apply H,
                     then for each length-K bitstring W with selector
                     ``rec`` recurse on the last n-K qubits under the
                     first K qubits being W, then apply G.

Every term translates (`to_pfoq`) into a program in the tractable
fragment computing the same transformation; `eval_algebra` is the direct
reference evaluator the translation is tested against.  `phi_encode`
builds the padded basis-state layout that supplies polynomial workspace
to algebra functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .circuit import _LazyNumpy
from .interpreter import guard_errors
from .parser import parse_phase_text, swap_statement
from .syntax import (
    Assign,
    BoolCmp,
    Call,
    FoqError,
    If,
    IntLit,
    Operator,
    OP_NOT,
    OP_PH,
    OP_RY,
    PhaseExpr,
    ProcDecl,
    Program,
    QCase,
    QubitExpr,
    Seq,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
    Statement,
    eval_phase,
    format_phase,
)

np = _LazyNumpy(globals())


class AlgebraError(FoqError):
    """Malformed algebra term or term text."""


class AlgebraTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Identity(AlgebraTerm):
    pass


@dataclass(frozen=True)
class PhaseGate(AlgebraTerm):
    theta: PhaseExpr


@dataclass(frozen=True)
class RotGate(AlgebraTerm):
    theta: PhaseExpr


@dataclass(frozen=True)
class NotGate(AlgebraTerm):
    pass


@dataclass(frozen=True)
class SwapGate(AlgebraTerm):
    pass


@dataclass(frozen=True)
class Comp(AlgebraTerm):
    outer: AlgebraTerm
    inner: AlgebraTerm


@dataclass(frozen=True)
class Branch(AlgebraTerm):
    if_zero: AlgebraTerm
    if_one: AlgebraTerm


@dataclass(frozen=True)
class KQRec(AlgebraTerm):
    k: int
    t: int
    base: AlgebraTerm  # applied when the state has at most t qubits
    after: AlgebraTerm  # applied last in the recursive case
    before: AlgebraTerm  # applied first in the recursive case
    selection: tuple[tuple[str, bool], ...]  # bitstring -> recurse?

    def __post_init__(self) -> None:
        if self.k < 1:
            raise AlgebraError("kqrec needs k >= 1")
        if self.t < self.k - 1:
            raise AlgebraError(f"kqrec needs t >= k - 1 (got k={self.k}, t={self.t})")
        # Checked without listing the 2^k bitstrings, and 2^k is built only
        # once it has the label count's bit length, so a large k fails at once.
        labels = [w for w, _ in self.selection]
        if (
            len(labels).bit_length() != self.k + 1
            or len(labels) != 1 << self.k
            or len(set(labels)) != len(labels)
            or any(len(w) != self.k or set(w) - {"0", "1"} for w in labels)
        ):
            count = 1 << self.k if self.k <= 64 else f"2^{self.k}"
            raise AlgebraError(
                f"kqrec selection must name each of the {count} "
                f"length-{self.k} bitstrings exactly once"
            )
        # Not a field, so equality, hashing and repr do not see it.
        object.__setattr__(self, "_selects", dict(self.selection))

    def selects(self, w: str) -> bool:
        return self._selects[w]


# ---------------------------------------------------------------------------
# Reference evaluator.
# ---------------------------------------------------------------------------


def _qubit_count(psi: np.ndarray) -> int:
    dim = psi.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise AlgebraError(f"state length {dim} is not a power of two")
    return n


def eval_algebra(term: AlgebraTerm, psi) -> np.ndarray:
    """Apply a term to a statevector (any number of qubits, including 0)."""
    psi = np.asarray(getattr(psi, "amplitudes", psi), dtype=complex).reshape(-1)
    n = _qubit_count(psi)
    if isinstance(term, Identity):
        return psi.copy()
    if isinstance(term, (PhaseGate, RotGate, NotGate)):
        if n == 0:
            return psi.copy()
        halves = psi.reshape(2, -1)
        if isinstance(term, NotGate):
            return np.concatenate([halves[1], halves[0]])
        theta = eval_phase(term.theta, 0)
        if isinstance(term, PhaseGate):
            return np.concatenate([halves[0], np.exp(1j * theta) * halves[1]])
        c, s = math.cos(theta), math.sin(theta)
        return np.concatenate([c * halves[0] - s * halves[1], s * halves[0] + c * halves[1]])
    if isinstance(term, SwapGate):
        if n <= 1:
            return psi.copy()
        return psi.reshape(2, 2, -1).transpose(1, 0, 2).reshape(-1)
    if isinstance(term, Comp):
        return eval_algebra(term.outer, eval_algebra(term.inner, psi))
    if isinstance(term, Branch):
        if n <= 1:
            return psi.copy()
        halves = psi.reshape(2, -1)
        return np.concatenate(
            [eval_algebra(term.if_zero, halves[0]), eval_algebra(term.if_one, halves[1])]
        )
    if isinstance(term, KQRec):
        if n <= term.t:
            return eval_algebra(term.base, psi)
        out = eval_algebra(term.before, psi)
        blocks = out.reshape(1 << term.k, -1)
        pieces = []
        for j in range(1 << term.k):
            w = format(j, f"0{term.k}b")
            block = blocks[j]
            pieces.append(eval_algebra(term, block) if term.selects(w) else block.copy())
        return eval_algebra(term.after, np.concatenate(pieces))
    raise TypeError(f"not an algebra term: {term!r}")


# ---------------------------------------------------------------------------
# Translation into the tractable program fragment.
# ---------------------------------------------------------------------------

_Q = SetVar("q")


def _q_at(i: int) -> QubitExpr:
    return QubitExpr(_Q, IntLit(i))


def _q_minus_first(k: int):
    return SetRemove(_Q, (IntLit(1),) * k) if k else _Q


@dataclass
class _Builder:
    decls: list[ProcDecl] = field(default_factory=list)
    counter: int = 0

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"{hint}{self.counter}"

    def wrap(self, hint: str, stmt: Statement) -> str:
        name = self.fresh(hint)
        self.decls.append(ProcDecl(name, None, "q", stmt))
        return name

    def translate(self, term: AlgebraTerm) -> Statement:
        if isinstance(term, Identity):
            return Skip()
        if isinstance(term, PhaseGate):
            return Assign(_q_at(1), Operator(OP_PH, term.theta, IntLit(0)))
        if isinstance(term, RotGate):
            return Assign(_q_at(1), Operator(OP_RY, term.theta, IntLit(0)))
        if isinstance(term, NotGate):
            return Assign(_q_at(1), Operator(OP_NOT))
        if isinstance(term, SwapGate):
            return swap_statement(_q_at(1), _q_at(2))
        if isinstance(term, Comp):
            inner = self.translate(term.inner)
            outer = self.translate(term.outer)
            return Seq(inner, outer)
        if isinstance(term, Branch):
            zero = self.wrap("br", self.translate(term.if_zero))
            one = self.wrap("br", self.translate(term.if_one))
            rest = _q_minus_first(1)
            return QCase(_q_at(1), Call(zero, None, rest), Call(one, None, rest))
        if isinstance(term, KQRec):
            base = self.wrap("base", self.translate(term.base))
            after = self.wrap("post", self.translate(term.after))
            before = self.wrap("pre", self.translate(term.before))
            rec = self.fresh("rec")
            case = self._selection_qcase(term, rec, controls=[_q_at(i + 1) for i in range(term.k)])
            recursive = Seq(Call(before, None, _Q), case, Call(after, None, _Q))
            body = If(
                BoolCmp(">", SetSize(_Q), IntLit(term.t)),
                recursive,
                Call(base, None, _Q),
            )
            self.decls.append(ProcDecl(rec, None, "q", body))
            return Call(rec, None, _Q)
        raise TypeError(f"not an algebra term: {term!r}")

    def _selection_qcase(
        self, term: KQRec, rec: str, controls: list[QubitExpr]
    ) -> Statement:
        def build(prefix: str, remaining: list[QubitExpr]) -> Statement:
            if not remaining:
                if term.selects(prefix):
                    return Call(rec, None, _q_minus_first(term.k))
                return Skip()
            head, *rest = remaining
            return QCase(head, build(prefix + "0", rest), build(prefix + "1", rest))

        return build("", controls)


def to_pfoq(term: AlgebraTerm) -> Program:
    """A bounds-guarded program computing the term's transformation.

    The program is in the tractable fragment by construction: recursion only
    happens through the generated `rec` procedures, which shrink their set
    argument and make at most one recursive call per control-flow path.
    """
    builder = _Builder()
    main = builder.translate(term)
    return guard_errors(Program(tuple(builder.decls), main))


# ---------------------------------------------------------------------------
# Padded input encoding.
# ---------------------------------------------------------------------------


def phi_encode(x: str, coeffs: list[int]) -> str:
    """The padded basis bitstring 0^l 1 0^P 1 0^{11P+6} 1 x.

    l is the length of the payload bitstring x and P = sum_i coeffs[i] * l^i
    is the polynomial workspace budget; total length 2l + 12P + 9.  The
    result is a bitstring rather than a dense statevector because the
    padded register is usually far too wide to materialize.
    """
    if set(x) - {"0", "1"}:
        raise AlgebraError(f"payload must be a bitstring, got {x!r}")
    l = len(x)
    p = sum(c * l**i for i, c in enumerate(coeffs))
    if p < 0:
        raise AlgebraError(f"workspace polynomial is negative at l={l}")
    return "0" * l + "1" + "0" * p + "1" + "0" * (11 * p + 6) + "1" + x


# ---------------------------------------------------------------------------
# Term text: s-expressions.
# ---------------------------------------------------------------------------

def _tokenize_term(text: str) -> list[str]:
    return re.findall(r"[()]|[^\s()]+", text)


def _read_sexpr(tokens: list[str], pos: int):
    # Called only while tokens remain: `parse_term` refuses an empty list.
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_sexpr(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise AlgebraError("unbalanced parentheses in term text")
        return items, pos + 1
    if tok == ")":
        raise AlgebraError("unexpected ')' in term text")
    return tok, pos + 1


def _term_from_sexpr(node) -> AlgebraTerm:
    if isinstance(node, str):
        if node == "i":
            return Identity()
        if node == "not":
            return NotGate()
        if node == "swap":
            return SwapGate()
        raise AlgebraError(f"unknown algebra atom {node!r}")
    if not node:
        raise AlgebraError("empty term")
    head = node[0]
    if not isinstance(head, str):
        raise AlgebraError("term head must be an atom")
    args = node[1:]
    if head in ("ph", "rot"):
        if not args or not all(isinstance(a, str) for a in args):
            raise AlgebraError(f"{head} takes a phase expression")
        theta = parse_phase_text(" ".join(args))
        return PhaseGate(theta) if head == "ph" else RotGate(theta)
    if head == "comp":
        if len(args) < 2:
            raise AlgebraError("comp takes at least two terms")
        terms = [_term_from_sexpr(a) for a in args]
        result = terms[-1]
        for outer in reversed(terms[:-1]):
            result = Comp(outer, result)
        return result
    if head == "branch":
        if len(args) != 2:
            raise AlgebraError("branch takes exactly two terms")
        return Branch(_term_from_sexpr(args[0]), _term_from_sexpr(args[1]))
    if head == "kqrec":
        return _kqrec_from_sexpr(args)
    raise AlgebraError(f"unknown algebra form {head!r}")


def _kqrec_from_sexpr(args: list) -> KQRec:
    fields: dict[str, object] = {}
    selection: list[tuple[str, bool]] = []
    pos = 0
    while pos < len(args):
        key = args[pos]
        if not isinstance(key, str) or not key.startswith(":"):
            raise AlgebraError(f"expected a :keyword in kqrec, got {key!r}")
        if key == ":sel":
            for entry in args[pos + 1 :]:
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or entry[1] not in ("rec", "i")
                ):
                    raise AlgebraError(
                        "each :sel entry must be (BITSTRING rec) or (BITSTRING i)"
                    )
                selection.append((entry[0], entry[1] == "rec"))
            pos = len(args)
            break
        if pos + 1 >= len(args):
            raise AlgebraError(f"kqrec keyword {key} is missing its value")
        value = args[pos + 1]
        if key in (":k", ":t"):
            if not isinstance(value, str) or not value.isdigit():
                raise AlgebraError(f"kqrec {key} takes a natural number")
            fields[key] = int(value)
        elif key in (":f", ":g", ":h"):
            fields[key] = _term_from_sexpr(value)
        else:
            raise AlgebraError(f"unknown kqrec keyword {key}")
        pos += 2
    for required in (":k", ":t", ":f", ":g", ":h"):
        if required not in fields:
            raise AlgebraError(f"kqrec is missing {required}")
    return KQRec(
        k=fields[":k"],
        t=fields[":t"],
        base=fields[":f"],
        after=fields[":g"],
        before=fields[":h"],
        selection=tuple(selection),
    )


def parse_term(text: str) -> AlgebraTerm:
    """Parse the s-expression term syntax, e.g. ``(comp (branch not i) swap)``."""
    tokens = _tokenize_term(text)
    if not tokens:
        raise AlgebraError("empty term text")
    try:
        # Both readers descend once per nesting level of the term.
        node, pos = _read_sexpr(tokens, 0)
        if pos != len(tokens):
            raise AlgebraError("trailing text after the term")
        return _term_from_sexpr(node)
    except RecursionError:
        raise AlgebraError("term text nests too deeply") from None


def format_term(term: AlgebraTerm) -> str:
    if isinstance(term, Identity):
        return "i"
    if isinstance(term, NotGate):
        return "not"
    if isinstance(term, SwapGate):
        return "swap"
    if isinstance(term, PhaseGate):
        return f"(ph {format_phase(term.theta)})"
    if isinstance(term, RotGate):
        return f"(rot {format_phase(term.theta)})"
    if isinstance(term, Comp):
        return f"(comp {format_term(term.outer)} {format_term(term.inner)})"
    if isinstance(term, Branch):
        return f"(branch {format_term(term.if_zero)} {format_term(term.if_one)})"
    if isinstance(term, KQRec):
        sel = " ".join(
            f"({w} {'rec' if flag else 'i'})" for w, flag in term.selection
        )
        return (
            f"(kqrec :k {term.k} :t {term.t} :f {format_term(term.base)} "
            f":g {format_term(term.after)} :h {format_term(term.before)} :sel {sel})"
        )
    raise TypeError(f"not an algebra term: {term!r}")
