"""Concrete surface syntax for .foq files.

A one-pass tokenizer and a recursive-descent parser producing the syntax
module's AST.  The tokenizer is one regex `findall` over the text; the
parser reads token kinds and texts by position from two flat lists, and
offsets and line numbers are computed only for a `ParseError`.  The
surface grammar:

    program  := decl* "::" stmt+
    decl     := "decl" NAME ("[" NAME "]")? "(" NAME ")" "{" stmt+ "}" ","
    stmt     := "skip" ";"
              | qexpr "*=" op ";"
              | "if" bexpr "then" block "else" block
              | "qcase" sexpr "[" iexpr ("," iexpr)* "]" "of"
                    "{" BITS "->" stmt+ ("," BITS "->" stmt+)* "}"
              | "call" NAME ("[" iexpr "]")? "(" sexpr ")" ";"
              | "H" "(" qexpr ")" ";"
              | "CNOT" "(" qexpr "," qexpr ")" ";"
              | "SWAP" "(" qexpr "," qexpr ")" ";"
    block    := "{" stmt+ "}" | stmt+            (braces recommended)
    op       := "NOT" | "H"
              | "RY" "[" phase "]" "(" iexpr ")"
              | "PH" "[" phase "]" "(" iexpr ")"
    qexpr    := sexpr "[" iexpr "]"
    sexpr    := ("nil" | NAME) ("\\" "[" iexpr ("," iexpr)* "]")*
    iexpr    := iatom (("+" | "-") INT)*
    iatom    := INT | NAME | "size" "(" sexpr ")" | "(" iexpr ")"
    bexpr    := comparisons with "&&", "||", "!", parentheses
    phase    := arithmetic over INT, "pi", the bound variable, with
                "+", "-", "*", "/", and "2^" exponentials

Sugar expanded at parse time: `q *= H;` / `H(q);` become a rotation by pi/4
followed by NOT; `CNOT(a, b);` becomes a quantum case on `a` applying NOT to
`b` in the 1-branch; `SWAP(a, b);` is three CNOTs.  A quantum case over k > 1
control qubits with 2^k bitstring-labelled branches expands into nested
binary quantum cases.  A chain of one operator family (`s \\ [i] \\ [j]`,
`x + 1 - 2`, `a && b`, `pi / 2 * x`) is one node; a parenthesized chain of
the same family on its left is spliced in: `(x + 1) + 2` is `x + 1 + 2`.

Line comments start with `//`.

Leaf statements are hash-consed.  A leaf starts with a name, `nil`, `H`,
`CNOT` or `SWAP`, holds no statement and ends at its first `;`, so its
token texts up to that `;` decide its AST.  Within one `parse_program`,
each distinct leaf is parsed once, under the key of those texts; a
repeated leaf returns the same (frozen) object and moves past its `;`.
Only a leaf that parsed without error, ending exactly at that `;`, is
stored, and a repeat has the texts of a leaf that parsed, so an error is
always met by a fresh parse, with its usual text and span.  `call`, `if`
and `qcase` statements are built afresh every time.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

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
    Operator,
    OP_NOT,
    OP_PH,
    OP_RY,
    PhaseBin,
    PhaseConst,
    PhaseExpr,
    PhaseNeg,
    PhasePi,
    PhasePow2,
    PhaseVar,
    ProcDecl,
    Program,
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
    seq_all,
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    begin: int
    end: int
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(FoqError):
    """A lexical or syntax error with source location."""

    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


KEYWORDS = {
    "decl",
    "skip",
    "if",
    "then",
    "else",
    "qcase",
    "of",
    "call",
    "nil",
    "size",
    "pi",
    "NOT",
    "RY",
    "PH",
    "H",
    "CNOT",
    "SWAP",
}

# Whitespace and comments, skipped before the first token and after each.
_SKIP = r"\s*(?://[^\n]*\s*)*"
_LEADING_SKIP = re.compile(_SKIP)
# One token and the text skipped after it.  Every match starts where the
# previous one ended, so one `findall` reads the whole text.
_TOKEN_RE = re.compile(
    r"(\d+"  # integer
    r"|[A-Za-z_][A-Za-z0-9_]*"  # name or keyword
    r"|::|->|\*=|<=|>=|&&|\|\||[{}()\[\],;\\+\-*/^<>=!]"  # symbol
    r"|\S)"  # stray character
    + _SKIP
)
# Keywords and the symbols of _TOKEN_RE are their own kind.
_SYMBOLS = ("::", "->", "*=", "<=", ">=", "&&", "||", *"{}()[],;\\+-*/^<>=!")
_KINDS = {word: word for word in (*KEYWORDS, *_SYMBOLS)}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class Token(NamedTuple):
    kind: str  # "int", "name", keyword text, symbol text, or "eof"
    text: str
    begin: int  # offset into the source text


class _Source:
    """Source text read as flat lists of token kinds and texts.

    A keyword or symbol is its own kind.  Any other token is a name, an
    integer or a stray character, told apart by its first character (the
    regex's `\\d` and `str.isdecimal` accept the same Unicode digits).
    Token offsets, and the line-start table that turns them into spans,
    are built when the first `ParseError` needs a span, and kept.
    The last token is always `eof`.
    """

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self._lead = _LEADING_SKIP.match(text).end()
        self.texts = _TOKEN_RE.findall(text, self._lead)
        kind = _KINDS.get
        self.kinds = [
            kind(w) or ("name" if w[0] in _NAME_START else "int" if w[0].isdecimal() else "bad")
            for w in self.texts
        ]
        self.kinds.append("eof")
        self.texts.append("")
        self._begins: list[int] | None = None
        self._line_starts: list[int] | None = None
        if "bad" in self.kinds:
            i = self.kinds.index("bad")
            raise ParseError(self.span(i), f"unexpected character {self.texts[i]!r}")

    def begins(self) -> list[int]:
        """The offset of every token, `eof` (at the end of the text) included."""
        if self._begins is None:
            self._begins = [m.start() for m in _TOKEN_RE.finditer(self.text, self._lead)]
            self._begins.append(len(self.text))
        return self._begins

    def span(self, i: int) -> SourceSpan:
        """The span of token `i`."""
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        begin = self.begins()[i]
        line = bisect_right(self._line_starts, begin)
        column = begin - self._line_starts[line - 1] + 1
        return SourceSpan(self.filename, begin, begin + len(self.texts[i]), line, column)


def tokenize(text: str, filename: str) -> list[Token]:
    source = _Source(text, filename)
    return list(map(Token._make, zip(source.kinds, source.texts, source.begins())))


# The kinds of a leaf statement's first token: a gate on one or two qubits.
_LEAF_KINDS = frozenset(("name", "nil", "H", "CNOT", "SWAP"))

_PI_OVER_4 = PhaseBin(PhasePi(), (("/", PhaseConst(4)),))
_ADD, _MUL = ("+", "-"), ("*", "/")  # the operators of each precedence family


def hadamard_statement(q: QubitExpr) -> Statement:
    """H on a qubit: rotate by pi/4, then NOT."""
    return Seq(
        Assign(q, Operator(OP_RY, _PI_OVER_4, IntLit(0))),
        Assign(q, Operator(OP_NOT)),
    )


def cnot_statement(control: QubitExpr, target: QubitExpr) -> Statement:
    return QCase(control, Skip(), Assign(target, Operator(OP_NOT)))


def swap_statement(a: QubitExpr, b: QubitExpr) -> Statement:
    return Seq(cnot_statement(a, b), cnot_statement(b, a), cnot_statement(a, b))


def expand_multiqcase(
    controls: list[QubitExpr], branches: dict[str, Statement]
) -> Statement:
    """Nest a 2^k-branch quantum case into binary quantum cases.

    `branches` holds exactly the 2^k bitstrings of length k >= 1 as keys,
    as `parse_qcase` checks before calling.
    """
    if len(controls) == 1:
        return QCase(controls[0], branches["0"], branches["1"])
    rest = controls[1:]
    zero = expand_multiqcase(rest, {w[1:]: s for w, s in branches.items() if w[0] == "0"})
    one = expand_multiqcase(rest, {w[1:]: s for w, s in branches.items() if w[0] == "1"})
    return QCase(controls[0], zero, one)


class _Parser:
    def __init__(self, text: str, filename: str):
        self.source = _Source(text, filename)
        self.kinds = self.source.kinds
        self.texts = self.source.texts
        self.pos = 0
        # Every leaf statement parsed so far, keyed by its token texts.
        self.leaves: dict[tuple[str, ...], Statement] = {}

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """An error at token `pos`, by default the current one."""
        return ParseError(self.source.span(self.pos if pos is None else pos), message)

    def descend(self, rule):
        """rule(), which descends once per nesting level of the input; a
        descent past Python's recursion limit is a ParseError at the token
        it reached."""
        try:
            return rule()
        except RecursionError:
            raise self.error("input nests too deeply") from None

    # -- token helpers ----------------------------------------------------

    def peek(self) -> str:
        """The current token's kind.  A caller that has just peeked a kind
        other than `eof` moves past it with `self.pos += 1`."""
        return self.kinds[self.pos]

    def next(self) -> str:
        """The current token's text; moves past it unless it is `eof`."""
        pos = self.pos
        if self.kinds[pos] != "eof":
            self.pos = pos + 1
        return self.texts[pos]

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            found = self.texts[pos] or "end of input"
            raise self.error(f"expected {kind!r}, found {found!r}")
        if kind != "eof":
            self.pos = pos + 1
        return self.texts[pos]

    def accept(self, kind: str) -> bool:
        """Move past the current token if it is a `kind` (never `eof`)."""
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    # -- program structure -------------------------------------------------

    def parse_program(self) -> Program:
        decls: list[ProcDecl] = []
        while self.peek() == "decl":
            decls.append(self.parse_decl())
        self.expect("::")
        main = self.parse_stmts(stop={"eof"})
        self.expect("eof")
        return Program(tuple(decls), main)

    def parse_decl(self) -> ProcDecl:
        self.expect("decl")
        name = self.expect("name")
        param = None
        if self.accept("["):
            param = self.expect("name")
            self.expect("]")
        self.expect("(")
        set_param = self.expect("name")
        self.expect(")")
        self.expect("{")
        body = self.parse_stmts(stop={"}"})
        self.expect("}")
        self.expect(",")
        return ProcDecl(name, param, set_param, body)

    # -- statements ---------------------------------------------------------

    def parse_stmts(self, stop: set[str]) -> Statement:
        stmts = [self.parse_stmt(stop)]
        while self.peek() not in stop:
            stmts.append(self.parse_stmt(stop))
        return seq_all(stmts)

    def parse_block(self, stop: set[str]) -> Statement:
        if self.accept("{"):
            body = self.parse_stmts(stop={"}"})
            self.expect("}")
            return body
        return self.parse_stmts(stop)

    def parse_stmt(self, stop: set[str]) -> Statement:
        kind = self.peek()
        if kind in _LEAF_KINDS:
            # A leaf holds no statement and ends at its first ";", so the
            # same token texts always parse to the same AST: build it once.
            start = self.pos
            try:
                end = self.texts.index(";", start) + 1
            except ValueError:  # no ";" left: the parse fails as usual
                return self.parse_leaf(kind)
            key = tuple(self.texts[start:end])
            leaf = self.leaves.get(key)
            if leaf is None:
                leaf = self.parse_leaf(kind)
                if self.pos == end:
                    self.leaves[key] = leaf
            else:
                self.pos = end
            return leaf
        if kind == "skip":
            self.pos += 1
            self.expect(";")
            return Skip()
        if kind == "if":
            self.pos += 1
            cond = self.parse_bexpr()
            self.expect("then")
            then_branch = self.parse_block(stop={"else"})
            self.expect("else")
            else_branch = self.parse_block(stop)
            return If(cond, then_branch, else_branch)
        if kind == "qcase":
            return self.parse_qcase()
        if kind == "call":
            self.pos += 1
            name = self.expect("name")
            arg = None
            if self.accept("["):
                arg = self.parse_iexpr()
                self.expect("]")
            self.expect("(")
            s = self.parse_sexpr()
            self.expect(")")
            self.expect(";")
            return Call(name, arg, s)
        found = self.texts[self.pos] or "end of input"
        raise self.error(f"expected a statement, found {found!r}")

    def parse_leaf(self, kind: str) -> Statement:
        """A statement starting with a `_LEAF_KINDS` token, through its ";"."""
        if kind == "name" or kind == "nil":
            q = self.parse_qubit()
            self.expect("*=")
            result = self.parse_op_assignment(q)
            self.expect(";")
            return result
        if kind == "H":
            self.pos += 1
            self.expect("(")
            q = self.parse_qubit()
            self.expect(")")
            self.expect(";")
            return hadamard_statement(q)
        self.pos += 1
        self.expect("(")
        a = self.parse_qubit()
        self.expect(",")
        b = self.parse_qubit()
        self.expect(")")
        self.expect(";")
        return cnot_statement(a, b) if kind == "CNOT" else swap_statement(a, b)

    def parse_op_assignment(self, q: QubitExpr) -> Statement:
        pos = self.pos
        kind = self.peek()
        text = self.next()
        if kind == "NOT":
            return Assign(q, Operator(OP_NOT))
        if kind == "H":
            return hadamard_statement(q)
        if kind == "RY" or kind == "PH":
            self.expect("[")
            phase = self.parse_phase()
            self.expect("]")
            self.expect("(")
            arg = self.parse_iexpr()
            self.expect(")")
            return Assign(q, Operator(OP_RY if kind == "RY" else OP_PH, phase, arg))
        raise self.error(f"expected an operator, found {text!r}", pos)

    def parse_qcase(self) -> Statement:
        self.expect("qcase")
        start = self.pos
        s = self.parse_sexpr()
        self.expect("[")
        indices = [self.parse_iexpr()]
        while self.accept(","):
            indices.append(self.parse_iexpr())
        self.expect("]")
        self.expect("of")
        self.expect("{")
        k = len(indices)
        branches: dict[str, Statement] = {}
        while True:
            label_pos = self.pos
            label = self.expect("int")
            if len(label) != k or set(label) - {"0", "1"}:
                raise self.error(
                    f"quantum case over {k} qubit(s) needs length-{k} bitstring labels, got {label!r}",
                    label_pos,
                )
            if label in branches:
                raise self.error(f"duplicate quantum case label {label!r}", label_pos)
            self.expect("->")
            branches[label] = self.parse_stmts(stop={",", "}"})
            if not self.accept(","):
                break
        self.expect("}")
        if len(branches) != 1 << k:
            raise self.error(
                f"quantum case over {k} qubit(s) needs {1 << k} branches, got {len(branches)}",
                start,
            )
        controls = [QubitExpr(s, i) for i in indices]
        return expand_multiqcase(controls, branches)

    # -- expressions ----------------------------------------------------------

    def parse_sexpr(self) -> SetExpr:
        kind = self.peek()
        if kind == "name":
            base: SetExpr = SetVar(self.next())
        elif kind == "nil":
            self.pos += 1
            base = SetNil()
        else:
            raise self.error(f"expected a sorted set, found {self.texts[self.pos]!r}")
        if self.peek() != "\\":
            return base
        indices = []
        while self.accept("\\"):
            self.expect("[")
            indices.append(self.parse_iexpr())
            while self.accept(","):
                indices.append(self.parse_iexpr())
            self.expect("]")
        return SetRemove(base, tuple(indices))

    def parse_qubit(self) -> QubitExpr:
        s = self.parse_sexpr()
        self.expect("[")
        index = self.parse_iexpr()
        self.expect("]")
        return QubitExpr(s, index)

    def parse_iexpr(self) -> IntExpr:
        base = self.parse_iatom()
        if self.peek() not in _ADD:
            return base
        base, steps = (base.base, list(base.steps)) if isinstance(base, IntOffset) else (base, [])
        while self.peek() in _ADD:
            steps.append((self.next(), int(self.expect("int"))))
        return IntOffset(base, tuple(steps))

    def parse_iatom(self) -> IntExpr:
        kind = self.peek()
        if kind == "int":
            return IntLit(int(self.next()))
        if kind == "name":
            return IntVar(self.next())
        if kind == "size":
            self.pos += 1
            self.expect("(")
            s = self.parse_sexpr()
            self.expect(")")
            return SetSize(s)
        if kind == "(":
            self.pos += 1
            expr = self.parse_iexpr()
            self.expect(")")
            return expr
        raise self.error(f"expected an integer expression, found {self.texts[self.pos]!r}")

    def parse_bexpr(self) -> BoolExpr:
        e = self.parse_band()
        return self.bool_chain(e, "||", self.parse_band) if self.peek() == "||" else e

    def parse_band(self) -> BoolExpr:
        e = self.parse_bunary()
        return self.bool_chain(e, "&&", self.parse_bunary) if self.peek() == "&&" else e

    def bool_chain(self, head: BoolExpr, op: str, parse_operand) -> BoolBin:
        """The chain `head op ...`, its first `op` being the current token."""
        operands = list(head.operands) if isinstance(head, BoolBin) and head.op == op else [head]
        while self.accept(op):
            operands.append(parse_operand())
        return BoolBin(op, tuple(operands))

    def parse_bunary(self) -> BoolExpr:
        kind = self.peek()
        if kind == "!":
            self.pos += 1
            return BoolNot(self.parse_bunary())
        if kind == "(":
            # Either a parenthesized boolean or a parenthesized integer
            # starting a comparison; try the boolean reading first.
            saved = self.pos
            self.pos += 1
            try:
                inner = self.parse_bexpr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        return self.parse_cmp()

    def parse_cmp(self) -> BoolExpr:
        left = self.parse_iexpr()
        kind = self.peek()
        if kind == ">" or kind == ">=" or kind == "=":
            self.pos += 1
            return BoolCmp(kind, left, self.parse_iexpr())
        if kind == "<" or kind == "<=":
            # Sugar: a < b is b > a, a <= b is b >= a.
            self.pos += 1
            right = self.parse_iexpr()
            return BoolCmp(">" if kind == "<" else ">=", right, left)
        raise self.error(f"expected a comparison operator, found {self.texts[self.pos]!r}")

    # -- phase expressions ------------------------------------------------------

    def parse_phase(self) -> PhaseExpr:
        e = self.parse_phase_term()
        return self.phase_chain(e, _ADD, self.parse_phase_term) if self.peek() in _ADD else e

    def parse_phase_term(self) -> PhaseExpr:
        e = self.parse_phase_factor()
        return self.phase_chain(e, _MUL, self.parse_phase_factor) if self.peek() in _MUL else e

    def phase_chain(self, head: PhaseExpr, ops: tuple[str, str], parse_operand) -> PhaseBin:
        """The chain `head op ...` over `ops`, the current token being one."""
        steps = []
        if isinstance(head, PhaseBin) and head.steps[0][0] in ops:
            head, steps = head.first, list(head.steps)
        while self.peek() in ops:
            steps.append((self.next(), parse_operand()))
        return PhaseBin(head, tuple(steps))

    def parse_phase_factor(self) -> PhaseExpr:
        kind = self.peek()
        if kind == "-":
            self.pos += 1
            return PhaseNeg(self.parse_phase_factor())
        if kind == "int":
            pos = self.pos
            text = self.next()
            if self.peek() == "^":
                if text != "2":
                    raise self.error("only base-2 exponentials are supported", pos)
                self.pos += 1
                return PhasePow2(self.parse_phase_factor())
            return PhaseConst(int(text))
        if kind == "pi":
            self.pos += 1
            return PhasePi()
        if kind == "name":
            self.pos += 1
            return PhaseVar()
        if kind == "(":
            self.pos += 1
            expr = self.parse_phase()
            self.expect(")")
            return expr
        raise self.error(f"expected a phase expression, found {self.texts[self.pos]!r}")


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse .foq source text into a Program; raises ParseError."""
    parser = _Parser(text, filename)
    return parser.descend(parser.parse_program)


def parse_phase_text(text: str, filename: str = "<phase>") -> PhaseExpr:
    """Parse a standalone phase expression (used by the algebra term reader)."""
    parser = _Parser(text, filename)
    expr = parser.descend(parser.parse_phase)
    parser.expect("eof")
    return expr
