"""Concrete surface syntax for .foq files.

A hand-written lexer and recursive-descent parser producing the syntax
module's AST.  The surface grammar:

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
binary quantum cases.  A multi-index removal `s \\ [i, j]` nests into single
removals applied left to right, each index evaluated against the list left
by the preceding removals.

Line comments start with `//`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

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
    Operator,
    OP_NOT,
    OP_PH,
    OP_RY,
    PhaseAdd,
    PhaseConst,
    PhaseDiv,
    PhaseExpr,
    PhaseMul,
    PhaseNeg,
    PhasePi,
    PhasePow2,
    PhaseSub,
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


class _Source:
    """Source text that turns offsets into spans, for error messages only.

    The line-start table is built on the first request and shared by every
    later one, so each span costs a binary search.
    """

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self._line_starts: list[int] | None = None

    def span(self, begin: int, end: int) -> SourceSpan:
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        line = bisect_right(self._line_starts, begin)
        column = begin - self._line_starts[line - 1] + 1
        return SourceSpan(self.filename, begin, end, line, column)


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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>::|->|\*=|<=|>=|&&|\|\||[{}()\[\],;\\+\-*/^<>=!])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "int", "name", keyword text, symbol text, or "eof"
    text: str
    begin: int  # offset into the source text


def tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "ws" or kind == "comment":
            continue
        if kind == "name":
            kind = word if word in KEYWORDS else "name"
        elif kind == "sym":
            kind = word
        elif kind == "bad":
            span = _Source(text, filename).span(m.start(), m.end())
            raise ParseError(span, f"unexpected character {word!r}")
        tokens.append(Token(kind, word, m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


_PI_OVER_4 = PhaseDiv(PhasePi(), PhaseConst(4))


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
    """Nest a 2^k-branch quantum case into binary quantum cases."""
    k = len(controls)
    if k == 0:
        raise ValueError("quantum case needs at least one control qubit")
    expected = 1 << k
    if len(branches) != expected or any(
        len(w) != k or set(w) - {"0", "1"} for w in branches
    ):
        raise ValueError(f"quantum case over {k} qubits needs all {expected} bitstring labels")
    if k == 1:
        return QCase(controls[0], branches["0"], branches["1"])
    rest = controls[1:]
    zero = expand_multiqcase(rest, {w[1:]: s for w, s in branches.items() if w[0] == "0"})
    one = expand_multiqcase(rest, {w[1:]: s for w, s in branches.items() if w[0] == "1"})
    return QCase(controls[0], zero, one)


class _Parser:
    def __init__(self, text: str, filename: str):
        self.source = _Source(text, filename)
        self.tokens = tokenize(text, filename)
        self.pos = 0

    def error(self, tok: Token, message: str) -> ParseError:
        return ParseError(self.source.span(tok.begin, tok.begin + len(tok.text)), message)

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(tok, f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    # -- program structure -------------------------------------------------

    def parse_program(self) -> Program:
        decls: list[ProcDecl] = []
        while self.peek().kind == "decl":
            decls.append(self.parse_decl())
        self.expect("::")
        main = self.parse_stmts(stop={"eof"})
        self.expect("eof")
        return Program(tuple(decls), main)

    def parse_decl(self) -> ProcDecl:
        self.expect("decl")
        name = self.expect("name").text
        param = None
        if self.accept("["):
            param = self.expect("name").text
            self.expect("]")
        self.expect("(")
        set_param = self.expect("name").text
        self.expect(")")
        self.expect("{")
        body = self.parse_stmts(stop={"}"})
        self.expect("}")
        self.expect(",")
        return ProcDecl(name, param, set_param, body)

    # -- statements ---------------------------------------------------------

    def parse_stmts(self, stop: set[str]) -> Statement:
        stmts = [self.parse_stmt(stop)]
        while self.peek().kind not in stop:
            stmts.append(self.parse_stmt(stop))
        return seq_all(stmts)

    def parse_block(self, stop: set[str]) -> Statement:
        if self.accept("{"):
            body = self.parse_stmts(stop={"}"})
            self.expect("}")
            return body
        return self.parse_stmts(stop)

    def parse_stmt(self, stop: set[str]) -> Statement:
        tok = self.peek()
        if tok.kind == "skip":
            self.next()
            self.expect(";")
            return Skip()
        if tok.kind == "if":
            self.next()
            cond = self.parse_bexpr()
            self.expect("then")
            then_branch = self.parse_block(stop={"else"})
            self.expect("else")
            else_branch = self.parse_block(stop)
            return If(cond, then_branch, else_branch)
        if tok.kind == "qcase":
            return self.parse_qcase()
        if tok.kind == "call":
            self.next()
            name = self.expect("name").text
            arg = None
            if self.accept("["):
                arg = self.parse_iexpr()
                self.expect("]")
            self.expect("(")
            s = self.parse_sexpr()
            self.expect(")")
            self.expect(";")
            return Call(name, arg, s)
        if tok.kind == "H":
            self.next()
            self.expect("(")
            q = self.parse_qubit()
            self.expect(")")
            self.expect(";")
            return hadamard_statement(q)
        if tok.kind in ("CNOT", "SWAP"):
            self.next()
            self.expect("(")
            a = self.parse_qubit()
            self.expect(",")
            b = self.parse_qubit()
            self.expect(")")
            self.expect(";")
            return cnot_statement(a, b) if tok.kind == "CNOT" else swap_statement(a, b)
        if tok.kind in ("name", "nil"):
            q = self.parse_qubit()
            self.expect("*=")
            result = self.parse_op_assignment(q)
            self.expect(";")
            return result
        raise self.error(tok, f"expected a statement, found {tok.text or 'end of input'!r}")

    def parse_op_assignment(self, q: QubitExpr) -> Statement:
        tok = self.next()
        if tok.kind == "NOT":
            return Assign(q, Operator(OP_NOT))
        if tok.kind == "H":
            return hadamard_statement(q)
        if tok.kind in ("RY", "PH"):
            self.expect("[")
            phase = self.parse_phase()
            self.expect("]")
            self.expect("(")
            arg = self.parse_iexpr()
            self.expect(")")
            kind = OP_RY if tok.kind == "RY" else OP_PH
            return Assign(q, Operator(kind, phase, arg))
        raise self.error(tok, f"expected an operator, found {tok.text!r}")

    def parse_qcase(self) -> Statement:
        self.expect("qcase")
        start = self.peek()
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
            label_tok = self.expect("int")
            label = label_tok.text
            if len(label) != k or set(label) - {"0", "1"}:
                raise self.error(
                    label_tok,
                    f"quantum case over {k} qubit(s) needs length-{k} bitstring labels, got {label!r}",
                )
            if label in branches:
                raise self.error(label_tok, f"duplicate quantum case label {label!r}")
            self.expect("->")
            branches[label] = self.parse_stmts(stop={",", "}"})
            if not self.accept(","):
                break
        self.expect("}")
        if len(branches) != 1 << k:
            raise self.error(
                start,
                f"quantum case over {k} qubit(s) needs {1 << k} branches, got {len(branches)}",
            )
        controls = [QubitExpr(s, i) for i in indices]
        return expand_multiqcase(controls, branches)

    # -- expressions ----------------------------------------------------------

    def parse_sexpr(self) -> SetExpr:
        tok = self.peek()
        if tok.kind == "nil":
            self.next()
            base: SetExpr = SetNil()
        elif tok.kind == "name":
            self.next()
            base = SetVar(tok.text)
        else:
            raise self.error(tok, f"expected a sorted set, found {tok.text!r}")
        while self.peek().kind == "\\":
            self.next()
            self.expect("[")
            base = SetRemove(base, self.parse_iexpr())
            while self.accept(","):
                base = SetRemove(base, self.parse_iexpr())
            self.expect("]")
        return base

    def parse_qubit(self) -> QubitExpr:
        s = self.parse_sexpr()
        self.expect("[")
        index = self.parse_iexpr()
        self.expect("]")
        return QubitExpr(s, index)

    def parse_iexpr(self) -> IntExpr:
        expr = self.parse_iatom()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            lit = self.expect("int")
            offset = int(lit.text)
            expr = IntAdd(expr, offset) if op.kind == "+" else IntSub(expr, offset)
        return expr

    def parse_iatom(self) -> IntExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "name":
            self.next()
            return IntVar(tok.text)
        if tok.kind == "size":
            self.next()
            self.expect("(")
            s = self.parse_sexpr()
            self.expect(")")
            return SetSize(s)
        if tok.kind == "(":
            self.next()
            expr = self.parse_iexpr()
            self.expect(")")
            return expr
        raise self.error(tok, f"expected an integer expression, found {tok.text!r}")

    def parse_bexpr(self) -> BoolExpr:
        expr = self.parse_band()
        while self.accept("||"):
            expr = BoolOr(expr, self.parse_band())
        return expr

    def parse_band(self) -> BoolExpr:
        expr = self.parse_bunary()
        while self.accept("&&"):
            expr = BoolAnd(expr, self.parse_bunary())
        return expr

    def parse_bunary(self) -> BoolExpr:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return BoolNot(self.parse_bunary())
        if tok.kind == "(":
            # Either a parenthesized boolean or a parenthesized integer
            # starting a comparison; try the boolean reading first.
            saved = self.pos
            self.next()
            try:
                inner = self.parse_bexpr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        return self.parse_cmp()

    def parse_cmp(self) -> BoolExpr:
        left = self.parse_iexpr()
        tok = self.peek()
        if tok.kind in (">", ">="):
            self.next()
            return BoolCmp(tok.kind, left, self.parse_iexpr())
        if tok.kind == "=":
            self.next()
            return BoolCmp("=", left, self.parse_iexpr())
        if tok.kind in ("<", "<="):
            # Sugar: a < b is b > a, a <= b is b >= a.
            self.next()
            right = self.parse_iexpr()
            return BoolCmp(">" if tok.kind == "<" else ">=", right, left)
        raise self.error(tok, f"expected a comparison operator, found {tok.text!r}")

    # -- phase expressions ------------------------------------------------------

    def parse_phase(self) -> PhaseExpr:
        expr = self.parse_phase_term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            right = self.parse_phase_term()
            expr = PhaseAdd(expr, right) if op.kind == "+" else PhaseSub(expr, right)
        return expr

    def parse_phase_term(self) -> PhaseExpr:
        expr = self.parse_phase_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            right = self.parse_phase_factor()
            expr = PhaseMul(expr, right) if op.kind == "*" else PhaseDiv(expr, right)
        return expr

    def parse_phase_factor(self) -> PhaseExpr:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return PhaseNeg(self.parse_phase_factor())
        if tok.kind == "int":
            self.next()
            if self.peek().kind == "^":
                if tok.text != "2":
                    raise self.error(tok, "only base-2 exponentials are supported")
                self.next()
                return PhasePow2(self.parse_phase_factor())
            return PhaseConst(int(tok.text))
        if tok.kind == "pi":
            self.next()
            return PhasePi()
        if tok.kind == "name":
            self.next()
            return PhaseVar()
        if tok.kind == "(":
            self.next()
            expr = self.parse_phase()
            self.expect(")")
            return expr
        raise self.error(tok, f"expected a phase expression, found {tok.text!r}")


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse .foq source text into a Program; raises ParseError."""
    return _Parser(text, filename).parse_program()


def parse_phase_text(text: str, filename: str = "<phase>") -> PhaseExpr:
    """Parse a standalone phase expression (used by the algebra term reader)."""
    parser = _Parser(text, filename)
    expr = parser.parse_phase()
    parser.expect("eof")
    return expr
