import hashlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from foqc import parser
from foqc.cli import dispatch
from foqc.parser import KEYWORDS, ParseError, SourceSpan, parse_program, tokenize
from foqc.syntax import (
    Assign,
    Call,
    If,
    IntLit,
    OP_NOT,
    OP_RY,
    QCase,
    SetNil,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
    seq_items,
)


def stmts(text):
    return seq_items(parse_program(text).main)


def test_minimal_program():
    program = parse_program(":: skip;")
    assert program.decls == ()
    assert program.main == Skip()


def test_comments_and_whitespace():
    program = parse_program("// header\n:: skip; // trailing\n// footer\n")
    assert program.main == Skip()


def test_assignment_and_operators():
    (a, b) = stmts(":: q[1] *= NOT; q[2] *= RY[pi / 4](0);")
    assert a.op.kind == OP_NOT
    assert b.op.kind == OP_RY


def test_hadamard_macro_forms_agree():
    via_call = parse_program(":: H(q[1]);").main
    via_assign = parse_program(":: q[1] *= H;").main
    assert via_call == via_assign
    first, second = seq_items(via_call)
    assert first.op.kind == OP_RY and second.op.kind == OP_NOT


def test_cnot_macro():
    (stmt,) = stmts(":: CNOT(q[1], q[2]);")
    assert isinstance(stmt, QCase)
    assert stmt.if_zero == Skip()
    assert isinstance(stmt.if_one, Assign)


def test_swap_macro_is_three_cnots():
    (swap,) = [parse_program(":: SWAP(q[1], q[2]);").main]
    parts = seq_items(swap)
    assert len(parts) == 3 and all(isinstance(p, QCase) for p in parts)


def test_removal_chain_is_one_node():
    (call,) = stmts(":: call f(q \\ [1, size(q)]);")
    assert call.set_expr == SetRemove(SetVar("q"), (IntLit(1), SetSize(SetVar("q"))))


def test_nil_set():
    (call,) = stmts(":: call f(nil);")
    assert call.set_expr == SetNil()


def test_classical_argument_arithmetic():
    (call,) = stmts(":: call f[size(q) - 1](q);")
    assert call.arg is not None


def test_comparison_sugar_swaps_sides():
    sugar = parse_program(":: if 1 < size(q) then { skip; } else { skip; }")
    plain = parse_program(":: if size(q) > 1 then { skip; } else { skip; }")
    assert sugar.main.cond == plain.main.cond
    sugar_le = parse_program(":: if 1 <= size(q) then { skip; } else { skip; }")
    plain_ge = parse_program(":: if size(q) >= 1 then { skip; } else { skip; }")
    assert sugar_le.main.cond == plain_ge.main.cond


def test_if_without_braces():
    program = parse_program(":: if size(q) > 0 then q[1] *= NOT; else skip;")
    assert isinstance(program.main, If)
    assert isinstance(program.main.then_branch, Assign)


def test_braced_if_does_not_swallow_following_statements():
    items = stmts(":: if size(q) > 0 then { skip; } else { skip; } q[1] *= NOT;")
    assert len(items) == 2
    assert isinstance(items[0], If) and isinstance(items[1], Assign)


def test_parenthesized_comparison():
    program = parse_program(":: if (size(q) > 1) && 2 > 1 then { skip; } else { skip; }")
    assert isinstance(program.main, If)


def test_qcase_binary():
    (qc,) = stmts(":: qcase q[1] of { 0 -> skip; , 1 -> q[2] *= NOT; }")
    assert isinstance(qc, QCase)


def test_multi_qcase_expands_to_nested_cases():
    (qc,) = stmts(
        ":: qcase q[1, 2] of { 00 -> skip; , 01 -> skip; , 10 -> skip; , 11 -> q[3] *= NOT; }"
    )
    assert isinstance(qc, QCase)
    assert isinstance(qc.if_zero, QCase) and isinstance(qc.if_one, QCase)
    assert isinstance(qc.if_one.if_one, Assign)


def test_multi_qcase_missing_label_rejected():
    with pytest.raises(ParseError, match="4 branches"):
        parse_program(":: qcase q[1, 2] of { 00 -> skip; , 01 -> skip; , 10 -> skip; }")


def test_multi_qcase_duplicate_label_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program(":: qcase q[1] of { 0 -> skip; , 0 -> skip; }")


def test_multi_qcase_wrong_length_label_rejected():
    with pytest.raises(ParseError, match="length-2"):
        parse_program(":: qcase q[1, 2] of { 0 -> skip; , 1 -> skip; }")


def test_declaration_with_parameter():
    program = parse_program("decl f[x](p) { skip; }, :: call f[0](q);")
    (decl,) = program.decls
    assert decl.name == "f" and decl.param == "x" and decl.set_param == "p"


def test_error_carries_location():
    with pytest.raises(ParseError) as excinfo:
        parse_program(":: q[1] *= ;", filename="bad.foq")
    message = str(excinfo.value)
    assert message.startswith("bad.foq:1:")


def test_error_on_unknown_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program(":: skip; @")


def test_error_on_missing_semicolon():
    with pytest.raises(ParseError):
        parse_program(":: skip")


def test_phase_grammar():
    (stmt,) = stmts(":: q[1] *= PH[pi / 2^(x - 1) + 2 * pi - 1](0);")
    assert stmt.op.phase is not None


def test_non_base_two_exponential_rejected():
    with pytest.raises(ParseError, match="base-2"):
        parse_program(":: q[1] *= PH[3^x](0);")


@pytest.mark.parametrize(
    "text, location, message",
    [
        ("// header\n\n:: skip;\n  skip; @\n", "in.foq:4:9", "unexpected character '@'"),
        (
            "decl f(p) {\n  // no operator\n\n  p[1] *= ;\n},\n:: call f(q);\n",
            "in.foq:4:11",
            "expected an operator",
        ),
        (":: skip;\n// trailing comment\n\nskip", "in.foq:4:5", "end of input"),
        (
            ":: skip;\n\n  // a case\n  qcase q[1, 2] of { 00 -> skip; }\n",
            "in.foq:4:9",
            "needs 4 branches",
        ),
        (
            ":: skip; // (\n\n// backtracks\nif (size(q) > 1 then { skip; } else { skip; }\n",
            "in.foq:4:13",
            "expected ')', found '>'",
        ),
    ],
)
def test_error_location_on_later_lines(text, location, message):
    with pytest.raises(ParseError) as excinfo:
        parse_program(text, filename="in.foq")
    assert str(excinfo.value).startswith(location + ": ")
    assert message in str(excinfo.value)


# The match-by-match tokenizer that the one-pass one replaced, kept as the
# reference for its token stream and its error text.
_REFERENCE_RE = re.compile(
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


def reference_tokenize(text, filename):
    tokens = []
    for m in _REFERENCE_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "ws" or kind == "comment":
            continue
        if kind == "name":
            kind = word if word in KEYWORDS else "name"
        elif kind == "sym":
            kind = word
        elif kind == "bad":
            line = text.count("\n", 0, m.start()) + 1
            column = m.start() - (text.rfind("\n", 0, m.start()) + 1) + 1
            span = SourceSpan(filename, m.start(), m.end(), line, column)
            raise ParseError(span, f"unexpected character {word!r}")
        tokens.append((kind, word, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


SYMBOLS = ["::", "->", "*=", "<=", ">=", "&&", "||", *"{}()[],;\\+-*/^<>=!"]
PIECES = [
    *sorted(KEYWORDS),
    *SYMBOLS,
    *"0123456789",
    "42",
    "\u0663",  # ARABIC-INDIC DIGIT THREE: a decimal digit
    "\u00b2",  # SUPERSCRIPT TWO: a digit, but not a decimal one
    " ",
    "\n",
    "\t",
    "\r",
    "\u00a0",  # NO-BREAK SPACE
    "//",
    "// note",
    "// note\n",
    "x",
    "_p1",
    *"@#$?:|&.'é",  # stray characters
]


def outcome(tokenizer, text):
    try:
        return [tuple(token) for token in tokenizer(text, "t.foq")]
    except ParseError as error:
        return str(error)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_tokenizer_matches_the_reference(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_tokenizer_reads_comments_and_unicode_digits():
    text = "// head\n\u0663 x // tail"
    assert tokenize(text, "t.foq") == reference_tokenize(text, "t.foq")
    assert [t.kind for t in tokenize(text, "t.foq")] == ["int", "name", "eof"]
    with pytest.raises(ParseError, match="t.foq:1:3: unexpected character '\u00b2'"):
        tokenize("x \u00b2", "t.foq")


# -- the leaf memo ------------------------------------------------------------


class _Forgetful(dict):
    """A leaf memo that stores nothing, so every leaf is parsed afresh."""

    def __setitem__(self, key, value):
        pass


_memo_init = parser._Parser.__init__


def _forgetful_init(self, *args):
    _memo_init(self, *args)
    self.leaves = _Forgetful()


def without_memo(function, *args):
    """function(*args) with every parser's leaf memo turned off."""
    with mock.patch.object(parser._Parser, "__init__", _forgetful_init):
        return function(*args)


def parse_outcome(text):
    try:
        return parse_program(text, "m.foq")
    except ParseError as error:
        return str(error), error.span


# Leaves drawn from a small pool, so that most of them repeat.
QUBITS = ["p[1]", "p[2]", "p[size(p)]", "p \\ [1][1]", "p \\ [1, size(p)][1]", "nil[1]"]
OPERATORS = ["NOT", "H", "RY[pi / 4](0)", "PH[pi / 2^(x - 1)](x + 1)", "PH[2 * pi / 3](1)"]


def random_leaf(rng):
    a, b = rng.sample(QUBITS, 2)
    shape = rng.randrange(4)
    if shape == 0:
        return f"{a} *= {rng.choice(OPERATORS)};"
    if shape == 1:
        return f"H({a});"
    return f"{('CNOT', 'SWAP')[shape - 2]}({a}, {b});"


def random_stmts(rng, depth, count):
    out = []
    for _ in range(count):
        roll = rng.random()
        if depth > 0 and roll < 0.1:
            then_, else_ = (random_stmts(rng, depth - 1, rng.randint(1, 4)) for _ in "te")
            out.append(f"if size(p) > 1 && x >= 2 then {{ {then_} }} else {{ {else_} }}")
        elif depth > 0 and roll < 0.2:
            labels = rng.choice((["0", "1"], ["00", "01", "10", "11"]))
            indices = "1" if len(labels) == 2 else "1, 2"
            branches = " , ".join(
                f"{w} -> {random_stmts(rng, depth - 1, rng.randint(1, 3))}" for w in labels
            )
            out.append(f"qcase p \\ [size(p)][{indices}] of {{ {branches} }}")
        elif roll < 0.3:
            out.append(rng.choice(["call f[x - 1](p \\ [1]);", "call g(nil);", "skip;"]))
        else:
            # Whitespace and comments between tokens do not change a leaf.
            leaf = random_leaf(rng)
            out.append(leaf.replace(" ", rng.choice([" ", "  ", "\n", " // c\n"])))
    return " ".join(out)


def random_program(seed):
    rng = random.Random(seed)
    decls = "".join(
        f"decl {name}(p) {{ {random_stmts(rng, 2, rng.randint(5, 40))} }},\n"
        for name in ("f[x]", "g")
    )
    return decls + ":: " + random_stmts(rng, 2, rng.randint(20, 200))


@pytest.mark.parametrize("seed", range(40))
def test_the_leaf_memo_changes_no_ast(seed):
    text = random_program(seed)
    assert parse_program(text) == without_memo(parse_program, text)


@pytest.mark.parametrize(
    "text",
    [
        # A missing final ";", after a valid copy of the same leaf.
        ":: q[1] *= NOT; q[1] *= NOT q[2] *= NOT;",
        ":: H(q[1]); H(q[1])",
        "decl f(p) { p[1] *= NOT; p[1] *= NOT }, :: call f(q);",
        # An extra token before the ";".
        ":: q[1] *= NOT; q[1] *= NOT NOT;",
        ":: CNOT(q[1], q[2]); CNOT(q[1], q[2]) q[1];",
        ":: SWAP(q[1], q[2]); SWAP(q[1], q[2], q[3]);",
        # A copy truncated at the end of the input.
        ":: q[1] *= RY[pi / 4](0); q[1] *= RY[pi / 4](",
        ":: CNOT(q[1], q[2]); CNOT(q[1],",
        ":: nil[1] *= H; nil[1] *=",
    ],
)
def test_leaf_errors_after_a_valid_copy_are_unchanged(text):
    error = parse_outcome(text)
    assert isinstance(error, tuple)
    assert error == without_memo(parse_outcome, text)


LEAF_PIECES = [
    "q[1] *= NOT;", "q[1] *= NOT", "q[1]", "*=", "NOT", ";", "H(q[1]);", "H(q[1])",
    "CNOT(q[1], q[2]);", "CNOT(q[1],", "SWAP(q[2], q[1]);", "nil[1] *= H;", ",", "}",
    "if size(q) > 1 then {", "} else {", "qcase q[3] of { 0 ->", "call f(q);", "skip;",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEAF_PIECES), max_size=25).map(" ".join))
def test_the_leaf_memo_changes_no_parse_outcome(text):
    text = ":: " + text
    assert parse_outcome(text) == without_memo(parse_outcome, text)


def both_branches(stmt):
    return f"if size(q) > 1 then {{ {stmt} }} else {{ {stmt} }}"


@pytest.mark.parametrize(
    "leaf", ["q[1] *= NOT;", "nil[1] *= RY[pi / 4](0);", "H(q \\ [1][2]);", "CNOT(q[1], q[2]);",
             "SWAP(q[1], q[2]);"],
)
def test_repeated_leaves_are_one_object(leaf):
    program = parse_program(f"decl f(p) {{ {leaf} }}, :: {both_branches(leaf)}")
    assert program.main.then_branch is program.main.else_branch
    assert program.decls[0].body is program.main.then_branch
    # The memo lives for one parse only.
    assert parse_program(f":: {leaf}").main is not program.main.then_branch


@pytest.mark.parametrize(
    "stmt",
    ["call f(q);", both_branches("skip;"), "qcase q[1] of { 0 -> q[2] *= NOT; , 1 -> skip; }"],
)
def test_calls_and_compound_statements_are_never_shared(stmt):
    main = parse_program(f":: {both_branches(stmt)}").main
    assert main.then_branch == main.else_branch
    assert main.then_branch is not main.else_branch


def test_the_reference_parser_shares_nothing():
    main = without_memo(parse_program, f":: {both_branches('q[1] *= NOT;')}").main
    assert main.then_branch == main.else_branch
    assert main.then_branch is not main.else_branch


# One leaf text in procedures of two recursion groups, {f} and {g}: the
# id-keyed memo of `statement_width` meets the shared leaves under both.
TWO_GROUPS_SOURCE = r"""
decl f(p) {
  p[1] *= NOT;
  H(p[1]);
  if size(p) > 1 then { CNOT(p[1], p[2]); call f(p \ [1]); } else { skip; }
},
decl g(p) {
  p[1] *= NOT;
  H(p[1]);
  if size(p) > 1 then {
    CNOT(p[1], p[2]);
    qcase p[1] of { 0 -> call g(p \ [1]); , 1 -> call f(p \ [1]); }
  } else { skip; }
},
:: call g(q); q[1] *= NOT; call f(q);
"""


def two_groups_outputs(path, capsys):
    chunks = []
    for args in [["check", path]] + [["compile", path, "-n", str(n)] for n in range(1, 6)]:
        code = dispatch(args)
        captured = capsys.readouterr()
        chunks += [str(code), captured.out, captured.err]
    return chunks


def test_a_leaf_shared_by_two_recursion_groups(tmp_path, capsys):
    path = tmp_path / "groups.foq"
    path.write_text(TWO_GROUPS_SOURCE)
    program = parse_program(TWO_GROUPS_SOURCE)
    f, g = (seq_items(decl.body) for decl in program.decls)
    assert f[0] is g[0] and f[1] is g[1]
    chunks = two_groups_outputs(str(path), capsys)
    assert chunks == without_memo(two_groups_outputs, str(path), capsys)
    assert chunks[0] == "0" and all(code == "0" for code in chunks[::3])
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() + b"\0")
    # Computed with the parser before it had a leaf memo.
    assert h.hexdigest() == (
        "a1c5cd745a8de3c16732a3248e0a5a3d9e0e7327a050fa09702e2732ab2c7e97"
    )
