import math

import numpy as np
import pytest

from foqc import compile_program, export_json, parse_program, run
from foqc.analysis import check_wf, program_refs
from foqc.parser import parse_phase_text
from foqc.syntax import (
    IntLit,
    IntVar,
    Operator,
    OP_NOT,
    OP_PH,
    OP_RY,
    PhaseBin,
    PhaseConst,
    PhaseEvalError,
    PhaseNeg,
    PhasePi,
    PhasePow2,
    PhaseVar,
    Seq,
    Skip,
    eval_phase,
    format_bool,
    format_int,
    format_phase,
    gate_entries,
    invert_operator,
    phase_neg,
    pretty_print,
    seq_all,
    seq_items,
)

from test_properties import random_state


def test_phase_reduction_into_two_pi():
    # 2^x at x = 3 is 8, reduced modulo 2*pi.
    assert eval_phase(PhasePow2(PhaseVar()), 3) == pytest.approx(8 - 2 * math.pi)
    assert eval_phase(PhaseConst(-1), 0) == pytest.approx(2 * math.pi - 1)
    assert 0.0 <= eval_phase(PhaseConst(123456), 0) < 2 * math.pi


def test_phase_pi_over_power():
    # pi / 2^(x-1) at x = 2 is pi/2.
    expr = PhaseBin(PhasePi(), (("/", PhasePow2(PhaseVar())),))
    assert eval_phase(expr, 1) == pytest.approx(math.pi / 2)


def test_phase_double_negation_collapses():
    f = PhaseBin(PhasePi(), (("/", PhaseConst(4)),))
    assert phase_neg(phase_neg(f)) == f


def gate_matrix(op, n=0):
    """The 2x2 matrix of `gate_entries`."""
    return np.array(gate_entries(op, n)).reshape(2, 2)


def test_not_matrix():
    op = Operator(OP_NOT)
    assert np.array_equal(gate_matrix(op), np.array([[0, 1], [1, 0]]))


def test_rotation_matrix_is_special_orthogonal():
    op = Operator(OP_RY, PhaseBin(PhasePi(), (("/", PhaseConst(3)),)), IntLit(0))
    m = gate_matrix(op)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    assert np.allclose(m, [[c, -s], [s, c]], atol=1e-12)


def test_phase_matrix_uses_argument():
    op = Operator(OP_PH, PhaseBin(PhasePi(), (("/", PhasePow2(PhaseVar())),)), IntVar("x"))
    m = gate_matrix(op, 1)  # evaluated at argument value 1
    assert np.allclose(m, np.diag([1, np.exp(1j * math.pi / 2)]), atol=1e-12)


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(OP_NOT, PhasePi(), IntLit(0))
    with pytest.raises(ValueError):
        Operator(OP_RY)


def test_invert_operator():
    assert invert_operator(Operator(OP_NOT)) == Operator(OP_NOT)
    op = Operator(OP_PH, PhasePi(), IntLit(0))
    inv = invert_operator(op)
    assert inv.phase == PhaseNeg(PhasePi())
    assert invert_operator(inv) == op
    m = gate_matrix(op) @ gate_matrix(inv)
    assert np.allclose(m, np.eye(2), atol=1e-12)


PARAMETERISED = """
decl f[x](p) {
  if (size(p) >= x && x > 1) then {
    p[x] *= RY[pi / 2^x](x);
    qcase p[1] of {
      0 -> p[x] *= PH[pi / x](x + 1);
      ,
      1 -> skip;
    }
    call f[x - 1](p \\ [x]);
    p[x - 1] *= RY[x](x - 1);
  } else {
    p[1] *= NOT;
  }
},
:: call f[3](q);
"""

# The same program with the argument of each call written in by hand.
HANDWRITTEN = """
decl f3(p) {
  if (size(p) >= 3 && 3 > 1) then {
    p[3] *= RY[pi / 2^x](3);
    qcase p[1] of {
      0 -> p[3] *= PH[pi / x](4);
      ,
      1 -> skip;
    }
    call f2(p \\ [3]);
    p[2] *= RY[x](2);
  } else {
    p[1] *= NOT;
  }
},
decl f2(p) {
  if (size(p) >= 2 && 2 > 1) then {
    p[2] *= RY[pi / 2^x](2);
    qcase p[1] of {
      0 -> p[2] *= PH[pi / x](3);
      ,
      1 -> skip;
    }
    call f1(p \\ [2]);
    p[1] *= RY[x](1);
  } else {
    p[1] *= NOT;
  }
},
decl f1(p) {
  if (size(p) >= 1 && 1 > 1) then {
    p[1] *= RY[pi / 2^x](1);
    qcase p[1] of {
      0 -> p[1] *= PH[pi / x](2);
      ,
      1 -> skip;
    }
    skip;
    p[0] *= RY[x](0);
  } else {
    p[1] *= NOT;
  }
},
:: call f3(q);
"""


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parameter_binding_matches_handwritten_literals(n):
    bound, literal = parse_program(PARAMETERISED), parse_program(HANDWRITTEN)
    assert export_json(compile_program(bound, n)) == export_json(
        compile_program(literal, n)
    )
    rng = np.random.default_rng(n)
    state = random_state(n, rng)
    a, b = run(bound, state), run(literal, state)
    assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_seq_all_normalizes_nesting():
    a, b, c = Skip(), Skip(), Skip()
    nested = seq_all([Seq(a, b), c])
    flat = seq_all([a, b, c])
    assert nested == flat
    assert len(seq_items(nested)) == 3


def test_wellformed_detects_problems():
    program = parse_program(
        """
decl f(p) { call g(p \\ [1]); },
decl f(p) { skip; },
:: call h(q);
"""
    )
    diags = check_wf(program, *program_refs(program))
    assert any("duplicate" in d for d in diags)
    assert any("undeclared" in d and "g" in d for d in diags)
    assert any("undeclared" in d and "h" in d for d in diags)


def test_wellformed_arity_mismatch():
    program = parse_program(
        """
decl f[x](p) { skip; },
decl g(p) { skip; },
:: call f(q); call g[1](q);
"""
    )
    diags = check_wf(program, *program_refs(program))
    assert any("requires a classical argument" in d for d in diags)
    assert any("takes no classical argument" in d for d in diags)


def test_wellformed_foreign_variables():
    program = parse_program("decl f(p) { r[1] *= NOT; }, :: call f(q);")
    diags = check_wf(program, *program_refs(program))
    assert any("unknown set variable" in d for d in diags)


def test_pretty_print_round_trip_corpus(corpus):
    for program in corpus.values():
        assert parse_program(pretty_print(program)) == program


def test_pretty_print_round_trip_edge_cases():
    src = """
decl f[x](p) {
  if (size(p) > 1 && !(x = 0)) || 2 > x then {
    qcase p[1] of {
      0 -> p[2] *= RY[-(pi / 2^(x - 1)) + 2 * pi](x - 1);
      ,
      1 -> skip;
    }
  } else {
    call f[x + 1](p \\ [1, size(p)]);
  }
},
:: call f[0](q);
"""
    program = parse_program(src)
    assert parse_program(pretty_print(program)) == program


@pytest.mark.parametrize(
    "text, printed",
    [
        ("x - (pi - 2)", "x - (pi - 2)"),
        ("(x - pi) - 2", "x - pi - 2"),
        ("pi / (x * 2)", "pi / (x * 2)"),
        ("(pi / x) * 2", "pi / x * 2"),
        ("-(x + 1)", "-(x + 1)"),
        ("2^(x - 1)", "2^(x - 1)"),
        ("x * (2 + pi)", "x * (2 + pi)"),
    ],
)
def test_phase_printer_parenthesizes_exactly_the_right_nested_operands(text, printed):
    assert format_phase(parse_phase_text(text)) == printed


@pytest.mark.parametrize(
    "text, printed",
    [
        ("x - 0", "x - 0"),
        ("x + 0", "x + 0"),
        ("(x + 1) - 2", "x + 1 - 2"),
        ("size(p \\ [1]) - 1", "size(p \\ [1]) - 1"),
    ],
)
def test_integer_printer_keeps_the_written_sign(text, printed):
    program = parse_program(f":: q[{text}] *= NOT;")
    assert format_int(program.main.qubit.index) == printed


@pytest.mark.parametrize(
    "text, printed",
    [
        ("(x > 1 || x = 0) && 2 > x", "((x > 1 || x = 0) && 2 > x)"),
        ("x > 1 || x = 0 && 2 > x", "(x > 1 || (x = 0 && 2 > x))"),
        ("x > 1 && (x = 0 && 2 > x)", "(x > 1 && (x = 0 && 2 > x))"),
        ("!(x > 1 || x = 0)", "!((x > 1 || x = 0))"),
    ],
)
def test_boolean_printer_brackets_every_connective(text, printed):
    program = parse_program(f":: if {text} then {{ skip; }} else {{ skip; }}")
    assert format_bool(program.main.cond) == printed


def test_division_checks_its_denominator_before_its_numerator():
    # The numerator overflows, but the zero denominator is what is reported.
    with pytest.raises(PhaseEvalError, match="^division by zero in phase expression at n=3$"):
        eval_phase(parse_phase_text("2^2000 / 0"), 3)
    # The other operators evaluate left to right.
    for op in "+-*":
        with pytest.raises(PhaseEvalError, match="^phase expression overflows at n=3$"):
            eval_phase(parse_phase_text(f"2^2000 {op} (1 / 0)"), 3)
    # In a chain, every denominator is checked before anything to its left,
    # right to left; then the rest evaluates left to right.
    division_by_zero = (
        "1 / 2^2000 / 0",
        "2^2000 * 1 / 0",
        "1 / 0 * 2^2000",
        "(1 / 0) * 2^2000 / 3",
        "1 / 0 - 2^2000",
    )
    for text in division_by_zero:
        with pytest.raises(PhaseEvalError, match="^division by zero in phase expression at n=3$"):
            eval_phase(parse_phase_text(text), 3)
    for text in ("1 / 0 / 2^2000", "2^2000 / 1 * (1 / 0)", "2^2000 - 1 / 0", "2^2000 + 0 / 0"):
        with pytest.raises(PhaseEvalError, match="^phase expression overflows at n=3$"):
            eval_phase(parse_phase_text(text), 3)
