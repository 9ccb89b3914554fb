"""Programs far longer than Python's stack is deep.

Statement walkers loop over sequences and the compiler expands width-0
calls on an explicit stack, so neither a long body nor a long chain of
procedures needs a raised recursion limit.  An operator chain in an
expression is one node that every walker loops over, so a long one needs
none either.  Every shape runs through every front-end subcommand at the
default limit.
"""

import random
import sys

import pytest

from foqc.cli import dispatch

from test_cli import run_cli

QUBITS = 8
STATE = "01101001"


def _statements(rng: random.Random, count: int) -> list[str]:
    """`count` width-0 statements over the set p of QUBITS qubits."""
    out = []
    for _ in range(count):
        a, b = rng.sample(range(1, QUBITS + 1), 2)
        roll = rng.random()
        if roll < 0.3:
            out.append(f"p[{a}] *= H;")
        elif roll < 0.5:
            out.append(f"p[{a}] *= PH[pi / {rng.choice((2, 4, 8))}](0);")
        elif roll < 0.7:
            out.append(f"CNOT(p[{a}], p[{b}]);")
        elif roll < 0.85:
            out.append(f"qcase p[{a}] of {{ 0 -> p[{b}] *= NOT; , 1 -> p[{b}] *= H; }}")
        else:
            out.append(f"if size(p) > {b} then {{ p[{a}] *= NOT; }} else {{ skip; }}")
    return out


def straight_program(statements: int) -> str:
    body = "\n  ".join(_statements(random.Random(1), statements))
    return f"decl body(p) {{\n  {body}\n}},\n:: call body(q);\n"


def chain_program(procedures: int) -> str:
    rng = random.Random(2)
    decls = []
    for i in range(1, procedures + 1):
        lines = _statements(rng, 2)
        if i < procedures:
            lines.append(f"call f{i + 1}(p);")
        decls.append(f"decl f{i}(p) {{ " + " ".join(lines) + " },")
    return "\n".join(decls) + "\n:: call f1(q);\n"


# Operator chains of CHAIN_TERMS terms, one program for each kind of chain.
# Every qubit index stays in range at n = QUBITS; the removals empty the
# list, so that call does nothing.
CHAIN_TERMS = 3000
EXPRESSION_CHAINS = {
    "phase-sum": ":: q[1] *= RY[" + " + ".join(["pi"] * CHAIN_TERMS) + "](0);\n",
    "offsets": ":: q[1" + " + 1 - 1" * (CHAIN_TERMS // 2) + "] *= NOT;\n",
    "removals": "decl f(p) { p[1] *= NOT; },\n:: call f(q \\ ["
    + ", ".join(["1"] * CHAIN_TERMS)
    + "]);\n",
    "conjunction": ":: if "
    + " && ".join(["1 = 1"] * CHAIN_TERMS)
    + " then { q[1] *= NOT; } else { skip; }\n",
}


@pytest.fixture()
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "source",
    [straight_program(10_000), chain_program(1300), *EXPRESSION_CHAINS.values()],
    ids=["straight-10000", "chain-1300", *(f"{k}-{CHAIN_TERMS}" for k in EXPRESSION_CHAINS)],
)
def test_every_subcommand_runs_at_the_default_recursion_limit(
    source, tmp_path, capsys, default_recursion_limit
):
    path = tmp_path / "long.foq"
    path.write_text(source)
    circuit = str(tmp_path / "long.json")
    inverse = str(tmp_path / "long.inv.foq")
    assert dispatch(["check", str(path)]) == 0
    assert dispatch(["invert", str(path), "-o", inverse]) == 0
    assert dispatch(["compile", str(path), "-n", str(QUBITS), "-o", circuit]) == 0
    assert dispatch(["simulate", circuit, "--state", STATE]) == 0
    assert dispatch(["run", str(path), "--state", STATE]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("source", EXPRESSION_CHAINS.values(), ids=EXPRESSION_CHAINS.keys())
def test_a_long_expression_chain_diffs_at_the_default_recursion_limit(
    source, tmp_path, capsys, default_recursion_limit
):
    path = tmp_path / "chain.foq"
    path.write_text(source)
    assert dispatch(["diff", str(path), "-n", "4"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("source", EXPRESSION_CHAINS.values(), ids=EXPRESSION_CHAINS.keys())
def test_an_inverted_long_expression_chain_checks_at_the_default_recursion_limit(
    source, tmp_path, capsys, default_recursion_limit
):
    # The printer brackets a chain once, so its output reads back flat.
    path = tmp_path / "chain.foq"
    path.write_text(source)
    inverse = str(tmp_path / "chain.inv.foq")
    assert dispatch(["invert", str(path), "-o", inverse]) == 0
    assert dispatch(["check", inverse]) == 0
    assert capsys.readouterr().err == ""


def test_long_body_checks_without_a_traceback(tmp_path):
    path = tmp_path / "long.foq"
    path.write_text(straight_program(10_000))
    result = run_cli("check", str(path))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
