import itertools
import math
import time

import numpy as np
import pytest

from foqc import run
from foqc.algebra import (
    AlgebraError,
    Branch,
    Comp,
    Identity,
    KQRec,
    NotGate,
    PhaseGate,
    RotGate,
    SwapGate,
    eval_algebra,
    format_term,
    parse_term,
    phi_encode,
    to_pfoq,
)
from foqc.analysis import check_pfoq
from foqc.interpreter import QuantumState
from foqc.syntax import PhaseBin, PhaseConst, PhasePi

TERM_CORPUS = [
    "i",
    "not",
    "swap",
    "(ph pi / 2)",
    "(rot pi / 4)",
    "(comp (branch i not) swap (ph pi))",
    "(kqrec :k 1 :t 0 :f i :g (rot pi / 4) :h i :sel (0 rec) (1 i))",
    "(kqrec :k 2 :t 1 :f not :g i :h swap :sel (00 rec) (01 i) (10 i) (11 rec))",
]


def basis_states(n):
    for index in range(1 << n):
        psi = np.zeros(1 << n, dtype=complex)
        psi[index] = 1.0
        yield psi


def test_basic_terms_evaluate():
    assert np.allclose(eval_algebra(NotGate(), [1, 0]), [0, 1])
    assert np.allclose(
        eval_algebra(SwapGate(), [0, 1, 0, 0]), [0, 0, 1, 0]
    )  # |01> -> |10>
    assert np.allclose(
        eval_algebra(PhaseGate(PhasePi()), [0, 1]), [0, -1], atol=1e-12
    )
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert np.allclose(
        eval_algebra(RotGate(PhaseBin(PhasePi(), (("/", PhaseConst(4)),))), [1, 0]), [c, s]
    )


def test_basics_are_identity_on_zero_qubits():
    one = np.array([1.0])
    for term in (Identity(), NotGate(), PhaseGate(PhasePi()), SwapGate()):
        assert np.allclose(eval_algebra(term, one), one)


def test_comp_applies_inner_first():
    term = Comp(PhaseGate(PhasePi()), NotGate())
    assert np.allclose(eval_algebra(term, [1, 0]), [0, -1], atol=1e-12)


def test_branch_splits_on_first_qubit():
    term = Branch(Identity(), NotGate())
    # |10> -> |11>: first qubit 1 selects NOT on the remainder.
    assert np.allclose(eval_algebra(term, [0, 0, 1, 0]), [0, 0, 0, 1])
    assert np.allclose(eval_algebra(term, [1, 0, 0, 0]), [1, 0, 0, 0])


def test_kqrec_validation():
    with pytest.raises(AlgebraError):
        KQRec(0, 0, Identity(), Identity(), Identity(), (("0", True), ("1", False)))
    with pytest.raises(AlgebraError):
        KQRec(2, 0, Identity(), Identity(), Identity(), tuple())
    with pytest.raises(AlgebraError):
        KQRec(1, 0, Identity(), Identity(), Identity(), (("0", True), ("0", False)))


def test_translating_a_kqrec_is_linear_in_its_selection():
    # A kqrec over k control qubits has 2^k selection entries and 2^k
    # leaves: k = 12 is 4x the work of k = 10 when each lookup is O(1),
    # and 16x when each lookup rebuilds the selection map.
    def best_ms(k):
        selection = tuple(("".join(w), True) for w in itertools.product("01", repeat=k))
        term = KQRec(k, k, NotGate(), Identity(), Identity(), selection)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            to_pfoq(term)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_ms(12) / best_ms(10) < 8


def test_parse_format_round_trip():
    for text in TERM_CORPUS:
        term = parse_term(text)
        assert parse_term(format_term(term)) == term
    # Tabs, newlines and parentheses with no space around them split
    # tokens exactly as single spaces do.
    spaced = parse_term("(comp (branch i not) swap (ph pi / 2))")
    for text in (
        "(comp(branch i not)swap(ph pi / 2))",
        "\t(comp\t(branch\ti\tnot)\n swap\r\n(ph\vpi\f/\u20032))\n",
        "(comp (branch i not)\n\t\tswap (ph pi / 2) )",
    ):
        assert parse_term(text) == spaced


def test_parse_errors():
    with pytest.raises(AlgebraError):
        parse_term("")
    with pytest.raises(AlgebraError):
        parse_term(" \t\n")
    with pytest.raises(AlgebraError):
        parse_term("(comp i not)(")
    with pytest.raises(AlgebraError):
        parse_term("(comp i not))")
    with pytest.raises(AlgebraError):
        parse_term("(comp i")
    with pytest.raises(AlgebraError):
        parse_term("i i")
    with pytest.raises(AlgebraError):
        parse_term("(kqrec :k 1 :t 0 :f i :g i :h i :sel (0 rec))")


def test_translations_are_accepted(corpus=None):
    for text in TERM_CORPUS:
        program = to_pfoq(parse_term(text))
        verdict = check_pfoq(program)
        assert verdict.accepted, (text, verdict.diagnostics)


@pytest.mark.parametrize("text", TERM_CORPUS)
def test_translation_matches_evaluator(text):
    term = parse_term(text)
    program = to_pfoq(term)
    for n in range(1, 6):
        for psi in basis_states(n):
            expected = eval_algebra(term, psi)
            got = run(program, QuantumState(n, psi)).state.amplitudes
            assert np.allclose(got, expected, atol=1e-9), (text, n)


def test_phi_encode_layout():
    bits = phi_encode("101", [2, 1])  # P = 2 + 3 = 5
    l, p = 3, 5
    assert bits == "0" * l + "1" + "0" * p + "1" + "0" * (11 * p + 6) + "1" + "101"
    assert len(bits) == 2 * l + 12 * p + 9


def test_phi_encode_rejects_non_bitstrings():
    with pytest.raises(AlgebraError):
        phi_encode("10a", [1])
