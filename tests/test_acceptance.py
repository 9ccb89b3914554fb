"""End-to-end acceptance suite.

Nine checks, one test per numbered behavior, with every tolerance pinned:

1. static verdicts on the bundled programs and a width-2 counterexample;
2. the closed-form call-level formula for the Fourier program, n = 1..8;
3. interpreter output against a dense Fourier oracle (n <= 5) plus a
   hand-derived two-qubit rotation example;
4. inversion round-trips on random states for every bundled program;
5. interpreter/compiler agreement (deviation and ancilla residue);
6. merging effectiveness: exact ancilla count, linear merged gate growth,
   exponential growth of the per-definition expansion (the walk's ops);
7. the compile-time orthogonality invariant is silent on the corpus and
   fires under a mutation that disables control-structure extension;
8. algebra terms translate to accepted programs matching the reference
   evaluator on all short basis states;
9. determinism and structural properties delegated to the property suite.
"""

import math

import numpy as np
import pytest

import foqc.compiler as compiler_module
from foqc import parse_program, run
from foqc.algebra import (
    Branch,
    Comp,
    Identity,
    KQRec,
    NotGate,
    PhaseGate,
    RotGate,
    SwapGate,
    eval_algebra,
    to_pfoq,
)
from foqc.analysis import call_relations, check_pfoq
from foqc.circuit import (
    ancilla_residue,
    elementary_gate_count,
    export_json,
    simulate_circuit,
    trace_ancillas,
)
from foqc.compiler import (
    OrthogonalityError,
    compile_program,
    compile_with_stats,
    diff_check,
)
from foqc.interpreter import QuantumState, guard_errors, walk
from foqc.transform import invert

from test_properties import random_state

TOLERANCE = 1e-9

WIDTH_TWO_SOURCE = """
decl bad(p) {
  if size(p) > 0 then {
    call bad(p \\ [1]);
    call bad(p \\ [1]);
  } else { skip; }
},
:: call bad(q);
"""


# ---------------------------------------------------------------------------
# 1. Static verdicts.
# ---------------------------------------------------------------------------


def test_acceptance_1_static_verdicts(qft, teleport, branching):
    verdict = check_pfoq(qft)
    assert verdict.accepted
    assert verdict.widths == {"rec": 1, "rot": 1, "inv": 1}
    relations = call_relations(qft)
    assert "rot" in relations.reachable(["rec"]) - relations.equiv["rec"]

    assert not check_pfoq(parse_program(WIDTH_TWO_SOURCE)).accepted
    assert check_pfoq(branching).accepted
    assert check_pfoq(teleport).accepted


# ---------------------------------------------------------------------------
# 2. Level formula.
# ---------------------------------------------------------------------------


def test_acceptance_2_level_formula(qft):
    for n in range(1, 9):
        expected = (n + 1) * (n + 2) // 2 + n // 2 + 1
        assert walk(qft, n).level == expected


# ---------------------------------------------------------------------------
# 3. Interpreter against the dense Fourier oracle.
# ---------------------------------------------------------------------------


def dft_matrix(n):
    dim = 1 << n
    omega = np.exp(2j * math.pi / dim)
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return omega ** (j * k) / math.sqrt(dim)


def test_acceptance_3_fourier_oracle(qft):
    for n in range(1, 6):
        oracle = dft_matrix(n)
        dim = 1 << n
        worst = 0.0
        for index in range(dim):
            amps = np.zeros(dim, dtype=complex)
            amps[index] = 1.0
            out = run(qft, QuantumState(n, amps)).state.amplitudes
            worst = max(worst, float(np.max(np.abs(out - oracle[:, index]))))
        assert worst < TOLERANCE, (n, worst)


ROT_ONLY_SOURCE = """
decl rot[x](p) {
  if size(p) > 1 then {
    qcase p[2] of {
      0 -> skip;
      ,
      1 -> p[1] *= PH[pi / 2^(x - 1)](x);
    }
    call rot[x + 1](p \\ [2]);
  } else {
    skip;
  }
},
:: call rot[2](q);
"""


def test_acceptance_3_two_qubit_rotation_example():
    # Run the rotation procedure alone on two qubits: the second qubit
    # quantum-controls a pi/2 phase on the first, and the nested call on
    # the leftover single qubit contributes one extra level.
    program = parse_program(ROT_ONLY_SOURCE)
    rng = np.random.default_rng(17)
    state = random_state(2, rng)
    outcome = run(program, state)
    assert outcome.level == 2
    expected = state.amplitudes.copy()
    expected[0b11] *= np.exp(1j * math.pi / 2)
    assert np.max(np.abs(outcome.state.amplitudes - expected)) < TOLERANCE


# ---------------------------------------------------------------------------
# 4. Reversibility.
# ---------------------------------------------------------------------------


def test_acceptance_4_reversibility(corpus):
    rng = np.random.default_rng(29)
    for name, program in corpus.items():
        inverse = invert(program)
        for n in range(2, 6):
            for _ in range(16):
                state = random_state(n, rng)
                forward = run(program, state).state
                back = run(inverse, forward).state
                deviation = float(np.max(np.abs(back.amplitudes - state.amplitudes)))
                assert deviation < TOLERANCE, (name, n, deviation)


# ---------------------------------------------------------------------------
# 5. Interpreter/compiler agreement.
# ---------------------------------------------------------------------------


def test_acceptance_5_compilation_equivalence(qft, teleport, branching):
    jobs = (
        [(qft, n) for n in range(1, 6)]
        + [(teleport, 3), (teleport, 6)]
        + [(branching, n) for n in range(3, 9)]
    )
    for program, n in jobs:
        report = diff_check(program, n)
        assert report.max_deviation < TOLERANCE, (n, report)
        assert report.max_ancilla_residue < TOLERANCE, (n, report)


def test_acceptance_5_algebra_translations_compile():
    for term in exhaustive_terms():
        program = to_pfoq(term)
        for n in range(1, 6):
            report = diff_check(program, n)
            assert report.max_deviation < TOLERANCE, (term, n)
            assert report.max_ancilla_residue < TOLERANCE, (term, n)


def per_basis_diff(program, n):
    """diff_check's report, rebuilt from one run and one dense simulation per basis state."""
    circuit = compile_program(program, n)
    guarded = guard_errors(program)
    max_dev = max_residue = 0.0
    for b in range(1 << n):
        state = QuantumState.from_bits(format(b, f"0{n}b"))
        expected = run(guarded, state).state.amplitudes
        full = simulate_circuit(circuit, state)
        actual = trace_ancillas(full, circuit.ancillas)
        max_dev = max(max_dev, float(np.max(np.abs(actual - expected))))
        max_residue = max(max_residue, ancilla_residue(full, circuit.ancillas))
    return max_dev, max_residue


def test_acceptance_5_batched_diff_agrees_with_per_basis_rebuild():
    # diff_check evaluates its basis states as the columns of one matrix and
    # traces the ancillas on the sparse state.  Its report agrees with the
    # per-basis rebuild to 1e-15, not exactly: numpy's complex multiply takes
    # a different loop on longer arrays, above all on the sparse
    # diagonal-phase path, and rounds differently there, so a report of
    # 4.3e-17 can read 0.0 (or the reverse).
    for term in exhaustive_terms():
        program = to_pfoq(term)
        for n in range(1, 6):
            report = diff_check(program, n)
            max_dev, max_residue = per_basis_diff(program, n)
            assert abs(report.max_deviation - max_dev) <= 1e-15, (term, n)
            assert abs(report.max_ancilla_residue - max_residue) <= 1e-15, (term, n)


# ---------------------------------------------------------------------------
# 6. Merging effectiveness.
# ---------------------------------------------------------------------------


def test_acceptance_6_merging_effectiveness(branching):
    circuit, stats = compile_with_stats(branching, 7)
    assert stats["ancillas"] == 6

    sizes = {n: compile_program(branching, n).gate_count() for n in (7, 10, 14, 20)}
    xs = np.array(sorted(sizes))
    ys = np.array([sizes[n] for n in xs])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    max_residual = float(np.max(np.abs(fitted - ys) / ys))
    assert max_residual <= 0.10, sizes

    guarded = guard_errors(branching)
    naive = [elementary_gate_count(walk(guarded, n).ops) for n in range(4, 11)]
    ratios = [b / a for a, b in zip(naive, naive[1:])]
    assert all(r > 1.8 for r in ratios), (naive, ratios)


# ---------------------------------------------------------------------------
# 7. Orthogonality invariant: silent on the corpus, live under mutation.
# ---------------------------------------------------------------------------


def test_acceptance_7_orthogonality_invariant(corpus, monkeypatch):
    for name, program in corpus.items():
        n = 7 if name == "branching" else 3
        _, stats = compile_with_stats(program, n)  # must not raise
        assert stats["orthogonality_checks"] >= 0

    monkeypatch.setattr(
        compiler_module, "_extend_control", lambda cs, wire, bit: cs
    )
    with pytest.raises(OrthogonalityError):
        compile_program(corpus["branching"], 7)


# ---------------------------------------------------------------------------
# 8. Algebra round-trip on a generated term corpus.
# ---------------------------------------------------------------------------

THETAS = ("pi / 4", "pi / 2")


def _phase(text):
    from foqc.parser import parse_phase_text

    return parse_phase_text(text)


def atoms():
    yield Identity()
    yield NotGate()
    yield SwapGate()
    for theta in THETAS:
        yield PhaseGate(_phase(theta))
        yield RotGate(_phase(theta))


def exhaustive_terms():
    """All terms of size <= 4.

    Size counts constructor nodes, plus k for a k-qubit recursion (its
    selection table grows with k).  With that measure the size-4 budget
    is exhausted by atoms and atom-over-atom compositions/branches.
    """
    base = list(atoms())
    for term in base:
        yield term
    for left in base:
        for right in base:
            yield Comp(left, right)
            yield Branch(left, right)


def random_terms(count=20, max_size=7, seed=2026):
    rng = np.random.default_rng(seed)
    base = list(atoms())

    def build(budget):
        choices = ["atom"]
        if budget >= 3:
            choices += ["comp", "branch"]
        if budget >= 5:
            choices.append("kqrec1")
        if budget >= 6:
            choices.append("kqrec2")
        kind = choices[rng.integers(len(choices))]
        if kind == "atom":
            return base[rng.integers(len(base))], 1
        if kind in ("comp", "branch"):
            left, used_l = build(budget - 2)
            right, used_r = build(budget - 1 - used_l)
            ctor = Comp if kind == "comp" else Branch
            return ctor(left, right), 1 + used_l + used_r
        k = 1 if kind == "kqrec1" else 2
        children = []
        used = 1 + k
        for _ in range(3):
            child, child_used = build(max(1, budget - used - (2 - len(children))))
            children.append(child)
            used += child_used
        selection = tuple(
            (format(j, f"0{k}b"), bool(rng.integers(2))) for j in range(1 << k)
        )
        return KQRec(k, k - 1 + int(rng.integers(2)), *children, selection), used

    for _ in range(count):
        yield build(max_size)[0]


def _basis_states(n):
    for index in range(1 << n):
        amps = np.zeros(1 << n, dtype=complex)
        amps[index] = 1.0
        yield amps


def _check_term(term):
    program = to_pfoq(term)
    assert check_pfoq(program).accepted, term
    for n in range(1, 6):
        for amps in _basis_states(n):
            expected = eval_algebra(term, amps)
            got = run(program, QuantumState(n, amps)).state.amplitudes
            deviation = float(np.max(np.abs(got - expected)))
            assert deviation < TOLERANCE, (term, n, deviation)


def test_acceptance_8_exhaustive_term_corpus():
    for term in exhaustive_terms():
        _check_term(term)


def test_acceptance_8_random_term_corpus():
    for term in random_terms():
        _check_term(term)


# ---------------------------------------------------------------------------
# 9. Determinism and structural properties.
# ---------------------------------------------------------------------------


def test_acceptance_9_deterministic_compile(branching):
    for n in (5, 8, 11):
        assert export_json(compile_program(branching, n)) == export_json(
            compile_program(branching, n)
        )
    # Norm preservation, linearity, and level amplitude-independence are
    # exercised generatively in the property suite (test_properties.py).
