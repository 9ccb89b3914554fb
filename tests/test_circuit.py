import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from foqc.algebra import parse_term, to_pfoq
from foqc.circuit import (
    FLIP,
    MIX,
    MIX_MANY,
    SCALE,
    SWAP,
    Circuit,
    CircuitError,
    CircuitSchemaError,
    ControlStructure,
    ControlledNot,
    ControlledSwap,
    ControlledU,
    WireLimitError,
    _matrix_error,
    _SparseState,
    ancilla_residue,
    elementary_gate_count,
    export_json,
    gate_wires,
    import_json,
    lower,
    replay_basis,
    routing_swaps,
    simulate_circuit,
    support_bits,
    trace_ancillas,
)
from foqc.compiler import compile_program
from foqc.parser import parse_program

from test_long_programs import straight_program

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def controlled_u_gate(controls, targets, matrix, label=None) -> ControlledU:
    """A `ControlledU` whose matrix is given as an array."""
    rows = tuple(map(tuple, np.asarray(matrix, dtype=complex)))
    return ControlledU(controls, tuple(targets), rows, label)


def basis(total, index):
    psi = np.zeros(1 << total, dtype=complex)
    psi[index] = 1.0
    return psi


def test_control_structure_normalization_and_lookup():
    cs = ControlStructure.of({3: 1, 1: 0})
    assert cs.bits == ((1, 0), (3, 1))
    assert cs.get(3) == 1 and cs.get(2) is None
    assert cs.wires == frozenset({1, 3})


def test_control_structure_validation():
    with pytest.raises(CircuitError):
        ControlStructure.of({0: 1})
    with pytest.raises(CircuitError):
        ControlStructure.of({1: 2})


@pytest.mark.parametrize(
    "build",
    [
        lambda: ControlStructure(((True, 1),)),
        lambda: ControlStructure(((1, False),)),
        lambda: ControlStructure.of({1: 0}).extended(2, True),
        lambda: ControlStructure.empty().extended(True, 1),
        lambda: ControlledNot(ControlStructure.empty(), True),
        lambda: ControlledSwap(ControlStructure.empty(), (1,), (True,)),
        lambda: Circuit(True, 0),
        lambda: Circuit(1, False),
    ],
    ids=["wire", "bit", "extended-bit", "extended-wire", "cnot", "cswap", "n", "ancillas"],
)
def test_booleans_are_not_wires_or_bits(build):
    # As ints they pass every range check, but export_json would write
    # true or false, which import_json refuses.
    with pytest.raises(CircuitError, match="not booleans"):
        build()


def test_extension_conflict_detected():
    cs = ControlStructure.of({1: 0})
    assert dict(cs.extended(2, 1).bits) == {1: 0, 2: 1}
    with pytest.raises(CircuitError):
        cs.extended(1, 1)


def test_controlled_u_requires_unitary():
    with pytest.raises(CircuitError):
        controlled_u_gate(ControlStructure.empty(), (1,), np.array([[1, 0], [0, 2]]))


@pytest.mark.parametrize(
    "matrix, targets, text",
    [
        (((1, 0), (0, 2)), (1,), "matrix is not unitary"),
        (((0, 1), (1, 0)), (1, 2), "matrix shape (2, 2) does not fit 2 target wire(s)"),
        ([[1, 0], [0, 2]], (1,), "matrix is not unitary"),
    ],
    ids=["not-unitary", "wrong-shape", "unhashable"],
)
def test_memoised_matrix_check_still_checks_every_gate(matrix, targets, text):
    def build(m, t):
        return ControlledU(ControlStructure.empty(), t, m)

    _matrix_error.cache_clear()
    with pytest.raises(CircuitError) as before:
        build(matrix, targets)
    assert str(before.value) == text
    # A valid matrix of the same size, memoised, must not excuse the bad one.
    build(((0, 1), (1, 0)), (1,))
    build(((0, 1), (1, 0)), (1,))
    for _ in range(2):
        with pytest.raises(CircuitError) as after:
            build(matrix, targets)
        assert str(after.value) == text


def numpy_matrix_error(matrix, targets: int) -> str | None:
    """The unitarity test as numpy computed it: the reference for `_matrix_error`."""
    dim = 1 << targets
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        return f"matrix shape {m.shape} does not fit {targets} target wire(s)"
    if not np.isfinite(m).all():
        return "matrix entries must be finite"
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max(np.abs(m.conj().T @ m - np.eye(dim)))
    if not deviation <= 1e-9:
        return "matrix is not unitary"
    return None


@st.composite
def unitaries(draw) -> tuple[list, int]:
    """A random unitary on 1-3 targets (QR of complex Gaussians), as rows
    of Python complex, perhaps perturbed by 1e-12 to 1e-6."""
    targets = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << targets
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if draw(st.booleans()):
        scale = 10 ** draw(st.floats(-12, -6))
        q = q + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return [[complex(z) for z in row] for row in q], targets


@st.composite
def integer_matrices(draw) -> tuple[list, int]:
    """An int or bool matrix, square with the targets' size or of any small
    rectangular shape, perhaps 1-D."""
    targets = draw(st.integers(0, 3))
    entries = st.integers(-1, 1) | st.booleans()
    shape = draw(st.sampled_from([(1 << targets,) * 2, (), None]))
    if shape == ():
        return draw(st.lists(entries, max_size=9)), targets
    rows, cols = shape or (draw(st.integers(0, 9)), draw(st.integers(0, 9)))
    row = st.lists(entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows)), targets


@st.composite
def non_finite_matrices(draw) -> tuple[list, int]:
    """A unitary with NaN, +-inf or +-1e308 in the real or imaginary parts
    of some entries of one column, or of any entries."""
    matrix, targets = draw(unitaries())
    huge = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
    places = st.integers(0, len(matrix) - 1)
    column = draw(places | st.none())
    for _ in range(draw(st.integers(1, 3))):
        row, col = draw(places), draw(places) if column is None else column
        z, part = matrix[row][col], draw(st.sampled_from(["re", "im", "both"]))
        re = z.real if part == "im" else draw(huge)
        matrix[row][col] = complex(re, z.imag if part == "re" else draw(huge))
    return matrix, targets


# A unit first column, then one whose inner product with it has finite parts
# but a modulus past the largest float: `abs` raises OverflowError on it.
ABS_OVERFLOW = [[math.sqrt(0.5), 1e308 + 1e308j], [math.sqrt(0.5), 1e308 + 1e308j]]


@given(
    case=st.one_of(unitaries(), integer_matrices(), non_finite_matrices()),
    as_tuples=st.booleans(),
)
@example(case=(ABS_OVERFLOW, 1), as_tuples=True)
def test_matrix_check_agrees_with_numpy(case, as_tuples):
    matrix, targets = case
    if as_tuples and all(isinstance(row, list) for row in matrix):
        matrix = tuple(map(tuple, matrix))
    assert _matrix_error.__wrapped__(matrix, targets) == numpy_matrix_error(matrix, targets)


def test_gate_wire_disjointness():
    with pytest.raises(CircuitError):
        ControlledNot(ControlStructure.of({1: 1}), 1)
    with pytest.raises(CircuitError):
        ControlledSwap(ControlStructure.empty(), (1,), (1,))


def apply_gate(psi, total, gate):
    """One gate on a state over all `total` wires, via a one-gate circuit."""
    return simulate_circuit(Circuit(total, 0, (gate,)), psi)


def test_apply_cnot_and_cswap():
    # CNOT with control wire 1 (most significant of 2) and target 2.
    psi = apply_gate(basis(2, 0b10), 2, ControlledNot(ControlStructure.of({1: 1}), 2))
    assert np.allclose(psi, basis(2, 0b11))
    # Swap wires 1 and 2 of |10> gives |01>.
    psi = apply_gate(basis(2, 0b10), 2, ControlledSwap(ControlStructure.empty(), (1,), (2,)))
    assert np.allclose(psi, basis(2, 0b01))


def test_apply_controlled_u_matches_dense_matrix():
    rng = np.random.default_rng(5)
    gate = controlled_u_gate(ControlStructure.of({1: 1}), (2,), H)
    dense = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), H)
    for _ in range(4):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        assert np.allclose(apply_gate(amp, 2, gate), dense @ amp, atol=1e-12)


def test_gate_and_size_metrics():
    gates = (
        ControlledNot(ControlStructure.of({1: 1, 2: 1, 3: 1}), 4),
        ControlledSwap(ControlStructure.empty(), (1, 2), (3, 4)),
    )
    c = Circuit(4, 1, gates)
    assert c.gate_count() == 3  # cswap counts per pair
    assert c.total_wires == 5
    assert c.gate_count() + c.total_wires == 8
    # Three controls decompose into 2*(3-1)+1 = 5 elementary gates; the
    # lowered swap is one op per pair.
    assert elementary_gate_count(lower(c)) == 5 + 2


def test_routing_swaps_route_and_reverse():
    cs = ControlStructure.empty()
    src, dst = (1, 2, 3), (3, 4, 1)
    gates = routing_swaps(cs, src, dst)
    psi = basis(4, 0b1100)  # wires 1,2 set
    for g in gates:
        psi = apply_gate(psi, 4, g)
    # payloads 1,1,0 from wires 1,2,3 now sit on wires 3,4,1.
    assert np.allclose(psi, basis(4, 0b0011))
    for g in reversed(gates):
        psi = apply_gate(psi, 4, g)
    assert np.allclose(psi, basis(4, 0b1100))


def test_routing_rejects_mismatched_lengths():
    with pytest.raises(CircuitError):
        routing_swaps(ControlStructure.empty(), (1, 2), (3,))


def test_pad_and_trace_ancillas():
    psi = np.array([0.6, 0.8j])
    padded = np.kron(psi, [1, 0, 0, 0])  # two ancillas in |00>
    assert padded.shape == (8,)
    assert np.allclose(trace_ancillas(padded, 2), psi)
    assert ancilla_residue(padded, 2) == 0.0


def test_simulate_accepts_padded_or_plain_input():
    c = Circuit(1, 1, (ControlledNot(ControlStructure.empty(), 1),))
    plain = simulate_circuit(c, np.array([1.0, 0.0]))
    padded = simulate_circuit(c, np.kron([1.0, 0.0], [1, 0]))
    assert np.allclose(plain, padded)


def test_export_json_is_canonical():
    c = Circuit(
        2,
        0,
        (
            controlled_u_gate(ControlStructure.of({1: 1}), (2,), np.diag([1, 1j]), "S"),
            ControlledSwap(ControlStructure.empty(), (1,), (2,)),
        ),
    )
    text = export_json(c)
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    payload = json.loads(text)
    kinds = [g["kind"] for g in payload["gates"]]
    assert kinds == ["cu", "cswap"]
    # cswap targets serialize as left half then right half, flattened.
    assert payload["gates"][1]["targets"] == [1, 2]


def test_import_json_sorts_controls():
    gate = {"kind": "cnot", "controls": [[3, 1], [1, 0]], "targets": [2]}
    c = import_json(json.dumps({"n": 3, "ancillas": 0, "gates": [gate]}))
    assert c.gates[0].controls.bits == ((1, 0), (3, 1))
    payload = json.loads(export_json(c))
    assert payload["gates"][0]["controls"] == [[1, 0], [3, 1]]


def test_json_round_trip(qft):
    from foqc.compiler import compile_program

    c = compile_program(qft, 3)
    assert import_json(export_json(c)) == c


def test_import_json_schema_errors():
    with pytest.raises(CircuitSchemaError):
        import_json("{")
    with pytest.raises(CircuitSchemaError):
        import_json(json.dumps({"n": 1, "ancillas": 0}))
    with pytest.raises(CircuitSchemaError):
        import_json(
            json.dumps(
                {
                    "n": 1,
                    "ancillas": 0,
                    "gates": [{"kind": "mystery", "controls": [], "targets": [1]}],
                }
            )
        )


def _distinct(c: Circuit) -> tuple[int, int]:
    """How many distinct gate objects and distinct gate values c holds."""
    return len({id(g) for g in c.gates}), len(set(c.gates))


@pytest.fixture(scope="module")
def straight_circuit():
    return compile_program(parse_program(straight_program(400)), 8)


# Programs that write equal operators apart: `H(q[1])` desugars to a second
# RY[pi / 4], and each algebra term repeats an atom.
EQUAL_OPERATORS = [
    (":: q[1] *= H; H(q[1]);", 1),
    ("(kqrec :k 1 :t 0 :f (ph pi / 4) :g (ph pi / 4) :h (ph pi / 4) :sel (0 i) (1 rec))", 10),
    ("(kqrec :k 1 :t 1 :f (rot pi / 2) :g (ph pi / 2) :h (ph pi / 2) :sel (0 rec) (1 rec))", 10),
]


def test_compile_builds_each_distinct_gate_once(straight_circuit):
    programs = [
        (to_pfoq(parse_term(source)) if source[0] == "(" else parse_program(source), n)
        for source, n in EQUAL_OPERATORS
    ]
    circuits = [straight_circuit] + [compile_program(p, n) for p, n in programs]
    for circuit in circuits:
        objects, values = _distinct(circuit)
        assert values < len(circuit.gates)  # the program repeats gates
        assert objects == values


def test_import_builds_each_distinct_gate_once(straight_circuit):
    back = import_json(export_json(straight_circuit))
    assert back == straight_circuit
    values = len(set(back.gates))
    assert _distinct(back) == (values, values)
    # Repeats lower to the very ops of their first occurrence.
    assert len({id(op) for op in lower(back)}) == values


def test_gates_that_differ_only_in_the_sign_of_a_zero_stay_apart():
    def gate(zero):
        matrix = [[[1.0, 0.0], [zero, 0.0]], [[0.0, zero], [1.0, 0.0]]]
        return {"controls": [], "kind": "cu", "matrix": matrix, "targets": [1]}

    gates = [gate(0.0), gate(-0.0), gate(0.0), gate(-0.0)]
    text = json.dumps(
        {"ancillas": 0, "gates": gates, "n": 1}, sort_keys=True, separators=(",", ":")
    )
    assert export_json(import_json(text)) == text


def test_gate_wires_helper():
    gate = ControlledSwap(ControlStructure.of({1: 1}), (2,), (3,))
    assert gate_wires(gate) == frozenset({1, 2, 3})
    gate = controlled_u_gate(ControlStructure.of({1: 0}), (2,), X)
    c = Circuit(max(gate_wires(gate)), 0, (gate,))
    assert c.n == 2 and c.gate_count() == 1


def dense_replay(ops, n, ancillas, basis):
    """replay_basis's summed sparse columns, scattered into its (2^n, k)
    outputs, and its residues."""
    keys, amps, residues = replay_basis(ops, n, ancillas, basis)
    outs = np.zeros((1 << n, len(basis)), dtype=complex)
    outs[keys & ((1 << n) - 1), keys >> n] = amps
    return outs, residues


def per_basis(c, basis):
    """dense_replay of the lowered circuit, rebuilt from one dense
    simulation per basis input."""
    fulls = [simulate_circuit(c, np.eye(1 << c.n)[b]) for b in basis]
    outs = np.stack([trace_ancillas(full, c.ancillas) for full in fulls], axis=1)
    return outs, np.array([ancilla_residue(full, c.ancillas) for full in fulls])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_simulate_basis_matches_per_basis_simulation(corpus, n):
    for program in corpus.values():
        c = compile_program(program, n)
        inputs = list(range(0, 1 << n, 3))
        outs, residues = dense_replay(lower(c), c.n, c.ancillas, inputs)
        want_outs, want_residues = per_basis(c, inputs)
        assert outs.shape == (1 << n, len(inputs))
        assert np.max(np.abs(outs - want_outs)) <= 1e-15
        assert np.max(np.abs(residues - want_residues)) <= 1e-15


def test_simulate_basis_keeps_columns_apart_and_traces_dirty_ancillas():
    # H on wire 1 sends inputs 00 and 10 to the same two wire indices, with
    # opposite signs; the CNOT leaves the ancilla set exactly when wire 2 is.
    c = Circuit(2, 1, (
        controlled_u_gate(ControlStructure.empty(), (1,), H),
        ControlledNot(ControlStructure.of({2: 1}), 3),
    ))
    outs, residues = dense_replay(lower(c), c.n, c.ancillas, [0, 1, 2, 3])
    want_outs, want_residues = per_basis(c, [0, 1, 2, 3])
    assert np.max(np.abs(outs - want_outs)) <= 1e-15
    assert np.max(np.abs(residues - want_residues)) <= 1e-15
    assert np.allclose(outs[:, 0], [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0])
    assert np.allclose(outs[:, 2], [1 / math.sqrt(2), 0, -1 / math.sqrt(2), 0])
    assert residues[0] == residues[2] == 0.0
    assert residues[1] == pytest.approx(1.0) and residues[3] == pytest.approx(1.0)


def test_replay_basis_refuses_indices_past_62_bits():
    with pytest.raises(WireLimitError):
        replay_basis(lower(Circuit(1, 61)), 1, 61, [0, 1])


# Kernel ops act on index bits 0..3; bit 4 is never set, so a pin wanting
# it selects nothing.  Column j's entries carry j in the bits above.
KERNEL_BITS = 5
NEVER = 1 << 4
H_ENTRIES = tuple(H.reshape(-1))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_op(rng):
    """A random op of a random kind, on random bits and pins."""
    shifts = rng.permutation(4)
    bit = 1 << int(shifts[0])
    mask = sum(1 << int(s) for s in shifts[2:] if rng.random() < 0.5)
    want = mask & int(rng.integers(16))
    kind = rng.choice(["flip", "swap", "scale", "mix", "zeros", "idle", "many"])
    if kind == "flip":
        return (FLIP, mask, want, bit, None)
    if kind == "swap":
        return (SWAP, mask, want, (int(shifts[0]), int(shifts[1])), None)
    if kind == "scale":
        phases = np.exp(2j * np.pi * rng.random(2))
        return (SCALE, mask, want, bit, ((0, phases[0]), (bit, phases[1])))
    if kind == "mix":
        return (MIX, mask, want, bit, tuple(random_unitary(rng, 2).reshape(-1)))
    if kind == "zeros":  # exact zeros: a missing partner's share, or H twice
        entries = (0, -1, 1, 0) if rng.random() < 0.5 else H_ENTRIES
        return (MIX, mask, want, bit, entries)
    if kind == "idle":
        return (MIX, mask | NEVER, want | NEVER, bit, H_ENTRIES)
    targets = (bit, 1 << int(shifts[1]))
    return (MIX_MANY, mask, want, targets, random_unitary(rng, 4))


def kernel_entries(state):
    order = np.argsort(state.index)
    return state.index[order].tolist(), state.amp[order].tobytes()


# H q0; CNOT q0 -> q1; H q0 mixes one bit but reaches 4 entries.
H_CNOT_H = [(MIX, 0, 0, 1, H_ENTRIES), (FLIP, 1, 1, 2, None), (MIX, 0, 0, 1, H_ENTRIES)]


def kernel_cases():
    yield pytest.param([0, 1, 2, 3], H_CNOT_H, id="h-cnot-h")
    for seed in range(30):
        rng = np.random.default_rng(seed)
        basis = rng.integers(16, size=int(rng.integers(1, 7))).tolist()
        yield pytest.param(basis, [random_op(rng) for _ in range(40)], id=f"seed-{seed}")


@pytest.mark.parametrize("basis, ops", kernel_cases())
def test_kernel_growth_branch_matches_the_paired_mix(basis, ops):
    # The reference's spread word holds every bit, so none of its mixes
    # takes the growth branch.  After every op both states hold the same
    # entries, bit for bit, and no column outgrows the support bound.
    index = np.array(basis, dtype=np.int64) | (np.arange(len(basis)) << KERNEL_BITS)
    state = _SparseState(index.copy(), np.ones(len(basis), dtype=complex), 0)
    reference = _SparseState(index.copy(), np.ones(len(basis), dtype=complex), -1)
    for i, op in enumerate(ops):
        state.replay([op])
        reference.replay([op])
        assert kernel_entries(state) == kernel_entries(reference), (i, op)
        widest = np.bincount(state.index >> KERNEL_BITS).max()
        assert widest <= 1 << support_bits(ops[: i + 1]), (i, op)
