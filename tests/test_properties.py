import math
import operator
from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from foqc import parse_program, run
from foqc.circuit import (
    Circuit,
    ControlledNot,
    ControlledSwap,
    ControlStructure,
    export_json,
    import_json,
    simulate_circuit,
)
from foqc.compiler import Regions, _Context, compile_program
from foqc.interpreter import QuantumState, eval_bool, eval_int, eval_set
from foqc.parser import parse_phase_text
from foqc.programs import BRANCHING_SOURCE, QFT_SOURCE
from foqc.syntax import _eval_phase_raw, format_phase, pretty_print

from test_circuit import controlled_u_gate


QFT = parse_program(QFT_SOURCE)
BRANCHING = parse_program(BRANCHING_SOURCE)


def random_state(n, rng):
    """A normalized statevector with Gaussian real and imaginary parts."""
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_run_preserves_norm(n, seed):
    out = run(QFT, random_state(n, np.random.default_rng(seed)))
    assert abs(np.linalg.norm(out.state.amplitudes) - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    seed_a=st.integers(0, 2**31),
    seed_b=st.integers(0, 2**31),
    weight=st.floats(0.1, 0.9),
)
def test_run_is_linear(n, seed_a, seed_b, weight):
    a = random_state(n, np.random.default_rng(seed_a)).amplitudes
    b = random_state(n, np.random.default_rng(seed_b)).amplitudes
    mix = weight * a + (1 - weight) * b
    norm = np.linalg.norm(mix)
    if norm < 1e-6:
        return
    mixed_out = run(QFT, QuantumState(n, mix / norm)).state.amplitudes
    out_a = run(QFT, QuantumState(n, a)).state.amplitudes
    out_b = run(QFT, QuantumState(n, b)).state.amplitudes
    expected = (weight * out_a + (1 - weight) * out_b) / norm
    assert np.allclose(mixed_out, expected, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_level_is_amplitude_independent(n, seed):
    reference = run(QFT, QuantumState.from_bits("0" * n)).level
    assert run(QFT, random_state(n, np.random.default_rng(seed))).level == reference


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 9))
def test_compile_is_deterministic_bytes(n):
    assert export_json(compile_program(BRANCHING, n)) == export_json(
        compile_program(BRANCHING, n)
    )


@st.composite
def region_problems(draw):
    """n <= 6 input wires, ancillas meaning ORs of input-wire control
    structures, and control structures pinning inputs, and ancillas at 1
    as the compiler pins them."""
    n = draw(st.integers(1, 6))
    cube = st.dictionaries(st.integers(1, n), st.integers(0, 1), max_size=n)
    meanings = draw(st.lists(st.lists(cube, max_size=3), max_size=3))
    pins = st.dictionaries(
        st.integers(1, n + len(meanings)), st.integers(0, 1), max_size=4
    ).map(lambda c: {w: 1 if w > n else b for w, b in c.items()})
    structures = draw(st.lists(pins, min_size=1, max_size=5))
    return n, meanings, structures


def bdd_value(regions, u, x):
    while u > Regions.TRUE:
        wire, low, high = regions.nodes[u]
        u = high if x[wire - 1] else low
    return u == Regions.TRUE


@settings(max_examples=200, deadline=None)
@given(problem=region_problems())
def test_bdd_regions_match_truth_tables(problem):
    n, meanings, structures = problem
    ctx = _Context(decls={}, width_tables={}, n=n)
    regions = ctx.regions
    for k, cubes in enumerate(meanings):
        meaning = Regions.FALSE
        for c in cubes:
            meaning = regions.disj(meaning, ctx.resolve(ControlStructure.of(c)))
        ctx.meanings[n + 1 + k] = meaning

    def covers(c, x):
        return all(x[w - 1] == b for w, b in c.items())

    def holds(pins, x):
        return all(
            (x[w - 1] if w <= n else any(covers(c, x) for c in meanings[w - n - 1])) == b
            for w, b in pins.items()
        )

    assignments = [tuple((i >> (n - 1 - j)) & 1 for j in range(n)) for i in range(1 << n)]
    resolved = [ctx.resolve(ControlStructure.of(pins)) for pins in structures]
    tables = [tuple(holds(pins, x) for x in assignments) for pins in structures]
    for r, table in zip(resolved, tables):
        assert tuple(bdd_value(regions, r, x) for x in assignments) == table
    for i, (r_i, t_i) in enumerate(zip(resolved, tables)):
        for r_j, t_j in zip(resolved[i:], tables[i:]):
            # Canonical form: equal regions are the same node.
            assert (r_i == r_j) == (t_i == t_j)
            disjoint = not any(a and b for a, b in zip(t_i, t_j))
            assert (regions.conj(r_i, r_j) == Regions.FALSE) == disjoint
    # Reduced and ordered: no node has equal children, children test wires
    # of strictly lower level.
    levels = regions.levels
    for wire, low, high in regions.nodes[2:]:
        assert low != high
        for child in (low, high):
            assert child <= Regions.TRUE or levels[regions.nodes[child][0]] < levels[wire]


SWAP = np.eye(4)[[0, 2, 1, 3]]
X = np.array([[0, 1], [1, 0]])


def _unitary(kind, m, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    if kind == "diagonal":
        return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
    if kind == "permutation":  # exact zeros: entries move without mixing
        return np.eye(dim)[rng.permutation(dim)] * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def small_circuits(draw):
    """Circuits on at most 5 wires, ancillas included, with 0- and
    1-controls, multi-target cu and multi-pair cswap gates."""
    n = draw(st.integers(1, 4))
    total = draw(st.integers(n, 5))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        wires = draw(st.permutations(range(1, total + 1)))
        kind = draw(st.sampled_from(["cu", "cnot", "cswap"] if total >= 2 else ["cu", "cnot"]))
        if kind == "cswap":
            pairs = draw(st.integers(1, total // 2))
            targets = wires[: 2 * pairs]
        else:
            targets = wires[: draw(st.integers(1, min(3, total)))] if kind == "cu" else wires[:1]
        rest = wires[len(targets) :]
        controls = ControlStructure.of(
            {w: draw(st.integers(0, 1)) for w in rest[: draw(st.integers(0, len(rest)))]}
        )
        if kind == "cnot":
            gates.append(ControlledNot(controls, targets[0]))
        elif kind == "cswap":
            gates.append(ControlledSwap(controls, tuple(targets[:pairs]), tuple(targets[pairs:])))
        else:
            matrix = _unitary(
                draw(st.sampled_from(["random", "diagonal", "permutation"])),
                len(targets),
                draw(st.integers(0, 2**31)),
            )
            gates.append(controlled_u_gate(controls, tuple(targets), matrix))
    return Circuit(n, total - n, tuple(gates))


def _dense(total, controls, targets, matrix):
    """The full 2^total matrix of `matrix` on `targets` under `controls`,
    summed from Kronecker products of one-wire factors."""
    pins = dict(controls.bits)
    m = len(targets)
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

    def factor(wire, j, k):
        if wire in pins:
            return proj[pins[wire]]
        if wire in targets:
            shift = m - 1 - targets.index(wire)
            unit = np.zeros((2, 2))
            unit[(j >> shift) & 1, (k >> shift) & 1] = 1.0
            return unit
        return np.eye(2)

    wires = range(1, total + 1)
    out = np.eye(1 << total, dtype=complex) - reduce(
        np.kron, [proj[pins[w]] if w in pins else np.eye(2) for w in wires]
    )
    for j in range(1 << m):
        for k in range(1 << m):
            out = out + matrix[j, k] * reduce(np.kron, [factor(w, j, k) for w in wires])
    return out


def _dense_gate(total, gate):
    if isinstance(gate, ControlledNot):
        return _dense(total, gate.controls, [gate.target], X)
    if isinstance(gate, ControlledSwap):
        return reduce(
            np.matmul,
            [_dense(total, gate.controls, [a, b], SWAP) for a, b in zip(gate.left, gate.right)],
        )
    return _dense(total, gate.controls, list(gate.targets), gate.matrix_array())


@settings(max_examples=100, deadline=None)
@given(circuit=small_circuits())
def test_circuit_json_round_trips(circuit):
    # Multi-pair cswap and multi-target cu gates come back as they went.
    assert import_json(export_json(circuit)) == circuit


@settings(max_examples=150, deadline=None)
@given(
    circuit=small_circuits(),
    seed=st.integers(0, 2**31),
    padded=st.booleans(),
    support=st.floats(0.3, 1.0),
)
def test_simulate_matches_dense_unitary(circuit, seed, padded, support):
    rng = np.random.default_rng(seed)
    total = circuit.total_wires
    width = total if padded else circuit.n
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    # Zero part of the input, keeping two entries, so sparse inputs are covered.
    amps[rng.permutation(1 << width)[2:]] *= rng.random((1 << width) - 2) < support
    amps /= np.linalg.norm(amps)
    expected = amps if padded else np.kron(amps, np.eye(1 << (total - circuit.n))[0])
    for gate in circuit.gates:
        expected = _dense_gate(total, gate) @ expected
    assert np.allclose(simulate_circuit(circuit, amps), expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Operator chains.  Each strategy draws source text and the value computed
# here as a left fold.  A chain's first operand may be a parenthesized chain
# of the same kind, which the parser splices; a later operand may be any
# parenthesized chain, which stays nested.
# ---------------------------------------------------------------------------

PHASE_X = 3
PHASE_LEAVES = [("1", 1.0), ("2", 2.0), ("3", 3.0), ("pi", math.pi), ("x", float(PHASE_X))]
PHASE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
BOOL_LEAVES = [("1 = 1", True), ("2 > 3", False), ("!(1 >= 2)", True)]


@st.composite
def phase_chains(draw, ops=None, depth=2):
    """A phase chain of one family, "+-" or "*/", as (text, value at x =
    PHASE_X).  Every denominator is a leaf, and no leaf is zero."""
    ops = ops or draw(st.sampled_from(["+-", "*/"]))
    if depth and draw(st.booleans()):
        text, value = draw(phase_chains(ops, depth - 1))
        text = f"({text})"
    else:
        text, value = draw(st.sampled_from(PHASE_LEAVES))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(ops))
        if op != "/" and depth and draw(st.booleans()):
            operand, v = draw(phase_chains(None, depth - 1))
            operand = f"({operand})"
        else:
            operand, v = draw(st.sampled_from(PHASE_LEAVES))
        text, value = f"{text} {op} {operand}", PHASE_OPS[op](value, v)
    return text, value


@st.composite
def bool_chains(draw, op=None, depth=2):
    """A chain of one connective as (text, value)."""
    op = op or draw(st.sampled_from(["&&", "||"]))
    if depth and draw(st.booleans()):
        text, value = draw(bool_chains(op, depth - 1))
        text = f"({text})"
    else:
        text, value = draw(st.sampled_from(BOOL_LEAVES))
    for _ in range(draw(st.integers(1, 4))):
        if depth and draw(st.booleans()):
            operand, v = draw(bool_chains(None, depth - 1))
            operand = f"({operand})"
        else:
            operand, v = draw(st.sampled_from(BOOL_LEAVES))
        text = f"{text} {op} {operand}"
        value = (value and v) if op == "&&" else (value or v)
    return text, value


@st.composite
def offset_chains(draw, depth=2):
    """An integer offset chain as (text, value)."""
    if depth and draw(st.booleans()):
        text, value = draw(offset_chains(depth - 1))
        text = f"({text})"
    else:
        value = draw(st.integers(0, 9))
        text = str(value)
    for _ in range(draw(st.integers(1, 4))):
        op, k = draw(st.sampled_from("+-")), draw(st.integers(0, 9))
        text, value = f"{text} {op} {k}", value + k if op == "+" else value - k
    return text, value


@st.composite
def removal_chains(draw):
    """Removals from q = (1..6) in one or more bracket lists, as (text,
    the list left): each index sees the list the removals before it left."""
    left = tuple(range(1, 7))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        group = []
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.one_of(st.integers(0, 7), st.just("size(q)")))
            group.append(str(k))
            k = len(left) if k == "size(q)" else k
            left = left[: k - 1] + left[k:] if 1 <= k <= len(left) else ()
        groups.append(f" \\ [{', '.join(group)}]")
    return "q" + "".join(groups), left


def assert_round_trip(program):
    assert parse_program(pretty_print(program)) == program


@settings(max_examples=150, deadline=None)
@given(chain=phase_chains())
def test_phase_chains_print_back_and_fold_left(chain):
    text, value = chain
    f = parse_phase_text(text)
    assert parse_phase_text(format_phase(f)) == f
    assert _eval_phase_raw(f, PHASE_X) == value


@settings(max_examples=150, deadline=None)
@given(chain=bool_chains())
def test_boolean_chains_print_back_and_fold_left(chain):
    text, value = chain
    program = parse_program(f":: if {text} then {{ skip; }} else {{ skip; }}")
    assert_round_trip(program)
    assert eval_bool(program.main.cond, ()) is value


@settings(max_examples=100, deadline=None)
@given(chain=offset_chains())
def test_offset_chains_print_back_and_fold_left(chain):
    text, value = chain
    program = parse_program(f":: q[{text}] *= NOT;")
    assert_round_trip(program)
    assert eval_int(program.main.qubit.index, ()) == value


@settings(max_examples=100, deadline=None)
@given(chain=removal_chains())
def test_removal_chains_print_back_and_remove_progressively(chain):
    text, left = chain
    program = parse_program(f":: call f({text});")
    assert_round_trip(program)
    assert eval_set(program.main.set_expr, tuple(range(1, 7))) == left
