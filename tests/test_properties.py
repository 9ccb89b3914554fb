import numpy as np
from hypothesis import given, settings, strategies as st

from foqc import parse_program, run
from foqc.circuit import ControlStructure, export_json
from foqc.compiler import Regions, _Context, compile_program
from foqc.interpreter import QuantumState
from foqc.programs import BRANCHING_SOURCE, QFT_SOURCE


QFT = parse_program(QFT_SOURCE)
BRANCHING = parse_program(BRANCHING_SOURCE)


def random_state(n, seed):
    return QuantumState.random(n, np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_run_preserves_norm(n, seed):
    out = run(QFT, random_state(n, seed))
    assert abs(np.linalg.norm(out.state.amplitudes) - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    seed_a=st.integers(0, 2**31),
    seed_b=st.integers(0, 2**31),
    weight=st.floats(0.1, 0.9),
)
def test_run_is_linear(n, seed_a, seed_b, weight):
    a = random_state(n, seed_a).amplitudes
    b = random_state(n, seed_b).amplitudes
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
    reference = run(QFT, QuantumState.zero(n)).level
    assert run(QFT, random_state(n, seed)).level == reference


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 9))
def test_compile_is_deterministic_bytes(n):
    assert export_json(compile_program(BRANCHING, n)) == export_json(
        compile_program(BRANCHING, n)
    )


control_structures = st.dictionaries(
    st.integers(1, 4), st.integers(0, 1), max_size=4
).map(ControlStructure.of)


@settings(max_examples=100, deadline=None)
@given(a=control_structures, b=control_structures)
def test_orthogonality_is_symmetric(a, b):
    assert a.orthogonal(b) == b.orthogonal(a)


@settings(max_examples=100, deadline=None)
@given(a=control_structures)
def test_orthogonality_is_irreflexive(a):
    # A structure can always fire together with itself.
    assert not a.orthogonal(a)


@st.composite
def region_problems(draw):
    """n <= 6 input wires, ancillas meaning ORs of input-wire control
    structures, and control structures pinning inputs and ancillas."""
    n = draw(st.integers(1, 6))
    cube = st.dictionaries(st.integers(1, n), st.integers(0, 1), max_size=n)
    meanings = draw(st.lists(st.lists(cube, max_size=3), max_size=3))
    pins = st.dictionaries(
        st.integers(1, n + len(meanings)), st.integers(0, 1), max_size=4
    )
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
    ctx = _Context(decls={}, widths={}, equiv={}, n=n)
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
    # Reduced and ordered: no node has equal children, children test larger wires.
    for wire, low, high in regions.nodes[2:]:
        assert low != high
        for child in (low, high):
            assert child <= Regions.TRUE or regions.nodes[child][0] > wire
