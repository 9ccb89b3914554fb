import cmath
import dataclasses
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import foqc.analysis as analysis
import foqc.compiler as compiler
import foqc.interpreter as interpreter
from foqc import parse_program
from foqc.algebra import parse_term, to_pfoq
from foqc.analysis import NotPfoqError
from foqc.circuit import (
    MAX_DENSE_WIRES,
    Circuit,
    ControlledNot,
    ControlledU,
    ControlStructure,
    WireLimitError,
    elementary_gate_count,
    export_json,
    lower,
    replay_basis,
    simulate_circuit,
)
from foqc.cli import dispatch
from foqc.compiler import (
    DIFF_SAMPLES,
    DiffReport,
    OrthogonalityError,
    compile_program,
    compile_with_stats,
    diff_check,
)
from foqc.interpreter import BottomError, QuantumState, guard_errors, run, walk
from foqc.programs import EXAMPLES
from foqc.syntax import (
    OP_NOT,
    Assign,
    BoolCmp,
    Call,
    If,
    IntLit,
    Operator,
    ProcDecl,
    Program,
    QCase,
    QubitExpr,
    Seq,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
)

from test_circuit import H, controlled_u_gate, dense_replay
from test_fingerprint import TERMS
from test_long_programs import QUBITS, chain_program, straight_program

WIDTH_TWO_SOURCE = """
decl bad(p) {
  if size(p) > 0 then {
    call bad(p \\ [1]);
    call bad(p \\ [1]);
  } else { skip; }
},
:: call bad(q);
"""


def test_qft_compiles_without_ancillas(qft):
    # Recursive calls happen under empty control, so no merging is needed.
    for n, gates in zip(range(1, 6), (2, 8, 12, 20, 26)):
        circuit, stats = compile_with_stats(qft, n)
        assert circuit.ancillas == 0
        assert circuit.gate_count() == gates
        assert stats["ancillas"] == 0
        assert stats["gates"] == gates


@pytest.mark.parametrize("name", ["qft", "teleport"])
def test_a_program_that_merges_nothing_allocates_no_key(corpus, name):
    # Every recursive call of these programs is uncontrolled, so each pass
    # keeps one instance and expands its calls in place, as the walk runs
    # them: no key, no ancilla and no pair to check.
    for n in (3, 8, 16):
        circuit, stats = compile_with_stats(corpus[name], n)
        assert circuit.gates
        assert (
            stats["ancillas"],
            stats["anc_keys"],
            stats["orthogonality_checks"],
            stats["max_worklist"],
        ) == (0, 0, 0, 1)


@pytest.mark.parametrize("source", ["appendix-b.foq"] + TERMS[2:])
def test_a_program_that_merges_starts_a_worklist_pass(monkeypatch, source):
    program = parse_program(EXAMPLES[source]) if source in EXAMPLES else to_pfoq(parse_term(source))
    original = compiler.optimize
    passes = []

    def counted(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(compiler, "optimize", counted)
    assert compile_with_stats(program, 8)[1]["ancillas"] > 0
    assert passes


def test_compile_stats_count_an_in_place_expansion_as_a_one_entry_worklist(
    tmp_path, capsys
):
    path = tmp_path / "qft.foq"
    path.write_text(EXAMPLES["qft.foq"])
    assert dispatch(["compile", str(path), "-n", "5", "--stats"]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["max_worklist"] == 1 and stats["ancillas"] == 0


def test_branching_ancilla_and_gate_counts(branching):
    circuit, stats = compile_with_stats(branching, 7)
    assert stats == {
        "gates": 22,
        "wires": 13,
        "ancillas": 6,
        "anc_keys": 6,
        "max_worklist": 3,
        "orthogonality_checks": stats["orthogonality_checks"],
    }
    assert stats["orthogonality_checks"] > 0
    assert circuit.n == 7 and circuit.ancillas == 6


def test_branching_gate_count_is_linear(branching):
    counts = {n: compile_program(branching, n).gate_count() for n in (7, 10, 14, 20)}
    assert counts == {7: 22, 10: 34, 14: 50, 20: 74}  # 4n - 6


def test_branching_compiles_at_n40(branching):
    circuit = compile_program(branching, 40)
    assert circuit.gate_count() == 154  # 4n - 6
    assert circuit.ancillas == 39


# appendix-b peeling the tail of its list instead of the head.
MIRROR_SOURCE = """
decl proc(p) {
  if size(p) > 2 then {
    qcase p[size(p)] of {
      0 -> call proc(p \\ [size(p)]);
      ,
      1 -> qcase p[size(p) - 1] of {
             0 -> skip;
             ,
             1 -> call proc(p \\ [size(p), size(p)]);
           }
    }
  } else {
    p[1] *= RY[pi / 4](0);
  }
},
:: call proc(q);
"""


@pytest.mark.parametrize("source", [EXAMPLES["appendix-b.foq"], MIRROR_SOURCE])
def test_ancilla_regions_stay_linear_whichever_end_the_recursion_peels(monkeypatch, source):
    # The BDD order follows the wires in the order they are pinned, so the
    # region of each ancilla shares its nodes with the earlier ones.
    contexts = []
    settle_pins = compiler._Context.settle_pins

    def recorded(ctx):
        contexts.append(ctx)
        settle_pins(ctx)

    monkeypatch.setattr(compiler._Context, "settle_pins", recorded)
    n = 256
    circuit = compile_program(parse_program(source), n)
    assert circuit.gate_count() == 4 * n - 6
    assert circuit.ancillas == n - 1
    assert len(contexts[0].regions.nodes) <= 8 * n


def test_naive_expansion_grows_exponentially(branching):
    # The walk runs every call, so its ops are the per-definition expansion.
    guarded = guard_errors(branching)
    counts = [elementary_gate_count(walk(guarded, n).ops) for n in range(4, 11)]
    assert counts == [11, 29, 62, 127, 247, 468, 867]
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(r > 1.8 for r in ratios)


def test_compile_is_deterministic(branching):
    a = export_json(compile_program(branching, 8))
    b = export_json(compile_program(branching, 8))
    assert a == b


def test_rejected_program_does_not_compile():
    program = parse_program(WIDTH_TWO_SOURCE)
    with pytest.raises(NotPfoqError):
        compile_program(program, 3)
    # The check can be bypassed explicitly for experimentation.
    assert compile_program(program, 3, check=False).gate_count() == 0
    # The body is all structure: its per-definition expansion has no gates.
    assert walk(guard_errors(program), 3).ops == []


def test_diff_qft(qft):
    for n in range(1, 6):
        report = diff_check(qft, n)
        assert report.max_deviation < 1e-9
        assert report.max_ancilla_residue < 1e-9
        assert report.cases == (1 << n if (1 << n) <= 64 else 32)


def test_diff_branching_samples_large_n(branching):
    report = diff_check(branching, 8)
    # 2^8 > 64, so basis states are sampled (duplicates collapse).
    assert 0 < report.cases <= 32
    assert report.max_deviation < 1e-9


def test_diff_report_json(qft):
    payload = json.loads(diff_check(qft, 2).to_json())
    assert set(payload) == {"n", "cases", "max_deviation", "max_ancilla_residue"}


def test_diff_refuses_wide_states_before_allocating(qft):
    # The circuit is compiled, but no (2^40, k) output array is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(WireLimitError, match="exceeds the limit of 26"):
            diff_check(qft, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_compile_builds_each_gate_matrix_once(qft):
    # One matrix object per (operator, argument): every RY of H and every
    # PH of one rotation angle share it.
    circuit = compile_program(qft, 6)
    matrices = {}
    gates = [gate for gate in circuit.gates if isinstance(gate, ControlledU)]
    for gate in gates:
        assert gate.matrix is matrices.setdefault(gate.label, gate.matrix)
    assert 1 < len(matrices) < len(gates)


@pytest.mark.parametrize("name, n", [("teleport.foq", 40), ("qft.foq", 22)])
def test_diff_refuses_more_entries_than_the_limit_before_allocating(tmp_path, capsys, name, n):
    # 32 basis columns of up to 2^26 (teleport) or 2^22 (qft) entries each.
    path = tmp_path / name
    path.write_text(EXAMPLES[name])
    tracemalloc.start()
    try:
        code = dispatch(["diff", str(path), "-n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 4
    assert err.count("\n") == 1 and "exceeds the limit of 26" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "name, n, admitted",
    [
        ("teleport.foq", 30, True),
        ("teleport.foq", 33, False),
        ("qft.foq", 21, True),
        ("qft.foq", 22, False),
        ("appendix-b.foq", 20, True),
    ],
)
def test_the_diff_entry_limit_on_both_sides(name, n, admitted):
    # The limit alone, without running the diff it admits.
    p = parse_program(EXAMPLES[name])
    for ops in (lower(compile_program(p, n)), walk(guard_errors(p), n).ops):
        if admitted:
            bits = compiler._column_bits(ops, DIFF_SAMPLES)
            assert DIFF_SAMPLES << bits <= 1 << MAX_DENSE_WIRES
        else:
            with pytest.raises(WireLimitError, match="exceeds the limit of 26"):
                compiler._column_bits(ops, DIFF_SAMPLES)


def diff_basis(n, seed):
    """The basis states diff_check compares on."""
    if n <= 6:
        return list(range(1 << n))
    rng = np.random.default_rng(seed)
    return sorted(set(int(x) for x in rng.integers(0, 1 << n, size=DIFF_SAMPLES)))


def rebuilt_diff(program, n, seed=0):
    """diff_check from the public functions it calls, in the same order."""
    from foqc.analysis import check_pfoq
    from foqc.circuit import ancilla_residue, simulate_circuit, trace_ancillas
    from foqc.interpreter import QuantumState, guard_errors, run

    assert check_pfoq(program).accepted
    circuit, _ = compile_with_stats(program, n, check=False)
    guarded = guard_errors(program)
    basis = diff_basis(n, seed)
    max_dev = max_residue = 0.0
    for b in basis:
        state = QuantumState.from_bits(format(b, f"0{n}b"))
        expected = run(guarded, state).state.amplitudes
        full = simulate_circuit(circuit, state)
        actual = trace_ancillas(full, circuit.ancillas)
        max_dev = max(max_dev, float(np.max(np.abs(actual - expected))))
        max_residue = max(max_residue, float(ancilla_residue(full, circuit.ancillas)))
    return DiffReport(n, len(basis), max_dev, max_residue)


@pytest.mark.parametrize("n", [5, 7])
def test_diff_check_equals_its_rebuild_from_public_functions(corpus, n):
    # A diff rebuilt from check_pfoq, compile_with_stats, guard_errors, run,
    # simulate_circuit, trace_ancillas and ancilla_residue must report
    # exactly what diff_check reports.
    for program in corpus.values():
        for seed in (0, 3):
            assert rebuilt_diff(program, n, seed).to_json() == diff_check(program, n, seed).to_json()


def dense_diff(program, circuit, n, seed):
    """diff_check's report on `circuit`, with both sides scattered into
    dense outputs over all wires, the ancillas summed out densely, and the
    outputs subtracted."""
    basis = diff_basis(n, seed)
    m = circuit.ancillas
    expected, _ = dense_replay(walk(guard_errors(program), n).ops, n, 0, basis)
    full, _ = dense_replay(lower(circuit), n + m, 0, [b << m for b in basis])
    full = full.reshape(1 << n, 1 << m, len(basis))
    actual = full.sum(axis=1)
    residues = (np.abs(full[:, 1:, :]) ** 2).sum(axis=(0, 1))
    return DiffReport(
        n, len(basis), float(np.max(np.abs(actual - expected))), float(np.max(residues))
    )


def add_gate(c):
    return Circuit(c.n, c.ancillas, c.gates + (ControlledNot(ControlStructure.empty(), 1),))


def drop_gate(c):
    return Circuit(c.n, c.ancillas, c.gates[: len(c.gates) // 2] + c.gates[len(c.gates) // 2 + 1 :])


def dirty_ancilla(c):
    # H on a fresh ancilla where wire 1 holds 1: those keys hold a clean
    # and a dirty entry, which add up.
    h = controlled_u_gate(ControlStructure.of({1: 1}), (c.total_wires + 1,), H)
    return Circuit(c.n, c.ancillas + 1, c.gates + (h,))


def phase_nudge(c):
    # A global phase e^{i 2^-30} on the first ControlledU: the op lists then
    # differ only in float data, so both sides hold their keys in one order.
    gates = list(c.gates)
    for i, gate in enumerate(gates):
        if isinstance(gate, ControlledU):
            nudge = cmath.exp(1j * 2.0**-30)
            matrix = tuple(tuple(x * nudge for x in row) for row in gate.matrix)
            gates[i] = dataclasses.replace(gate, matrix=matrix)
            break
    return Circuit(c.n, c.ancillas, tuple(gates))


@pytest.mark.parametrize("edit", [None, add_gate, drop_gate, dirty_ancilla, phase_nudge])
@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_sparse_comparison_matches_a_dense_reference(corpus, monkeypatch, edit, n):
    # As compiled, the op lists of qft and teleport match the walk's, so
    # nothing is replayed; an added or dropped gate leaves keys on one side
    # only, and appendix-b's ancillas reorder them.
    for program in corpus.values():
        circuit = compile_program(program, n)
        if edit is not None:
            circuit = edit(circuit)
        monkeypatch.setattr(compiler, "compile_program", lambda p, n: circuit)
        for seed in (0, 3):
            got, want = diff_check(program, n, seed), dense_diff(program, circuit, n, seed)
            assert (got.n, got.cases, got.max_deviation) == (want.n, want.cases, want.max_deviation)
            # The reference adds up each column's residue in another order.
            assert got.max_ancilla_residue == pytest.approx(want.max_ancilla_residue, rel=1e-12)


def test_equal_op_lists_are_not_replayed(corpus, monkeypatch):
    # Without ancillas and with the walk's own ops, both sides are one op
    # list on one kernel: the report is exact without a replay.
    def refuse(*args):
        raise AssertionError("replay_basis called")

    monkeypatch.setattr(compiler, "replay_basis", refuse)
    for name, n, cases in (("qft", 3, 8), ("qft", 10, 30), ("qft", 12, 31),
                           ("teleport", 6, 64), ("teleport", 15, 32)):
        assert diff_check(corpus[name], n).to_json() == DiffReport(n, cases, 0.0, 0.0).to_json()
    replayed = []

    def counted(*args):
        replayed.append(args)
        return replay_basis(*args)

    monkeypatch.setattr(compiler, "replay_basis", counted)
    assert diff_check(corpus["branching"], 8).to_json() == DiffReport(8, 29, 0.0, 0.0).to_json()
    assert replayed


def test_teleport_moves_payload(teleport):
    # On 3 wires the teleported qubit ends on the last wire.
    circuit = compile_program(teleport, 3)
    from foqc.circuit import simulate_circuit, trace_ancillas

    for bit in (0, 1):
        psi = np.zeros(8, dtype=complex)
        psi[bit << 2] = 1.0  # payload on wire 1
        out = trace_ancillas(simulate_circuit(circuit, psi), circuit.ancillas)
        probs = np.abs(out) ** 2
        # Wire 3 (least significant) carries the payload bit.
        mass_on_bit = sum(p for i, p in enumerate(probs) if (i & 1) == bit)
        assert mass_on_bit == pytest.approx(1.0, abs=1e-9)


def test_orthogonality_violation_detected(branching, monkeypatch):
    # Breaking control-structure extension must trip the runtime invariant:
    # branches of a quantum case then share satisfiable controls.
    monkeypatch.setattr(compiler, "_extend_control", lambda cs, wire, bit: cs)
    with pytest.raises(OrthogonalityError):
        compile_program(branching, 7)


def test_resolve_refuses_an_ancilla_pinned_to_0(branching, monkeypatch):
    # A compiled control holds its merge ancilla at 1, so an ancilla pinned
    # to 0 is refused rather than resolved to a region nothing built.
    ctx = compiler._Context(decls={}, width_tables={}, n=2)
    regions = ctx.regions
    ctx.meanings[3] = regions.literal(1, 1)
    at_one = ctx.resolve(ControlStructure.of({2: 0, 3: 1}))
    assert at_one == regions.conj(regions.literal(2, 0), regions.literal(1, 1))
    message = "^control pins ancilla 3 to 0; a compiled control holds its ancilla at 1$"
    with pytest.raises(compiler.CompileError, match=message):
        ctx.resolve(ControlStructure.of({2: 0, 3: 0}))

    # So is a compile whose merged bodies run under their ancilla at 0.
    class AtZero(ControlStructure):
        @classmethod
        def of(cls, mapping):
            return ControlStructure.of(dict.fromkeys(mapping, 0))

    monkeypatch.setattr(compiler, "ControlStructure", AtZero)
    with pytest.raises(compiler.CompileError, match="^control pins ancilla 8 to 0"):
        compile_program(branching, 7)


def test_no_orthogonality_failures_on_corpus(corpus):
    for name, program in corpus.items():
        n = 3 if name != "branching" else 7
        circuit, stats = compile_with_stats(program, n)
        assert stats["orthogonality_checks"] >= 0  # completed without raising


def test_ancilla_table_reuse_bounds_ancillas(branching):
    # Ancilla count stays far below the worklist traffic because entries
    # keyed by (procedure, argument, list length) are reused.
    _, stats = compile_with_stats(branching, 14)
    assert stats["ancillas"] == 13
    assert stats["anc_keys"] == stats["ancillas"]


def all_wire_outputs(circuit):
    """The full output state, ancillas included, on every basis input."""
    dim = 1 << circuit.n
    return [simulate_circuit(circuit, np.eye(dim, dtype=complex)[b]) for b in range(dim)]


OUT_OF_RANGE_SOURCE = ":: q[5] *= RY[1/0](0);"


def test_compiling_the_guarded_program_changes_nothing(corpus):
    # The compiler settles bounds tests where it evaluates positions, so
    # guarding first may reorder the worklist but not change the circuit.
    cases = [(program, n) for program in corpus.values() for n in range(1, 8)]
    cases.append((parse_program(OUT_OF_RANGE_SOURCE), 1))
    for program, n in cases:
        plain = compile_program(program, n)
        guarded = compile_program(guard_errors(program), n)
        assert (plain.n, plain.ancillas) == (guarded.n, guarded.ancillas)
        assert Counter(plain.gates) == Counter(guarded.gates)
        for a, b in zip(all_wire_outputs(plain), all_wire_outputs(guarded)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


DIRECT_PROGRAMS = {"straight": straight_program(300), "chain": chain_program(60)}


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("qft", "teleport") for n in (3, 6, 9)]
    # The `diff-verify` benchmark grid, whose diffs rely on this equality.
    + [("qft", 10), ("qft", 11), ("qft", 12), ("teleport", 12), ("teleport", 15)]
    + [(name, QUBITS) for name in DIRECT_PROGRAMS],
)
def test_the_direct_compile_lowers_to_the_walks_ops(corpus, name, n):
    # No call is merged here, so the compiler expands each one under its
    # caller's control structure, as the walk runs it: gate for op.
    program = corpus.get(name) or parse_program(DIRECT_PROGRAMS[name])
    circuit = compile_program(program, n)
    assert circuit.ancillas == 0
    assert lower(circuit) == walk(guard_errors(program), n).ops


def test_out_of_range_access_compiles_to_nothing():
    # The bounds test comes before the operator's phase is evaluated.
    assert compile_program(parse_program(OUT_OF_RANGE_SOURCE), 1).gates == ()


def test_compile_builds_call_relations_once_and_never_guards(branching, monkeypatch):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for module in (analysis, interpreter, compiler):
        for name in ("call_relations", "guard_errors", "walk"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    compile_with_stats(branching, 7)
    assert calls == {"call_relations": 1}


# Accepted with degree 1: the level grows linearly in n (7, 12 and 23 at
# n = 16, 32 and 64), but the size does not, since the two branches' calls
# reach the same list sizes with different arguments.  The walk's shared
# blocks grow about 1.8x per 4 qubits on it, while compile stays polynomial.
STRIDES_SOURCE = r"""
decl f[x](p) {
  if size(p) > 3 then {
    qcase p[2] of { 0 -> call f[x + 1](p \ [2, x]); , 1 -> call f[x + 2](p \ [2, x]); }
  } else { p[size(p)] *= NOT; }
},
:: qcase q[1] of { 0 -> call f[3](q); , 1 -> skip; }
"""

# The two branches remove [2, 1] and [1, 1]: the same list, reached by
# two removal paths.  Merging compares the lists' contents, so both
# callers fan into one ancilla directly and no routing ancilla is made.
TWO_PATHS_SOURCE = r"""
decl f(p) {
  if size(p) > 2 then {
    qcase p[1] of { 0 -> call f(p \ [2, 1]); , 1 -> call f(p \ [1, 1]); }
  } else { p[1] *= NOT; }
},
:: call f(q);
"""

# (gates, ancillas, anc_keys) at n = 16, 32 and 64: counts only, no
# timings.  A change that moves one records the new value and says why.
COMPILE_COUNTS = {
    TERMS[0]: [(5, 0, 0), (5, 0, 0), (5, 0, 0)],
    TERMS[1]: [(5, 0, 0), (5, 0, 0), (5, 0, 0)],
    TERMS[2]: [(46, 15, 15), (94, 31, 31), (190, 63, 63)],
    TERMS[3]: [(121, 15, 15), (249, 31, 31), (505, 63, 63)],
    TERMS[4]: [(52, 7, 7), (108, 15, 15), (220, 31, 31)],
    TERMS[5]: [(43, 7, 7), (91, 15, 15), (187, 31, 31)],
    "appendix-b.foq": [(58, 15, 15), (122, 31, 31), (250, 63, 63)],
    "qft.foq": [(176, 0, 0), (608, 0, 0), (2240, 0, 0)],
    "strides": [(76, 22, 16), (414, 86, 53), (2470, 342, 192)],
    "two-paths": [(29, 7, 7), (61, 15, 15), (125, 31, 31)],
}


SOURCES = {**EXAMPLES, "strides": STRIDES_SOURCE, "two-paths": TWO_PATHS_SOURCE}


@pytest.mark.parametrize("name", list(COMPILE_COUNTS))
def test_compile_counts_are_pinned(name):
    if name in SOURCES:
        program = parse_program(SOURCES[name], name)
    else:
        program = to_pfoq(parse_term(name))
    counts = []
    for n in (16, 32, 64):
        stats = compile_with_stats(program, n)[1]
        counts.append((stats["gates"], stats["ancillas"], stats["anc_keys"]))
    assert counts == COMPILE_COUNTS[name]


def test_a_one_instance_worklist_resolves_no_control(monkeypatch):
    # The orthogonality invariant is a property of pairs.  TERMS[2] never
    # holds two instances, so the only controls resolved are the merged
    # callers' own, once each, for their ancilla's meaning.
    contexts = []
    resolve = compiler._Context.resolve

    def counted(ctx, cs):
        contexts.append(ctx)
        return resolve(ctx, cs)

    monkeypatch.setattr(compiler._Context, "resolve", counted)
    stats = compile_with_stats(to_pfoq(parse_term(TERMS[2])), 16)[1]
    assert (stats["max_worklist"], stats["orthogonality_checks"]) == (1, 0)
    assert len(contexts) == len(contexts[0].callers) == 15


def test_a_call_shared_by_two_recursion_groups_has_each_groups_width():
    # One `Call` object S in the bodies of f and g, which are two recursion
    # groups: S has width 1 in f's group and width 0 in g's.  The parser
    # never shares a call, so the program is built by hand.
    p = SetVar("p")
    first = QubitExpr(p, IntLit(1))
    more = BoolCmp(">", SetSize(p), IntLit(1))
    shared = Call("f", None, SetRemove(p, (IntLit(1),)))
    f_body = If(more, QCase(first, shared, Skip()), Assign(first, Operator(OP_NOT)))
    g_call = Call("g", None, SetRemove(p, (IntLit(1),)))
    g_body = If(more, QCase(first, Seq(shared, g_call), Skip()), Skip())
    decls = (ProcDecl("f", None, "p", f_body), ProcDecl("g", None, "p", g_body))
    for order in (("f", "g"), ("g", "f")):
        program = Program(decls, Seq(*(Call(name, None, SetVar("q")) for name in order)))
        stats = compile_with_stats(program, 5)[1]
        assert (stats["gates"], stats["ancillas"]) == (33, 14)
        report = diff_check(program, 5)
        assert (report.max_deviation, report.max_ancilla_residue) == (0.0, 0.0)


def _random_branch(rng: random.Random, depth: int) -> str:
    """A random statement whose recursive calls sit at varying depths of
    classical and quantum cases."""
    r = rng.random()
    if depth >= 3 or r < 0.3:
        call = f"call proc(p \\ [{rng.randint(1, 2)}]);"
        return rng.choice([call, call, call, f"p[{rng.randint(1, 3)}] *= NOT;", "skip;"])
    if r < 0.65:
        return (
            f"qcase p[{rng.randint(1, 3)}] of {{ 0 -> {_random_branch(rng, depth + 1)}"
            f" , 1 -> {_random_branch(rng, depth + 1)} }}"
        )
    return (
        f"if size(p) > {rng.randint(0, 2)} then {{ {_random_branch(rng, depth + 1)} }}"
        f" else {{ {_random_branch(rng, depth + 1)} }}"
    )


def _reaches_bottom(action) -> bool:
    try:
        action()
    except BottomError:
        return True
    return False


def test_compile_reaches_the_error_terminal_exactly_when_run_does_at_any_call_depth():
    # A merged body's accesses are checked against the pins of every
    # caller, also those found after the body was compiled; the
    # interpreter's error terminal does not depend on the basis state.
    rng = random.Random(2026)
    checked = bottoms = 0
    for _ in range(400):
        body = f"qcase p[1] of {{ 0 -> {_random_branch(rng, 1)} , 1 -> {_random_branch(rng, 1)} }}"
        source = (
            f"decl proc(p){{ if size(p) > 1 then {{ {body} }} else {{ p[1] *= NOT; }} }},"
            " :: call proc(q);"
        )
        program = parse_program(source)
        if not analysis.check_pfoq(program).accepted:
            continue
        guarded = guard_errors(program)
        for n in (2, 3, 4, 5):
            expected = _reaches_bottom(lambda: run(guarded, QuantumState.from_bits("0" * n)))
            assert _reaches_bottom(lambda: compile_program(program, n)) == expected, (n, source)
            checked += 1
            bottoms += expected
    assert checked > 1000 and 0 < bottoms < checked
