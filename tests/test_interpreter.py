import json
import math
import tracemalloc

import numpy as np
import pytest

import foqc.interpreter as interpreter
from foqc import parse_program
from foqc.algebra import parse_term, to_pfoq
from foqc.circuit import ControlStructure, replay_basis
from foqc.cli import dispatch
from foqc.interpreter import (
    NO_ENV,
    BottomError,
    BudgetExceededError,
    EvalError,
    QuantumState,
    bind_callee,
    eval_bool,
    eval_int,
    eval_qubit,
    eval_set,
    guard_errors,
    run,
    walk,
)
from foqc.programs import EXAMPLES
from foqc.syntax import (
    Assign,
    Call,
    If,
    IntLit,
    IntOffset,
    IntVar,
    PhaseEvalError,
    QCase,
    QubitExpr,
    Seq,
    SetNil,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
    gate_entries,
)

from test_circuit import dense_replay
from test_compiler import TWO_PATHS_SOURCE
from test_fingerprint import PARAMETERISED_SOURCE, TERMS
from test_properties import _dense, random_state


Q = SetVar("q")


def test_eval_set_variable_and_nil():
    assert eval_set(Q, (1, 2, 3)) == (1, 2, 3)
    assert eval_set(SetNil(), (1, 2, 3)) == ()


def test_eval_set_single_removal():
    assert eval_set(SetRemove(Q, (IntLit(2),)), (1, 2, 3)) == (1, 3)


def test_eval_set_out_of_range_removal_is_empty():
    assert eval_set(SetRemove(Q, (IntLit(5),)), (1, 2, 3)) == ()
    assert eval_set(SetRemove(Q, (IntLit(0),)), (1, 2, 3)) == ()


def test_removal_chain_is_progressive():
    # Indices are evaluated against the list left by earlier removals:
    # removing [1, size(q)] from (1..4) drops the first and last elements.
    expr = SetRemove(Q, (IntLit(1), SetSize(Q)))
    assert eval_set(expr, (1, 2, 3, 4)) == (2, 3)
    # Removing [1, 1] drops the first two elements.
    expr = SetRemove(Q, (IntLit(1), IntLit(1)))
    assert eval_set(expr, (1, 2, 3, 4)) == (3, 4)


def test_triple_removal_first_secondlast_last():
    expr = SetRemove(Q, (IntLit(1), SetSize(Q), SetSize(Q)))
    # Progressive sizes: remove 1, then index size-of-remaining twice.
    assert eval_set(expr, (1, 2, 3, 4, 5, 6)) == (2, 3, 4)


def test_eval_qubit_out_of_range_is_zero():
    assert eval_qubit(QubitExpr(Q, IntLit(4)), (1, 2, 3)) == 0
    assert eval_qubit(QubitExpr(Q, IntLit(2)), (5, 7, 9)) == 7


def test_eval_int_size():
    assert eval_int(SetSize(SetRemove(Q, (IntLit(1),))), (1, 2, 3)) == 2


def test_integer_variables_read_the_environment():
    x = IntVar("x")
    assert eval_int(IntOffset(x, (("+", 1),)), (), {"x": 3}) == 4
    assert eval_qubit(QubitExpr(SetRemove(Q, (x,)), x), (5, 7, 9), {"x": 2}) == 9
    with pytest.raises(EvalError, match="unbound integer variable 'x'"):
        eval_int(x, (1, 2))


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState(2, [1.0, 0.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        QuantumState(1, [0.9, 0.0])  # not normalized


def test_quantum_state_json_round_trip(tmp_path, capsys):
    # `run` prints a state that `--amplitudes` reads back as it was.
    program = tmp_path / "qft.foq"
    program.write_text(EXAMPLES["qft.foq"])
    identity = tmp_path / "skip.foq"
    identity.write_text(":: skip;")
    assert dispatch(["run", str(program), "--state", "101"]) == 0
    state = tmp_path / "state.json"
    state.write_text(capsys.readouterr().out)
    assert dispatch(["run", str(identity), "--amplitudes", str(state)]) == 0
    back = json.loads(capsys.readouterr().out)
    sent = json.loads(state.read_text())
    assert back["n"] == sent["n"] == 3
    assert back["amplitudes"] == sent["amplitudes"]


def test_not_flips_most_significant_qubit():
    program = parse_program(":: q[1] *= NOT;")
    out = run(program, QuantumState.from_bits("00"))
    assert np.allclose(out.state.amplitudes, QuantumState.from_bits("10").amplitudes)


def test_qubit_one_is_most_significant():
    program = parse_program(":: q[2] *= NOT;")
    out = run(program, QuantumState.from_bits("00"))
    assert np.allclose(out.state.amplitudes, QuantumState.from_bits("01").amplitudes)


def test_hadamard_state():
    program = parse_program(":: q[1] *= H;")
    out = run(program, QuantumState.from_bits("0"))
    assert np.allclose(out.state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_qcase_control_is_preserved():
    # A NOT under qcase-1 on the control's partner builds |00> -> |00>, |10> -> |11>.
    program = parse_program(":: qcase q[1] of { 0 -> skip; , 1 -> q[2] *= NOT; }")
    out = run(program, QuantumState.from_bits("10"))
    assert np.allclose(out.state.amplitudes, QuantumState.from_bits("11").amplitudes)


def test_qcase_superposed_control():
    program = parse_program(":: H(q[1]); CNOT(q[1], q[2]);")
    out = run(program, QuantumState.from_bits("00"))
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    assert np.allclose(out.state.amplitudes, bell)


def test_out_of_range_assignment_reaches_bottom():
    program = parse_program(":: q[5] *= NOT;")
    error = "assignment to q[5]: index 5 is out of range for a list of length 2"
    with pytest.raises(BottomError) as walked:
        walk(program, 2)
    assert str(walked.value) == error
    state = QuantumState.from_bits("00")
    before = state.amplitudes.copy()
    with pytest.raises(BottomError) as excinfo:
        run(program, state)
    assert str(excinfo.value) == error
    assert np.array_equal(state.amplitudes, before)


def test_control_qubit_reuse_reaches_bottom():
    program = parse_program(":: qcase q[1] of { 0 -> q[1] *= NOT; , 1 -> skip; }")
    with pytest.raises(BottomError) as walked:
        walk(program, 1)
    assert str(walked.value) == "assignment to q[1]: position 1 is not accessible"
    with pytest.raises(BottomError, match="position 1 is not accessible"):
        run(program, QuantumState.from_bits("0"))


def test_error_terminal_after_a_branch_wrote_its_half():
    # The 0-branch records its ops before the 1-branch reaches the error
    # terminal: none of them may reach the caller's state.
    program = parse_program(
        ":: qcase q[1] of { 0 -> q[2] *= H; q[3] *= NOT; , 1 -> q[1] *= NOT; }"
    )
    error = "assignment to q[1]: position 1 is not accessible"
    with pytest.raises(BottomError) as walked:
        walk(program, 3)
    assert str(walked.value) == error
    state = random_state(3, np.random.default_rng(4))
    before = state.amplitudes.copy()
    with pytest.raises(BottomError) as excinfo:
        run(program, state)
    assert str(excinfo.value) == error
    assert np.array_equal(state.amplitudes, before)


def test_runs_never_mutate_the_callers_state(corpus):
    state = random_state(3, np.random.default_rng(6))
    before = state.amplitudes.copy()
    for program in corpus.values():
        out = run(program, state)
        assert out.state.amplitudes is not state.amplitudes
        assert np.array_equal(state.amplitudes, before)


def test_guard_errors_makes_out_of_range_a_skip():
    program = parse_program(":: q[5] *= NOT;")
    guarded = guard_errors(program)
    assert walk(guarded, 2).ops == []
    outcome = run(guarded, QuantumState.from_bits("00"))
    assert np.allclose(outcome.state.amplitudes, QuantumState.from_bits("00").amplitudes)


def test_guard_errors_identity_on_skip():
    program = parse_program(":: skip;")
    assert guard_errors(program) == program


def test_guard_errors_preserves_normal_semantics(qft):
    rng = np.random.default_rng(3)
    state = random_state(3, rng)
    plain = run(qft, state).state.amplitudes
    guarded = run(guard_errors(qft), state).state.amplitudes
    assert np.allclose(plain, guarded, atol=1e-12)


def test_call_on_empty_set_is_identity_level_one():
    program = parse_program("decl f(p) { p[1] *= NOT; }, :: call f(nil);")
    out = run(program, QuantumState.from_bits("0"))
    assert out.level == 1
    assert np.allclose(out.state.amplitudes, [1, 0])


def test_level_counts_nested_calls():
    program = parse_program(
        """
decl f(p) {
  if size(p) > 0 then { call f(p \\ [1]); } else { skip; }
},
:: call f(q);
"""
    )
    # n + 1 nested calls: n shrinking calls plus the final empty-set call.
    for n in range(1, 5):
        assert walk(program, n).level == n + 1


def test_level_seq_sums_and_qcase_maxes():
    program = parse_program(
        """
decl f(p) { skip; },
:: qcase q[1] of { 0 -> call f(q \\ [1]); , 1 -> skip; } call f(q);
"""
    )
    assert walk(program, 2).level == 2  # max(1, 0) + 1


def test_budget_exceeded():
    program = parse_program(
        "decl f(p) { call f(p); }, :: call f(q);"
    )
    with pytest.raises(BudgetExceededError):
        run(program, QuantumState.from_bits("0"), budget=1000)


def test_norm_preserved_on_corpus(corpus):
    rng = np.random.default_rng(11)
    for name, program in corpus.items():
        n = 3 if name == "teleport" else 3
        state = random_state(n, rng)
        out = run(program, state)
        assert abs(np.linalg.norm(out.state.amplitudes) - 1.0) < 1e-9


@pytest.mark.parametrize("n", [1, 4, 8])
def test_run_basis_columns_are_per_state_runs(corpus, n):
    # Every update is elementwise, so on these programs evaluating the basis
    # states as the columns of one matrix changes not a single bit.  (numpy
    # may take a different complex-multiply loop on a longer contiguous
    # run, so this is not a law: on `(comp (ph pi / 4) (ph pi / 4))` at n=1
    # one amplitude can differ by 4.3e-17.)
    for program in corpus.values():
        guarded = guard_errors(program)
        basis = list(range(1 << n))
        columns = dense_replay(walk(guarded, n).ops, n, 0, basis)[0]
        assert columns.shape == (1 << n, len(basis))
        for j, b in enumerate(basis):
            alone = run(guarded, QuantumState.from_bits(format(b, f"0{n}b")))
            assert np.array_equal(columns[:, j], alone.state.amplitudes)


def test_run_basis_reports_the_error_terminal_as_run_does():
    # Control reuse behind a recursive call: the error terminal is reached
    # on every basis state, with the same message.
    program = guard_errors(parse_program(
        "decl proc(p){ if size(p) > 1 then { qcase p[1] of { 0 -> call proc(p \\ [2]); ,"
        " 1 -> skip; } } else { p[1] *= NOT; } }, :: call proc(q);"
    ))
    with pytest.raises(BottomError) as alone:
        run(program, QuantumState.from_bits("000"))
    with pytest.raises(BottomError) as batched:
        replay_basis(walk(program, 3).ops, 3, 0, range(8))
    assert str(batched.value) == str(alone.value)


def dense_run(p, psi):
    """psi after p, from a reference outside the sparse kernel: each executed
    assignment is its full 2^n matrix under the pins of its enclosing
    quantum cases, built from Kronecker products (`test_properties._dense`)."""
    n = psi.shape[0].bit_length() - 1
    decls = p.decl_map()

    def visit(stmt, pins, l, env, psi):
        if isinstance(stmt, Skip):
            return psi
        if isinstance(stmt, Seq):
            for item in stmt.items:
                psi = visit(item, pins, l, env, psi)
            return psi
        if isinstance(stmt, If):
            branch = stmt.then_branch if eval_bool(stmt.cond, l, env) else stmt.else_branch
            return visit(branch, pins, l, env, psi)
        if isinstance(stmt, Call):
            sub_l = eval_set(stmt.set_expr, l, env)
            if not sub_l:
                return psi
            decl, sub_env = bind_callee(stmt, decls, l, env)
            return visit(decl.body, pins, sub_l, sub_env, psi)
        pos = eval_qubit(stmt.qubit, l, env)
        assert 1 <= pos <= n and pos not in pins
        if isinstance(stmt, QCase):
            psi = visit(stmt.if_zero, {**pins, pos: 0}, l, env, psi)
            return visit(stmt.if_one, {**pins, pos: 1}, l, env, psi)
        assert isinstance(stmt, Assign)
        arg = eval_int(stmt.op.arg, l, env) if stmt.op.arg is not None else 0
        matrix = np.array(gate_entries(stmt.op, arg)).reshape(2, 2)
        return _dense(n, ControlStructure.of(pins), [pos], matrix) @ psi

    return visit(p.main, {}, tuple(range(1, n + 1)), NO_ENV, psi)


# Each level of `a` calls `b` on its own list, so `b` runs on the same
# suffixes again and again.  `a` writes p[3] on a 2-entry list, so the
# reference runs it guarded.
TWO_GROUP_SOURCE = r"""
decl a(p) {
  if size(p) > 1 then { skip; call a(p \ [2]); p[3] *= NOT; skip; call b(p); }
  else { qcase p[1] of { 0 -> skip; , 1 -> p[2] *= H; } }
},
decl b(p) { if size(p) > 1 then { call b(p \ [1]); } else { p[1] *= RY[pi / 6](0); } },
:: q[2] *= NOT; call a(q); q[1] *= NOT;
"""

REFERENCE_PROGRAMS = {
    **{name: parse_program(src, name) for name, src in EXAMPLES.items()},
    "parameterised": parse_program(PARAMETERISED_SOURCE),
    **{term: to_pfoq(parse_term(term)) for term in TERMS},
    # Calls on equal lists share one block across removal paths.
    "two-paths": parse_program(TWO_PATHS_SOURCE),
    "two-group": guard_errors(parse_program(TWO_GROUP_SOURCE)),
}


@pytest.mark.parametrize("name", list(REFERENCE_PROGRAMS))
def test_run_matches_a_dense_reference(name):
    # Random dense states pair every amplitude with its partner; a basis
    # state leaves partners missing.
    program = REFERENCE_PROGRAMS[name]
    rng = np.random.default_rng(12)
    for n in range(1, 6):
        bits = "".join(rng.choice(["0", "1"], size=n))
        for state in (random_state(n, rng), QuantumState.from_bits(bits)):
            expected = dense_run(program, state.amplitudes)
            out = run(program, state).state.amplitudes
            assert np.allclose(out, expected, rtol=0, atol=1e-12), (n, bits)


def test_the_walk_records_one_op_per_executed_assignment():
    # Pinned against the number of assignments the dense interpreter this
    # walk replaced applied on the all-zero state.
    counts = {
        name: [len(walk(parse_program(EXAMPLES[f"{name}.foq"]), n).ops) for n in (8, 12, 16)]
        for name in ("qft", "teleport", "appendix-b")
    }
    assert counts == {
        "qft": [56, 108, 176],
        "teleport": [16, 32, 40],
        "appendix-b": [21, 144, 987],
    }


def test_level_of_walks_without_a_state():
    # The walk alone gives the level or reaches the error terminal, and no
    # state is built: 26 qubits would take 1 GiB of amplitudes, and 40 are
    # past the dense cap.
    program = parse_program(
        "decl f(p) { p[1] *= NOT; call f(p \\ [1]); }, :: call f(q); q[30] *= H;"
    )
    with pytest.raises(BottomError) as walked:
        walk(program, 3)
    assert str(walked.value) == "assignment to q[30]: index 30 is out of range for a list of length 3"
    tracemalloc.start()
    try:
        with pytest.raises(BottomError, match="out of range for a list of length 26$"):
            walk(program, 26)
        assert walk(program, 40).level == 41
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_appendix_b_smallest_budgets_are_pinned():
    # A shared call charges its block's steps, so the smallest budget that
    # does not raise is the expanded walk's step count.
    program = parse_program(EXAMPLES["appendix-b.foq"])

    def smallest(n):
        lo, hi = 0, 1 << 12
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                walk(program, n, budget=mid)
                hi = mid
            except BudgetExceededError:
                lo = mid + 1
        return lo

    assert [smallest(n) for n in (8, 10, 12)] == [163, 435, 1147]


def test_the_walk_shares_equal_calls_without_building_ops():
    # About phi^60 calls, 60 of them distinct: the walk records a block per
    # distinct call and builds no op until `ops` is read.
    program = parse_program(EXAMPLES["appendix-b.foq"])
    tracemalloc.start()
    try:
        walked = walk(program, 60, budget=10**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked.level == 59
    assert walked.blocks <= 2 * 60
    assert peak < 1 << 20


def test_a_call_on_a_list_first_derived_there_records_no_block():
    # No qft call repeats; only the calls whose list an earlier call
    # derived record a block, so there are O(n) of them, not n^2 / 2.
    qft = parse_program(EXAMPLES["qft.foq"])
    assert walk(qft, 64).blocks <= 2 * 64 + 2


def counting_eval_set(monkeypatch) -> list[int]:
    """Patch `interpreter.eval_set` to count its calls in the returned cell."""
    count = [0]
    original = interpreter.eval_set

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(interpreter, "eval_set", counted)
    return count


def test_the_walk_keys_a_list_by_content_not_by_removal_path(monkeypatch):
    # Each level of two-paths calls f on one list by two removal paths, so
    # each list's body is walked at most twice, with two `eval_set` calls
    # (its size test and its quantum case) each; keyed by path, the walk
    # would visit 2^(n/2) bodies.
    count = counting_eval_set(monkeypatch)
    walked = walk(parse_program(TWO_PATHS_SOURCE), 32)
    assert walked.level == 16
    assert count[0] <= 2 * 32


def test_equal_lists_built_by_different_removals_share_one_block(monkeypatch):
    two = "decl f(p) { p[1] *= H; }, :: call f(q \\ [2, 1]); call f(q \\ [1, 1]);"
    assert walk(parse_program(two), 4).blocks == 1
    # A third call repeats the block: the body is walked twice, not three
    # times, and the ops are the inlined program's.
    count = counting_eval_set(monkeypatch)
    walked = walk(parse_program(two + " call f(q \\ [2, 1]);"), 4)
    assert count[0] == 4
    assert walked.ops == walk(parse_program(":: q[3] *= H; q[3] *= H; q[3] *= H;"), 4).ops


def test_a_shared_call_takes_the_pins_of_each_caller():
    # f's first call (a new list) and second call are walked; the third,
    # under the other value of the same pin, and the last, under no pin,
    # repeat the second's block.  The ops equal the inlined program's.
    shared = parse_program(
        "decl f(p) { p[1] *= H; qcase p[2] of { 0 -> skip; , 1 -> p[1] *= NOT; } },"
        " :: qcase q[1] of { 0 -> call f(q \\ [1]); call f(q \\ [1]); , 1 -> call f(q \\ [1]); }"
        " call f(q \\ [1]);"
    )
    body = "q[2] *= H; qcase q[3] of { 0 -> skip; , 1 -> q[2] *= NOT; }"
    inlined = parse_program(f":: qcase q[1] of {{ 0 -> {body} {body} , 1 -> {body} }} {body}")
    walked = walk(shared, 3)
    assert walked.blocks == 1
    assert walked.ops == walk(inlined, 3).ops
    assert walked.level == 3  # max(1 + 1, 1) + 1


@pytest.mark.parametrize(
    "source, position",
    [
        # f touches p[2] itself and p[3] through a walked sub-call.
        (
            "decl g(p) { p[3] *= NOT; }, decl f(p) { p[2] *= NOT; call g(p); },"
            " :: call f(q); qcase q[2] of { 0 -> call f(q); , 1 -> skip; }",
            2,
        ),
        # f touches p[1] only through a shared sub-call.
        (
            "decl g(p) { p[1] *= NOT; }, decl f(p) { call g(p \\ [2]); },"
            " :: call g(q \\ [2]); call g(q \\ [2]); call f(q);"
            " qcase q[1] of { 0 -> call f(q); , 1 -> skip; }",
            1,
        ),
    ],
    ids=["own-and-walked", "shared"],
)
def test_a_block_touches_what_its_sub_calls_touch(source, position):
    with pytest.raises(BottomError) as walked:
        walk(parse_program(source), 3)
    expected = f"assignment to p[{position}]: position {position} is not accessible"
    assert str(walked.value) == expected


def test_connectives_short_circuit():
    # The right side, an unbound variable, is reached only when it decides.
    def cond(text):
        return parse_program(f":: if {text} then {{ skip; }} else {{ skip; }}").main.cond

    assert eval_bool(cond("0 > 1 && y > 0"), ()) is False
    assert eval_bool(cond("1 > 0 || y > 0"), ()) is True
    for text in ("1 > 0 && y > 0", "0 > 1 || y > 0"):
        with pytest.raises(EvalError, match="unbound integer variable 'y'"):
            eval_bool(cond(text), ())


def test_a_tail_call_does_not_pin_its_callers_list():
    # On 2000 qubits rot recurses about 1000 frames deep before its phase
    # overflows.  Each frame's sequence and quantum case drop their list
    # once they start their last part, so the frames do not hold one
    # 2000-entry list each.
    qft = parse_program(EXAMPLES["qft.foq"])
    tracemalloc.start()
    try:
        with pytest.raises(PhaseEvalError, match="overflows at n=1025"):
            walk(qft, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_the_walk_refuses_an_undeclared_callee_and_a_missing_argument():
    # `walk` reads programs as written; the CLI checks well-formedness first.
    with pytest.raises(EvalError, match=r"^call to undeclared procedure 'f'$"):
        walk(parse_program(":: call f(q);"), 2)
    program = parse_program("decl f[x](p) { skip; }, :: call f(q);")
    with pytest.raises(EvalError, match=r"^procedure 'f' requires a classical argument$"):
        walk(program, 2)
