import json
import time

from foqc import parse_program
from foqc.algebra import to_pfoq
from foqc import analysis
from foqc.analysis import (
    call_relations,
    check_pfoq,
    check_wf,
    op_count,
    program_refs,
    ranks,
    reset_op_count,
    statement_refs,
)
from foqc.interpreter import guard_errors
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
    QubitExpr,
    Seq,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
)
from test_acceptance import exhaustive_terms, random_terms
from test_long_programs import chain_program, straight_program

WIDTH_TWO_SOURCE = """
decl bad(p) {
  if size(p) > 0 then {
    call bad(p \\ [1]);
    call bad(p \\ [1]);
  } else { skip; }
},
:: call bad(q);
"""

NON_SHRINKING_SOURCE = """
decl loop(p) { call loop(p); },
:: call loop(q);
"""

MUTUAL_SOURCE = """
decl f(p) { call g(p \\ [1]); },
decl g(p) { call f(p); },
:: call f(q);
"""

DUPLICATE_SOURCE = """
decl f(p) { call f(p \\ [1]); },
decl f(p) { call f(p); },
:: call f(q);
"""


def test_call_relations_qft(qft):
    rel = call_relations(qft)
    assert rel.direct["rec"] == {"rec", "rot"}
    assert rel.direct["rot"] == {"rot"}
    assert rel.direct["inv"] == {"inv"}
    # Reachability is reflexive and transitive.
    assert rel.reachable(["rec"]) == {"rec", "rot"}
    assert rel.reachable(["rot"]) == {"rot"}
    # Every procedure is in its own equivalence class.
    assert all(name in rel.equiv[name] for name in rel.procedures)
    # rec strictly dominates rot, but not vice versa.
    assert rel.reachable(["rec"]) - rel.equiv["rec"] == {"rot"}
    assert rel.reachable(["rot"]) - rel.equiv["rot"] == set()


def test_statement_refs_lists_variables_and_calls_in_program_order():
    program = parse_program(
        """
decl f[x](p) {
  if size(p \\ [y]) > x then {
    qcase p[z] of { 0 -> call g(r); , 1 -> call f[x - 1](p \\ [1]); }
    call h[w](p);
  } else {
    p[v] *= RY[pi](u);
    call k(s \\ [t]);
  }
},
:: call f[1](q);
"""
    )
    refs = statement_refs(program.decls[0].body)
    assert refs.set_vars == {"p", "r", "s"}
    assert refs.int_vars == {"x", "y", "z", "w", "v", "u", "t"}
    assert [call.proc for call in refs.calls] == ["g", "f", "h", "k"]


def test_check_pfoq_walks_each_body_once(monkeypatch):
    walked = []

    def counted(stmt):
        walked.append(stmt)
        return statement_refs(stmt)

    monkeypatch.setattr(analysis, "statement_refs", counted)
    for source in (MUTUAL_SOURCE, WIDTH_TWO_SOURCE, DUPLICATE_SOURCE):
        program = parse_program(source)
        walked.clear()
        check_pfoq(program)
        assert walked == [d.body for d in program.decls] + [program.main]


def test_only_recursive_groups_are_measured(monkeypatch, qft):
    # A procedure outside every recursive group has width 0, with no walk:
    # neither a long straight body nor a chain of calls is measured.
    measured = []
    width = analysis.statement_width

    def counted(stmt, group, memo):
        measured.append(stmt)
        return width(stmt, group, memo)

    monkeypatch.setattr(analysis, "statement_width", counted)
    for program in (parse_program(straight_program(300)), parse_program(chain_program(40))):
        verdict = check_pfoq(program)
        assert verdict.accepted
        assert set(verdict.widths.values()) == {0}
        assert measured == []
    check_pfoq(qft)
    assert measured


def test_widths_qft(qft):
    assert check_pfoq(qft).widths == {"rec": 1, "rot": 1, "inv": 1}


def test_ranks_qft(qft):
    assert ranks(call_relations(qft)) == {"rec": 1, "rot": 0, "inv": 0}


def test_qft_accepted_with_degree_two(qft):
    verdict = check_pfoq(qft)
    assert verdict.accepted
    assert verdict.degree == 2
    assert verdict.diagnostics == []
    payload = json.loads(verdict.to_json())
    assert set(payload) == {"accepted", "widths", "ranks", "degree", "diagnostics"}


def test_branching_accepted(branching):
    verdict = check_pfoq(branching)
    assert verdict.accepted
    assert verdict.widths == {"proc": 1}
    assert verdict.degree == 1


def test_teleport_accepted(teleport):
    assert check_pfoq(teleport).accepted


def test_width_two_rejected():
    program = parse_program(WIDTH_TWO_SOURCE)
    verdict = check_pfoq(program)
    assert not verdict.accepted
    assert verdict.widths == {"bad": 2}
    assert any("2 mutually recursive calls" in d for d in verdict.diagnostics)
    assert verdict.degree is None


def test_duplicate_declarations_report_their_widest_body():
    # Widths are keyed by name: the earlier width-2 body must not hide
    # behind the later width-0 one.
    program = parse_program(
        """
decl f(p) { call f(p \\ [1]); call f(p \\ [1]); },
decl f[x](p) { skip; },
:: call f(q);
"""
    )
    verdict = check_pfoq(program)
    assert not verdict.accepted
    assert verdict.widths == {"f": 2}
    width_diags = [d for d in verdict.diagnostics if "mutually recursive calls" in d]
    assert width_diags == [
        "procedure f: 2 mutually recursive calls on one path (at most one is allowed)"
    ]
    assert any("duplicate" in d for d in verdict.diagnostics)


def test_non_shrinking_recursion_rejected():
    program = parse_program(NON_SHRINKING_SOURCE)
    # Well formed: the shrinking rule needs the call relations, so the
    # verdict decides it, not check_wf.
    assert check_wf(program, *program_refs(program)) == []
    verdict = check_pfoq(program)
    assert not verdict.accepted
    assert any("strictly shrink" in d for d in verdict.diagnostics)


def test_mutual_recursion_both_need_restriction():
    program = parse_program(MUTUAL_SOURCE)
    verdict = check_pfoq(program)
    assert not verdict.accepted
    assert any("procedure g" in d for d in verdict.diagnostics)


def test_calls_outside_the_group_are_unrestricted(qft):
    # rec calls rot on the full set; rot is not equivalent to rec, so this
    # does not violate well-foundedness.
    verdict = check_pfoq(qft)
    assert verdict.accepted, verdict.diagnostics


def test_a_call_shared_with_a_body_outside_its_group():
    # One `Call` object S, f's recursive call, is also both items of g's
    # body.  g is in no recursive group, so S has width 0 there, and each
    # declaration order gives the same verdict.
    p = SetVar("p")
    shared = Call("f", None, SetRemove(p, (IntLit(1),)))
    flip = Assign(QubitExpr(p, IntLit(1)), Operator(OP_NOT))
    f_body = If(BoolCmp(">", SetSize(p), IntLit(1)), Seq(flip, shared), Skip())
    f = ProcDecl("f", None, "p", f_body)
    g = ProcDecl("g", None, "p", Seq(shared, shared))
    for decls in ((f, g), (g, f)):
        verdict = check_pfoq(Program(decls, Call("g", None, SetVar("q"))))
        assert verdict.accepted
        assert verdict.widths == {"f": 1, "g": 0}


def test_level_bound_degree(qft):
    assert check_pfoq(qft).degree == 2
    assert check_pfoq(parse_program(WIDTH_TWO_SOURCE)).degree is None


def test_guarding_does_not_change_the_verdict(corpus):
    # check_pfoq reads the program as written; guarding only wraps
    # assignments and quantum cases in a classical test.
    programs = list(corpus.values())
    programs += [
        parse_program(src) for src in (WIDTH_TWO_SOURCE, NON_SHRINKING_SOURCE, MUTUAL_SOURCE)
    ]
    programs += [to_pfoq(term) for term in (*exhaustive_terms(), *random_terms())]
    for program in programs:
        assert check_pfoq(program).to_json() == check_pfoq(guard_errors(program)).to_json()


def _chain_program(k: int) -> str:
    decls = []
    for i in range(k):
        callee = f"p{i + 1}" if i + 1 < k else f"p{i}"
        arg = "s \\ [1]" if callee == f"p{i}" else "s"
        decls.append(
            f"decl p{i}(s) {{ if size(s) > 0 then {{ call {callee}({arg}); }} else {{ skip; }} }},"
        )
    return "\n".join(decls) + "\n:: call p0(q);"


def test_analysis_cost_scales_quadratically():
    # The elementary-operation counter should grow no faster than the
    # square of the number of procedures for a call chain.
    costs = {}
    for k in (10, 20, 40):
        program = parse_program(_chain_program(k))
        reset_op_count()
        check_pfoq(program)
        costs[k] = op_count()
    assert costs[20] / costs[10] <= 5.0
    assert costs[40] / costs[20] <= 5.0


def test_analysis_cost_is_linear_on_a_chain():
    # Call relations come from strongly connected components, so a chain
    # of k procedures costs O(k) elementary operations, not O(k^2).
    costs = {}
    for k in (40, 80, 160):
        program = parse_program(_chain_program(k))
        reset_op_count()
        check_pfoq(program)
        costs[k] = op_count()
    assert costs[80] / costs[40] <= 2.5
    assert costs[160] / costs[80] <= 2.5


def test_check_time_is_linear_on_a_long_chain():
    # The operation counter does not see set work, so time a chain 4x
    # longer: a linear check takes about 4x as long, a quadratic one 16x.
    def best_ms(k):
        program = parse_program(_chain_program(k))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            check_pfoq(program)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_ms(4000) / best_ms(1000) < 10
