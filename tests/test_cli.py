import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import foqc
from foqc.circuit import CircuitSchemaError, import_json
from foqc.cli import dispatch
from foqc.programs import BRANCHING_SOURCE, QFT_SOURCE


@pytest.fixture()
def qft_file(tmp_path):
    path = tmp_path / "qft.foq"
    path.write_text(QFT_SOURCE)
    return str(path)


@pytest.fixture()
def branching_file(tmp_path):
    path = tmp_path / "appendix-b.foq"
    path.write_text(BRANCHING_SOURCE)
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def readme_quick_start() -> list[list[str]]:
    """The argument lists of the README's quick-start commands."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["foqc"]:
            commands.append(words[1:])
        elif words[:3] == ["python", "-m", "foqc"]:
            commands.append(words[3:])
    return commands


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "term.alg").write_text("(comp (branch i not) swap (ph pi))\n")
    commands = readme_quick_start()
    assert len(commands) == 10
    for args in commands:
        assert dispatch(args) == 0, (args, capsys.readouterr().err)


def test_check_accepts_qft(qft_file, capsys):
    assert dispatch(["check", qft_file]) == 0
    payload = out_json(capsys)
    assert payload["accepted"] and payload["degree"] == 2


def test_check_rejects_wide_program(tmp_path, capsys):
    path = tmp_path / "bad.foq"
    path.write_text(
        "decl bad(p) { if size(p) > 0 then"
        " { call bad(p \\ [1]); call bad(p \\ [1]); } else { skip; } },"
        " :: call bad(q);"
    )
    assert dispatch(["check", str(path)]) == 1
    assert not out_json(capsys)["accepted"]


def test_run_on_basis_state(qft_file, capsys):
    assert dispatch(["run", qft_file, "--state", "1"]) == 0
    payload = out_json(capsys)
    assert payload["n"] == 1 and payload["level"] == 4
    amp = payload["amplitudes"]
    inv = 1 / math.sqrt(2)
    assert amp[0][0] == pytest.approx(inv) and amp[1][0] == pytest.approx(-inv)


def test_run_requires_a_state(qft_file, capsys):
    assert dispatch(["run", qft_file]) == 4
    assert "error" in capsys.readouterr().err


def test_run_runtime_error_exit_code(tmp_path, capsys):
    path = tmp_path / "oob.foq"
    path.write_text(":: q[5] *= NOT;")
    assert dispatch(["run", str(path), "--state", "00"]) == 2


def test_run_budget_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "loop.foq"
    path.write_text("decl f(p) { call f(p); }, :: call f(q);")
    assert dispatch(["run", str(path), "--state", "0", "--budget", "50"]) == 3
    # The environment variable is honoured when no flag is given.
    monkeypatch.setenv("FOQC_BUDGET", "50")
    assert dispatch(["run", str(path), "--state", "0"]) == 3


ILL_FORMED = {
    "duplicate": (
        "decl f(p) { p[1] *= NOT; }, decl f(p) { skip; }, :: call f(q);",
        "duplicate procedure declaration: f",
    ),
    "foreign-set": (
        "decl f(p) { r[1] *= NOT; }, :: call f(q);",
        "procedure f: unknown set variable(s) ['r']",
    ),
    "extra-argument": (
        "decl f(p) { p[1] *= NOT; }, :: call f[3](q);",
        "main statement: procedure f takes no classical argument",
    ),
}


@pytest.mark.parametrize("name", ILL_FORMED)
def test_every_program_subcommand_refuses_an_ill_formed_program(tmp_path, capsys, name):
    source, diagnostic = ILL_FORMED[name]
    path = tmp_path / f"{name}.foq"
    path.write_text(source)
    ill_formed = f"error: ill-formed program: {diagnostic}\n"
    expected = {
        ("check",): "",
        ("run", "--state", "0"): ill_formed,
        ("level", "-n", "1"): ill_formed,
        ("compile", "-n", "1"): ill_formed,
        ("diff", "-n", "1"): ill_formed,
    }
    for (command, *options), stderr in expected.items():
        assert dispatch([command, str(path), *options]) == 1, command
        assert capsys.readouterr().err == stderr, command


def test_sequence_steps_match_the_binary_sequencing_rule(tmp_path, capsys):
    # Each sequencing rule of a k-statement sequence costs one step, charged
    # before the statement it opens; the largest failing budgets are pinned.
    straight = tmp_path / "straight.foq"
    straight.write_text(
        ":: q[1] *= H; CNOT(q[1], q[2]); q[3] *= PH[pi / 4](0);\n"
        "if size(q) > 2 then { q[2] *= NOT; q[3] *= NOT; } else { skip; }\n"
        "SWAP(q[1], q[3]); skip;\n"
    )
    assert dispatch(["run", str(straight), "--state", "000", "--budget", "27"]) == 3
    assert dispatch(["run", str(straight), "--state", "000", "--budget", "28"]) == 0
    bottom = tmp_path / "bottom.foq"
    bottom.write_text(":: q[1] *= NOT; q[2] *= NOT; q[5] *= NOT; q[3] *= NOT; q[1] *= NOT;")
    assert dispatch(["run", str(bottom), "--state", "000", "--budget", "5"]) == 3
    assert dispatch(["run", str(bottom), "--state", "000", "--budget", "6"]) == 2


def test_level_command(qft_file, capsys):
    assert dispatch(["level", qft_file, "-n", "4"]) == 0
    assert out_json(capsys) == {"n": 4, "level": 18}
    # `level` only walks the program, so n is not held to the dense cap.
    assert dispatch(["level", qft_file, "-n", "40"]) == 0
    assert out_json(capsys) == {"n": 40, "level": 882}


def test_invert_round_trips(qft_file, tmp_path, capsys):
    out = tmp_path / "inv.foq"
    assert dispatch(["invert", qft_file, "-o", str(out)]) == 0
    twice = tmp_path / "twice.foq"
    assert dispatch(["invert", str(out), "-o", str(twice)]) == 0
    from foqc import parse_program

    assert parse_program(twice.read_text()) == parse_program(QFT_SOURCE)


def test_compile_simulate_pipeline(qft_file, tmp_path, capsys):
    circuit_path = tmp_path / "qft.json"
    assert dispatch(["compile", qft_file, "-n", "2", "-o", str(circuit_path), "--stats"]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["gates"] == 8 and stats["ancillas"] == 0
    assert dispatch(["simulate", str(circuit_path), "--state", "10"]) == 0
    payload = out_json(capsys)
    assert payload["n"] == 2
    assert payload["ancilla_residue"] < 1e-12


def test_compile_rejected_program(tmp_path, capsys):
    path = tmp_path / "bad.foq"
    path.write_text(
        "decl bad(p) { if size(p) > 0 then"
        " { call bad(p \\ [1]); call bad(p \\ [1]); } else { skip; } },"
        " :: call bad(q);"
    )
    assert dispatch(["compile", str(path), "-n", "3"]) == 1


def test_diff_command(branching_file, capsys):
    assert dispatch(["diff", branching_file, "-n", "5"]) == 0
    payload = out_json(capsys)
    assert payload["max_deviation"] < 1e-9


def test_diff_reaches_past_the_dense_wire_cap(branching_file, capsys):
    # appendix-b at n=14 compiles to 27 wires; only the n-qubit interpreter
    # side is dense, so the 26-wire cap does not refuse it.
    assert dispatch(["diff", branching_file, "-n", "14"]) == 0
    payload = out_json(capsys)
    assert payload["max_deviation"] < 1e-9
    assert payload["max_ancilla_residue"] < 1e-9


def test_simulate_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert dispatch(["simulate", str(path), "--state", "0"]) == 4


def cli_env() -> dict:
    """The environment under which a fresh process imports this checkout's foqc."""
    src = str(Path(foqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*argv):
    """Run `python -m foqc` in a fresh process, so tracebacks reach stderr."""
    return subprocess.run(
        [sys.executable, "-m", "foqc", *argv],
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_a_closed_stdout_exits_4_without_a_traceback(branching_file):
    # `foqc run … | head -c 30`: the reader closes the pipe while the
    # process still writes 2^16 amplitudes, far more than a pipe holds.
    with subprocess.Popen(
        [sys.executable, "-m", "foqc", "run", branching_file, "--state", "0" * 16],
        env=cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        assert process.stdout.read(30) == b'{"n": 16, "level": 15, "amplit'
        process.stdout.close()
        stderr = process.stderr.read().decode()
        assert process.wait(timeout=60) == 4
    assert stderr == "error: stdout was closed before the output was written\n"


def test_simulate_over_the_wire_cap_is_an_input_error(tmp_path):
    # 40 wires would need 2^40 amplitudes; the cap refuses before allocating.
    path = tmp_path / "wide.json"
    path.write_text('{"n":1,"ancillas":39,"gates":[]}')
    result = run_cli("simulate", str(path), "--state", "0")
    assert result.returncode == 4
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_wide_basis_states_are_input_errors(qft_file, capsys):
    assert dispatch(["run", qft_file, "--state", "0" * 40]) == 4
    assert dispatch(["diff", qft_file, "-n", "40"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("exceeds the limit of 26" in line for line in err)


@pytest.mark.parametrize("n", [61, 62, 63, 64, 100])
def test_diff_past_the_sparse_index_is_an_input_error(tmp_path, capsys, n):
    # From n = 64 the basis draw itself would overflow int64, so the
    # sparse-index bound is checked before anything is drawn.
    path = tmp_path / "not.foq"
    path.write_text(":: q[1] *= NOT;")
    assert dispatch(["diff", str(path), "-n", str(n)]) == 4
    assert capsys.readouterr().err == (
        f"error: {n} wires and 32 basis inputs exceed the 62-bit sparse index\n"
    )


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.foq"
    path.write_text(":: q[1] *= ;")
    assert dispatch(["check", str(path)]) == 4
    assert "broken.foq:1:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert dispatch(["check", "/nonexistent/path.foq"]) == 4


def test_algebra_command(tmp_path, capsys):
    term_path = tmp_path / "term.alg"
    term_path.write_text("(comp (branch i not) swap)")
    out = tmp_path / "term.foq"
    assert dispatch(["algebra", str(term_path), "-o", str(out)]) == 0
    assert dispatch(["check", str(out)]) == 0


def test_algebra_bad_term(tmp_path, capsys):
    term_path = tmp_path / "term.alg"
    term_path.write_text("(comp i")
    assert dispatch(["algebra", str(term_path)]) == 4


def test_algebra_refuses_a_wide_kqrec_selection_without_listing_it(tmp_path, capsys):
    # 2^40 bitstrings would not fit in memory: the labels are checked alone.
    term_path = tmp_path / "wide.alg"
    term_path.write_text("(kqrec :k 40 :t 40 :f i :g i :h i :sel (0 rec) (1 i))")
    assert dispatch(["algebra", str(term_path)]) == 4
    assert capsys.readouterr().err == (
        "error: kqrec selection must name each of the 1099511627776"
        " length-40 bitstrings exactly once\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("foo", "unknown algebra atom 'foo'"),
        ("()", "empty term"),
        ("((i) i)", "term head must be an atom"),
        ("(ph)", "ph takes a phase expression"),
        ("(comp i)", "comp takes at least two terms"),
        ("(branch i)", "branch takes exactly two terms"),
        ("(comp i", "unbalanced parentheses in term text"),
        (")", "unexpected ')' in term text"),
        ("i i", "trailing text after the term"),
        ("(frob i)", "unknown algebra form 'frob'"),
        ("(kqrec k 1)", "expected a :keyword in kqrec, got 'k'"),
        (
            "(kqrec :k 1 :t 0 :f i :g i :h i :sel (0 rec) 1)",
            "each :sel entry must be (BITSTRING rec) or (BITSTRING i)",
        ),
        ("(kqrec :k)", "kqrec keyword :k is missing its value"),
        ("(kqrec :k x)", "kqrec :k takes a natural number"),
        ("(kqrec :x 1)", "unknown kqrec keyword :x"),
        ("(kqrec :k 1 :t 0 :f i :g i)", "kqrec is missing :h"),
    ],
)
def test_algebra_reader_errors(tmp_path, capsys, text, message):
    term_path = tmp_path / "term.alg"
    term_path.write_text(text)
    assert assert_input_error(capsys, ["algebra", str(term_path)]) == f"error: {message}\n"


def test_algebra_refuses_a_huge_kqrec_k_without_building_2_to_the_k(tmp_path, capsys):
    # 2^20000 has more decimal digits than Python converts to text.
    term_path = tmp_path / "huge.alg"
    term_path.write_text("(kqrec :k 20000 :t 20000 :f i :g i :h i :sel (0 rec))")
    assert assert_input_error(capsys, ["algebra", str(term_path)]) == (
        "error: kqrec selection must name each of the 2^20000"
        " length-20000 bitstrings exactly once\n"
    )


def test_examples_command(tmp_path, capsys):
    target = tmp_path / "ex"
    assert dispatch(["examples", str(target)]) == 0
    names = {line.rsplit("/", 1)[-1] for line in capsys.readouterr().out.split()}
    assert names == {"qft.foq", "teleport.foq", "appendix-b.foq"}
    for name in names:
        assert dispatch(["check", str(target / name)]) == 0


def test_python_dash_m_runs_the_cli(qft_file):
    result = run_cli("check", qft_file)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["accepted"]


def merged_call_source(if_zero: str, if_one: str) -> str:
    """A recursive procedure whose calls the compiler merges under an ancilla."""
    return (
        "decl proc(p){ if size(p) > 1 then { qcase p[1] of { 0 -> "
        + if_zero
        + " , 1 -> "
        + if_one
        + " } } else { p[1] *= NOT; } }, :: call proc(q);"
    )


CONTROL_REUSE_SOURCES = [
    ":: qcase q[1] of { 0 -> q[1] *= NOT; , 1 -> skip; }",
    ":: qcase q[1] of { 0 -> qcase q[1] of { 0 -> skip; , 1 -> skip; } , 1 -> skip; }",
    "decl proc(p) { p[1] *= NOT; },"
    " :: qcase q[1] of { 0 -> call proc(q \\ [2]); , 1 -> skip; }",
    merged_call_source("call proc(p \\ [2]);", "skip;"),
]


@pytest.mark.parametrize(
    "source", CONTROL_REUSE_SOURCES, ids=["assign", "qcase", "call", "merged-call"]
)
def test_control_reuse_is_the_error_terminal_in_compile_and_diff(tmp_path, capsys, source):
    path = tmp_path / "reuse.foq"
    path.write_text(source)
    assert dispatch(["check", str(path)]) == 0
    capsys.readouterr()
    assert dispatch(["run", str(path), "--state", "00"]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("error:") and expected.count("\n") == 1
    for argv in (
        ["compile", str(path), "-n", "2"],
        ["diff", str(path), "-n", "2"],
        ["level", str(path), "-n", "2"],
    ):
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == expected


@pytest.mark.parametrize("budget", [[], ["--budget", "3"]], ids=["default", "budget-3"])
def test_the_walk_stops_at_the_error_terminal_in_every_subcommand(tmp_path, capsys, budget):
    # The 0-branch reaches the error terminal.  The 1-branch would exhaust
    # a budget of 3 and then divide by zero, but nothing after the error is
    # walked, so all four subcommands report the same access (`compile` and
    # `diff` take no budget).
    path = tmp_path / "bottom-first.foq"
    path.write_text(
        ":: qcase q[1] of { 0 -> q[1] *= NOT; , 1 -> q[2] *= NOT; q[2] *= NOT;"
        " q[2] *= NOT; q[2] *= NOT; q[2] *= PH[pi / (x - x)](0); }"
    )
    expected = "error: assignment to q[1]: position 1 is not accessible\n"
    for argv in (
        ["run", str(path), "--state", "00", *budget],
        ["level", str(path), "-n", "2", *budget],
        ["compile", str(path), "-n", "2"],
        ["diff", str(path), "-n", "2"],
    ):
        assert dispatch(argv) == 2, argv[0]
        assert capsys.readouterr().err == expected, argv[0]


def test_a_shared_call_under_a_pin_it_touches_reaches_the_error_terminal(tmp_path, capsys):
    # The second call has the first one's key, but runs under a pin on the
    # position its body writes: it is walked again, to the same error the
    # expanded walk meets.
    path = tmp_path / "shared-bottom.foq"
    path.write_text(
        "decl f(p) { p[1] *= NOT; }, :: call f(q); qcase q[1] of { 0 -> call f(q); , 1 -> skip; }"
    )
    expected = "error: assignment to p[1]: position 1 is not accessible\n"
    for argv in (
        ["run", str(path), "--state", "00"],
        ["level", str(path), "-n", "2"],
        ["compile", str(path), "-n", "2"],
        ["diff", str(path), "-n", "2"],
    ):
        assert dispatch(argv) == 2, argv[0]
        assert capsys.readouterr().err == expected, argv[0]


def test_level_shares_equal_calls(branching_file, capsys):
    # appendix-b makes about phi^60 calls at n = 60, but only 60 distinct ones.
    argv = ["level", branching_file, "-n", "60", "--budget", str(10**20)]
    assert dispatch(argv) == 0
    assert out_json(capsys) == {"n": 60, "level": 59}


def test_invert_is_syntactic_on_an_ill_formed_program(tmp_path, capsys):
    # `invert` does not check well-formedness; `check` on its output does.
    path = tmp_path / "ill-formed.foq"
    path.write_text("decl f(p) { p[1] *= H; }, decl f(p) { skip; }, :: call f(q); call g(q);")
    inverse = tmp_path / "inverse.foq"
    assert dispatch(["invert", str(path), "-o", str(inverse)]) == 0
    assert dispatch(["check", str(inverse)]) == 1
    assert out_json(capsys)["diagnostics"] == [
        "duplicate procedure declaration: f",
        "main statement: call to undeclared procedure g",
    ]


MERGED_BRANCHES = ["call proc(p \\ [1]);", "call proc(p \\ [2]);", "skip;"]
MERGED_IDS = ["drop-1", "drop-2", "skip"]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("if_one", MERGED_BRANCHES, ids=MERGED_IDS)
@pytest.mark.parametrize("if_zero", MERGED_BRANCHES, ids=MERGED_IDS)
def test_compile_reaches_the_error_terminal_exactly_when_run_does(
    tmp_path, capsys, if_zero, if_one, n
):
    path = tmp_path / "merged.foq"
    path.write_text(merged_call_source(if_zero, if_one))
    run_code = dispatch(["run", str(path), "--state", "0" * n])
    expected = capsys.readouterr().err
    assert run_code in (0, 2)
    code = dispatch(["compile", str(path), "-n", str(n)])
    err = capsys.readouterr().err
    assert code == run_code
    if code == 0:
        return
    assert err.startswith("error:") and err.count("\n") == 1
    # A routed call moves its wires onto the merged instance's wire list,
    # so its diagnostic may name that list's position instead of run's.
    routed = if_zero != if_one and "skip;" not in (if_zero, if_one)
    if not routed:
        assert err == expected


# One caller of the merged key proc(p \\ [1]) sits a quantum case deeper
# than the other, so the compiler meets it only after the merged body.
DEEPER_CALLER_SOURCE = merged_call_source(
    "call proc(p \\ [1]);",
    "if size(p) > 0 then { qcase p[2] of { 0 -> call proc(p \\ [1]); , 1 -> skip; } }"
    " else { skip; }",
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_caller_found_after_the_merged_body_still_pins_it(tmp_path, capsys, n):
    path = tmp_path / "deeper.foq"
    path.write_text(DEEPER_CALLER_SOURCE)
    assert dispatch(["run", str(path), "--state", "0" * n]) == 2
    capsys.readouterr()
    for argv in (["compile", str(path), "-n", str(n)], ["diff", str(path), "-n", str(n)]):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def assert_input_error(capsys, argv):
    assert dispatch(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "text",
    [
        '{"n":1,"ancillas":0,"gates":5}',
        '{"n":-1,"ancillas":0,"gates":[]}',
        '{"n":1,"ancillas":-2,"gates":[]}',
        # 1e400 parses as inf; wire counts and wires must be JSON integers.
        '{"n":1e400,"ancillas":0,"gates":[]}',
        '{"n":1,"ancillas":1e400,"gates":[]}',
        '{"n":1.5,"ancillas":0,"gates":[]}',
        '{"n":1,"ancillas":0,"gates":[{"kind":"cnot","controls":[],"targets":[1e400]}]}',
        '{"n":1,"ancillas":0,"gates":[{"kind":"cnot","controls":[],"targets":[true]}]}',
        '{"n":2,"ancillas":0,"gates":[{"kind":"cnot","controls":[[1e400,1]],"targets":[1]}]}',
        '{"n":2,"ancillas":0,"gates":[{"kind":"cnot","controls":[[2,true]],"targets":[1]}]}',
        '{"n":1,"ancillas":0,"gates":[{"kind":"cu","controls":[],"targets":[1],'
        '"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]],"label":5}]}',
        '{"n":1,"ancillas":0,"gates":[{"kind":"cu","controls":[],"targets":[1],'
        '"matrix":[[[1' + "0" * 400 + ',0],[0,0]],[[0,0],[1,0]]]}]}',
    ],
    ids=[
        "gates-not-a-list",
        "negative-n",
        "negative-ancillas",
        "infinite-n",
        "infinite-ancillas",
        "fractional-n",
        "infinite-target",
        "boolean-target",
        "infinite-control-wire",
        "boolean-control-bit",
        "non-string-label",
        "huge-integer-matrix-entry",
    ],
)
def test_malformed_circuit_json_is_a_schema_error(tmp_path, capsys, text):
    with pytest.raises(CircuitSchemaError):
        import_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert_input_error(capsys, ["simulate", str(path), "--state", "0"])


@pytest.mark.parametrize(
    "kind, targets, message",
    [
        ("cnot", [], "cnot takes exactly one target"),
        ("cnot", [1, 2], "cnot takes exactly one target"),
        ("cswap", [1, 2, 3], "cswap targets must split into two equal halves"),
    ],
    ids=["cnot-none", "cnot-two", "cswap-odd"],
)
def test_simulate_refuses_a_gate_with_the_wrong_number_of_targets(
    tmp_path, capsys, kind, targets, message
):
    gate = {"kind": kind, "controls": [], "targets": targets}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "ancillas": 0, "gates": [gate]}))
    err = assert_input_error(capsys, ["simulate", str(path), "--state", "000"])
    assert err == f"error: {message}\n"


def test_simulate_names_one_size_for_a_circuit_without_ancillas(qft_file, tmp_path, capsys):
    circuit = tmp_path / "qft.json"
    assert dispatch(["compile", qft_file, "-n", "8", "-o", str(circuit)]) == 0
    err = assert_input_error(capsys, ["simulate", str(circuit), "--state", "000"])
    assert err == "error: state has 8 amplitudes; expected 2^8\n"


def test_simulate_refuses_a_non_unitary_gate_on_every_request(tmp_path, capsys):
    matrix = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    gate = {"kind": "cu", "controls": [], "targets": [1], "matrix": matrix}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "ancillas": 0, "gates": [gate]}))
    for _ in range(2):
        err = assert_input_error(capsys, ["simulate", str(path), "--state", "0"])
        assert err == "error: matrix is not unitary\n"


def test_simulate_refuses_a_non_finite_matrix_entry(tmp_path, capsys):
    # 1e400 parses as inf, and the unitarity test on it compares NaN.
    path = tmp_path / "inf.json"
    path.write_text(
        '{"n":1,"ancillas":0,"gates":[{"kind":"cu","controls":[],"targets":[1],'
        '"matrix":[[[1e400,0],[0,0]],[[0,0],[1,0]]]}]}'
    )
    err = assert_input_error(capsys, ["simulate", str(path), "--state", "0"])
    assert err == "error: matrix entries must be finite\n"


@pytest.mark.parametrize(
    "matrix",
    [
        # M^dagger M overflows to inf and NaN entries; NaN compares false.
        [[[1e308, 0], [1e308, 0]], [[1e308, 0], [0, 1e308]]],
        [[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]],
    ],
    ids=["nan-product", "inf-product"],
)
def test_simulate_refuses_a_matrix_whose_unitarity_test_overflows(tmp_path, matrix):
    # A fresh process, so any numpy warning would reach stderr.
    gate = {"kind": "cu", "controls": [], "targets": [1], "matrix": matrix}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "ancillas": 0, "gates": [gate]}))
    result = run_cli("simulate", str(path), "--state", "0")
    assert (result.returncode, result.stderr) == (4, "error: matrix is not unitary\n")


def test_run_refuses_a_nan_amplitude(qft_file, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n":1,"amplitudes":[[NaN,0],[0,0]]}')
    err = assert_input_error(capsys, ["run", str(qft_file), "--amplitudes", str(path)])
    assert err == "error: bad state JSON: state is not normalized (norm nan)\n"


def test_run_refuses_an_amplitude_whose_norm_overflows(qft_file, tmp_path):
    # A fresh process, so any numpy warning would reach stderr.
    path = tmp_path / "huge.json"
    path.write_text('{"n":1,"amplitudes":[[1e308,0],[0,0]]}')
    result = run_cli("run", qft_file, "--amplitudes", str(path))
    assert (result.returncode, result.stderr) == (
        4,
        "error: bad state JSON: state is not normalized (norm inf)\n",
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n":1e400,"amplitudes":[[1,0]]}', "'n' must be an integer, got Infinity"),
        ('{"n":true,"amplitudes":[[1,0],[0,0]]}', "'n' must be an integer, got true"),
        ('{"n":1,"amplitudes":[[1' + "0" * 400 + ',0],[0,0]]}', "int too large to convert to float"),
    ],
    ids=["infinite-n", "boolean-n", "huge-integer-amplitude"],
)
def test_run_refuses_a_malformed_state(qft_file, tmp_path, capsys, text, message):
    path = tmp_path / "state.json"
    path.write_text(text)
    err = assert_input_error(capsys, ["run", str(qft_file), "--amplitudes", str(path)])
    assert err == f"error: bad state JSON: {message}\n"


def test_phase_overflow_is_a_phase_error(tmp_path, capsys):
    path = tmp_path / "huge.foq"
    path.write_text(":: q[1] *= RY[2^99999](0);")
    err = assert_input_error(capsys, ["run", str(path), "--state", "0"])
    assert "phase expression overflows" in err


def test_an_infinite_phase_is_a_phase_error(tmp_path, capsys):
    # Each factor is a finite float; their product is not.
    path = tmp_path / "inf.foq"
    path.write_text(":: q[1] *= PH[2^1000 * 2^1000](0);")
    err = assert_input_error(capsys, ["run", str(path), "--state", "0"])
    assert err == "error: phase expression is not finite at n=0\n"


def test_simulate_refuses_a_state_of_the_wrong_size(branching_file, tmp_path, capsys):
    circuit = tmp_path / "appendix-b.json"
    assert dispatch(["compile", branching_file, "-n", "4", "-o", str(circuit)]) == 0
    err = assert_input_error(capsys, ["simulate", str(circuit), "--state", "000"])
    assert err == "error: state has 8 amplitudes; expected 2^4 or 2^7\n"


def test_negative_qubit_count_is_refused(qft_file, capsys):
    for argv in (["compile", "-n", "-1"], ["level", "-n", "-1"], ["diff", "-n", "-2"]):
        assert_input_error(capsys, [argv[0], qft_file, *argv[1:]])
    # So is a count past the largest index, which no position list can hold.
    for command in ("compile", "level", "diff"):
        err = assert_input_error(capsys, [command, qft_file, "-n", str(10**20)])
        assert err == f"error: -n must be at most {sys.maxsize}, got {10**20}\n"
    # A negative seed is refused alike, whether or not n draws a sample,
    # and before the program file is read.
    for file in (qft_file, qft_file + ".missing"):
        for n in ("3", "7"):
            err = assert_input_error(capsys, ["diff", file, "-n", n, "--seed", "-5"])
            assert err == "error: --seed must be a nonnegative integer, got -5\n"


def test_a_qubit_count_past_the_address_space_is_an_input_error(qft_file, capsys):
    # 10^15 positions need 8 PB, more than the address space holds, so the
    # allocation fails at once and touches no memory.
    for command in ("level", "compile", "diff"):
        err = assert_input_error(capsys, [command, qft_file, "-n", str(10**15)])
        assert err == f"error: {command} ran out of memory\n"


def test_negative_budget_is_refused(qft_file, capsys, monkeypatch):
    for argv in (["level", qft_file, "-n", "5"], ["run", qft_file, "--state", "0110"]):
        err = assert_input_error(capsys, [*argv, "--budget", "-1"])
        assert err == "error: --budget must be a nonnegative integer, got -1\n"
        monkeypatch.setenv("FOQC_BUDGET", "-3")
        err = assert_input_error(capsys, argv)
        assert err == "error: FOQC_BUDGET must be a nonnegative integer, got -3\n"
        monkeypatch.delenv("FOQC_BUDGET")
    # A zero budget is a budget, and the first statement exceeds it.
    assert dispatch(["level", qft_file, "-n", "5", "--budget", "0"]) == 3


def test_a_budget_variable_that_is_no_integer_is_refused(qft_file, capsys, monkeypatch):
    monkeypatch.setenv("FOQC_BUDGET", "abc")
    for argv in (["level", qft_file, "-n", "5"], ["run", qft_file, "--state", "0110"]):
        err = assert_input_error(capsys, argv)
        assert err == "error: FOQC_BUDGET is not an integer: 'abc'\n"


@pytest.mark.parametrize("command", ["compile", "invert", "algebra"])
def test_output_into_a_missing_directory_is_an_input_error(qft_file, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.txt"
    source = qft_file
    if command == "algebra":
        source = tmp_path / "term.alg"
        source.write_text("(comp (branch i not) swap (ph pi))\n")
    argv = [command, str(source), "-o", str(target)]
    if command == "compile":
        argv += ["-n", "3"]
    assert dispatch(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not target.parent.exists()


def test_examples_under_a_regular_file_is_an_input_error(tmp_path, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    err = assert_input_error(capsys, ["examples", str(regular / "examples")])
    assert err.startswith("error: cannot write examples: ")


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    depth = 1000
    program = tmp_path / "deep.foq"
    program.write_text(":: q[1] *= RY[" + "(" * depth + "pi" + ")" * depth + "](0);")
    err = assert_input_error(capsys, ["check", str(program)])
    # The parser names the token where its descent stopped.
    assert err.startswith(f"error: {program}:1:") and err.endswith(": input nests too deeply\n")
    term = tmp_path / "deep.alg"
    term.write_text("(" * depth + "i" + ")" * depth)
    err = assert_input_error(capsys, ["algebra", str(term)])
    assert err == "error: term text nests too deeply\n"


def test_a_recursion_error_past_the_parser_names_the_subcommand(qft_file, capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(foqc.cli, "compile_with_stats", too_deep)
    err = assert_input_error(capsys, ["compile", qft_file, "-n", "3"])
    assert err == "error: compile exceeded Python's recursion limit\n"


def test_compile_handles_a_deep_merging_recursion(branching_file, tmp_path, capsys):
    # Each ancilla region of appendix-b is built on top of the one before,
    # so no region operation recurses once per qubit.
    circuit_path = tmp_path / "appendix-b.json"
    argv = ["compile", branching_file, "-n", "1500", "-o", str(circuit_path), "--stats"]
    assert dispatch(argv) == 0
    stats = json.loads(capsys.readouterr().err)
    assert (stats["gates"], stats["ancillas"]) == (5994, 1499)


@pytest.mark.parametrize(
    "argv",
    [["compile", "{file}"], ["level", "{file}", "-n", "x"], ["frobnicate"], []],
    ids=["missing-n", "non-integer-n", "unknown-command", "no-command"],
)
def test_usage_errors_are_input_errors(qft_file, capsys, argv):
    assert_input_error(capsys, [arg.format(file=qft_file) for arg in argv])


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["compile", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in (
        "check", "run", "level", "invert", "compile", "simulate", "diff", "algebra", "examples"
    ):
        assert f"    {command} " in out, command


def test_one_process_serves_many_requests(qft_file, capsys):
    assert dispatch(["compile", qft_file, "-n", "3", "--stats"]) == 0
    assert json.loads(capsys.readouterr().err)["gates"] > 0
    assert dispatch(["compile", qft_file, "-n", "3"]) == 0
    assert capsys.readouterr().err == ""

    assert dispatch(["run", qft_file, "--state", "0110", "--budget", "1"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert dispatch(["run", qft_file, "--state", "0110"]) == 0
    assert out_json(capsys)["n"] == 4

    assert_input_error(capsys, ["compile", qft_file])
    assert dispatch(["compile", qft_file, "-n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2

    with pytest.raises(SystemExit) as exc:
        dispatch(["run", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert dispatch(["check", qft_file]) == 0
    assert out_json(capsys)["accepted"]


def test_callee_does_not_see_the_callers_parameter(tmp_path, capsys):
    path = tmp_path / "scope.foq"
    path.write_text(
        "decl g(p) { p[x] *= NOT; }, decl f[x](p) { call g(p); }, :: call f[1](q);"
    )
    # g's body names x, which only f binds: ill formed, so nothing runs.
    expected = "procedure g: unknown integer variable(s) ['x']\n"
    assert dispatch(["run", str(path), "--state", "0"]) == 1
    assert capsys.readouterr().err == "error: ill-formed program: " + expected
    assert dispatch(["compile", str(path), "-n", "1"]) == 1


def test_a_variable_used_only_under_a_negation_is_checked(tmp_path, capsys):
    path = tmp_path / "negated.foq"
    path.write_text(
        "decl f(p) { if !(y > 0) then { p[1] *= NOT; } else { skip; } }, :: call f(q);"
    )
    diagnostic = "procedure f: unknown integer variable(s) ['y']"
    assert dispatch(["check", str(path)]) == 1
    assert out_json(capsys)["diagnostics"] == [diagnostic]
    for argv in (["run", str(path), "--state", "0"], ["compile", str(path), "-n", "1"]):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"error: ill-formed program: {diagnostic}\n"


def test_access_error_names_the_source_expression(tmp_path, capsys):
    path = tmp_path / "access.foq"
    path.write_text(
        "decl f[x](p) { p[x] *= NOT; },"
        " :: qcase q[1] of { 0 -> call f[1](q); , 1 -> skip; }"
    )
    expected = "error: assignment to p[x]: position 1 is not accessible\n"
    assert dispatch(["run", str(path), "--state", "00"]) == 2
    assert capsys.readouterr().err == expected
    assert dispatch(["compile", str(path), "-n", "2"]) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        (":: q[5] *= NOT;", "assignment to q[5]: index 5 is out of range for a list of length 2"),
        (
            ":: qcase q[3] of { 0 -> skip; , 1 -> skip; }",
            "quantum case on q[3]: index 3 is out of range for a list of length 2",
        ),
        (
            "decl f(p) { p[0] *= H; }, :: call f(q \\ [1]);",
            "assignment to p[0]: index 0 is out of range for a list of length 1",
        ),
    ],
    ids=["assignment", "quantum-case", "callee"],
)
def test_an_out_of_range_access_names_its_index_and_the_list_length(
    tmp_path, capsys, source, expected
):
    path = tmp_path / "range.foq"
    path.write_text(source)
    assert dispatch(["run", str(path), "--state", "00"]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
