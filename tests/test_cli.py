import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foqc
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


def test_simulate_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert dispatch(["simulate", str(path), "--state", "0"]) == 4


def run_cli(*argv):
    """Run `python -m foqc` in a fresh process, so tracebacks reach stderr."""
    src = str(Path(foqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "foqc", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


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
