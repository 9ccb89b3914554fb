"""Tests of the benchmark itself: statistics, tracing, failure counting, smoke runs.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import measure
import run
import workloads
from measure import Span, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "count, rung",
    [(5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0)],
)
def test_tail_rung_leaves_ten_samples_beyond(count, rung):
    assert measure.tail_rung(count) == rung


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 90.0) == (90, 10)
    assert measure.percentile(reversed(samples), 50.0) == (50, 50)
    assert measure.percentile([7.0], 99.0) == (7.0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("cli.compile", 0, 100, None, "r"),
        Span("parser.parse_program", 10, 40, 0, "r"),
        Span("compiler.compile_with_stats", 30, 60, 0, "r"),  # overlaps its sibling
        Span("circuit.export_json", 90, 120, 0, "r"),  # runs past its parent
        Span("analysis.check_pfoq", 35, 45, 2, "r"),
    ]
    assert measure.self_times_ns(spans) == [40, 30, 20, 30, 10]


def test_tracer_records_parent_request_and_innermost_error():
    tr = Tracer()
    tr.request = "check x"
    with pytest.raises(RecursionError):
        with tr.span("cli.check"):
            tr.call("parser.parse_program", lambda: None)
            tr.call("analysis.check_pfoq", _raise, RecursionError)
    root, parse, check = tr.spans
    assert (root.parent, parse.parent, check.parent) == (None, 0, 0)
    assert {s.request for s in tr.spans} == {"check x"}
    assert root.end_ns >= check.end_ns >= check.start_ns >= parse.end_ns
    assert (root.error, parse.error, check.error) == ("RecursionError", None, "RecursionError")
    assert measure.layer_errors(tr.spans) == {"analysis": 1}


def _raise(exc_type):
    raise exc_type("boom")


def test_raising_request_is_a_timed_failure(monkeypatch):
    def crash(argv):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(workloads.cli, "dispatch", crash)
    outcome = workloads.dispatch(["check", "x.foq"])
    assert not outcome.ok
    assert (outcome.rc, outcome.error) == (None, "RecursionError")
    assert outcome.seconds > 0


def test_raising_request_counts_as_failed():
    requests = [workloads.Request(f"check p{i}", "check", {"file": f"p{i}.foq"}) for i in range(3)]
    units = [workloads.Unit(f"p{i}", "straight", "", 100, 1, [req]) for i, req in enumerate(requests)]
    ok = workloads.Outcome(0, "{}", None, 0.002)
    crashed = workloads.Outcome(None, "", "RecursionError", 0.001)
    passes = [{"check p0": ok, "check p1": ok, "check p2": crashed}] * 2

    class Fake:
        nominal_passes = 1

        def circuits(self, unit, outcomes):
            return []

    metrics, attempted, failed, _ = run.end_to_end(Fake(), units, passes, [1.0, 1.0], {}, [0.5])
    assert (attempted, failed) == (6, 2)
    assert metrics["ok_rate"] == pytest.approx(4 / 6)
    assert metrics["stmts_per_s"] == pytest.approx(200.0)


def test_latency_is_scaled_by_the_probe_readings_around_it():
    ref = measure.PROBE_REF_S
    fast = {"python": ref["python"], "numpy": ref["numpy"]}
    slow = {"python": 2 * ref["python"], "numpy": ref["numpy"]}
    assert measure.at_reference_speed(1.0, [fast, fast], ("python",)) == pytest.approx(1.0)
    assert measure.at_reference_speed(1.0, [slow, slow], ("python",)) == pytest.approx(0.5)
    assert measure.at_reference_speed(1.0, [fast, slow], ("python",)) == pytest.approx(2 / 3)
    both = ref["python"] + ref["numpy"]
    assert measure.at_reference_speed(1.0, [slow], ("python", "numpy")) == pytest.approx(
        both / (2 * ref["python"] + ref["numpy"]))


def test_request_percentiles_use_each_request_median_over_passes():
    reqs = [workloads.Request(f"check p{i}", "check", {"file": f"p{i}.foq"}) for i in range(3)]
    units = [workloads.Unit(f"p{i}", "straight", "", 10, 1, [req]) for i, req in enumerate(reqs)]

    def outcome(ms):
        return workloads.Outcome(0, "{}", None, ms / 1000)

    # One slow spell hits every request in the second pass.
    passes = [
        {"check p0": outcome(1), "check p1": outcome(2), "check p2": outcome(3)},
        {"check p0": outcome(10), "check p1": outcome(20), "check p2": outcome(30)},
        {"check p0": outcome(1), "check p1": outcome(2), "check p2": outcome(3)},
    ]

    class Fake:
        nominal_passes = 20  # 60 samples: the tail is p75

        def circuits(self, unit, outcomes):
            return []

    metrics, attempted, failed, _ = run.end_to_end(Fake(), units, passes, [1.0] * 3, {}, [0.5])
    assert (attempted, failed) == (9, 0)
    assert metrics["req_p50_ms"] == pytest.approx(2.0)
    assert metrics["req_tail_ms"] == pytest.approx(3.0)


def test_same_seed_gives_same_input_hash():
    assert gen.inputs_hash(gen.frontend_programs(7)) == gen.inputs_hash(gen.frontend_programs(7))
    assert gen.inputs_hash(gen.frontend_programs(7)) != gen.inputs_hash(gen.frontend_programs(8))
    terms = gen.algebra_terms(7, 3, 10)
    assert gen.inputs_hash(terms) == gen.inputs_hash(gen.algebra_terms(7, 3, 10))
    assert gen.inputs_hash(terms) != gen.inputs_hash(gen.algebra_terms(8, 3, 10))


def test_sparse_reference_matches_the_dense_simulator():
    from foqc import compile_program, parse_program
    from foqc.circuit import export_json, simulate_circuit
    from foqc.interpreter import QuantumState
    from foqc.programs import EXAMPLES

    circ = compile_program(parse_program(EXAMPLES["appendix-b.foq"]), 5)
    obj = json.loads(export_json(circ))
    for bits in ("00000", "10110", "11111"):
        dense = simulate_circuit(circ, QuantumState.from_bits(bits))
        sparse = workloads.sparse_simulate(obj, bits)
        for index, amp in enumerate(dense):
            assert abs(sparse.get(index, 0) - amp) < 1e-12


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    done = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_smoke_run_traced():
    done = _run_bench(ROOT, "--workload", "compile-merge", "--seed", "3", "--seconds", "1",
                      "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["compiler.growth_per_qubit"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "compile-merge", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
