"""foqc benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload compile-merge --seed 1 --seconds 35 --trace 0

Run from the repository root.  With --workload, one workload runs in this
process and the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Without
--workload, each workload runs in its own child process.  Full reports,
including every span of a traced run, are written under `.bench_work/`.
"""

from __future__ import annotations

import os

# numpy's OpenBLAS starts one thread per core unless told otherwise; the
# benchmark measures a single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# Workload and metric names and the metrics' units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPS = 7
# Set-up is Python work: a cold interpreter start, generation, tokenizing.
SETUP_PROBE = ("python",)
LAYERS = ("parser", "analysis", "interpreter", "compiler", "circuit",
          "transform", "syntax", "algebra", "cli")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_import() -> None:
    """Start a fresh interpreter that imports the CLI and exits."""
    subprocess.run([sys.executable, "-c", "import foqc.cli"], env=_child_env(), check=True,
                   stdin=subprocess.DEVNULL)


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# One workload in this process.
# ---------------------------------------------------------------------------


def untraced_pass(units, kinds):
    """One pass of CLI requests, reading the speed probe's `kinds` before and after each."""
    from measure import probe
    from workloads import dispatch

    outcomes, readings = {}, [probe(kinds)]
    for unit in units:
        for req in unit.requests:
            outcomes[req.rid] = dispatch(req.argv())
            readings.append(probe(kinds))
    return outcomes, readings


def scaled_pass(outcomes, readings, kinds):
    """The pass's outcomes, each latency scaled by the probe readings on either side of it."""
    from measure import at_reference_speed as scale

    return {
        rid: replace(o, seconds=scale(o.seconds, readings[i:i + 2], kinds))
        for i, (rid, o) in enumerate(outcomes.items())
    }


def traced_pass(units, tokens):
    from measure import Tracer
    from workloads import Outcome, traced

    tr = Tracer()
    outcomes = {}
    start = time.perf_counter()
    for unit in units:
        for req in unit.requests:
            tr.request = req.rid
            t0 = time.perf_counter()
            try:
                with tr.span(f"cli.{req.cmd}"):
                    stdout = traced(tr, req, tokens)
                outcomes[req.rid] = Outcome(0, stdout, None, time.perf_counter() - t0)
            except Exception as exc:  # a crash is a failed request
                outcomes[req.rid] = Outcome(None, "", type(exc).__name__, time.perf_counter() - t0)
    return outcomes, time.perf_counter() - start, tr


class SetUp:
    """Generates and writes the workload's inputs and counts their tokens.

    This happens SETUP_REPS times in a run: once before the first pass and
    then between passes, spread over the run, so that `setup_s` samples the
    machine over the whole run and not only in its first seconds.  Each
    time is scaled to the reference speed by the Python probe read before
    and after it.  Every repetition must give the same inputs.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.workdir = WORKDIR / f"{name}-seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.times: list[float] = []
        self.hashes: set[str] = set()
        self.workload, self.units, self.tokens = self.once()

    def once(self):
        import gen
        from foqc import parser
        from measure import at_reference_speed, probe
        from workloads import WORKLOADS

        before = probe(SETUP_PROBE)
        start = time.perf_counter()
        cold_import()
        workload = WORKLOADS[self.name](self.seed, self.workdir)
        inputs = workload.inputs()
        units = workload.units(inputs)
        tokens = {
            path: len(parser.tokenize(text, path))
            for unit in units for path, text in unit.sources.items()
        }
        elapsed = time.perf_counter() - start
        self.times.append(at_reference_speed(elapsed, [before, probe(SETUP_PROBE)], SETUP_PROBE))
        self.hashes.add(gen.inputs_hash(inputs) + str(sorted(tokens.items())))
        return workload, units, tokens

    def between_passes(self, share_done: float) -> None:
        if len(self.times) < SETUP_REPS and share_done >= len(self.times) / SETUP_REPS:
            self.once()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPS:
            self.once()


def _schedule(seconds: float, one_pass, between_passes):
    """Run whole passes until the next one would end past the deadline."""
    results, start = [], time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results
        between_passes(elapsed / seconds)


def _stdout_problems(passes) -> dict[str, str]:
    problems = {}
    for outcomes in passes[1:]:
        for rid, out in outcomes.items():
            first = passes[0][rid]
            if (out.ok, out.stdout) != (first.ok, first.stdout):
                problems[rid] = "output changed between passes"
    return problems


def end_to_end(workload, units, passes, walls, problems, setup_times):
    from measure import median, percentile, tail_rung

    last = passes[-1]
    # Each request's latency is its median over the passes, so that a slow
    # spell of the host moves it less than it moves a single sample.
    typical = [median(outcomes[rid].seconds * 1000 for outcomes in passes) for rid in last]
    failed = sum(
        1 for outcomes in passes for rid, o in outcomes.items() if not o.ok or rid in problems
    )
    attempted = len(passes) * len(last)
    per_pass = []
    for outcomes, wall in zip(passes, walls):
        done = sum(
            u.statements for u in units
            if all(outcomes[r.rid].ok and r.rid not in problems for r in u.requests)
        )
        per_pass.append(done / wall)
    gates = wires = stmts = circuits = 0
    for unit in units:
        made = workload.circuits(unit, last)
        for g, w in made:
            gates += g
            wires += w
            circuits += 1
        if made:
            stmts += unit.statements
    p = tail_rung(workload.nominal_passes * len(passes[0]))
    tail, _ = percentile(typical, p)
    metrics = {
        "setup_s": median(setup_times),
        "req_p50_ms": median(typical),
        "req_tail_ms": tail,
        "stmts_per_s": median(per_pass),
        "ok_rate": 1 - failed / attempted,
        "out_gates": gates / stmts if stmts else 0.0,
        "out_wires": wires / circuits if circuits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "req_tail_ms": f"p{p:g} of the {len(typical)} requests' medians over {len(passes)} passes",
        "error_rate": f"{failed / attempted:.4f} ({failed} failed of {attempted} requests)",
        "passes": str(len(passes)),
    }
    return metrics, attempted, failed, notes


def per_layer(workload, pairs):
    """Per-layer metrics: per-pass values, each the median over the traced passes.

    `cli.glue_ms` and `cli.trace_overhead_ms` pair each traced request with
    the same request untraced, comparing their medians over the passes.
    """
    from measure import layer_errors, median, self_times_ns

    rows = []
    by_rid: dict[str, dict[str, list[float]]] = {}

    def add(rid, key, value):
        by_rid.setdefault(rid, {}).setdefault(key, []).append(value)

    for (untraced, _), (_, _, tr) in pairs:
        ms: dict[str, float] = {}
        self_ms = dict.fromkeys(LAYERS, 0.0)
        children: dict[str, float] = dict.fromkeys(untraced, 0.0)
        for span, own in zip(tr.spans, self_times_ns(tr.spans)):
            dur = span.duration_ns / 1e6
            ms[span.name] = ms.get(span.name, 0.0) + dur
            self_ms[span.layer] += own / 1e6
            if span.parent is None:
                add(span.request, "root", dur)
            else:
                children[span.request] += dur
            if span.name == "compiler.compile_with_stats" and span.error is None:
                add(span.request, "compile", dur)
        for rid, out in untraced.items():
            add(rid, "untraced", out.seconds * 1000)
            add(rid, "children", children[rid])
        errors = layer_errors(tr.spans)
        c = tr.counts
        row = {
            "compiler.compile_ms": ms.get("compiler.compile_with_stats", 0.0),
            "compiler.orthogonality_checks": c.get("compiler.orthogonality_checks", 0),
            "compiler.anc_keys": c.get("compiler.anc_keys", 0),
            "compiler.max_worklist": c.get("compiler.max_worklist", 0),
            "circuit.simulate_ms": ms.get("circuit.simulate_circuit", 0.0),
            "circuit.sim_wires_max": c.get("circuit.sim_wires_max", 0),
            "circuit.export_ms": ms.get("circuit.export_json", 0.0),
            "circuit.import_ms": ms.get("circuit.import_json", 0.0),
            "circuit.json_bytes": c.get("circuit.json_bytes", 0),
            "interpreter.run_ms": ms.get("interpreter.run", 0.0),
            "interpreter.guard_ms": ms.get("interpreter.guard_errors", 0.0),
            "parser.parse_ms": ms.get("parser.parse_program", 0.0),
            "analysis.check_ms": ms.get("analysis.check_pfoq", 0.0),
            "analysis.op_count": c.get("analysis.op_count", 0),
            "transform.invert_ms": ms.get("transform.invert", 0.0),
            "syntax.print_ms": ms.get("syntax.pretty_print", 0.0),
            "algebra.to_pfoq_ms": ms.get("algebra.to_pfoq", 0.0),
        }
        checks = row["compiler.orthogonality_checks"]
        row["compiler.ms_per_orth_check"] = row["compiler.compile_ms"] / checks if checks else 0.0
        gates = c.get("circuit.gates_simulated", 0)
        row["circuit.us_per_gate"] = row["circuit.simulate_ms"] * 1000 / gates if gates else 0.0
        parse_s = row["parser.parse_ms"] / 1000
        row["parser.tokens_per_s"] = c.get("parser.tokens", 0) / parse_s if parse_s else 0.0
        for layer in LAYERS:
            row[f"{layer}.self_ms"] = self_ms[layer]
            row[f"{layer}.errors"] = errors.get(layer, 0)
        rows.append(row)
    metrics = {name: median(row[name] for row in rows) for name in rows[0]}
    metrics["cli.glue_ms"] = sum(
        median(v["untraced"]) - median(v["children"]) for v in by_rid.values()
    )
    metrics["cli.trace_overhead_ms"] = sum(
        median(v["root"]) - median(v["untraced"]) for v in by_rid.values()
    )
    series = [median(by_rid[rid]["compile"]) for rid in workload.growth_rids
              if "compile" in by_rid.get(rid, {})]
    ratios = [b / a for a, b in zip(series, series[1:]) if a > 0]
    metrics["compiler.growth_per_qubit"] = (
        math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # foqc and the benchmark's modules are imported only after main() has
    # checked that the checkout holds foqc's sources and put them on the path.
    from measure import PROBE_REF_S, median
    from workloads import dispatch

    setup = SetUp(name, seed)
    workload, units, tokens = setup.workload, setup.units, setup.tokens
    kinds = workload.probe_kinds
    # Warm-up: every distinct command once, so lazy imports and caches are
    # filled before anything is timed.
    seen = set()
    for unit in units:
        for req in unit.requests:
            if req.cmd not in seen:
                seen.add(req.cmd)
                dispatch(req.argv())
    problems: dict[str, str] = {}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(),
              "inputs": [unit.properties() for unit in units]}
    if not trace:
        results = _schedule(seconds, lambda: untraced_pass(units, kinds), setup.between_passes)
        passes = [scaled_pass(outcomes, readings, kinds) for outcomes, readings in results]
        # A pass's time is the sum of its scaled request latencies.
        walls = [sum(o.seconds for o in outcomes.values()) for outcomes in passes]
    else:
        results = _schedule(
            seconds, lambda: (untraced_pass(units, kinds), traced_pass(units, tokens)),
            setup.between_passes)
        passes = [u[0] for u, _ in results]
        for (untraced, _), (traced, _, _) in results:
            for rid, out in traced.items():
                ref = untraced[rid]
                if out.ok and ref.ok and out.stdout != ref.stdout:
                    problems[rid] = "traced output differs from the CLI output"
                if out.ok != ref.ok:
                    problems[rid] = "traced request and CLI request disagree on success"
        walls = []
    setup.finish()
    if len(setup.hashes) != 1:
        problems["setup"] = "the same seed gave different inputs"
    problems.update(_stdout_problems(passes))
    for unit in units:
        problems.update(workload.check(unit, passes[-1]))
    correct = not problems
    if trace:
        traced_outcomes = [t[0] for _, t in results]
        attempted = sum(len(t) for t in traced_outcomes)
        failed = sum(
            1 for t in traced_outcomes for rid, o in t.items() if not o.ok or rid in problems
        )
        metrics = dict(sorted(per_layer(workload, results).items()))
        notes = {"passes": str(len(results))}
        report["spans"] = [t[2].to_json_obj() for _, t in results]
    else:
        metrics, attempted, failed, notes = end_to_end(
            workload, units, passes, walls, problems, setup.times)
        probes = [sum(r[k] for k in kinds) * 1000 for _, readings in results for r in readings]
        reference = sum(PROBE_REF_S[k] for k in kinds) * 1000
        notes["probe_ms"] = (f"{'+'.join(kinds)}: median {median(probes):.4f}, reference "
                             f"{reference:g}; times are scaled by reference / probe")
        report["latencies_ms"] = {
            rid: [p[rid].seconds * 1000 for p in passes] for rid in passes[0]
        }
        report["raw_latencies_ms"] = {
            rid: [o[rid].seconds * 1000 for o, _ in results] for rid in passes[0]
        }
        report["probe_ms"] = [[{k: v * 1000 for k, v in r.items()} for r in readings]
                              for _, readings in results]
    report["setup_times_s"] = setup.times
    report["failures"] = {rid: o.error or f"exit {o.rc}"
                          for rid, o in passes[-1].items() if not o.ok}
    report["problems"] = problems
    listed = SPEC["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in listed} != set(metrics):
        raise RuntimeError("the metrics computed differ from those BENCHMARK.json lists")
    units_of = {m["name"]: m["unit"] for m in listed}
    report["metrics"] = metrics
    report["notes"] = notes
    out_path = WORKDIR / f"report-{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(report, indent=1))

    env = report["environment"]
    print(f"# {name} seed={seed} trace={int(trace)} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']}")
    for key, value in metrics.items():
        print(f"{name:14s} {key:34s} {value:14.4f} {units_of[key]}")
    for key, text in notes.items():
        print(f"{name:14s} {key:34s} {text}")
    for rid, text in problems.items():
        print(f"{name:14s} PROBLEM {rid}: {text}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    status = 0
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, env=_child_env(), stdin=subprocess.DEVNULL)
            status = status or done.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "foqc" / "__init__.py").is_file():
        _fail(f"no foqc sources under {SRC}; run from a foqc checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
