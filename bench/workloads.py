"""The benchmark's three workloads, their requests and their output checks.

Every request is one `foqc` subcommand.  Untraced, it goes through
`foqc.cli.dispatch(argv)` in-process with stdout captured, so exit codes
are part of the check.  Traced, the same request is rebuilt from the
public functions that subcommand calls, each call wrapped in a span named
after its module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from foqc import algebra, analysis, circuit, cli, compiler, interpreter, parser, syntax, transform
from foqc.programs import EXAMPLES

import gen
from measure import Tracer

TOLERANCE = cli.DIFF_TOLERANCE


# ---------------------------------------------------------------------------
# Requests and units.
# ---------------------------------------------------------------------------


@dataclass
class Request:
    rid: str
    cmd: str
    params: dict

    def argv(self) -> list[str]:
        p = self.params
        if self.cmd == "check":
            return ["check", p["file"]]
        if self.cmd in ("invert", "algebra"):
            return [self.cmd, p["file"], "-o", p["output"]]
        if self.cmd == "compile":
            return ["compile", p["file"], "-n", str(p["n"]), "-o", p["output"]]
        if self.cmd in ("simulate", "run"):
            return [self.cmd, p["file"], "--state", p["state"]]
        if self.cmd == "diff":
            return ["diff", p["file"], "-n", str(p["n"]), "--seed", str(p["seed"])]
        raise ValueError(f"unknown command {self.cmd!r}")


@dataclass
class Unit:
    """One input, the program it stands for, and the requests made on it, in order.

    A unit succeeds in a pass when all of its requests do; its statements
    then count towards `stmts_per_s`.
    """

    name: str
    kind: str
    text: str  # the input as generated or bundled: program source or term text
    statements: int
    procedures: int
    requests: list[Request]
    meta: dict = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)  # program text by path

    def properties(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "statements": self.statements,
            "procedures": self.procedures,
            "n": self.meta.get("n"),
            "sha256": hashlib.sha256(self.text.encode()).hexdigest(),
        }


@dataclass
class Outcome:
    rc: int | None  # exit code, None when the request raised
    stdout: str
    error: str | None  # exception type name when the request raised
    seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None and self.rc == cli.EXIT_OK


def dispatch(argv: list[str]) -> Outcome:
    """Run one CLI request in-process; a raising request is timed up to the failure."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.dispatch(argv)
        error = None
    except Exception as exc:  # a crash is a failed request, not a stopped benchmark
        rc, error = None, type(exc).__name__
    return Outcome(rc, out.getvalue(), error, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Traced requests: each subcommand rebuilt from the public functions it calls.
# ---------------------------------------------------------------------------


def _parse(tr: Tracer, path: str, tokens: dict[str, int]):
    text = Path(path).read_text()
    program = tr.call("parser.parse_program", parser.parse_program, text, filename=path)
    tr.count("parser.tokens", tokens.get(path, 0))
    return program


def _amplitudes_json(amps) -> list:
    return [[float(a.real), float(a.imag)] for a in amps]


def _write(path: str, text: str) -> None:
    Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _check_pfoq(tr: Tracer, program):
    analysis.reset_op_count()
    verdict = tr.call("analysis.check_pfoq", analysis.check_pfoq, program)
    tr.count("analysis.op_count", analysis.op_count())
    return verdict


def _compile(tr: Tracer, program, n: int, check: bool = True):
    circ, stats = tr.call(
        "compiler.compile_with_stats", compiler.compile_with_stats, program, n, check=check
    )
    tr.count("compiler.orthogonality_checks", stats["orthogonality_checks"])
    tr.count("compiler.anc_keys", stats["anc_keys"])
    tr.peak("compiler.max_worklist", stats["max_worklist"])
    return circ


def _simulate(tr: Tracer, circ, state):
    full = tr.call("circuit.simulate_circuit", circuit.simulate_circuit, circ, state)
    tr.count("circuit.gates_simulated", circ.gate_count())
    tr.peak("circuit.sim_wires_max", circ.total_wires)
    return full


def traced(tr: Tracer, req: Request, tokens: dict[str, int]) -> str:
    """Run `req` through the public functions its subcommand calls; returns stdout."""
    p = req.params
    if req.cmd == "check":
        verdict = _check_pfoq(tr, _parse(tr, p["file"], tokens))
        if not verdict.accepted:
            raise analysis.NotPfoqError("; ".join(verdict.diagnostics))
        return verdict.to_json() + "\n"
    if req.cmd == "invert":
        inverse = tr.call("transform.invert", transform.invert, _parse(tr, p["file"], tokens))
        _write(p["output"], tr.call("syntax.pretty_print", syntax.pretty_print, inverse))
        return ""
    if req.cmd == "compile":
        circ = _compile(tr, _parse(tr, p["file"], tokens), p["n"])
        text = tr.call("circuit.export_json", circuit.export_json, circ)
        tr.count("circuit.json_bytes", len(text))
        _write(p["output"], text)
        return ""
    if req.cmd == "simulate":
        text = Path(p["file"]).read_text()
        circ = tr.call("circuit.import_json", circuit.import_json, text)
        full = _simulate(tr, circ, interpreter.QuantumState.from_bits(p["state"]))
        residue = tr.call("circuit.ancilla_residue", circuit.ancilla_residue, full, circ.ancillas)
        obj = {
            "n": circ.n,
            "ancillas": circ.ancillas,
            "amplitudes": _amplitudes_json(full),
            "ancilla_residue": float(residue),
        }
        return json.dumps(obj) + "\n"
    if req.cmd == "run":
        program = _parse(tr, p["file"], tokens)
        state = interpreter.QuantumState.from_bits(p["state"])
        outcome = tr.call("interpreter.run", interpreter.run, program, state)
        obj = {"n": outcome.state.n, "level": outcome.level,
               "amplitudes": _amplitudes_json(outcome.state.amplitudes)}
        return json.dumps(obj) + "\n"
    if req.cmd == "diff":
        report = traced_diff(tr, _parse(tr, p["file"], tokens), p["n"], p["seed"])
        return report.to_json() + "\n"
    if req.cmd == "algebra":
        term = tr.call("algebra.parse_term", algebra.parse_term, Path(p["file"]).read_text())
        program = tr.call("algebra.to_pfoq", algebra.to_pfoq, term)
        _write(p["output"], tr.call("syntax.pretty_print", syntax.pretty_print, program))
        return ""
    raise ValueError(f"unknown command {req.cmd!r}")


def diff_basis(n: int, seed: int, samples: int = 32) -> list[int]:
    """The basis states `diff_check` compares on: all of them up to 64, else a seeded draw."""
    dim = 1 << n
    if dim <= 64:
        return list(range(dim))
    rng = np.random.default_rng(seed)
    return sorted(set(int(x) for x in rng.integers(0, dim, size=samples)))


def traced_diff(tr: Tracer, program, n: int, seed: int, samples: int = 32):
    """`compiler.diff_check` rebuilt from the public functions it calls."""
    verdict = _check_pfoq(tr, program)
    if not verdict.accepted:
        raise analysis.NotPfoqError("; ".join(verdict.diagnostics))
    circ = _compile(tr, program, n, check=False)
    guarded = tr.call("interpreter.guard_errors", interpreter.guard_errors, program)
    basis = diff_basis(n, seed, samples)
    max_dev = 0.0
    max_residue = 0.0
    for b in basis:
        state = interpreter.QuantumState.from_bits(format(b, f"0{n}b"))
        expected = tr.call("interpreter.run", interpreter.run, guarded, state).state.amplitudes
        full = _simulate(tr, circ, state)
        actual = tr.call("circuit.trace_ancillas", circuit.trace_ancillas, full, circ.ancillas)
        max_dev = max(max_dev, float(np.max(np.abs(actual - expected))))
        residue = tr.call("circuit.ancilla_residue", circuit.ancilla_residue, full, circ.ancillas)
        max_residue = max(max_residue, float(residue))
    return compiler.DiffReport(n, len(basis), max_dev, max_residue)


# ---------------------------------------------------------------------------
# Independent references used by the output checks.
# ---------------------------------------------------------------------------


def count_statements(stmt) -> int:
    """Statement nodes other than sequencing, walked without recursion."""
    count, stack = 0, [stmt]
    while stack:
        s = stack.pop()
        if isinstance(s, syntax.Seq):
            stack += [s.first, s.second]
            continue
        count += 1
        if isinstance(s, syntax.If):
            stack += [s.then_branch, s.else_branch]
        elif isinstance(s, syntax.QCase):
            stack += [s.if_zero, s.if_one]
    return count


def program_statements(program) -> int:
    return count_statements(program.main) + sum(count_statements(d.body) for d in program.decls)


def sparse_simulate(circ: dict, bits: str) -> dict[int, complex]:
    """Simulate circuit JSON on a basis input, keeping only non-zero amplitudes.

    Wire w of W total wires is bit W - w of the index; ancillas start at 0.
    """
    total = circ["n"] + circ["ancillas"]
    state = {int(bits, 2) << circ["ancillas"]: 1 + 0j}

    def bit(index, wire):
        return (index >> (total - wire)) & 1

    for gate in circ["gates"]:
        controls = gate["controls"]
        targets = gate["targets"]
        out: dict[int, complex] = {}
        for index, amp in state.items():
            if any(bit(index, w) != b for w, b in controls):
                out[index] = out.get(index, 0) + amp
                continue
            if gate["kind"] == "cnot":
                new = index ^ (1 << (total - targets[0]))
                out[new] = out.get(new, 0) + amp
            elif gate["kind"] == "cswap":
                half = len(targets) // 2
                new = index
                for a, b in zip(targets[:half], targets[half:]):
                    if bit(index, a) != bit(index, b):
                        new ^= (1 << (total - a)) | (1 << (total - b))
                out[new] = out.get(new, 0) + amp
            else:
                matrix = [[complex(re, im) for re, im in row] for row in gate["matrix"]]
                m = len(targets)
                col = 0
                for w in targets:
                    col = (col << 1) | bit(index, w)
                base = index
                for w in targets:
                    base &= ~(1 << (total - w))
                for row in range(1 << m):
                    coeff = matrix[row][col]
                    if coeff == 0:
                        continue
                    new = base
                    for i, w in enumerate(targets):
                        if (row >> (m - 1 - i)) & 1:
                            new |= 1 << (total - w)
                    out[new] = out.get(new, 0) + coeff * amp
        state = {k: v for k, v in out.items() if abs(v) > 1e-15}
    return state


def _dense_inputs(state: dict[int, complex], n: int, ancillas: int):
    """Split a sparse state into input-wire amplitudes and ancilla residue."""
    vec = np.zeros(1 << n, dtype=complex)
    residue = 0.0
    for index, amp in state.items():
        if index & ((1 << ancillas) - 1):
            residue += abs(amp) ** 2
        else:
            vec[index >> ancillas] += amp
    return vec, residue


def _amplitudes(stdout: str) -> np.ndarray:
    return np.array([complex(re, im) for re, im in json.loads(stdout)["amplitudes"]])


def _basis(bits: str) -> np.ndarray:
    vec = np.zeros(1 << len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    """Inputs from a seed, the requests on them, and the checks of their outputs."""

    name = ""
    # Requests whose compile times at consecutive n give compiler.growth_per_qubit.
    growth_rids: tuple[str, ...] = ()
    # Passes a 35-second run makes at baseline speed, at the least.  The tail
    # percentile is the highest one this many passes support with ten samples
    # beyond it; it is fixed per workload so that a faster or slower run
    # reports the same percentile.
    nominal_passes = 1
    # The kinds of probe work (see measure.probe) that this workload's
    # requests do, and whose speed scales their latencies.
    probe_kinds: tuple[str, ...] = ("python",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self) -> list[gen.Input]:
        raise NotImplementedError

    def units(self, inputs: list[gen.Input]) -> list[Unit]:
        """Write the inputs under `workdir` and build the units on them."""
        raise NotImplementedError

    def check(self, unit: Unit, outcomes: dict[str, Outcome]) -> dict[str, str]:
        """Problems with the outputs of successful requests, by request id."""
        raise NotImplementedError

    def circuits(self, unit: Unit, outcomes: dict[str, Outcome]) -> list[tuple[int, int]]:
        """(gates, wires) of each circuit the unit produced."""
        out = []
        for req in unit.requests:
            if req.cmd == "compile" and outcomes[req.rid].ok:
                obj = json.loads(Path(req.params["output"]).read_text())
                out.append((len(obj["gates"]), obj["n"] + obj["ancillas"]))
        return out

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        Path(path).write_text(text)
        return path


class CompileMerge(Workload):
    """`foqc compile` where the merging worklist does almost all the work."""

    name = "compile-merge"
    AB_GRID = (12, 13, 14, 15)
    TERM_N = 10
    TERMS_PER_STRATUM = 3
    nominal_passes = 8
    growth_rids = tuple(f"compile appendix-b n={n}" for n in AB_GRID)

    def inputs(self):
        return gen.algebra_terms(self.seed, self.TERMS_PER_STRATUM, self.TERM_N)

    def units(self, inputs):
        ab_source = EXAMPLES["appendix-b.foq"]
        ab_path = self.write("appendix-b.foq", ab_source)
        ab = parser.parse_program(ab_source)
        units = []
        for n in self.AB_GRID:
            req = Request(f"compile appendix-b n={n}", "compile",
                          {"file": ab_path, "n": n, "output": self.path(f"appendix-b-{n}.json")})
            units.append(Unit(f"appendix-b-{n}", "appendix-b", ab_source,
                              program_statements(ab), len(ab.decls), [req], {"n": n},
                              {ab_path: ab_source}))
        for item in inputs:
            term_path = self.write(f"{item.name}.alg", item.text)
            foq = self.path(f"{item.name}.foq")
            program = algebra.to_pfoq(algebra.parse_term(item.text))
            reqs = [
                Request(f"algebra {item.name}", "algebra", {"file": term_path, "output": foq}),
                Request(f"compile {item.name}", "compile",
                        {"file": foq, "n": item.n, "output": self.path(f"{item.name}.json")}),
            ]
            states = [gen.basis_state(self.seed, f"{item.name}-{i}", item.n) for i in range(2)]
            units.append(Unit(item.name, item.kind, item.text, program_statements(program),
                              len(program.decls), reqs, {"n": item.n, "states": states},
                              {foq: syntax.pretty_print(program)}))
        return units

    def check(self, unit, outcomes):
        problems = {}
        compile_req = unit.requests[-1]
        if not outcomes[compile_req.rid].ok:
            return problems
        circ = json.loads(Path(compile_req.params["output"]).read_text())
        n = unit.meta["n"]
        if unit.kind == "appendix-b":
            if (len(circ["gates"]), circ["ancillas"]) != (4 * n - 6, n - 1):
                problems[compile_req.rid] = (
                    f"appendix-b at n={n}: {len(circ['gates'])} gates and "
                    f"{circ['ancillas']} ancillas, expected {4 * n - 6} and {n - 1}"
                )
            return problems
        term = algebra.parse_term(unit.text)
        for bits in unit.meta["states"]:
            vec, residue = _dense_inputs(sparse_simulate(circ, bits), n, circ["ancillas"])
            expected = algebra.eval_algebra(term, _basis(bits))
            deviation = float(np.max(np.abs(vec - expected)))
            if deviation > TOLERANCE or residue > TOLERANCE:
                problems[compile_req.rid] = (
                    f"{unit.name} on |{bits}>: deviation {deviation:.3g}, residue {residue:.3g}"
                )
        return problems


class DiffVerify(Workload):
    """`foqc diff`: the interpreter and the dense simulator dominate."""

    name = "diff-verify"
    GRID = (("teleport", 12), ("teleport", 15), ("qft", 10), ("qft", 11), ("qft", 12),
            ("appendix-b", 8), ("appendix-b", 9))
    growth_rids = ("diff appendix-b n=8", "diff appendix-b n=9")
    nominal_passes = 6
    probe_kinds = ("python", "numpy")

    def inputs(self):
        return []

    def units(self, inputs):
        rng = random.Random(f"diff-{self.seed}")
        units = []
        for program, n in self.GRID:
            source = EXAMPLES[f"{program}.foq"]
            path = self.write(f"{program}.foq", source)
            # A draw without repeats, so that every seed compares the same
            # number of basis states.
            seed = rng.randrange(1 << 16)
            while len(diff_basis(n, seed)) != min(32, 1 << n):
                seed = rng.randrange(1 << 16)
            req = Request(f"diff {program} n={n}", "diff", {"file": path, "n": n, "seed": seed})
            parsed = parser.parse_program(source)
            units.append(Unit(f"{program}-{n}", program, source, program_statements(parsed),
                              len(parsed.decls), [req], {"n": n}, {path: source}))
        return units

    def check(self, unit, outcomes):
        req = unit.requests[0]
        outcome = outcomes[req.rid]
        if outcome.rc == cli.EXIT_REJECTED:
            return {req.rid: "diff exceeded its tolerance"}
        if not outcome.ok:
            return {}
        report = json.loads(outcome.stdout)
        if not (report["max_deviation"] < TOLERANCE and report["max_ancilla_residue"] < TOLERANCE):
            return {req.rid: f"diff report out of tolerance: {report}"}
        expected = len(diff_basis(unit.meta["n"], req.params["seed"]))
        if report["cases"] != expected:
            return {req.rid: f"diff checked {report['cases']} basis states, not {expected}"}
        return {}

    def circuits(self, unit, outcomes):
        if not outcomes[unit.requests[0].rid].ok:
            return []
        program = parser.parse_program(Path(unit.requests[0].params["file"]).read_text())
        circ = compiler.compile_program(program, unit.meta["n"])
        return [(circ.gate_count(), circ.total_wires)]


class FrontendLong(Workload):
    """Long generated programs through check, invert, compile, simulate and run."""

    name = "frontend-long"
    COMMANDS = ("check", "invert", "compile", "simulate", "run")
    nominal_passes = 4

    def inputs(self):
        return gen.frontend_programs(self.seed)

    def units(self, inputs):
        units = []
        n = gen.FRONTEND_QUBITS
        for item in inputs:
            path = self.write(f"{item.name}.foq", item.text)
            state = gen.basis_state(self.seed, item.name, n)
            circ = self.path(f"{item.name}.json")
            params = {
                "check": {"file": path},
                "invert": {"file": path, "output": self.path(f"{item.name}.inv.foq")},
                "compile": {"file": path, "n": n, "output": circ},
                "simulate": {"file": circ, "state": state},
                "run": {"file": path, "state": state},
            }
            reqs = [Request(f"{cmd} {item.name}", cmd, params[cmd]) for cmd in self.COMMANDS]
            units.append(Unit(item.name, item.kind, item.text, item.statements, item.procedures,
                              reqs, {"n": n, "state": state}, {path: item.text}))
        return units

    def check(self, unit, outcomes):
        by_cmd = {req.cmd: (req, outcomes[req.rid]) for req in unit.requests}
        problems = {}
        req, out = by_cmd["check"]
        if out.rc == cli.EXIT_REJECTED or (out.ok and not json.loads(out.stdout)["accepted"]):
            problems[req.rid] = "generated program was rejected"
        run_req, run_out = by_cmd["run"]
        if not run_out.ok:
            return problems
        final = _amplitudes(run_out.stdout)
        if abs(np.vdot(final, final).real - 1) > TOLERANCE:
            problems[run_req.rid] = "run output is not normalised"
        req, out = by_cmd["simulate"]
        if out.ok:
            obj = json.loads(out.stdout)
            full = _amplitudes(out.stdout).reshape(-1, 1 << obj["ancillas"])
            deviation = float(np.max(np.abs(full.sum(axis=1) - final)))
            if deviation > TOLERANCE or obj["ancilla_residue"] > TOLERANCE:
                problems[req.rid] = f"simulate differs from run by {deviation:.3g}"
        req, out = by_cmd["compile"]
        if out.ok:
            circ = json.loads(Path(req.params["output"]).read_text())
            if (circ["n"], circ["ancillas"]) != (unit.meta["n"], 0):
                problems[req.rid] = "width-0 program compiled with ancillas"
        req, out = by_cmd["invert"]
        if out.ok:
            inverse = parser.parse_program(Path(req.params["output"]).read_text())
            back = interpreter.run(inverse, interpreter.QuantumState(unit.meta["n"], final))
            deviation = float(np.max(np.abs(back.state.amplitudes - _basis(unit.meta["state"]))))
            if deviation > TOLERANCE:
                problems[req.rid] = f"inverse does not undo the program ({deviation:.3g})"
        return problems


WORKLOADS = {w.name: w for w in (CompileMerge, DiffVerify, FrontendLong)}
