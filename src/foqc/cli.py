"""Command-line interface.

Exit codes: 0 success; 1 analysis rejection (or tolerance exceeded in
`diff`; `run` and `level` reject only an ill-formed program); 2 runtime error terminal; 3 step budget exceeded; 4 I/O, parse,
schema or argument errors.  A malformed command line (a missing or
ill-typed option, an unknown subcommand, a negative budget) is an argument
error: it exits 4 with one `error:` line, while `--help` still exits 0.
So does `main` when the reader closes stdout before the output is written.
The step budget defaults to 10^6 statement rules and can be overridden
with --budget or the FOQC_BUDGET environment variable.

`dispatch(argv)` runs one request and returns its exit code (`--help`
raises SystemExit(0), as argparse does).  One process can call it any
number of times: the argument parser is built on the first call and
reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import programs
from .analysis import NotPfoqError, check_pfoq, check_wf, program_refs, refuse_ill_formed
from .circuit import ancilla_residue, export_json, import_json, simulate_circuit
from .compiler import compile_with_stats, diff_check
from .interpreter import (
    DEFAULT_BUDGET,
    BottomError,
    BudgetExceededError,
    QuantumState,
    run,
    walk,
)
from .parser import parse_program
from .syntax import FoqError, pretty_print
from .transform import invert

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_RUNTIME = 2
EXIT_BUDGET = 3
EXIT_IO = 4

DIFF_TOLERANCE = 1e-9


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8 with or without a byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliIOError(f"cannot read {path}: {exc}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise _CliIOError(f"cannot write {path}: {exc}") from exc


class _CliIOError(FoqError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        raise _CliIOError(message)


def _load_program(path: str):
    return parse_program(_read_text(path), filename=path)


def _load_wellformed(path: str):
    """The program at path, refused with NotPfoqError when it is ill formed.

    Only well-formedness is checked, so a program outside the tractable
    fragment still runs.
    """
    program = _load_program(path)
    refuse_ill_formed(check_wf(program, *program_refs(program)))
    return program


def _budget(args) -> int:
    budget, source = args.budget, "--budget"
    if budget is None:
        env, source = os.environ.get("FOQC_BUDGET", DEFAULT_BUDGET), "FOQC_BUDGET"
        try:
            budget = int(env)
        except ValueError as exc:
            raise _CliIOError(f"FOQC_BUDGET is not an integer: {env!r}") from exc
    if budget < 0:
        raise _CliIOError(f"{source} must be a nonnegative integer, got {budget}")
    return budget


def _qubits(args) -> int:
    if args.n < 0:
        raise _CliIOError(f"-n must be a nonnegative qubit count, got {args.n}")
    if args.n > sys.maxsize:
        # A position list that long cannot even be indexed.
        raise _CliIOError(f"-n must be at most {sys.maxsize}, got {args.n}")
    return args.n


def _seed(args) -> int:
    if args.seed < 0:
        raise _CliIOError(f"--seed must be a nonnegative integer, got {args.seed}")
    return args.seed


def _input_state(args) -> QuantumState:
    if args.state is not None:
        return QuantumState.from_bits(args.state)
    if args.amplitudes is not None:
        try:
            return QuantumState.from_json(_read_text(args.amplitudes))
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise _CliIOError(f"bad state JSON: {exc}") from exc
    raise _CliIOError("provide an input state with --state or --amplitudes")


def _amplitudes(amps) -> list[list[float]]:
    """A state's amplitudes as [re, im] pairs for JSON output."""
    return [[float(a.real), float(a.imag)] for a in amps]


def cmd_check(args) -> int:
    verdict = check_pfoq(_load_program(args.file))
    print(verdict.to_json())
    return EXIT_OK if verdict.accepted else EXIT_REJECTED


def cmd_run(args) -> int:
    program = _load_wellformed(args.file)
    state = _input_state(args)
    outcome = run(program, state, budget=_budget(args))
    print(
        json.dumps(
            {
                "n": outcome.state.n,
                "level": outcome.level,
                "amplitudes": _amplitudes(outcome.state.amplitudes),
            }
        )
    )
    return EXIT_OK


def cmd_level(args) -> int:
    program = _load_wellformed(args.file)
    n = _qubits(args)
    walked = walk(program, n, budget=_budget(args))
    print(json.dumps({"n": n, "level": walked.level}))
    return EXIT_OK


def cmd_invert(args) -> int:
    program = _load_program(args.file)
    _write_output(pretty_print(invert(program)), args.output)
    return EXIT_OK


def cmd_compile(args) -> int:
    program = _load_program(args.file)
    circuit, stats = compile_with_stats(program, _qubits(args))
    _write_output(export_json(circuit), args.output)
    if args.stats:
        print(
            json.dumps(
                {
                    key: stats[key]
                    for key in ("gates", "wires", "ancillas", "anc_keys", "max_worklist")
                }
            ),
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    circuit = import_json(_read_text(args.file))
    state = _input_state(args)
    full = simulate_circuit(circuit, state)
    print(
        json.dumps(
            {
                "n": circuit.n,
                "ancillas": circuit.ancillas,
                "amplitudes": _amplitudes(full),
                "ancilla_residue": float(ancilla_residue(full, circuit.ancillas)),
            }
        )
    )
    return EXIT_OK


def cmd_diff(args) -> int:
    seed = _seed(args)
    program = _load_program(args.file)
    report = diff_check(program, _qubits(args), seed=seed)
    print(report.to_json())
    ok = (
        report.max_deviation < DIFF_TOLERANCE
        and report.max_ancilla_residue < DIFF_TOLERANCE
    )
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_algebra(args) -> int:
    # Imported here, so that no other subcommand waits for the algebra module.
    from .algebra import parse_term, to_pfoq

    term = parse_term(_read_text(args.file))
    _write_output(pretty_print(to_pfoq(term)), args.output)
    return EXIT_OK


def cmd_examples(args) -> int:
    directory = Path(args.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, source in programs.EXAMPLES.items():
            (directory / name).write_text(source)
    except OSError as exc:
        raise _CliIOError(f"cannot write examples: {exc}") from exc
    print("\n".join(str(directory / name) for name in programs.EXAMPLES))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="foqc",
        description="Toolchain for a first-order quantum programming language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "static analysis verdict as JSON")
    p.add_argument("file")

    p = add("run", cmd_run, "interpret a program on an input state")
    p.add_argument("file")
    p.add_argument("--state", help="basis input as a bitstring, e.g. 0110")
    p.add_argument("--amplitudes", help="path to a state JSON file")
    p.add_argument("--budget", type=int, default=None, help="statement-step budget")

    p = add("level", cmd_level, "mutual-call nesting level on n qubits")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("invert", cmd_invert, "emit the program computing the adjoint")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = add("compile", cmd_compile, "compile an accepted program to a circuit")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--stats", action="store_true", help="emit statistics on stderr")

    p = add("simulate", cmd_simulate, "simulate a circuit JSON file")
    p.add_argument("file")
    p.add_argument("--state", help="basis input as a bitstring")
    p.add_argument("--amplitudes", help="path to a state JSON file")

    p = add("diff", cmd_diff, "compare interpreter against compiled circuit")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("algebra", cmd_algebra, "translate an algebra term file to a program")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = add("examples", cmd_examples, "write the bundled example programs")
    p.add_argument("directory", nargs="?", default=".")

    return parser


def dispatch(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except NotPfoqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BottomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FoqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        # The parsers report deep nesting themselves, so a later stage ran
        # out of Python stack.
        print(f"error: {argv[0]} exceeded Python's recursion limit", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        # A qubit count whose list or index range cannot be allocated.
        print(f"error: {argv[0]} ran out of memory", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`foqc run ... | head -c 30`).  Point
        # stdout at devnull, so the flush at shutdown does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = EXIT_IO
    sys.exit(code)
