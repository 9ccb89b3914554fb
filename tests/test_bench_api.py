"""The names that the benchmark under `bench/` reads from `foqc` exist.

The benchmark calls the package by name, partly to rebuild subcommands
from public functions for its traced pass, and no other test runs that
pass.  These tests parse `bench/` instead of running it, so a rename or a
deletion in `src/` that would break the benchmark fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from foqc import compiler
from foqc.syntax import Seq, Skip

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_FILES = sorted(BENCH.rglob("*.py"))


def foqc_bindings(tree: ast.AST) -> dict[str, str]:
    """Each name an import binds to a foqc module or object, as a dotted path."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "foqc":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "foqc":
                    # `import foqc.x` binds foqc; `import foqc.x as y` binds y to foqc.x.
                    bound[alias.asname or "foqc"] = alias.name if alias.asname else "foqc"
    return bound


def attribute_reads(tree: ast.AST, bound: dict[str, str]) -> set[str]:
    """The dotted paths read through the bound names, longest chains only."""
    reads, inner = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            inner.add(id(value))
            chain.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in bound and id(node) not in inner:
            reads.add(".".join([bound[value.id], *reversed(chain)]))
    return reads


def lookup(path: str):
    """The object at a dotted path such as foqc.circuit.trace_ancillas.

    Lookup goes through modules and classes only; the rest of the path is
    read on instances, which a static check cannot build.
    """
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if not (inspect.ismodule(obj) or inspect.isclass(obj)):
            break
        if inspect.ismodule(obj) and not hasattr(obj, part):
            obj = importlib.import_module(".".join(parts[: i + 1]))
        else:
            obj = getattr(obj, part)
    return obj


def bench_reads() -> dict[str, set[str]]:
    out = {}
    for path in BENCH_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = foqc_bindings(tree)
        out[path.relative_to(BENCH).as_posix()] = attribute_reads(tree, bound) | set(bound.values())
    return out


def test_bench_reads_only_names_that_exist():
    missing = []
    for where, reads in bench_reads().items():
        for path in sorted(reads):
            try:
                lookup(path)
            except (AttributeError, ImportError):
                missing.append(f"{where}: {path}")
    assert not missing


def test_the_traced_pass_reads_are_seen():
    # The check above is only as good as its parse: it must see the reads
    # of the traced `diff`, `simulate`, `run` and `check` rebuilds.
    reads = bench_reads()["workloads.py"]
    assert {
        "foqc.circuit.trace_ancillas",
        "foqc.circuit.ancilla_residue",
        "foqc.circuit.simulate_circuit",
        "foqc.analysis.reset_op_count",
        "foqc.analysis.op_count",
        "foqc.compiler.DiffReport",
        "foqc.interpreter.run",
        "foqc.interpreter.QuantumState.from_bits",
        "foqc.interpreter.guard_errors",
        "foqc.cli.dispatch",
    } <= reads


def test_seq_keeps_its_binary_reading():
    # `bench/workloads.py::count_statements` walks sequences through it.
    a, b, c = Skip(), Seq(Skip(), Skip()), Skip()
    s = Seq(a, b, c)
    assert s.first == a
    assert s.second == Seq(*s.items[1:])
    assert Seq(a, c).second == c


def test_diff_report_takes_four_positional_fields():
    report = compiler.DiffReport(3, 8, 0.0, 0.0)
    assert (report.n, report.cases, report.max_deviation, report.max_ancilla_residue) == (
        3, 8, 0.0, 0.0,
    )
    assert report.to_json() == (
        '{"n": 3, "cases": 8, "max_deviation": 0.0, "max_ancilla_residue": 0.0}'
    )


@pytest.mark.parametrize("function", ["diff_basis", "traced_diff"])
def test_bench_draws_as_many_diff_samples_as_diff_check(function):
    # The traced `diff` redraws `diff_check`'s basis states by seed, with
    # its own default for their number.
    tree = ast.parse((BENCH / "workloads.py").read_text())
    (fn,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    names = [a.arg for a in fn.args.args]
    default = fn.args.defaults[names.index("samples") - len(names)]
    assert ast.literal_eval(default) == compiler.DIFF_SAMPLES
