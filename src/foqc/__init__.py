"""foqc: a toolchain for a first-order quantum programming language.

Modules:
  - syntax: AST, phase DSL, pretty printer
  - parser: .foq surface syntax
  - interpreter: exact semantics (a walk of classical control, then a
    sparse replay), levels and bounds guards
  - analysis: well-formedness, call relations, recursion widths/ranks, tractability verdict
  - transform: program inversion
  - circuit: controlled-gate IR, simulator, JSON
  - compiler: worklist compilation with ancilla-table merging
  - algebra: function-algebra terms, evaluator, and program translation
  - programs: bundled example programs
  - cli: the `foqc` command
"""

from .analysis import PfoqVerdict, check_pfoq
from .circuit import Circuit, ControlStructure, export_json, import_json, simulate_circuit
from .compiler import compile_program, compile_with_stats, diff_check
from .interpreter import QuantumState, guard_errors, run
from .parser import parse_program
from .syntax import Program, pretty_print
from .transform import invert

__all__ = [
    "PfoqVerdict",
    "check_pfoq",
    "Circuit",
    "ControlStructure",
    "export_json",
    "import_json",
    "simulate_circuit",
    "compile_program",
    "compile_with_stats",
    "diff_check",
    "QuantumState",
    "guard_errors",
    "run",
    "parse_program",
    "Program",
    "pretty_print",
    "invert",
]

__version__ = "0.1.0"
