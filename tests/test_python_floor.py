import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_parses_at_the_requires_python_floor():
    # `tomllib` is missing on the floor itself, so the floor is read with a
    # regex.  `feature_version` refuses syntax newer than the floor.
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject).groups()
    floor = (int(major), int(minor))
    modules = sorted((ROOT / "src" / "foqc").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), str(path), feature_version=floor)
