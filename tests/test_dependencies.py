"""tddq's runtime dependencies: what it imports is what pyproject.toml lists."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tddq

PACKAGE = Path(tddq.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_import_loads_no_scipy():
    """A fresh interpreter loading the package and its CLI imports no scipy module."""
    code = ("import sys, tddq, tddq.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def third_party_imports(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"tddq"}


def test_imports_match_declared_dependencies():
    """The package's third-party top-level imports are its declared dependencies."""
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    distributions = {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
                     for req in declared}
    imported = set().union(*(third_party_imports(p) for p in PACKAGE.glob("*.py")))
    assert imported == distributions
