"""Every module under src/qcqpen reads each name it imports.

A stdlib-ast stand-in for a linter's unused-import check, since the test
dependencies ship no linter. `__init__.py` is skipped because it imports
names to re-export them; `from __future__` lines are compiler directives.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qcqpen"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements anywhere in source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport scipy.sparse as sp\nimport numpy.linalg\n"
              "from json import dumps, loads as ld\n"
              "def f(x: sp.csr_matrix):\n"
              "    from math import pi\n"
              "    return numpy.linalg.norm(dumps(x))\n")
    assert unused_imports(source) == ["ld", "os", "pi"]


def test_modules_found():
    assert "solver.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
