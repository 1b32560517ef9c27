"""Every module under src/qcqpen reads each name it imports, and every
top-level private definition, and every method, property and stored field
of a private class, is read somewhere in the package.

Stdlib-ast stand-ins for a linter's unused-import and dead-code checks,
since the test dependencies ship no linter. The import check skips
`__init__.py` because it imports names to re-export them; `from __future__`
lines are compiler directives.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: dict) -> list:
    """'module:name' for each top-level private definition (function,
    class or assignment; dunders exempt), and 'module:Class.name' for each
    method or property of a private class (dunders exempt), that no module
    in `sources` (module name -> source) reads, as a name or as an
    attribute."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if _private(name) and name not in read]
            if isinstance(node, ast.ClassDef) and _private(node.name):
                unread += [f"{module}:{node.name}.{f.name}" for f in node.body
                           if isinstance(f, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                           and not f.name.endswith("__")
                           and f.name not in read]
    return sorted(unread)


def test_unread_checker_flags_dead_definitions():
    sources = {
        "a.py": ("_used = 1\n_dead, _pair_used = 2, 3\n_ann: int = 4\n"
                 "__version__ = '1'\n"
                 "def _f():\n    return _used\n"
                 "def _g():\n    pass\n"
                 "class _C:\n    _attr = 5\n"
                 "def public():\n    def _inner():\n        pass\n"
                 "    return _pair_used\n"),
        "b.py": "import a\n\nx = a._f()\n",
    }
    assert unread_private_names(sources) == [
        "a.py:_C", "a.py:_ann", "a.py:_dead", "a.py:_g"]


def test_unread_checker_flags_dead_methods():
    sources = {
        "a.py": ("class _Used:\n"
                 "    def __init__(self):\n        self.x = self.go()\n"
                 "    def go(self):\n        return 1\n"
                 "    def dead(self):\n        return 2\n"
                 "    @property\n    def stale(self):\n        return 3\n"
                 "    @property\n    def size(self):\n        return 4\n"
                 "    @staticmethod\n    def _helper():\n        return 5\n"
                 "class Public:\n"
                 "    def unused(self):\n        return 6\n"),
        "b.py": "import a\n\nprint(a._Used().size, a._Used._helper)\n",
    }
    assert unread_private_names(sources) == [
        "a.py:_Used.dead", "a.py:_Used.stale"]


def test_no_unread_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def unread_private_fields(sources: dict) -> list:
    """'module:Class.name' for each attribute that a private class stores
    on self (assigned, also as part of a tuple, or augmented) and that no
    module in `sources` reads as an attribute. Kept apart from
    `unread_private_names`, whose self-tests store fields nothing reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _private(cls.name)):
                continue
            stored = {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"}
            unread += [f"{module}:{cls.name}.{name}"
                       for name in stored - loaded]
    return sorted(unread)


def test_unread_checker_flags_dead_fields():
    sources = {
        "a.py": ("class _Held:\n"
                 "    def __init__(self, v):\n"
                 "        self.kept = v\n        self.dead = v\n"
                 "        self.pair, self.lost = v, v\n"
                 "        self.count = 0\n        self.count += 1\n"
                 "        self.items = []\n        self.items.append(v)\n"
                 "        other = _Held\n        other.elsewhere = v\n"
                 "class Public:\n"
                 "    def __init__(self):\n        self.unread = 1\n"),
        "b.py": "import a\n\nh = a._Held(1)\nprint(h.kept, h.pair)\n",
    }
    assert unread_private_fields(sources) == [
        "a.py:_Held.count", "a.py:_Held.dead", "a.py:_Held.lost"]


def test_no_unread_private_fields():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_fields(sources) == []


# modules that may read a quadratic's dense views `A` and `b`, built in
# O(n^2) and O(n) on each read: the quadratics themselves, and the solver,
# whose cone stores its own equality system under those names. Every other
# module reads `terms` and `linear`
DENSE_A_READERS = {"quadratics.py", "solver.py"}


def dense_a_reads(sources: dict) -> list:
    """'module:line' for each read of an attribute named A or b in a module
    of `sources` (module name -> source) outside DENSE_A_READERS."""
    return sorted(f"{module}:{node.lineno}"
                  for module, src in sources.items()
                  if module not in DENSE_A_READERS
                  for node in ast.walk(ast.parse(src))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("A", "b")
                  and isinstance(node.ctx, ast.Load))


def test_dense_a_checker_flags_reads():
    sources = {
        "a.py": ("def f(q, x):\n    return x @ q.A @ x\n"
                 "def g(q):\n    q.A = None\n    return q.terms, q.Ab\n"),
        "b.py": "import numpy as np\n\nn = np.tensordot(obj.A, X)\n",
        "c.py": ("def h(q, x):\n    q.b = x\n    return q.linear, q.bb\n"
                 "def k(q, x):\n    return 2.0 * q.b @ x\n"),
        "quadratics.py": ("def value(self, x):\n"
                          "    return self.A @ x + self.b\n"),
    }
    assert dense_a_reads(sources) == ["a.py:2", "b.py:3", "c.py:5"]


def test_dense_a_read_only_where_stored():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dense_a_reads(sources) == []
