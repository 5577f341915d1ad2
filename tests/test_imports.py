"""Every name a module imports is used in that module, every private
module-level name in `src/vsmm` is used in its own module, and `src/vsmm`
touches `_`-prefixed attributes only on `self` or `cls`.

An unused import or private helper is either dead code or the leftover of a
removed path, and it keeps the removed name looking live to anyone who
searches for it. A private attribute reached through another object couples
the two classes behind their interfaces' backs. The package `__init__.py` is
skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = [p for p in sorted((ROOT / "src" / "vsmm").glob("*.py"))
               if p.name != "__init__.py"]
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that nothing in it refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return sorted(imported - {n.id for n in ast.walk(tree)
                              if isinstance(n, ast.Name)})


def unused_private_names(source: str) -> list[str]:
    """The `_`-prefixed functions, classes and assigned names at the top
    level of `source` that nothing in it reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in defined - read
                  if n.startswith("_") and not n.endswith("__"))


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\n"
              "from x import (a, b as c, d)\n"
              "def f(v: d) -> None:\n    return c(numpy.linalg.norm(v))\n")
    assert unused_imports(source) == ["a", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_checker_finds_unread_names():
    source = ("__all__ = []\n_A, B = 1, 2\n_C: int = 3\n_D = 4\n"
              "def _f():\n    return _D\n"
              "def _g():\n    _h = 1\n    return _f()\n"
              "class _K:\n    _x = 0\n")
    assert unused_private_names(source) == ["_A", "_C", "_K", "_g"]


@pytest.mark.parametrize("path", SRC_MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def foreign_private_attributes(source: str) -> list[str]:
    """The `_`-prefixed attributes (dunders excepted) that `source` reaches
    on anything but `self` or `cls`."""
    return sorted(
        ast.unparse(n) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr.startswith("_")
        and not n.attr.endswith("__")
        and not (isinstance(n.value, ast.Name)
                 and n.value.id in ("self", "cls")))


def test_private_attribute_checker_finds_foreign_reads():
    source = ("class A:\n    def f(self, other):\n"
              "        self._x = other._y + self.b._z\n"
              "        return cls._w, type(self).__name__, other.__dict__\n")
    assert foreign_private_attributes(source) == ["other._y", "self.b._z"]


@pytest.mark.parametrize("path", SRC_MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_foreign_private_attributes(path):
    assert foreign_private_attributes(path.read_text()) == []
