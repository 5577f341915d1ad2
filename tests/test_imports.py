"""Every name a module imports is used in that module.

An unused import is either dead code or the leftover of a removed path, and
it keeps the removed name looking live to anyone who searches for it. The
package `__init__.py` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "vsmm").glob("*.py"))
           if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


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


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\n"
              "from x import (a, b as c, d)\n"
              "def f(v: d) -> None:\n    return c(numpy.linalg.norm(v))\n")
    assert unused_imports(source) == ["a", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
