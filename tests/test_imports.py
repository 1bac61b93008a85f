"""Every name a ``vqdet`` module imports is used in that module.

The package re-exports nothing, so an imported name that the module never
reads is dead code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vqdet"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_checker_finds_the_unused_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from dataclasses import dataclass, field, replace as rep\n"
              "def f(x: dataclass):\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 3: field", "line 3: rep"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_no_module_defines_all():
    """The package re-exports nothing, so an ``__all__`` would only drift from the module."""
    defining = [p.name for p in sorted(SRC.glob("*.py"))
                if any(isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
                       for n in ast.walk(ast.parse(p.read_text())))]
    assert defining == []
