"""Every module-level function, class and constant in ``vqdet`` is read.

A constant is a module-level name in UPPER_CASE. A definition counts as
read when ``src/`` or ``bench/`` refers to it as a name in load context, an
attribute or an import, or when ``bench/tracing.py`` looks it up by a string
(its ``LAYERS`` table). The assignment that defines a constant does not
count, nor does ``__all__``: listing a name exports it without calling it.
Tests do not count either, so code that only tests read is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vqdet"

# Kept without a caller: an exact resume needs the trained weights and, unlike
# scenes, they cannot be regenerated from a seed. Their caller is the exact
# resume of the training step (ROADMAP item 1a).
EXEMPT = {"numerics.py: save_checkpoint", "numerics.py: load_checkpoint",
          "numerics.py: restore_into"}


def definitions(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id.isupper()]
    return names


def names_used(source: str, strings: bool = False) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unused_definitions(modules: dict[str, str], callers: list[str], lookups: str) -> list[str]:
    """``module: name`` of each definition in ``modules`` that nothing names.

    ``callers`` are sources read for names, attributes and imports;
    ``lookups`` is a source whose string constants also count.
    """
    used = names_used(lookups, strings=True).union(*map(names_used, callers))
    return [f"{module}: {name}" for module, source in sorted(modules.items())
            for name in definitions(source) if name not in used]


def test_checker_finds_the_unused_names():
    module = ("__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def called(): pass\n"
              "class Read: pass\n"
              "def imported(): pass\n"
              "def looked_up(): pass\n"
              "def unused(): pass\n"
              "READ, UNREAD = 1, 2\n"
              "ATTRIBUTE: int = 3\n"
              "lower = 4\n"
              "x = called(READ)\n")
    caller = "import m\nfrom m import imported\nm.Read\nm.ATTRIBUTE\n"
    lookups = "LAYERS = [(m, 'looked_up')]\n"
    assert unused_definitions({"m.py": module}, [module, caller], lookups) == [
        "m.py: exported", "m.py: unused", "m.py: UNREAD"]


def test_every_definition_is_named_in_src_or_bench():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    callers = list(modules.values()) + [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    unused = unused_definitions(modules, callers, (ROOT / "bench" / "tracing.py").read_text())
    # An exempt name that gains a caller leaves EXEMPT.
    assert set(unused) == EXEMPT
