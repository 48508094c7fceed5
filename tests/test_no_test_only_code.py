"""Every function and class that ``src/`` defines is reached from code that is not a test.

A definition whose name appears nowhere in ``src/``, ``scripts/`` or the
benchmark harness (its own tests left out) serves only the tests, and should
be deleted or moved into them.  Names are matched by spelling, so the check
can miss dead code that shares a name with live code (a property ``n`` that
only tests read hides behind every ``m.n``), but it never flags code that a
path uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths]


def _defined_names():
    names = set()
    for tree in _trees(sorted((ROOT / "src" / "delayed_hedge").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def _used_names():
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    paths += [path for path in (ROOT / "perfbench").rglob("*.py") if not path.name.startswith("test_")]
    names = set()
    for tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_src_definition_is_reached_outside_the_tests():
    assert sorted(_defined_names() - _used_names()) == []
