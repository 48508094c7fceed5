"""Count the lines of the package source, split into code, docstring, comment and blank.

A docstring is a string literal that is the first statement of a module,
class or function; each line it spans counts as docstring, blank or not.
Outside docstrings, a line that is empty after stripping is blank, one that
starts with ``#`` is a comment, and every other line is code.

Usage: python scripts/src_lines.py [DIR]   (default: src/ next to this script)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
                first.value.value, str
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total = dict.fromkeys(KINDS, 0)
    rows = []
    for path in sorted(root.rglob("*.py")):
        counts = count(path)
        rows.append((str(path.relative_to(root)), counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    rows.append(("total", total))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}  " + "  ".join(f"{kind:>9}" for kind in KINDS) + f"  {'all':>9}")
    for name, counts in rows:
        print(f"{name:<{width}}  " + "  ".join(f"{counts[kind]:>9}" for kind in KINDS) + f"  {sum(counts.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
