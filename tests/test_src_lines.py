"""scripts/src_lines.py: the code, docstring, comment and blank split of the package source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_found = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_found)
_found.loader.exec_module(src_lines)

# each line's kind, as the script should count it
FIXTURE = [
    ('"""Fixture module docstring."""', "docstring"),
    ("# a comment", "comment"),
    ("", "blank"),
    ("import os", "code"),
    ("", "blank"),
    ('TEXT = """a string literal,', "code"),
    ('not a docstring"""', "code"),
    ("", "blank"),
    ("", "blank"),
    ("class Thing:", "code"),
    ('    """Class docstring."""', "docstring"),
    ("", "blank"),
    ("    def method(self):", "code"),
    ('        """Method docstring.', "docstring"),
    ("", "docstring"),
    ("        A blank line sits above.", "docstring"),
    ('        """', "docstring"),
    ("        return os.sep", "code"),
    ("", "blank"),
    ("", "blank"),
    ("def function():", "code"),
    ('    """Function docstring."""', "docstring"),
    ("    value = 1", "code"),
    ("    # an indented comment", "comment"),
    ('    "a string statement after the first is no docstring"', "code"),
    ("    return value  # a trailing comment leaves the line code", "code"),
]


def test_each_kind_of_line_is_counted(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text("\n".join(line for line, _ in FIXTURE) + "\n", encoding="utf-8")
    want = {kind: sum(k == kind for _, k in FIXTURE) for kind in src_lines.KINDS}
    assert want == {"code": 10, "docstring": 7, "comment": 2, "blank": 7}
    assert src_lines.count(path) == want


def test_the_four_counts_add_up_to_each_source_file():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    for path in paths:
        counts = src_lines.count(path)
        assert set(counts) == set(src_lines.KINDS)
        assert sum(counts.values()) == len(path.read_text(encoding="utf-8").splitlines()), path


def test_the_total_row_sums_the_files(capsys):
    assert src_lines.main(["src_lines.py", str(ROOT / "src")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", *src_lines.KINDS, "all"]
    files, total = rows[1:-1], rows[-1]
    assert total[0] == "total"
    assert [int(x) for x in total[1:]] == [sum(int(row[i]) for row in files) for i in range(1, 6)]
    assert int(total[-1]) == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
