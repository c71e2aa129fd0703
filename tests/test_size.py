"""``tests/size.py``: its totals are the package's own line counts, and a
code line is one that holds a token other than a comment or a docstring."""

import subprocess
import sys

from conftest import ROOT
from size import count

PACKAGE = ROOT / "src" / "legalc"


def run_size(*args: str) -> dict[str, list[str]]:
    """The rows ``tests/size.py`` prints, by module, run on this checkout."""
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "size.py"), *args],
                         capture_output=True, text=True, check=True).stdout
    return {row[0]: row[1:] for row in map(str.split, out.splitlines()[1:])}


def test_size_counts_this_checkouts_files():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in PACKAGE.glob("*.py")}
    rows = run_size()
    assert rows.keys() == {*lines, "total"}
    for name, n in lines.items():
        assert int(rows[name][0]) == n, name
        assert 0 < int(rows[name][1]) < n, name
    assert int(rows["total"][0]) == sum(lines.values())
    assert int(rows["total"][1]) == sum(int(row[1]) for name, row in rows.items()
                                        if name != "total")
    # against itself, every difference is zero
    against = run_size("--against", str(PACKAGE))
    assert all(row[:2] == row[2:4] and row[4:] == ["+0", "+0"] for row in against.values())


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    source = '''"""A module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line
def f(x):
    """A function docstring."""
    s = """a string that is no docstring,
    over two lines"""
    return s


class C:
    """A class docstring."""
    x = 1
'''
    # code: the import, def, the string's two lines, return, class and x = 1
    assert count(source) == (16, 7)
