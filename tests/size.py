"""Line counts of the package, per module and in total.

    python3 tests/size.py

prints, for each module of this checkout's ``src/legalc`` and in total, its
lines and its code lines: the lines that hold a token other than a comment,
not counting module, class and function docstrings.  Blank lines, comment
lines and docstrings are what the two counts differ by.

    python3 tests/size.py --against PATH/src/legalc

prints both trees, this checkout's first, and the difference (this one less
that one), so a change that claims to be shorter shows by how much.  It is a
script, not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "legalc"

# Tokens that hold no code: a comment and the layout tokens around it.
_NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER))
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node) is not None}
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING
                                              and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def tree_counts(package: Path) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of each module of the package directory, by file name."""
    return {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def table(counts: dict[str, tuple[int, int]],
          against: dict[str, tuple[int, int]] | None = None) -> list[str]:
    """The report's rows: one per module in either tree, then the total.  A
    module missing from a tree counts as 0 lines there."""
    header = ["module", "lines", "code"]
    if against is not None:
        header += ["lines", "code", "Δlines", "Δcode"]
    rows = [header]
    names = sorted(counts.keys() | (against or {}).keys())
    for name in [*names, "total"]:
        mine = _total(counts) if name == "total" else counts.get(name, (0, 0))
        row = [name, *map(str, mine)]
        if against is not None:
            theirs = _total(against) if name == "total" else against.get(name, (0, 0))
            row += [*map(str, theirs), *(f"{a - b:+d}" for a, b in zip(mine, theirs))]
        rows.append(row)
    return ["  ".join([row[0].ljust(12), *(cell.rjust(6) for cell in row[1:])])
            for row in rows]


def _total(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(c[0] for c in counts.values()), sum(c[1] for c in counts.values())


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", type=Path, metavar="PATH/src/legalc",
                    help="a second package directory to compare this checkout's with")
    args = ap.parse_args(argv)
    against = None
    if args.against is not None:
        if not (args.against / "__init__.py").is_file():
            raise SystemExit(f"{args.against}: not a package directory")
        against = tree_counts(args.against)
    print("\n".join(table(tree_counts(PACKAGE), against)))


if __name__ == "__main__":
    main()
