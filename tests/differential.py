"""Output digests over a fixed input set, for comparing two checkouts.

    PYTHONPATH=src python3 tests/differential.py

Run it against two versions of ``src`` (for example a change and its parent)
and compare the printed lines: equal digests mean byte-identical output.  It
is a script, not a test module, so pytest does not collect it.

Each input goes through four modes: the CLI writing XML to standard output
(``-o -``), ``--dump-tokens`` and ``--dump-ast``, plus the grammar token
stream of ``scan_document``, which no golden file pins.  For each mode it
prints one SHA-256 over every input's exit code, standard output and
standard error, and the count of each exit code.

Inputs: the corpus files, 1,500 ``docgen.generate_document`` documents, a
``mutate_text`` mutant of each, ``add_fold_noise`` variants of the first 300,
``many_articles`` documents of 100 to 3,000 articles, and documents whose
article content region is one lone delimiter word, which no other input has.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from collections import Counter
from pathlib import Path

import docgen
from legalc.cli import run
from legalc.normalize import preprocess
from legalc.parser import scan_document
from legalc.scanner import dump_tokens

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GENERATED = 1500
NOISY = 300
ARTICLE_COUNTS = (100, 500, 1000, 2000, 3000)

CLI_MODES = {"xml": ["-o", "-"], "tokens": ["--dump-tokens"], "ast": ["--dump-ast"]}


def inputs() -> list[bytes]:
    docs = [p.read_bytes() for p in sorted(CORPUS.glob("*.txt"))]
    rng = random.Random(2026)
    generated = [docgen.generate_document(rng).text for _ in range(GENERATED)]
    mutants = [docgen.mutate_text(rng, text) for text in generated]
    noisy = [docgen.add_fold_noise(rng, text) for text in generated[:NOISY]]
    large = [docgen.many_articles(n) for n in ARTICLE_COUNTS]
    docs += [text.encode("utf-8")
             for text in (*generated, *mutants, *noisy, *large, *lone_delimiters())]
    return docs


def lone_delimiters() -> list[str]:
    """A content line that is only ``.`` or ``،``, under an untitled article
    followed by another and under a titled last article."""
    base = docgen.many_articles(3)
    return [base.replace(f"نص المادة رقمها {n}\n", f"{delimiter}\n")
            for delimiter in (".", "،") for n in (1, 3)]


def run_cli(argv: list[str], data: bytes) -> tuple[int, str, str]:
    """``legalc.cli.run`` on one document read from standard input."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        code = run(["-", *argv], stdout=out, stderr=err)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def grammar_stream(data: bytes) -> tuple[int, str, str]:
    return 0, dump_tokens(scan_document(preprocess(data, "<stdin>")).grammar_tokens), ""


def main() -> None:
    docs = inputs()
    modes = {name: (lambda data, argv=argv: run_cli(argv, data)) for name, argv in CLI_MODES.items()}
    modes["grammar-tokens"] = grammar_stream
    print(f"{len(docs)} inputs")
    for name, mode in modes.items():
        digest = hashlib.sha256()
        codes: Counter[int] = Counter()
        for data in docs:
            code, out, err = mode(data)
            codes[code] += 1
            for part in (str(code), out, err):
                digest.update(part.encode("utf-8"))
                digest.update(b"\0")
        counts = " ".join(f"exit{code}={n}" for code, n in sorted(codes.items()))
        print(f"{name:15} {digest.hexdigest()}  {counts}")


if __name__ == "__main__":
    main()
