"""Output digests over a fixed input set, for comparing two checkouts.

    PYTHONPATH=src python3 tests/differential.py

Run it against two versions of ``src`` (for example a change and its parent)
and compare the printed lines: equal digests mean byte-identical output.  It
is a script, not a test module, so pytest does not collect it.

    PYTHONPATH=src python3 tests/differential.py --expect tests/differential.expected

compares the printed lines with the committed ones and exits 1, naming each
line that moved.  A change that moves a digest updates that file, so the
move shows in its diff.

Each input goes through four modes: the CLI writing XML to standard output
(``-o -``), ``--dump-tokens`` and ``--dump-ast``, plus the grammar token
stream of ``scan_document``, which no golden file pins.  For each mode it
prints one SHA-256 over every input's exit code, standard output and
standard error, and the count of each exit code.

Inputs: the corpus files, 1,500 ``docgen.generate_document`` documents, a
``mutate_text`` mutant of each, ``add_fold_noise`` variants of the first 300,
``many_articles`` documents of 100 to 3,000 articles, and documents whose
article content region is one lone delimiter word, which no other input has.

The ``oracle`` line is one SHA-256 over :func:`legalc.grammar.oracle_accepts`
verdicts on a fixed set of token-kind sequences: for each start symbol, every
sequence of length <= 5 over the terminals it reaches; every one-token edit of
every ``document`` string of length <= 20; and 20,000 seeded random sequences
of length 0 to 16, each over the terminals of a random start symbol.  It pins
the oracle, which no CLI mode reaches.

The ``descent`` line is one SHA-256 over what
:func:`legalc.parser.parse_grammar_tokens` returns for a fixed set of
token-kind sequences (acceptance with the :func:`~legalc.parser.dump_ast`
rendering, or the diagnostic's message, span, expected kinds and found kind)
and each sequence's ``rejects_all_extensions`` verdict (from ``tests/descent.py``).
The sequences: every tail of length <= 6 over the kinds that can follow the
acknowledgment, after a valid prefix that ends there; every one-token edit of
every ``document`` string of length <= 22; and 30,000 seeded random
sequences of length 0 to 29, each a cut of a ``document`` string padded with
random kinds.  It pins the descent parser's readings and diagnostics on token
streams the driver never produces.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import docgen
from descent import rejects_all_extensions
from legalc.cli import run
from legalc.grammar import GRAMMAR, derivable_strings, oracle_accepts
from legalc.normalize import preprocess
from legalc.parser import dump_ast, parse_grammar_tokens, scan_document
from legalc.scanner import dump_tokens
from legalc.tokens import Span, Token, TokenKind
from test_grammar_oracle import reachable_terminals, single_edits

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


def oracle_cases() -> Iterator[tuple[str, tuple[TokenKind, ...]]]:
    """(start, kinds) for every sequence the ``oracle`` line covers."""
    for start in GRAMMAR:
        alphabet = reachable_terminals(start)
        for n in range(6):
            for kinds in itertools.product(alphabet, repeat=n):
                yield start, kinds
    everything = [k for k in TokenKind if k is not TokenKind.EOF]
    documents = sorted(derivable_strings("document", 20), key=lambda s: [k.name for k in s])
    for s in documents:
        for kinds in single_edits(s, everything):
            yield "document", kinds
    rng = random.Random(2026)
    starts = list(GRAMMAR)
    for _ in range(20000):
        start = rng.choice(starts)
        alphabet = reachable_terminals(start)
        yield start, tuple(rng.choice(alphabet) for _ in range(rng.randrange(17)))


def oracle_digest() -> str:
    digest = hashlib.sha256()
    verdicts: Counter[bool] = Counter()
    for start, kinds in oracle_cases():
        ok = oracle_accepts(kinds, start=start)
        verdicts[ok] += 1
        digest.update(b"1" if ok else b"0")
    return f"{digest.hexdigest()}  accept={verdicts[True]} reject={verdicts[False]}"


K = TokenKind
# A valid document up to and including the acknowledgment, and the kinds that
# the article list, location/date line and signature block are made of.
ACKNOWLEDGED = (K.TYPE, K.RAQM, K.NUM, K.STRING, K.INNA, K.STRING, K.COMMA,
                K.BINAA, K.STRING, K.COMMA, K.YAKOUR, K.COLON)
TAIL_KINDS = (K.MADA, K.NUM, K.STRING, K.COLON, K.FI, K.IMDAA, K.COMMA)


def descent_cases() -> Iterator[tuple[TokenKind, ...]]:
    """Every token-kind sequence the ``descent`` line covers."""
    for n in range(7):
        for tail in itertools.product(TAIL_KINDS, repeat=n):
            yield ACKNOWLEDGED + tail
    everything = [k for k in TokenKind if k is not TokenKind.EOF]
    documents = sorted(derivable_strings("document", 22), key=lambda s: [k.name for k in s])
    for s in documents:
        yield from single_edits(s, everything)
    rng = random.Random(2026)
    for _ in range(30000):
        n = rng.randrange(30)
        head = rng.choice(documents)[:rng.randrange(n + 1)]
        yield head + tuple(rng.choice(everything) for _ in range(n - len(head)))


def descent_digest() -> str:
    digest = hashlib.sha256()
    counts: Counter[str] = Counter()
    for kinds in descent_cases():
        doc, diag = parse_grammar_tokens([Token(k, k.value, Span.point(0, i))
                                          for i, k in enumerate(kinds)])
        if doc is not None:
            counts["accept"] += 1
            record = "accept\n" + dump_ast(doc)
        else:
            counts["reject"] += 1
            expected = ",".join(k.name for k in diag.expected)
            record = f"{diag.message}\n{diag.span}\n{expected}\n{diag.found.name}"
        determined = rejects_all_extensions(kinds)
        counts["determined"] += determined
        digest.update(f"{record}\n{int(determined)}\0".encode("utf-8"))
    return (f"{digest.hexdigest()}  accept={counts['accept']} reject={counts['reject']} "
            f"determined={counts['determined']}")


def digest_lines() -> Iterator[str]:
    docs = inputs()
    modes = {name: (lambda data, argv=argv: run_cli(argv, data)) for name, argv in CLI_MODES.items()}
    modes["grammar-tokens"] = grammar_stream
    yield f"{len(docs)} inputs"
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
        yield f"{name:15} {digest.hexdigest()}  {counts}"
    yield f"{'oracle':15} {oracle_digest()}"
    yield f"{'descent':15} {descent_digest()}"


def label(line: str) -> str:
    """A printed line's name: its mode, or ``inputs`` for the count line."""
    first, _, rest = line.partition(" ")
    return rest if first.isdigit() else first


def main() -> int:
    parser = argparse.ArgumentParser(description="Print output digests over fixed inputs.")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="compare the printed lines with FILE's; exit 1 if any moved")
    args = parser.parse_args()
    printed = []
    for line in digest_lines():
        print(line, flush=True)
        printed.append(line)
    if args.expect is None:
        return 0
    expected = args.expect.read_text(encoding="utf-8").splitlines()
    moved = [(want, got) for want, got in itertools.zip_longest(expected, printed, fillvalue="")
             if want != got]
    for want, got in moved:
        print(f"moved: {label(want or got)}\n  expected {want}\n  printed  {got}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
