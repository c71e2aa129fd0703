"""Output digests over a fixed input set, for comparing two checkouts.

    PYTHONPATH=src python3 tests/differential.py

Run it against two versions of ``src`` (for example a change and its parent)
and compare the printed lines: equal digests mean byte-identical output.  It
is a script, not a test module, so pytest does not collect it.

    PYTHONPATH=src python3 tests/differential.py --expect tests/differential.expected

compares the printed lines with the committed ones and exits 1, naming each
line that moved.  A change that moves a digest updates that file, so the
move shows in its diff.

    PYTHONPATH=src python3 tests/differential.py --against PARENT/src/legalc

loads the package directory ``PARENT/src/legalc`` as a second tree (A,
beside this checkout's B; as ``tests/interleave.py`` does) and runs every
input through every mode on both.  Per mode it prints how many inputs
differ and, for the first 20 of them, which parts moved (exit code, stdout
and stderr; an oracle case's verdict; a descent case's result and
verdict) with the first differing line on each side.  It exits 1 when any
input differs.  The exit-code count is split by direction, as in ``exit code
17: 0→1 17``.

Each input goes through three modes: the CLI writing XML to standard output
(``-o -``), ``--dump-tokens`` and ``--dump-ast``.  For each mode it prints
one SHA-256 over every input's exit code, standard output and standard
error, and the count of each exit code.

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
import importlib
import io
import itertools
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

import docgen
import legalc
from descent import rejects_all_extensions
from interleave import load_tree
from legalc.grammar import GRAMMAR, derivable_strings
from legalc.tokens import Span, Token, TokenKind
from test_grammar_oracle import reachable_terminals, single_edits

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GENERATED = 1500
NOISY = 300
ARTICLE_COUNTS = (100, 500, 1000, 2000, 3000)
SHOWN = 20   # moved inputs described per mode under --against

CLI_MODES = {"xml": ["-o", "-"], "tokens": ["--dump-tokens"], "ast": ["--dump-ast"]}
# What each part of a mode's record is; the modes not named hold CLI runs.
PARTS = {"oracle": ("verdict",), "descent": ("result", "determined")}
RUN_PARTS = ("exit code", "stdout", "stderr")


def inputs() -> list[tuple[str, bytes]]:
    """(label, bytes) for every input document."""
    docs = [(p.name, p.read_bytes()) for p in sorted(CORPUS.glob("*.txt"))]
    rng = random.Random(2026)
    generated = [docgen.generate_document(rng).text for _ in range(GENERATED)]
    mutants = [docgen.mutate_text(rng, text) for text in generated]
    noisy = [docgen.add_fold_noise(rng, text) for text in generated[:NOISY]]
    groups = {"generated": generated, "mutant": mutants, "noisy": noisy,
              "many_articles": [docgen.many_articles(n) for n in ARTICLE_COUNTS],
              "lone delimiter": lone_delimiters()}
    docs += [(f"{group} {n}", text.encode("utf-8"))
             for group, texts in groups.items() for n, text in enumerate(texts)]
    return docs


def lone_delimiters() -> list[str]:
    """A content line that is only ``.`` or ``،``, under an untitled article
    followed by another and under a titled last article."""
    base = docgen.many_articles(3)
    return [base.replace(f"نص المادة رقمها {n}\n", f"{delimiter}\n")
            for delimiter in (".", "،") for n in (1, 3)]


def run_cli(run, argv: list[str], data: bytes) -> tuple[str, str, str]:
    """A ``legalc.cli.run`` on one document read from standard input."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        code = run(["-", *argv], stdout=out, stderr=err)
    finally:
        sys.stdin = stdin
    return str(code), out.getvalue(), err.getvalue()


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


def tree_modes(package, docs: list[bytes]) -> dict[str, Callable[[], Iterator[tuple[str, ...]]]]:
    """Each mode's records over the legalc package ``package``, one tuple of
    strings per input.  The kinds of the oracle and descent cases are this
    checkout's; each tree gets its own members of the same names."""
    tree_kind = {k: package.tokens.TokenKind[k.name] for k in TokenKind}.__getitem__
    run = importlib.import_module(package.__name__ + ".cli").run
    parser = package.parser

    def cli_mode(argv: list[str]) -> Callable[[], Iterator[tuple[str, ...]]]:
        return lambda: (run_cli(run, argv, data) for data in docs)

    def oracle() -> Iterator[tuple[str, ...]]:
        for start, kinds in oracle_cases():
            kinds = tuple(map(tree_kind, kinds))
            yield ("1" if package.grammar.oracle_accepts(kinds, start=start) else "0",)

    def descent() -> Iterator[tuple[str, ...]]:
        for kinds in descent_cases():
            kinds = tuple(map(tree_kind, kinds))
            doc, diag = parser.parse_grammar_tokens([Token(k, k.value, Span.point(0, i))
                                                     for i, k in enumerate(kinds)])
            if doc is not None:
                result = "accept\n" + parser.dump_ast(doc)
            else:
                expected = ",".join(k.name for k in diag.expected)
                result = f"{diag.message}\n{diag.span}\n{expected}\n{diag.found.name}"
            yield result, str(int(rejects_all_extensions(kinds, parser)))

    modes = {name: cli_mode(argv) for name, argv in CLI_MODES.items()}
    return {**modes, "oracle": oracle, "descent": descent}


def run_digest(records: Iterator[tuple[str, ...]]) -> str:
    sha = hashlib.sha256()
    codes: Counter[int] = Counter()
    for record in records:
        codes[int(record[0])] += 1
        for part in record:
            sha.update(part.encode("utf-8"))
            sha.update(b"\0")
    counts = " ".join(f"exit{code}={n}" for code, n in sorted(codes.items()))
    return f"{sha.hexdigest()}  {counts}"


def oracle_digest(records: Iterator[tuple[str, ...]]) -> str:
    sha = hashlib.sha256()
    verdicts: Counter[str] = Counter()
    for (verdict,) in records:
        verdicts[verdict] += 1
        sha.update(verdict.encode("utf-8"))
    return f"{sha.hexdigest()}  accept={verdicts['1']} reject={verdicts['0']}"


def descent_digest(records: Iterator[tuple[str, ...]]) -> str:
    sha = hashlib.sha256()
    counts: Counter[str] = Counter()
    for result, determined in records:
        counts["accept" if result.startswith("accept\n") else "reject"] += 1
        counts["determined"] += determined == "1"
        sha.update(f"{result}\n{determined}\0".encode("utf-8"))
    return (f"{sha.hexdigest()}  accept={counts['accept']} reject={counts['reject']} "
            f"determined={counts['determined']}")


DIGESTS = {"oracle": oracle_digest, "descent": descent_digest}


def digest_lines() -> Iterator[str]:
    docs = [data for _, data in inputs()]
    yield f"{len(docs)} inputs"
    for name, records in tree_modes(legalc, docs).items():
        yield f"{name:15} {DIGESTS.get(name, run_digest)(records())}"


def first_difference(a: str, b: str) -> tuple[int, str, str]:
    """The 1-based number of the first line where ``a`` and ``b`` differ, and
    that line on each side ("(none)" past one side's end), from a little
    before the first character that differs."""
    pairs = itertools.zip_longest(a.split("\n"), b.split("\n"), fillvalue="(none)")
    n, x, y = next((n, x, y) for n, (x, y) in enumerate(pairs, 1) if x != y)
    column = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    cut = max(column - 60, 0)
    return n, ("…" if cut else "") + x[cut:cut + 160], ("…" if cut else "") + y[cut:cut + 160]


def report_moved(name: str, labels: list[str], modes_a, modes_b) -> int:
    """Print how many of one mode's inputs differ between the trees, with
    the exit-code moves counted by direction (A→B), and for the first
    ``SHOWN`` of them which parts moved and their first differing lines;
    return the count."""
    parts = PARTS.get(name, RUN_PARTS)
    moved = total = 0
    per_part: Counter[str] = Counter()
    exits: Counter[str] = Counter()
    for i, (a, b) in enumerate(zip(modes_a[name](), modes_b[name]())):
        total += 1
        if a == b:
            continue
        moved += 1
        changed = [(part, x, y) for part, x, y in zip(parts, a, b) if x != y]
        per_part.update(part for part, _, _ in changed)
        exits.update(f"{x}→{y}" for part, x, y in changed if part == "exit code")
        if moved > SHOWN:
            continue
        what = labels[i] if name not in PARTS else "a token-kind case"
        print(f"  input {i} ({what}): {', '.join(part for part, _, _ in changed)} moved")
        for part, x, y in changed:
            n, x, y = first_difference(x, y)
            print(f"    {part} line {n}:\n      A: {x}\n      B: {y}")
    shown = {part: f"{part} {n}" for part in parts if (n := per_part[part])}
    if exits:
        moves = " and ".join(f"{move} {n}" for move, n in sorted(exits.items()))
        shown["exit code"] += f": {moves}"
    by_part = ", ".join(shown.values())
    print(f"{name:15} {moved} of {total} inputs differ" + (f" ({by_part})" if moved else ""),
          flush=True)
    return moved


def label(line: str) -> str:
    """A printed line's name: its mode, or ``inputs`` for the count line."""
    first, _, rest = line.partition(" ")
    return rest if first.isdigit() else first


def main() -> int:
    parser = argparse.ArgumentParser(description="Print output digests over fixed inputs.")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--expect", type=Path, metavar="FILE",
                      help="compare the printed lines with FILE's; exit 1 if any moved")
    what.add_argument("--against", type=Path, metavar="PACKAGE_DIR",
                      help="compare every input's output with the src/legalc tree "
                           "PACKAGE_DIR (as A); exit 1 if any differs")
    args = parser.parse_args()
    if args.against is not None:
        labelled = inputs()
        labels = [label for label, _ in labelled]
        docs = [data for _, data in labelled]
        modes_a = tree_modes(load_tree(args.against.resolve(), "legalc_a"), docs)
        modes_b = tree_modes(legalc, docs)
        moved = [report_moved(name, labels, modes_a, modes_b) for name in modes_b]
        return 1 if any(moved) else 0
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
