"""Seeded inputs for the benchmark workloads.

Every document comes with what a correct compiler must produce for it,
known without running the compiler: the AST a generator built by
construction, the committed golden XML of a corpus document, or, for a
document broken on purpose, the line the diagnostic must point at.

Sizes are fixed per workload; the seed only picks the words, numbers,
spellings and which edit breaks a rejected document.  So two seeds give
inputs of the same size and the same reject share, and their timings can be
compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

import docgen
from legalc import Article, Document, LocDate, Signature, SignatureKind, Statement

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"

# One typo per statement keyword.  None of them folds to a keyword, so the
# statement line no longer opens with a document type.
STATEMENT_TYPOS = {"قانون": "قانن", "قرار": "قرر", "مرسوم": "مرسم"}
IMDAA_SPELLINGS = tuple(docgen.IMDAA_SPELLINGS)


@dataclass
class Doc:
    """One benchmark input and what the compiler must make of it."""

    name: str
    data: bytes
    ast: Document | None = None      # valid generated document: the exact AST
    golden: bytes | None = None      # corpus document: the exact XML
    edit_line: int | None = None     # rejected: 0-based line of the edit
    known_failure: bool = False      # valid, but fails today (RecursionError)
    articles: int = 0                # article count by construction
    line_words: int = 0              # words on the longest article line

    @property
    def rejected(self) -> bool:
        return self.edit_line is not None


def corpus_docs() -> list[Doc]:
    docs = []
    for path in sorted(CORPUS.glob("*.txt")):
        golden = (CORPUS / "golden" / (path.stem + ".xml")).read_bytes()
        docs.append(Doc(path.name, path.read_bytes(), golden=golden))
    return docs


def break_document(rng: random.Random, lines: list[str], edit: str | None = None) -> int:
    """Apply one invalidating edit in place; return the edited line.

    Either the statement keyword gets a typo (``edit="statement"``), or the
    colon after a signature's الإمضاء is dropped (``edit="signature"``).
    Both leave exactly one diagnostic, on the edited line.  Without ``edit``
    the seed picks one.
    """
    signature_lines = [i for i, line in enumerate(lines)
                       if line.split(" ", 1)[0].rstrip(":") in IMDAA_SPELLINGS]
    if edit is None:
        edit = "signature" if signature_lines and rng.random() < 0.5 else "statement"
    if edit == "signature":
        k = rng.choice(signature_lines)
        lines[k] = lines[k].replace(":", "", 1)
        return k
    keyword, rest = lines[0].split(" ", 1)
    lines[0] = f"{STATEMENT_TYPOS[keyword]} {rest}"
    return 0


def spread(count: int, total: int) -> set[int]:
    """``count`` indices spread evenly over ``range(total)``."""
    return {int((k + 0.5) * total / count) for k in range(count)}


def docgen_docs(rng: random.Random, count: int, rejects: int) -> list[Doc]:
    """Small docgen documents (1-4 articles, ~65 words); ``rejects`` of them broken."""
    broken = spread(rejects, count) if rejects else set()
    docs = []
    for i in range(count):
        rendered = docgen.generate_document(rng)
        lines = rendered.text.splitlines()
        name = f"doc-{i:04d}.txt"
        if i in broken:
            edit = break_document(rng, lines)
            docs.append(Doc(name, _encode(lines), edit_line=edit))
        else:
            docs.append(Doc(name, _encode(lines), ast=rendered.document))
    return docs


def _encode(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(docgen.WORDS) for _ in range(count))


def _arabic_number(n: int) -> str:
    return "".join(ARABIC_DIGITS[int(d)] for d in str(n))


def large_document(rng: random.Random, name: str, articles: int,
                   content_words: int) -> tuple[list[str], Doc]:
    """A valid document of ``articles`` two-line articles, each content line
    ``content_words`` words long.  Every third article has a title."""
    doc_type = rng.choice(docgen.TYPE_SPELLINGS)
    number = _arabic_number(rng.randint(1, 999))
    title, issuer, reference = _words(rng, 4), _words(rng, 2), _words(rng, 5)
    lines = [f"{doc_type} رقم {number}", title, f"إن {issuer}،",
             f"{rng.choice(docgen.REF_OPENERS)} {reference}،",
             f"{rng.choice(docgen.ACK_SPELLINGS)}:"]
    arts = []
    for i in range(articles):
        art_number = _arabic_number(i + 1)
        art_title = _words(rng, 2) if i % 3 == 0 else None
        content = _words(rng, content_words)
        lines.append(f"مادة {art_number}:" + (f" {art_title}" if art_title else ""))
        lines.append(content)
        arts.append(Article(art_number, art_title, content))
    location = _words(rng, 1)
    date = "/".join(_arabic_number(rng.randint(1, n)) for n in (28, 12, 2030))
    signer, position = _words(rng, 2), _words(rng, 3)
    lines += [f"{location} في {date}", f"{rng.choice(IMDAA_SPELLINGS)}: {signer}", position]
    ast = Document(
        statement=Statement(doc_type, number),
        title=title,
        issuer=issuer,
        references=(reference,),
        justifications=(),
        articles=tuple(arts),
        loc_date=LocDate(location, date, True),
        signatures=(Signature(SignatureKind.TYPE1, signer, position),),
    )
    return lines, Doc(name, _encode(lines), ast=ast, articles=articles,
                      line_words=content_words)


def _large(rng: random.Random, name: str, articles: int, content_words: int,
           edit: str | None = None, known_failure: bool = False) -> Doc:
    lines, doc = large_document(rng, name, articles, content_words)
    doc.known_failure = known_failure
    if edit is not None:
        doc.edit_line = break_document(rng, lines, edit)
        doc.data, doc.ast = _encode(lines), None
    return doc


# large-docs sizes.  Articles are two lines (header + 4-word content line);
# long-line documents hold one article whose content is a single line.
MANY_ARTICLES = (100, 141, 200, 283, 400, 566, 800)
LONG_LINES = (1000, 2200, 4700, 10000, 22000, 50000)
# More than ~990 articles overflow the recursive article-list parser today.
# These are valid and counted as failed operations while that holds; they
# come from a fixed seed so the failure share never depends on --seed.
TOO_MANY_ARTICLES = (1100, 1800, 3000)
# (articles, words per content line, edit).  A dropped signature colon is
# only reached after the whole article list, which overflows the stack past
# ~990 articles, so larger documents get the statement typo.  The third and
# fourth by time are the same size, so the median of rejected times does
# not fall into a gap between two sizes.
REJECTED_LARGE = ((150, 4, "statement"), (1, 1500, "statement"), (300, 4, "signature"),
                  (300, 4, "signature"), (2000, 4, "statement"), (1, 12000, "signature"))
MIXED_LARGE = 26     # further mid-size documents: 100-300 articles plus one long line
ARTICLE_WORDS = 4


def large_docs(rng: random.Random, smoke: bool = False) -> list[Doc]:
    fixed = random.Random("large-docs/known-failures")
    if smoke:
        docs = [_large(rng, "many-100.txt", 100, ARTICLE_WORDS),
                _large(rng, "long-1000.txt", 1, 1000),
                _large(rng, "rejected-0.txt", 120, ARTICLE_WORDS, edit="signature"),
                _large(fixed, "fails-1100.txt", 1100, ARTICLE_WORDS, known_failure=True)]
        rng.shuffle(docs)
        return docs
    docs = [_large(rng, f"many-{n}.txt", n, ARTICLE_WORDS) for n in MANY_ARTICLES]
    docs += [_large(rng, f"long-{n}.txt", 1, n) for n in LONG_LINES]
    docs += [_large(fixed, f"fails-{n}.txt", n, ARTICLE_WORDS, known_failure=True)
             for n in TOO_MANY_ARTICLES]
    docs += [_large(rng, f"rejected-{i}.txt", n, w, edit)
             for i, (n, w, edit) in enumerate(REJECTED_LARGE)]
    for i in range(MIXED_LARGE):
        lines, doc = large_document(rng, f"mixed-{i}.txt", 100 + 8 * i, ARTICLE_WORDS)
        # lengthen the content line of article i by 1000-1500 words
        k = 6 + 2 * i
        extra = _words(rng, 1000 + 20 * i)
        lines[k] += " " + extra
        arts = list(doc.ast.articles)
        art = arts[(k - 6) // 2]
        arts[(k - 6) // 2] = replace(art, content=art.content + " " + extra)
        doc.data = _encode(lines)
        doc.ast = replace(doc.ast, articles=tuple(arts))
        doc.line_words = len(lines[k].split(" "))
        docs.append(doc)
    rng.shuffle(docs)
    return docs


def scaling_ladder(rng: random.Random, smoke: bool = False) -> tuple[list[Doc], list[Doc]]:
    """Valid documents that grow along one dimension each: words on one line
    (for the scan exponent) and article count (for the grammar exponent)."""
    lines_sizes = (200, 400, 800) if smoke else (1000, 2000, 4000, 8000, 16000)
    article_sizes = (25, 50, 100) if smoke else (100, 200, 400, 800)
    long_lines = [_large(rng, f"ladder-long-{n}.txt", 1, n) for n in lines_sizes]
    many = [_large(rng, f"ladder-many-{n}.txt", n, ARTICLE_WORDS) for n in article_sizes]
    return long_lines, many


def build(workload: str, seed: int, smoke: bool = False) -> list[Doc]:
    """The documents of one round of ``workload``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-cold":
        # 40 per round: 4 corpus + 36 docgen, 5 of them rejected
        docs = corpus_docs() + docgen_docs(rng, 4 if smoke else 36, 1 if smoke else 5)
    elif workload == "batch-mixed":
        # 2004 per round: 4 corpus + 2000 docgen, 250 rejected
        docs = corpus_docs() + docgen_docs(rng, 20 if smoke else 2000, 3 if smoke else 250)
    elif workload == "large-docs":
        return large_docs(rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(docs)
    return docs
