"""The layout driver checked against the grammar, from text.

The descent parser has an independent oracle; the layout driver, which
decides which words become which tokens, has none.  So every token-kind
sequence that :data:`legalc.grammar.GRAMMAR` derives in at most 24 tokens
is rendered as a document in the README's layout and compiled: each
rendering must be accepted, its grammar stream must hold exactly the derived
kinds, and each AST field must be the filler written for it.  This is
grammar-based sentence generation (Purdom, BIT 12, 1972), aimed at the copy
of the document shape that has no oracle.

Keywords are spelled from ``scanner._SPELLINGS``, STRING is filled from
``docgen.WORDS`` and NUM from digits, and each delimiter is attached to the
word before it.  Each derivation is rendered in two layouts: one line per
part, and a spread one, with the title, the issuer and each clause over two
lines, each article's content over three, a في date without a digit, and a
location of two words before a digit date.
"""

from __future__ import annotations

import functools
import io

from docgen import ARABIC_DIGITS, ASCII_DIGITS, WORDS
from legalc import (
    Article, Document, LocDate, Signature, SignatureKind, Statement, parse_document, preprocess,
)
from legalc.cli import run
from legalc.grammar import GRAMMAR, derivable_strings
from legalc.scanner import _SPELLINGS
from legalc.tokens import TokenKind

K = TokenKind
MAX_LEN = 24

# A terminal of a derivation: its kind, the nonterminal whose body holds it
# and its place in that body, which together say what the token is.
Terminal = tuple[TokenKind, str, int]

SPELLINGS: dict[TokenKind, list[str]] = {}
for _phrase, _kind in _SPELLINGS:
    SPELLINGS.setdefault(_kind, []).append(_phrase)
DELIMITERS = {K.COMMA: "،", K.DOT: ".", K.COLON: ":"}

# Where each STRING goes, by its place in the grammar: (opens a line, word
# count, the lines it is spread over in the spread layout).  The location
# and the date depend on whether في joins them, and are left to ``render``.
STRINGS: dict[tuple[str, int], tuple[bool, int, int]] = {
    ("title", 0): (True, 3, 2),
    ("issuer", 1): (False, 2, 2),
    ("ref", 1): (False, 3, 2),
    ("just", 1): (False, 3, 2),
    ("article-num", 0): (False, 1, 1),
    ("article-title", 0): (False, 2, 1),
    ("article-content", 0): (True, 3, 3),
    ("sig-type1", 2): (False, 2, 1),        # the name, after الإمضاء:
    ("sig-type1", 3): (True, 2, 1),         # the position, on the line below
    ("sig-type2", 0): (True, 2, 1),         # the position, on the line above
    ("sig-type2", 3): (False, 2, 1),        # the name, after الإمضاء:
}
SIGNATURE_PARTS = {("sig-type1", 2): "name", ("sig-type1", 3): "position",
                   ("sig-type2", 0): "position", ("sig-type2", 3): "name"}

# Derivations that no layout renders as accepted text, each with the layout
# rule that stops it.  Every derivation of at most MAX_LEN tokens renders.
UNRENDERABLE: dict[tuple[TokenKind, ...], str] = {}


@functools.cache
def derivations(symbol: str, budget: int) -> tuple[tuple[Terminal, ...], ...]:
    """Every derivation of ``symbol`` in at most ``budget`` tokens, as its
    terminals in order, read straight off :data:`GRAMMAR`."""
    found: list[tuple[Terminal, ...]] = []
    for body in GRAMMAR[symbol]:
        partial: list[tuple[Terminal, ...]] = [()]
        for place, sym in enumerate(body):
            partial = [done + more for done in partial
                       for more in ([((sym, symbol, place),)] if isinstance(sym, TokenKind)
                                    else derivations(sym, budget - len(done)))
                       if len(done) + len(more) <= budget]
        found.extend(partial)
    return tuple(found)


def render(terminals: tuple[Terminal, ...], spread: bool, seed: int) -> tuple[str, Document]:
    """One derivation as a document text, and the document it must parse to."""
    lines: list[list[str]] = []
    counter = iter(range(seed, seed + 1000))
    has_fi = any(kind is K.FI for kind, _, _ in terminals)

    def words(count: int) -> list[str]:
        return [WORDS[next(counter) % len(WORDS)] for _ in range(count)]

    def digits(count: int) -> str:
        script = ARABIC_DIGITS if next(counter) % 2 else ASCII_DIGITS
        return "".join(script[next(counter) % 10] for _ in range(count))

    values: list[tuple[str, int, str]] = []   # (rule, place, text) of each field
    for kind, rule, place in terminals:
        pieces = 1
        if kind in DELIMITERS:
            lines[-1][-1] += DELIMITERS[kind]
            continue
        if kind in SPELLINGS:
            spellings = SPELLINGS[kind]
            text = spellings[next(counter) % len(spellings)].split(" ")
            opens = kind not in (K.RAQM, K.FI)
        elif kind is K.NUM:
            text, opens = [digits(1 + next(counter) % 3)], False
        elif rule == "loc-date" and place == 0:            # the location
            text, opens = words(2 if spread and not has_fi else 1), True
        elif rule == "loc-date":                           # the date
            text, opens = words(2) if spread and has_fi else [digits(2), *words(1)], False
        else:
            opens, count, spread_over = STRINGS[rule, place]
            text, pieces = words(count), spread_over if spread else 1
        step = -(-len(text) // pieces)
        for start in range(0, len(text), step):
            if opens or start:
                lines.append([])
            lines[-1].extend(text[start:start + step])
        if kind in (K.TYPE, K.NUM, K.STRING):
            values.append((rule, place, " ".join(text)))
    return "\n".join(map(" ".join, lines)) + "\n", expected_document(values)


def expected_document(values: list[tuple[str, int, str]]) -> Document:
    """The document whose fields are ``values``, each (rule, place, text)."""
    single: dict[tuple[str, int], str] = {}
    listed: dict[str, list[str]] = {"ref": [], "just": []}
    articles: list[list[str | None]] = []
    signatures: list[Signature] = []
    signature: dict[str, str] = {}
    for rule, place, text in values:
        if rule in listed:
            listed[rule].append(text)
        elif rule == "article-num":
            articles.append([text, None])
        elif rule == "article-title":
            articles[-1][1] = text
        elif rule == "article-content":
            articles[-1].append(text)
        elif (rule, place) in SIGNATURE_PARTS:
            signature[SIGNATURE_PARTS[rule, place]] = text
            if len(signature) == 2:
                kind = SignatureKind.TYPE1 if rule == "sig-type1" else SignatureKind.TYPE2
                signatures.append(Signature(kind, **signature))
                signature = {}
        else:
            single[rule, place] = text
    loc_date = (LocDate(single["loc-date", 0], single["loc-date", 2], True)
                if ("loc-date", 2) in single
                else LocDate(single["loc-date", 0], single["loc-date", 1], False))
    return Document(
        statement=Statement(single["statement", 0], single["statement", 2]),
        title=single["title", 0],
        issuer=single["issuer", 1],
        references=tuple(listed["ref"]),
        justifications=tuple(listed["just"]),
        articles=tuple(Article(*art) for art in articles),
        loc_date=loc_date,
        signatures=tuple(signatures),
    )


def kinds(terminals: tuple[Terminal, ...]) -> tuple[TokenKind, ...]:
    return tuple(kind for kind, _, _ in terminals)


DERIVATIONS = derivations("document", MAX_LEN)


def test_the_derivations_are_the_grammars():
    # one derivation per derivable sequence: the renderings cover them all,
    # and none is ambiguous about which token is which field
    assert len(DERIVATIONS) == len(derivable_strings("document", MAX_LEN)) == 216
    assert {kinds(d) for d in DERIVATIONS} == derivable_strings("document", MAX_LEN)


def test_every_derivation_renders_as_accepted_text(tmp_path):
    paths, checked = [], 0
    for n, terminals in enumerate(sorted(DERIVATIONS, key=lambda d: [k.name for k in kinds(d)])):
        for spread in (False, True):
            text, document = render(terminals, spread, seed=n)
            result = parse_document(preprocess(text.encode("utf-8"), f"derivation-{n}"))
            if kinds(terminals) in UNRENDERABLE:
                assert not result.ok, text
                continue
            assert result.ok, (text, result.diagnostics)
            assert tuple(tok.kind for tok in result.grammar_tokens[:-1]) == kinds(terminals), text
            assert result.document == document, text
            path = tmp_path / f"derivation-{n}-{int(spread)}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
            checked += 1
    assert checked == 2 * (len(DERIVATIONS) - len(UNRENDERABLE))
    # the command line agrees: exit 0 on every rendering
    err = io.StringIO()
    assert (run(["--validate", *paths], stdout=io.StringIO(), stderr=err), err.getvalue()) == (0, "")
