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

Then each rendering is edited by one kind: each terminal deleted in turn,
and a seeded sample of terminals substituted and inserted.  The pipeline's
verdict on the edited text must be the oracle's on the edited kinds, except
where a layout rule that the grammar cannot state decides otherwise; each
such rule is an entry of :data:`LAYOUT_RULES`, and a divergence that no
entry explains fails the test.
"""

from __future__ import annotations

import functools
import io
import random
from typing import Callable, Iterator, NamedTuple

from docgen import ARABIC_DIGITS, ASCII_DIGITS, WORDS
from legalc import (
    Article, Document, LocDate, ParseResult, Signature, SignatureKind, Statement, parse_document,
    preprocess,
)
from legalc.cli import run
from legalc.grammar import GRAMMAR, derivable_strings, oracle_accepts
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
# The rule of a terminal that an edit put in: a STRING it writes is two words
# on the current line.
EDIT = "edit"
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


def render(terminals: tuple[Terminal, ...], spread: bool, seed: int,
           deleted: int | None = None) -> tuple[str, list[tuple[str, int, str]]]:
    """One derivation as a document text, and the (rule, place, text) of
    each field written (see :func:`expected_document`).  The terminal at
    index ``deleted``, if any, is left out of the text and nothing else
    moves: the words around it stay as they were, on the lines they were."""
    lines: list[list[str]] = []
    counter = iter(range(seed, seed + 1000))
    has_fi = any(kind is K.FI and rule != EDIT for kind, rule, _ in terminals)

    def words(count: int) -> list[str]:
        return [WORDS[next(counter) % len(WORDS)] for _ in range(count)]

    def digits(count: int) -> str:
        script = ARABIC_DIGITS if next(counter) % 2 else ASCII_DIGITS
        return "".join(script[next(counter) % 10] for _ in range(count))

    values: list[tuple[str, int, str]] = []   # (rule, place, text) of each field
    for i, (kind, rule, place) in enumerate(terminals):
        pieces = 1
        if kind in DELIMITERS:
            if i == deleted:
                pass
            elif lines and lines[-1]:
                lines[-1][-1] += DELIMITERS[kind]
            else:
                lines.append([DELIMITERS[kind]])
            continue
        if kind in SPELLINGS:
            spellings = SPELLINGS[kind]
            text = spellings[next(counter) % len(spellings)].split(" ")
            opens = kind not in (K.RAQM, K.FI)
        elif kind is K.NUM:
            text, opens = [digits(1 + next(counter) % 3)], False
        elif rule == EDIT:                                 # an edit's STRING
            text, opens = words(2), False
        elif rule == "loc-date" and place == 0:            # the location
            text, opens = words(2 if spread and not has_fi else 1), True
        elif rule == "loc-date":                           # the date
            text, opens = words(2) if spread and has_fi else [digits(2), *words(1)], False
        else:
            opens, count, spread_over = STRINGS[rule, place]
            text, pieces = words(count), spread_over if spread else 1
        if i == deleted:
            if opens:
                lines.append([])
            continue
        step = -(-len(text) // pieces)
        for start in range(0, len(text), step):
            if opens or start or not lines:
                lines.append([])
            lines[-1].extend(text[start:start + step])
        if kind in (K.TYPE, K.NUM, K.STRING):
            values.append((rule, place, " ".join(text)))
    return "\n".join(" ".join(line) for line in lines if line) + "\n", values


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


# In a fixed order, so that each derivation's renderings are seeded alike
# in every run.
DERIVATIONS = tuple(sorted(derivations("document", MAX_LEN),
                           key=lambda d: [k.name for k in kinds(d)]))


def test_the_derivations_are_the_grammars():
    # one derivation per derivable sequence: the renderings cover them all,
    # and none is ambiguous about which token is which field
    assert len(DERIVATIONS) == len(derivable_strings("document", MAX_LEN)) == 216
    assert {kinds(d) for d in DERIVATIONS} == derivable_strings("document", MAX_LEN)


def test_every_derivation_renders_as_accepted_text(tmp_path):
    paths, checked = [], 0
    for n, terminals in enumerate(DERIVATIONS):
        for spread in (False, True):
            text, values = render(terminals, spread, seed=n)
            result = parse_document(preprocess(text.encode("utf-8"), f"derivation-{n}"))
            if kinds(terminals) in UNRENDERABLE:
                assert not result.ok, text
                continue
            assert result.ok, (text, result.diagnostics)
            assert tuple(tok.kind for tok in result.grammar_tokens[:-1]) == kinds(terminals), text
            assert result.document == expected_document(values), text
            path = tmp_path / f"derivation-{n}-{int(spread)}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
            checked += 1
    assert checked == 2 * (len(DERIVATIONS) - len(UNRENDERABLE))
    # the command line agrees: exit 0 on every rendering
    err = io.StringIO()
    assert (run(["--validate", *paths], stdout=io.StringIO(), stderr=err), err.getvalue()) == (0, "")


# -- one-kind edits -------------------------------------------------------------

# What an edit writes: a keyword opening its line (RAQM and FI mid-line), NUM
# as digits, STRING as two words, a delimiter attached to the word before it.
EDIT_KINDS = (*SPELLINGS, K.NUM, K.STRING, *DELIMITERS)
SAMPLED = 2   # substitutions, and as many insertions, per rendering


class Edit(NamedTuple):
    op: str                          # "delete", "substitute" or "insert"
    at: int                          # the index of the terminal deleted or written
    written: tuple[Terminal, ...]    # the terminals the text is rendered from
    kinds: tuple[TokenKind, ...]     # the edited kind sequence the oracle judges


def edits(terminals: tuple[Terminal, ...], seed: int) -> Iterator[Edit]:
    """Each terminal deleted in turn, then a seeded sample of one-terminal
    substitutions and insertions."""
    written = kinds(terminals)
    for i in range(len(terminals)):
        yield Edit("delete", i, terminals, written[:i] + written[i + 1:])
    rng = random.Random(seed)
    for _ in range(SAMPLED):
        i = rng.randrange(len(terminals))
        kind = rng.choice([k for k in EDIT_KINDS if k is not written[i]])
        yield Edit("substitute", i, (*terminals[:i], (kind, EDIT, 0), *terminals[i + 1:]),
                   (*written[:i], kind, *written[i + 1:]))
        i = rng.randrange(len(terminals) + 1)
        kind = rng.choice(EDIT_KINDS)
        yield Edit("insert", i, (*terminals[:i], (kind, EDIT, 0), *terminals[i:]),
                   (*written[:i], kind, *written[i:]))


class Divergence(NamedTuple):
    """An edited text whose verdict is not the oracle's on the edited kinds.

    The driver read the edited kinds ``written``, a stretch of them, as
    ``read``, and every kind around that stretch as it was written.
    """
    edit: Edit
    accepted: bool                   # the pipeline's verdict; the oracle's is the other
    message: str                     # the pipeline's diagnostic, "" when it accepts
    written: tuple[TokenKind, ...]
    read: tuple[TokenKind, ...]

    def read_as_text(self, among: frozenset[TokenKind]) -> bool:
        """True when the stretch, holding a kind of ``among``, was read as text."""
        return (not among.isdisjoint(self.written)
                and all(kind is K.STRING for kind in self.read))


def divergence(edit: Edit, result: ParseResult) -> Divergence:
    """The divergence, its stretch as short as the kinds equal at both of
    its ends allow."""
    written, read = edit.kinds, tuple(tok.kind for tok in result.grammar_tokens[:-1])
    start = 0
    while start < min(len(written), len(read)) and written[start] is read[start]:
        start += 1
    same = 0   # kinds equal at both ends, after the first difference
    while same < min(len(written), len(read)) - start and written[-1 - same] is read[-1 - same]:
        same += 1
    return Divergence(edit, result.ok, result.diagnostics[0].message if result.diagnostics else "",
                      written[start:len(written) - same], read[start:len(read) - same])


KEYWORDS = frozenset(SPELLINGS)
LOC_DATE_RULE = "location/date line needs a location and a date (في or a digit-bearing word)"

# Each class of divergence: the layout rule that the grammar cannot state,
# and a predicate that holds for the edits it explains.
LAYOUT_RULES: dict[str, Callable[[Divergence], bool]] = {
    "the location comes before في or the first digit-bearing word of the "
    "location/date line (the driver's one diagnostic)":
        lambda d: not d.accepted and d.message == LOC_DATE_RULE,
    "the location/date line is found by lines, above the first الإمضاء line or "
    "as the last line, and needs في as its second word or a digit-bearing word; "
    "where no line fits, no مادة line after the acknowledgment opens an article":
        lambda d: (not d.accepted and d.message == "expected مادة opening an article"
                   and d.read_as_text(frozenset((K.MADA,)))),
    "a keyword is read only where the driver expects one: the title runs to the "
    "إن line, the issuer and each clause to their delimiter, an article's "
    "content to the next مادة line or the location/date line, and a location, "
    "date, name or position is text, so a keyword written inside one is text":
        lambda d: d.accepted and d.read_as_text(KEYWORDS),
    "a number is a NUM only after رقم and after مادة on its line; elsewhere it is text":
        lambda d: d.accepted and d.read_as_text(frozenset((K.NUM,))),
    "a delimiter ends text only where one may: ، anywhere, . only at a line's "
    "end, : only where one is expected (after the acknowledgment, an article "
    "number or الإمضاء); a word sheds only its last delimiter, and an "
    "article's content keeps all of its own":
        lambda d: d.accepted and d.read_as_text(frozenset(DELIMITERS)),
    "words with nothing between them are one text, so two STRINGs written "
    "side by side read as one":
        lambda d: (d.accepted and len(d.read) < len(d.written)
                   and d.read_as_text(frozenset((K.STRING,)))
                   and all(kind is K.STRING for kind in d.written)),
}


def test_one_kind_edits_diverge_from_the_oracle_only_by_a_layout_rule():
    accepts = functools.cache(oracle_accepts)
    explained = dict.fromkeys(LAYOUT_RULES, 0)
    unexplained: list[tuple[Divergence, str]] = []
    for n, terminals in enumerate(DERIVATIONS):
        for spread in (False, True):
            for edit in edits(terminals, seed=2 * n + spread):
                text, _ = render(edit.written, spread, n,
                                 edit.at if edit.op == "delete" else None)
                result = parse_document(preprocess(text.encode("utf-8"), f"edit-{n}"))
                if result.ok is accepts(edit.kinds):
                    continue
                d = divergence(edit, result)
                rules = [rule for rule, holds in LAYOUT_RULES.items() if holds(d)]
                for rule in rules:
                    explained[rule] += 1
                if not rules:
                    unexplained.append((d, text))
    assert not unexplained, unexplained[:5]
    # every rule explains an edit, so none stands in the catalogue unused
    assert all(explained.values()), explained
