"""A line start reads its keyword from the line heads exactly like a probe.

``Scanner.heads`` holds each line's unlimited line-initial match.  Looked up
under a ``limit``, it must give what ``match_keyword_phrase`` gives at that
limit, and it must probe again only where the limit cuts the cached phrase.
Scanning a whole document then matches each line's head exactly once.
"""

import random
from collections import Counter

import pytest

import docgen
import legalc.scanner as scanner
from legalc.normalize import preprocess
from legalc.parser import scan_document
from legalc.scanner import _SPELLINGS, Scanner, match_keyword_phrase
from legalc.tokens import TokenKind
from test_cli import many_articles
from test_keyword_index import variant

K = TokenKind

FIRST_WORDS = sorted({phrase.split(" ")[0] for phrase, _ in _SPELLINGS})
PHRASES = [phrase for phrase, _ in _SPELLINGS]
FILLER = ["خبر", "عمل", "ما", "على", "أن", "يلي", "الاطلاع", "١٢"]


def random_document(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.4:
            head = rng.choice(PHRASES)
        elif roll < 0.7:
            head = rng.choice(FIRST_WORDS)
        else:
            head = rng.choice(FILLER)
        words = [variant(rng, w) for w in head.split(" ")]
        words += [rng.choice(FILLER) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            k = rng.randrange(len(words))
            words[k] += rng.choice("،.:")
        lines.append(" ".join(words))
    return "\n".join(lines)


def limits(text, line):
    """No limit, every word boundary of the line, the next line's start,
    and a point past the end of input."""
    words = len(text.words(line))
    return [None, *((line, k) for k in range(1, words + 2)),
            (line + 1, 0), (text.line_count + 1, 0)]


@pytest.fixture
def probes(monkeypatch):
    """Every ``match_keyword_phrase`` call the scanner makes, as (line, word, limit)."""
    calls = []

    def probe(text, line, word, limit=None):
        calls.append((line, word, limit))
        return match_keyword_phrase(text, line, word, limit)
    monkeypatch.setattr(scanner, "match_keyword_phrase", probe)
    return calls


def cut(text, line, limit):
    """Whether ``limit`` cuts the unlimited match at the start of ``line``."""
    head = match_keyword_phrase(text, line, 0)
    return limit is not None and head is not None and (line, head.word_count - 1) >= limit


def test_cached_lookup_agrees_with_a_direct_probe(probes):
    rng = random.Random(20261018)
    matched = fallbacks = 0
    for _ in range(800):
        text = preprocess(random_document(rng).encode("utf-8"), "random")
        sc = Scanner(text)
        assert probes == [(line, 0, None) for line in range(text.line_count)]
        for line in range(text.line_count):
            for limit in limits(text, line):
                probes.clear()
                want = match_keyword_phrase(text, line, 0, limit)
                assert sc._match(line, 0, limit) == want, (text.lines, line, limit)
                # it probes again only where the limit cuts the cached phrase
                assert probes == ([(line, 0, limit)] if cut(text, line, limit) else [])
                matched += want is not None
                fallbacks += bool(probes)
    assert matched > 3000 and fallbacks > 300, (matched, fallbacks)


@pytest.mark.parametrize("source,limit,expected", [
    ("وبعد الاطلاع على", None, (K.BINAA, 2)),
    ("وبعد الاطلاع على", (0, 2), (K.BINAA, 2)),
    ("وبعد الاطلاع على", (0, 1), None),            # a 2-word phrase cut
    ("يقرر ما يلي:", (0, 3), (K.YAKOUR, 3)),
    ("يقرر ما يلي:", (0, 2), None),                # a 3-word phrase cut
    ("يقرر ما يلي:", (0, 1), None),
    ("بناء على\nيرسم ما يأتي", (1, 0), (K.BINAA, 2)),
    ("المادة الأولى", (0, 1), (K.MADA, 1)),
    ("خبر على", (0, 1), None),
])
def test_limits_that_cut_a_phrase(source, limit, expected):
    text = preprocess(source.encode("utf-8"), "case")
    got = Scanner(text)._match(0, 0, limit)
    assert got == match_keyword_phrase(text, 0, 0, limit)
    assert (None if got is None else (got.kind, got.word_count)) == expected


@pytest.mark.parametrize("make_text", [
    lambda: docgen.generate_document(random.Random(7)).text,
    lambda: many_articles(2000),
], ids=["docgen", "2000-articles"])
def test_scan_matches_each_line_head_once(probes, make_text):
    text = preprocess(make_text().encode("utf-8"), "doc")
    scan_document(text)
    heads = Counter((line, limit) for line, word, limit in probes if word == 0 and limit is None)
    assert heads == Counter((line, None) for line in range(text.line_count))
    for line, word, limit in probes:
        assert word > 0 or limit is None or cut(text, line, limit), (line, word, limit)
