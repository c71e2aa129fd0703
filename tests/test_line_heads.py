"""A line start reads its keyword from the line heads exactly like a probe.

``Scanner.heads`` holds each line's line-initial match, equal to a direct
probe of every line.  Looked up under a ``limit``, it must give what the
reference matcher gives at that limit, without probing again.  Building the
scanner probes only the lines whose folded first word opens a phrase of
several words, and the scan itself never probes at a line start.
"""

import random

import pytest

import docgen
import legalc.scanner as scanner
from legalc.normalize import fold_for_matching, preprocess
from legalc.parser import scan_document
from legalc.scanner import _SPELLINGS, Scanner, match_keyword_phrase
from legalc.tokens import TokenKind
from test_keyword_index import reference_match, variant

K = TokenKind

FIRST_WORDS = sorted({phrase.split(" ")[0] for phrase, _ in _SPELLINGS})
PHRASES = [phrase for phrase, _ in _SPELLINGS]
FILLER = ["خبر", "عمل", "ما", "على", "أن", "يلي", "الاطلاع", "١٢"]
# Folded first words of the phrases longer than one word.
OPENS_PHRASE = {fold_for_matching(phrase.split(" ")[0]) for phrase in PHRASES if " " in phrase}


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
    words = len(text.lines[line])
    return [None, *((line, k) for k in range(1, words + 2)),
            (line + 1, 0), (len(text.lines) + 1, 0)]


def head_probes(text):
    """The probes building a scanner over ``text`` may make: word 0 of each
    line whose folded first word opens a phrase of several words."""
    return [(line, 0) for line, words in enumerate(text.lines)
            if fold_for_matching(words[0]) in OPENS_PHRASE]


def direct_heads(text):
    return [match_keyword_phrase(text, line, 0) for line in range(len(text.lines))]


@pytest.fixture
def probes(monkeypatch):
    """Every ``match_keyword_phrase`` call the scanner makes, as (line, word)."""
    calls = []

    def probe(text, line, word):
        calls.append((line, word))
        return match_keyword_phrase(text, line, word)
    monkeypatch.setattr(scanner, "match_keyword_phrase", probe)
    return calls


def test_cached_lookup_agrees_with_a_direct_probe(probes):
    rng = random.Random(20261018)
    matched = cuts = probed = 0
    for _ in range(800):
        text = preprocess(random_document(rng).encode("utf-8"), "random")
        sc = Scanner(text)
        assert probes == head_probes(text)
        probed += len(probes)
        assert sc.heads == direct_heads(text), text.lines
        probes.clear()
        for line in range(len(text.lines)):
            for limit in limits(text, line):
                want = reference_match(text, line, 0, limit)
                assert sc._match(line, 0, limit) == want, (text.lines, line, limit)
                matched += want is not None
                # the limit cuts the line's phrase
                cuts += want is None and sc.heads[line] is not None
        assert probes == []
    assert matched > 3000 and cuts > 300 and probed > 300, (matched, cuts, probed)


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
    assert got == reference_match(text, 0, 0, limit)
    assert (None if got is None else (got.kind, got.word_count)) == expected


@pytest.mark.parametrize("make_text", [
    lambda: docgen.generate_document(random.Random(7)).text,
    lambda: docgen.many_articles(2000),
], ids=["docgen", "2000-articles"])
def test_scan_matches_each_line_head_once(probes, make_text):
    text = preprocess(make_text().encode("utf-8"), "doc")
    at_heads = head_probes(text)
    assert 0 < len(at_heads) < len(text.lines)
    scan_document(text)
    # building the scanner probes only the lines that may open a longer
    # phrase; the scan itself never probes at a line start
    assert probes[:len(at_heads)] == at_heads
    assert all(word > 0 for _, word in probes[len(at_heads):])
    assert Scanner(text).heads == direct_heads(text)
