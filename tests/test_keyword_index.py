"""The first-word keyword index matches exactly like three fixed-length tables.

The reference below is the straightforward matcher: for each phrase length
3, 2, 1 it folds the whole window and looks it up in that length's table,
keeping the longest phrase that ends before ``limit``.  The scanner's index
must agree with it on every word sequence and start, and the scanner's
bounded lookup on every ``limit`` as well.
"""

import random

import pytest

from legalc.normalize import fold_for_matching, preprocess, split_trailing
from legalc.scanner import _SPELLINGS, KeywordMatch, Scanner, _build_index, match_keyword_phrase
from legalc.tokens import TokenKind

K = TokenKind


def _reference_tables():
    tables = {1: {}, 2: {}, 3: {}}
    for phrase, kind in _SPELLINGS:
        folded = tuple(fold_for_matching(w) for w in phrase.split(" "))
        tables[len(folded)][folded] = kind
    return tables


_TABLES = _reference_tables()


def reference_match(text, line, word, limit=None):
    if line >= len(text.lines):
        return None
    words = text.lines[line]
    for count in (3, 2, 1):
        end = word + count
        if end > len(words):
            continue
        if limit is not None and (line, end - 1) >= limit:
            continue
        window = words[word:end]
        if any(split_trailing(w)[1] for w in window[:-1]):
            continue
        kind = _TABLES[count].get(tuple(fold_for_matching(w) for w in window))
        if kind is not None:
            return KeywordMatch(kind, count)
    return None


KEYWORD_WORDS = sorted({w for phrase, _ in _SPELLINGS for w in phrase.split(" ")})
FILLER = ["خبر", "عمل", "ما", "على", "الاطلاعات", "وبعده", "يرسمه", "١٢", "،", ".", ":"]
ALEFS = "اأإآٱ"


def variant(rng: random.Random, word: str) -> str:
    """A spelling of ``word`` that differs only in what folding erases."""
    out = []
    for ch in word:
        if ch in ALEFS:
            ch = rng.choice(ALEFS)
        elif ch in "ةه" and rng.random() < 0.5:
            ch = "ةه"[ch == "ة"]
        elif ch in "ىي" and rng.random() < 0.5:
            ch = "ىي"[ch == "ى"]
        out.append(ch)
        if rng.random() < 0.1:
            out.append("ـ")  # tatweel
    return "".join(out)


def random_document(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 3)):
        words = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.75:
                w = variant(rng, rng.choice(KEYWORD_WORDS))
            else:
                w = rng.choice(FILLER)
            if rng.random() < 0.2:
                w += rng.choice("،.:")
            words.append(w)
        lines.append(" ".join(words))
    return "\n".join(lines)


def positions(text):
    """Every (line, word) position, each line's end, and the end of input."""
    out = [(line, word) for line in range(len(text.lines))
           for word in range(len(text.lines[line]) + 1)]
    return out + [(len(text.lines), 0)]


def test_index_agrees_with_reference_tables():
    rng = random.Random(20240515)
    matched = 0
    for _ in range(600):
        text = preprocess(random_document(rng).encode("utf-8"), "random")
        sc = Scanner(text)
        places = positions(text)
        for line, word in places:
            assert match_keyword_phrase(text, line, word) == reference_match(text, line, word), \
                (text.lines, line, word)
            if line == len(text.lines):
                continue   # the scanner never looks up a keyword at the end of input
            for limit in [None, *places]:
                want = reference_match(text, line, word, limit)
                assert sc._match(line, word, limit) == want, (text.lines, line, word, limit)
                matched += want is not None
    assert matched > 5000  # the draw really exercises the keywords


@pytest.mark.parametrize("source,limit,expected", [
    # the three phrases opening with وبعد
    ("وبعد الاطلاع على", None, (K.BINAA, 2)),
    ("وبعد موافقة المجلس", None, (K.BINAA, 2)),
    ("وبعد أن اطلع", None, (K.HAYSOU, 2)),
    ("وبعـد ان", None, (K.HAYSOU, 2)),
    ("وبعد الاطلاع", (0, 1), None),
    ("وبعد، الاطلاع", None, None),
    ("وبعد", None, None),
    ("وبعد شيء", None, None),
    # يرسم/يقرر share ما and differ in the last word
    ("يرسم ما يأتي:", None, (K.YAKOUR, 3)),
    ("يرسم ما يلي", None, (K.YAKOUR, 3)),
    ("يقرر ما يأتى", None, (K.YAKOUR, 3)),
    ("يقرر ما يلى:", None, (K.YAKOUR, 3)),
    ("يقرر ما يلي", (0, 2), None),
    ("يرسم ما، يلي", None, None),
    ("يرسم ما", None, None),
    ("يرسم ما سوى", None, None),
    ("يرسم\nما يلي", None, None),
    # a shorter phrase still matches inside the limit
    ("المادة الأولى", (0, 1), (K.MADA, 1)),
    ("إن الوزير", (0, 0), None),
])
def test_shared_first_words(source, limit, expected):
    text = preprocess(source.encode("utf-8"), "case")
    assert match_keyword_phrase(text, 0, 0) == reference_match(text, 0, 0)
    got = Scanner(text)._match(0, 0, limit)
    assert got == reference_match(text, 0, 0, limit)
    assert (None if got is None else (got.kind, got.word_count)) == expected


def test_phrases_sharing_a_first_word_have_one_length():
    # A bound can only keep a phrase whole or rule it out because no phrase
    # is a proper prefix of another; a table breaking that is refused.
    with pytest.raises(ValueError, match="one length"):
        _build_index((("وبعد", K.BINAA), ("وبعد أن", K.HAYSOU)))
    assert _build_index((("وبعد الاطلاع", K.BINAA), ("وبعد أن", K.HAYSOU)))
