"""Input preprocessing for Arabic legal documents.

Raw document bytes are decoded, line endings and whitespace are
canonicalised, and the text is segmented into lines of words, each word a
plain string.  All later stages (scanning, parsing, XML generation) operate
on the resulting :class:`NormalizedText` and never touch raw bytes again.

Two character-level helpers live here as well because both the scanner and
the XML generator need them:

* :func:`fold_for_matching` maps a word to the orthographic form used for
  keyword comparison (hamza seats, taa marbuta, dotless yaa, tatweel,
  diacritics and invisible format controls).
  Folding is only ever applied to *matching*; emitted text always keeps the
  original spelling.
* :func:`to_western_digits` maps Arabic-Indic digits to ASCII digits.  It is
  applied only where the output schema requires western numerals.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from typing import NamedTuple

# The invisible format controls: ZWNJ, ZWJ, LRM, RLM, ALM, and the bidi
# embeddings, overrides and isolates.  Folding drops them, and a delimiter
# followed only by them still trails its word.
_FORMAT_CONTROLS = "".join(map(chr, [*range(0x200C, 0x2010), 0x061C, *range(0x202A, 0x202F),
                                     *range(0x2066, 0x206A)]))

# Orthographic folding for keyword matching.  Alef variants collapse to bare
# alef, taa marbuta to haa, alef maqsura to yaa.  The tatweel, the Arabic
# diacritics (U+064B-U+065F, U+0670) and the format controls are dropped.
_FOLD_TABLE = str.maketrans(
    {
        "أ": "ا",  # أ -> ا
        "إ": "ا",  # إ -> ا
        "آ": "ا",  # آ -> ا
        "ٱ": "ا",  # ٱ -> ا
        "ة": "ه",  # ة -> ه
        "ى": "ي",  # ى -> ي
        "ـ": None,      # ـ (tatweel) removed
        **dict.fromkeys(map(chr, [*range(0x064B, 0x0660), 0x0670])),
        **dict.fromkeys(_FORMAT_CONTROLS),
    }
)

_DIGIT_TABLE = str.maketrans("٠١٢٣٤٥٦٧٨٩", "0123456789")

_DIGITS = "0123456789٠١٢٣٤٥٦٧٨٩"
# Not \d, which also takes the extended Arabic-Indic digits U+06F0-U+06F9.
_SEARCH_DIGIT = re.compile(f"[{_DIGITS}]").search

# The Unicode space separators (category Zs) other than the ASCII space:
# no-break, ogham, en/em and the other typographic spaces, narrow no-break,
# medium mathematical and ideographic.  They separate words like a space.
_OTHER_SPACES = re.compile("[\u00a0\u1680\u2000-\u200a\u202f\u205f\u3000]")
# Their UTF-8 lead bytes.  Arabic letters and digits and ASCII have none of
# them, so a byte search (memchr) passes most documents over, where the
# regex would scan every character of a long line.
_OTHER_SPACE_LEADS = (b"\xc2", b"\xe1", b"\xe2", b"\xe3")

# Delimiters that may trail a word and still let it match a keyword.  The
# Arabic comma terminates issuer/reference/justification phrases; '.' and ':'
# close clauses and headers.
TRAILING_PUNCTUATION = ("،", ".", ":")  # ، . :

# What XML 1.0 forbids that valid UTF-8 can carry: the C0 controls but tab,
# LF and CR (one byte each), U+FFFE and U+FFFF.  Every input is checked in C;
# the regex only locates the first one in an input known to hold one.
_C0_ILLEGAL = bytes([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20)])
_XML_ILLEGAL = b"[" + re.escape(_C0_ILLEGAL) + b"]|\xef\xbf[\xbe\xbf]"


class DecodeError(ValueError):
    """Input is not valid UTF-8, or holds a character that XML 1.0 forbids.
    ``byte_offset`` points at the bad byte or character."""

    def __init__(self, byte_offset: int, reason: str, problem: str = "invalid UTF-8"):
        super().__init__(f"{problem} at byte {byte_offset}: {reason}")
        self.byte_offset = byte_offset
        self.reason = reason


class NormalizedText(NamedTuple):
    """Canonical form of one input document.

    ``lines`` holds the non-blank lines in order, each a tuple of its words.
    A word never contains a space (of any Unicode Zs kind) or tab, so a
    line's canonical text is its words joined by single spaces.  Spans
    index ``lines``; ``line_numbers`` holds each one's 1-based line number
    in the source, where blank lines count.
    """

    lines: tuple[tuple[str, ...], ...]
    source_name: str = "<input>"
    line_numbers: tuple[int, ...] = ()


def preprocess(data: bytes, source_name: str = "<input>") -> NormalizedText:
    """Decode, normalise and segment one raw document.

    Steps, in order: UTF-8 decode (a leading BOM is tolerated and dropped),
    CR/LF and CR to LF, Unicode NFC, every other Unicode space (category
    Zs) to a plain space, line split, space/tab runs collapse, blank lines
    drop.  Raises :class:`DecodeError` on bad UTF-8 and on a character that
    XML 1.0 forbids.
    """
    try:
        # Not "utf-8-sig", which counts error offsets from after the BOM.
        decoded = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DecodeError(exc.start, exc.reason) from None
    # The two noncharacters are found faster in the text than in the bytes.
    if (len(data.translate(None, _C0_ILLEGAL)) != len(data)
            or "\ufffe" in decoded or "\uffff" in decoded):
        bad = re.search(_XML_ILLEGAL, data)
        raise DecodeError(bad.start(), f"U+{ord(bad[0].decode()):04X} is not allowed in XML",
                          "illegal character")
    decoded = decoded.replace("\r\n", "\n").replace("\r", "\n")
    decoded = unicodedata.normalize("NFC", decoded)
    if any(lead in data for lead in _OTHER_SPACE_LEADS):
        decoded = _OTHER_SPACES.sub(" ", decoded)

    # Only spaces (the other Zs spaces are plain spaces by now) and tabs
    # separate words; other whitespace-like characters are content and
    # survive inside words.  An empty string comes only from a separator at
    # a line's end or in a run, so only a line with one is filtered, and a
    # line left with no words drops.
    decoded = decoded.replace("\t", " ")
    lines: list[tuple[str, ...]] = []
    numbers: list[int] = []
    for number, raw_line in enumerate(decoded.split("\n"), 1):
        words = raw_line.split(" ")
        if "" in words:
            words = [*filter(None, words)]
            if not words:
                continue
        lines.append(tuple(words))
        numbers.append(number)
    return NormalizedText(tuple(lines), source_name, tuple(numbers))


@functools.lru_cache(maxsize=1024)
def fold_for_matching(word: str) -> str:
    """The folded body of one word, for keyword comparison.

    A trailing delimiter is dropped first, as :func:`split_trailing` detaches
    it (a lone delimiter word stays whole).  Callers that need the delimiter
    call :func:`split_trailing` themselves.

    The function is pure, so its results are cached: a document repeats its
    words, and the scanner folds the same word at a line head and in mid-line
    probes.  The cache is bounded: each entry keeps its word and folded form
    alive until evicted, so at most 1,024 are held.
    """
    return split_trailing(word)[0].translate(_FOLD_TABLE)


def split_trailing(word: str) -> tuple[str, str]:
    """(body, trailing) with one trailing '،', '.' or ':' detached.

    Format controls after the delimiter do not hide it: ``trailing`` is the
    delimiter plus those controls.  The delimiter stays on a word with no
    other body, so a lone delimiter word is never split into an empty body.
    """
    cut = len(word.rstrip(_FORMAT_CONTROLS)) - 1
    if cut > 0 and word[cut] in TRAILING_PUNCTUATION:
        return word[:cut], word[cut:]
    return word, ""


def to_western_digits(text: str) -> str:
    """Map Arabic-Indic digits ٠–٩ to ASCII 0–9; all other characters pass through."""
    return text.translate(_DIGIT_TABLE)


def is_digit_run(word: str) -> bool:
    """True when the word is one or more digit characters (either script)."""
    return bool(word) and not word.strip(_DIGITS)


def has_digit(word: str) -> bool:
    """True when the word contains at least one digit character (either script)."""
    return _SEARCH_DIGIT(word) is not None
