"""Input preprocessing for Arabic legal documents.

Raw document bytes are decoded, line endings and whitespace are
canonicalised, and the text is segmented into lines and words.  All later
stages (scanning, parsing, XML generation) operate on the resulting
:class:`NormalizedText` and never touch raw bytes again.

Two character-level helpers live here as well because both the scanner and
the XML generator need them:

* :func:`fold_for_matching` maps a word to the orthographic form used for
  keyword comparison (hamza seats, taa marbuta, dotless yaa, tatweel).
  Folding is only ever applied to *matching*; emitted text always keeps the
  original spelling.
* :func:`to_western_digits` maps Arabic-Indic digits to ASCII digits.  It is
  applied only where the output schema requires western numerals.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

# Orthographic folding for keyword matching.  Alef variants collapse to bare
# alef, taa marbuta to haa, alef maqsura to yaa; the tatweel stretching mark
# is dropped entirely.
_FOLD_TABLE = str.maketrans(
    {
        "أ": "ا",  # أ -> ا
        "إ": "ا",  # إ -> ا
        "آ": "ا",  # آ -> ا
        "ٱ": "ا",  # ٱ -> ا
        "ة": "ه",  # ة -> ه
        "ى": "ي",  # ى -> ي
        "ـ": None,      # ـ (tatweel) removed
    }
)

_DIGIT_TABLE = str.maketrans("٠١٢٣٤٥٦٧٨٩", "0123456789")

_DIGITS = frozenset("0123456789٠١٢٣٤٥٦٧٨٩")

# Delimiters that may trail a word and still let it match a keyword.  The
# Arabic comma terminates issuer/reference/justification phrases; '.' and ':'
# close clauses and headers.
TRAILING_PUNCTUATION = ("،", ".", ":")  # ، . :


class DecodeError(ValueError):
    """Input is not valid UTF-8.  ``byte_offset`` points at the bad byte."""

    def __init__(self, byte_offset: int, reason: str):
        super().__init__(f"invalid UTF-8 at byte {byte_offset}: {reason}")
        self.byte_offset = byte_offset
        self.reason = reason


@dataclass(frozen=True)
class Word:
    """One whitespace-delimited word with its offsets into the rebuilt text."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class NormalizedText:
    """Canonical form of one input document.

    ``text`` holds the whole document with words separated by single spaces
    and lines by single newlines; ``lines`` holds the same content segmented,
    with each word carrying offsets such that ``text[w.start:w.end] == w.text``.
    """

    text: str
    lines: tuple[tuple[Word, ...], ...]
    source_name: str = "<input>"

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def words(self, line: int) -> tuple[Word, ...]:
        return self.lines[line]

    def word(self, line: int, index: int) -> Word:
        return self.lines[line][index]

    def line_text(self, line: int) -> str:
        return " ".join(w.text for w in self.lines[line])


def preprocess(data: bytes, source_name: str = "<input>") -> NormalizedText:
    """Decode, normalise and segment one raw document.

    Steps, in order: UTF-8 decode (a leading BOM is tolerated and dropped),
    CR/LF and CR to LF, Unicode NFC, line split, space/tab runs collapse,
    blank lines drop.  Raises :class:`DecodeError` on bad UTF-8.
    """
    try:
        decoded = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DecodeError(exc.start, exc.reason) from None
    decoded = decoded.replace("\r\n", "\n").replace("\r", "\n")
    decoded = unicodedata.normalize("NFC", decoded)

    lines: list[tuple[Word, ...]] = []
    parts: list[str] = []
    offset = 0
    for raw_line in decoded.split("\n"):
        words = [w for w in _split_words(raw_line) if w]
        if not words:
            continue
        if parts:
            offset += 1  # newline between lines
        rebuilt: list[Word] = []
        for i, w in enumerate(words):
            if i:
                offset += 1  # single space between words
            rebuilt.append(Word(w, offset, offset + len(w)))
            offset += len(w)
        parts.append(" ".join(words))
        lines.append(tuple(rebuilt))
    return NormalizedText(text="\n".join(parts), lines=tuple(lines), source_name=source_name)


def _split_words(line: str) -> list[str]:
    # Only spaces and tabs separate words; other whitespace-like characters
    # are content and survive inside words.
    return line.replace("\t", " ").split(" ")


@dataclass(frozen=True)
class FoldedWord:
    """A word prepared for keyword matching.

    ``matchable`` is the folded body used for table lookups, ``trailing`` the
    detached final delimiter ('،', '.', ':' or empty), ``original`` the exact
    input spelling.
    """

    matchable: str
    trailing: str = ""
    original: str = field(default="", compare=False)

    @property
    def body(self) -> str:
        """Original spelling minus the detached trailing delimiter."""
        return self.original[: len(self.original) - len(self.trailing)]


def fold_for_matching(word: str) -> FoldedWord:
    """Fold one word for keyword comparison.

    A single trailing '،', '.' or ':' is detached (never leaving the body
    empty, so a lone delimiter word stays whole).  Folding the folded form
    again is a no-op.
    """
    body, trailing = split_trailing(word)
    return FoldedWord(body.translate(_FOLD_TABLE), trailing, word)


def split_trailing(word: str) -> tuple[str, str]:
    """(body, trailing) with one trailing '،', '.' or ':' detached.

    The delimiter stays on a one-character word, so a lone delimiter word is
    never split into an empty body.
    """
    if len(word) > 1 and word[-1] in TRAILING_PUNCTUATION:
        return word[:-1], word[-1]
    return word, ""


def to_western_digits(text: str) -> str:
    """Map Arabic-Indic digits ٠–٩ to ASCII 0–9; all other characters pass through."""
    return text.translate(_DIGIT_TABLE)


def is_digit_run(word: str) -> bool:
    """True when the word is one or more digit characters (either script)."""
    return bool(word) and all(ch in _DIGITS for ch in word)


def has_digit(word: str) -> bool:
    """True when the word contains at least one digit character (either script)."""
    return any(ch in _DIGITS for ch in word)
