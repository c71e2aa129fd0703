"""Token kinds, source spans and scanner stop sets.

Spans, tokens and stop sets are made in the scanner's inner loop, so they
are plain :class:`typing.NamedTuple` records: immutable, compared and hashed
by value, and cheaper to build than frozen dataclasses.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Word classes recognised by the scanner.

    Keyword kinds carry the Arabic phrase families that introduce each
    document part; COMMA is the Arabic comma '،' that terminates issuer,
    reference and justification phrases.
    """

    TYPE = "TYPE"        # قانون | قرار | مرسوم
    RAQM = "RAQM"        # رقم
    NUM = "NUM"          # pure digit run, ASCII or Arabic-Indic
    STRING = "STRING"    # free text
    INNA = "INNA"        # إن
    BINAA = "BINAA"      # reference openers: بناء على and variants
    HAYSOU = "HAYSOU"    # justification openers: نظرا and variants
    YAKOUR = "YAKOUR"    # acknowledgment: يرسم/يقرر ما يأتي/يلي
    MADA = "MADA"        # مادة | المادة
    FI = "FI"            # في
    IMDAA = "IMDAA"      # إمضاء | الإمضاء
    COMMA = "COMMA"      # ،
    DOT = "DOT"          # .
    COLON = "COLON"      # :
    EOF = "EOF"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality; Enum's own __hash__ is Python code
    # that every ``kind in <set of kinds>`` test would call.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # terse rendering for dumps and messages
        return self.value


# Human-facing rendering of expected kinds in diagnostics.
KIND_DISPLAY: dict[TokenKind, str] = {
    TokenKind.TYPE: "قانون/قرار/مرسوم",
    TokenKind.RAQM: "رقم",
    TokenKind.NUM: "number",
    TokenKind.STRING: "text",
    TokenKind.INNA: "إن",
    TokenKind.BINAA: "بناء على",
    TokenKind.HAYSOU: "نظرا",
    TokenKind.YAKOUR: "يرسم/يقرر ما يأتي",
    TokenKind.MADA: "مادة",
    TokenKind.FI: "في",
    TokenKind.IMDAA: "الإمضاء",
    TokenKind.COMMA: "،",
    TokenKind.DOT: ".",
    TokenKind.COLON: ":",
    TokenKind.EOF: "end of input",
}


class Span(NamedTuple):
    """Word-addressed source range, inclusive on both ends, 0-based."""

    start_line: int
    start_word: int
    end_line: int
    end_word: int

    @classmethod
    def point(cls, line: int, word: int) -> Span:
        return cls(line, word, line, word)

    def __str__(self) -> str:  # 1-based for humans: "3:2-3:4"
        return f"{self.start_line + 1}:{self.start_word + 1}-{self.end_line + 1}:{self.end_word + 1}"


class Token(NamedTuple):
    """One scanned token.  ``lexeme`` keeps original spelling; it is empty
    only for EOF.  ``detached`` marks punctuation split off a host word (as
    opposed to punctuation that was a word of its own)."""

    kind: TokenKind
    lexeme: str
    span: Span
    detached: bool = False


_PUNCTUATION = {"،": TokenKind.COMMA, ".": TokenKind.DOT, ":": TokenKind.COLON}


def punctuation_kind(char: str) -> TokenKind | None:
    return _PUNCTUATION.get(char)


class StopSet(NamedTuple):
    """What the parser expects next; drives scanning decisions.

    ``kinds`` are the token kinds that may terminate or preempt free-text
    accumulation.  ``line_break_stops`` additionally ends accumulation at a
    line boundary whose next line opens with an expected keyword.
    ``stop_before`` is a hard (line, word) bound the scan may not cross; the
    parser uses it to scope line- and region-local scans.
    """

    kinds: frozenset[TokenKind] = frozenset()
    line_break_stops: bool = False
    stop_before: tuple[int, int] | None = None

    @classmethod
    def of(cls, *kinds: TokenKind, line_break_stops: bool = False,
           stop_before: tuple[int, int] | None = None) -> StopSet:
        """The stop set for ``kinds``; STRING is never a stop kind."""
        if TokenKind.STRING in kinds:
            raise ValueError("STRING cannot be an expected stop kind")
        return cls(frozenset(kinds), line_break_stops, stop_before)
