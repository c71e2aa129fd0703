"""Expectation-driven tokenizer.

The scanner has no fixed token boundaries of its own: the parser tells it,
via a :class:`~legalc.tokens.StopSet`, which kinds may come next, and free
text (STRING) accumulates until an expected keyword, a phrase delimiter or a
scope bound ends it.  Matching uses folded spellings so that e.g. الامضاء
matches the الإمضاء keyword; emitted lexemes always keep the original text.

Keyword phrases (at most three words) live in one index keyed by their
folded first word, each entry listing that word's phrases longest first: a
cut-down Aho & Corasick trie (CACM 1975).  A probe folds the word under the
cursor once and, for the great majority of words, stops at a missed lookup;
later words are folded only while a candidate phrase still matches.

STRING accumulation walks one line's word tuple at a time.  The scope bound
becomes a word limit once per line; each word is tested for a stopping
delimiter by its last character alone, and probed for a keyword only when
the stop set expects one (never at a line start unless the stop set asks
for line-break stops).  The cursor is written back once, when the token is
done.

Every line's head, the keyword phrase that opens it, is matched once per
document into ``Scanner.heads``; a probe at a line's first word reads that
entry instead of matching again, like the one layout pass Landin's off-side
rule (CACM 1966) and Python's INDENT/DEDENT tokenizer make per line.  The
entry holds the unlimited match, so under a ``limit`` it is exact in two of
three cases: a cached None stays None, and a match whose last word lies
before the limit is still the longest one.  A match the limit cuts is
matched again under that limit, since a shorter phrase may still fit.

Delimiters detached from a host word ('الجمهورية،' ends an issuer phrase) are
queued as their own COMMA/DOT/COLON tokens and emitted before the cursor
moves on.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .normalize import NormalizedText, fold_for_matching, is_digit_run, split_trailing
from .tokens import Span, StopSet, Token, TokenKind, punctuation_kind


class ScanError(Exception):
    """Raised when a scan request cannot yield a token (empty region)."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.span = span


_SPELLINGS: tuple[tuple[str, TokenKind], ...] = (
    ("قانون", TokenKind.TYPE),
    ("قرار", TokenKind.TYPE),
    ("مرسوم", TokenKind.TYPE),
    ("رقم", TokenKind.RAQM),
    ("إن", TokenKind.INNA),
    ("ونظرا", TokenKind.BINAA),
    ("وبعد الاطلاع", TokenKind.BINAA),
    ("وبعد موافقة", TokenKind.BINAA),
    ("وبناء على", TokenKind.BINAA),
    ("بناء على", TokenKind.BINAA),
    ("نظرا", TokenKind.HAYSOU),
    ("وبعد أن", TokenKind.HAYSOU),
    ("وبما أن", TokenKind.HAYSOU),
    ("وحيث أن", TokenKind.HAYSOU),
    ("يرسم ما يأتي", TokenKind.YAKOUR),
    ("يرسم ما يلي", TokenKind.YAKOUR),
    ("يقرر ما يأتي", TokenKind.YAKOUR),
    ("يقرر ما يلي", TokenKind.YAKOUR),
    ("مادة", TokenKind.MADA),
    ("المادة", TokenKind.MADA),
    ("في", TokenKind.FI),
    ("إمضاء", TokenKind.IMDAA),
    ("الإمضاء", TokenKind.IMDAA),
)

# A candidate is the folded words after the first, plus the phrase's kind.
_Candidate = tuple[tuple[str, ...], TokenKind]


def _build_index() -> dict[str, tuple[_Candidate, ...]]:
    index: dict[str, list[_Candidate]] = {}
    for phrase, kind in _SPELLINGS:
        first, *rest = (fold_for_matching(w) for w in phrase.split(" "))
        index.setdefault(first, []).append((tuple(rest), kind))
    return {first: tuple(sorted(cands, key=lambda c: -len(c[0])))
            for first, cands in index.items()}


# Folded first word -> its phrases, longest first.
_KEYWORDS = _build_index()

# A stop set without any of these cannot use a keyword match, so the scanner
# does not probe for one.
_KEYWORD_KINDS = frozenset(kind for _, kind in _SPELLINGS)


class KeywordMatch(NamedTuple):
    kind: TokenKind
    word_count: int


def match_keyword_phrase(text: NormalizedText, line: int, word: int,
                         limit: tuple[int, int] | None = None) -> KeywordMatch | None:
    """Longest keyword phrase starting at (line, word), or None.

    Phrases never span lines; words before the last must carry no trailing
    delimiter.  ``limit`` is an exclusive (line, word) bound on every word of
    the phrase, so a shorter phrase may still match inside it.
    """
    if line >= text.line_count:
        return None
    words = text.words(line)
    if word >= len(words):
        return None
    folded = [fold_for_matching(words[word])]
    candidates = _KEYWORDS.get(folded[0])
    if candidates is None:
        return None
    for rest, kind in candidates:
        end = word + len(rest) + 1
        if end > len(words) or (limit is not None and (line, end - 1) >= limit):
            continue
        for i, want in enumerate(rest, 1):
            if split_trailing(words[word + i - 1])[1]:
                break
            if i == len(folded):
                folded.append(fold_for_matching(words[word + i]))
            if folded[i] != want:
                break
        else:
            return KeywordMatch(kind, len(rest) + 1)
    return None


def line_heads(text: NormalizedText) -> list[KeywordMatch | None]:
    """The keyword phrase opening each line, matched with no limit."""
    return [match_keyword_phrase(text, line, 0) for line in range(text.line_count)]


class Scanner:
    """Stateful tokenizer over one :class:`NormalizedText`.

    The cursor only moves forward, and queued delimiter punctuation is always
    emitted before the next word is consumed.
    """

    def __init__(self, text: NormalizedText):
        self.text = text
        self.line = 0
        self.word = 0
        self._pending: deque[Token] = deque()
        self.heads = line_heads(text)

    # -- cursor helpers -------------------------------------------------

    @property
    def position(self) -> tuple[int, int]:
        return (self.line, self.word)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def at_end(self) -> bool:
        return self.line >= len(self.text.lines)

    def _at_bound(self, stop_before: tuple[int, int] | None) -> bool:
        return stop_before is not None and (self.line, self.word) >= stop_before

    def _advance(self) -> None:
        if self.word + 1 < len(self.text.words(self.line)):
            self.word += 1
        else:
            self.line += 1
            self.word = 0

    def _eof_span(self) -> Span:
        if self.text.line_count == 0:
            return Span.point(0, 0)
        last = self.text.line_count - 1
        return Span.point(last, len(self.text.words(last)))

    def _match(self, line: int, word: int, limit: tuple[int, int] | None) -> KeywordMatch | None:
        """``match_keyword_phrase`` at a word of the text, read from
        :attr:`heads` at a line start unless ``limit`` cuts the cached match."""
        if word:
            return match_keyword_phrase(self.text, line, word, limit)
        head = self.heads[line]
        if head is None or limit is None or (line, head.word_count - 1) < limit:
            return head
        return match_keyword_phrase(self.text, line, 0, limit)

    def peek_keyword(self, limit: tuple[int, int] | None = None) -> KeywordMatch | None:
        """Non-consuming keyword match at the cursor, regardless of kind."""
        if self.at_end() or self._at_bound(limit):
            return None
        return self._match(self.line, self.word, limit)

    # -- tokenization ---------------------------------------------------

    def next_token(self, expect: StopSet) -> Token:
        """Produce the next token under the given expectations.

        Pending detached punctuation is emitted first.  Then, in order: a
        keyword phrase whose kind is expected; a NUM when expected and the
        word is a digit run; otherwise STRING accumulation.  Raises
        :class:`ScanError` when asked for a token in an exhausted scope.
        """
        if self._pending:
            return self._pending.popleft()

        if self.at_end():
            return Token(TokenKind.EOF, "", self._eof_span())
        if self._at_bound(expect.stop_before):
            raise ScanError("no input left in this scan region", Span.point(self.line, self.word))

        if not expect.kinds.isdisjoint(_KEYWORD_KINDS):
            match = self._match(self.line, self.word, expect.stop_before)
            if match is not None and match.kind in expect.kinds:
                return self._take_keyword(match)

        if TokenKind.NUM in expect.kinds:
            original = self.text.word(self.line, self.word)
            if is_digit_run(fold_for_matching(original)):
                return self._take_number(original)

        return self._take_string(expect)

    def _queue_trailing(self, trailing: str, line: int, word: int) -> None:
        kind = punctuation_kind(trailing)
        if kind is None:
            return
        self._pending.append(Token(kind, trailing, Span.point(line, word), detached=True))

    def _take_keyword(self, match: KeywordMatch) -> Token:
        start = self.position
        pieces: list[str] = []
        for i in range(match.word_count):
            original = self.text.word(self.line, self.word)
            if i == match.word_count - 1:
                body, trailing = split_trailing(original)
                pieces.append(body)
                if trailing:
                    self._queue_trailing(trailing, self.line, self.word)
            else:
                pieces.append(original)
            end = self.position
            self._advance()
        return Token(match.kind, " ".join(pieces), Span(*start, *end))

    def _take_number(self, original: str) -> Token:
        span = Span.point(self.line, self.word)
        body, trailing = split_trailing(original)
        if trailing:
            self._queue_trailing(trailing, self.line, self.word)
        self._advance()
        return Token(TokenKind.NUM, body, span)

    def _take_string(self, expect: StopSet) -> Token:
        lines = self.text.lines
        start = (self.line, self.word)
        line, word = start
        kinds = expect.kinds
        stop_before = expect.stop_before
        probe = not kinds.isdisjoint(_KEYWORD_KINDS)
        line_break_stops = expect.line_break_stops
        # A ',' always ends the text, a ':' when expected, and a '.' only on
        # a line's last word.
        mid_line = "،:" if TokenKind.COLON in kinds else "،"
        line_end = mid_line + "."
        pieces: list[str] = []
        end_line = end_word = 0
        delimiter: Token | None = None
        while line < len(lines):
            words = lines[line]
            if stop_before is None or line < stop_before[0]:
                limit = len(words)
            elif line == stop_before[0]:
                limit = min(stop_before[1], len(words))
            else:
                break
            last = len(words) - 1
            while word < limit:
                # Mid-line keywords always end accumulation; line-initial
                # keywords only do when the stop set asks for line-break stops.
                if probe and pieces and (word or line_break_stops):
                    match = self._match(line, word, stop_before)
                    if match is not None and match.kind in kinds:
                        break
                original = words[word]
                if original[-1] in (line_end if word == last else mid_line):
                    kind = punctuation_kind(original[-1])
                    if len(original) == 1:
                        delimiter = Token(kind, original, Span(line, word, line, word))
                    else:
                        pieces.append(original[:-1])
                        end_line, end_word = line, word
                        delimiter = Token(kind, original[-1], Span(line, word, line, word), True)
                    word += 1
                    break
                pieces.append(original)
                end_line, end_word = line, word
                word += 1
            else:
                if word < len(words):   # the scope bound ends this line
                    break
                line += 1
                word = 0
                continue
            break   # a keyword or a delimiter ended the text
        if line < len(lines) and word == len(lines[line]):   # the delimiter ended its line
            line += 1
            word = 0
        self.line, self.word = line, word
        if delimiter is not None:
            if not pieces:
                # The very first word was standalone punctuation that stopped
                # accumulation; hand it out directly instead of an empty STRING.
                return delimiter
            self._pending.append(delimiter)
        if not pieces:
            raise ScanError("expected text, found none", Span.point(*start))
        return Token(TokenKind.STRING, " ".join(pieces), Span(*start, end_line, end_word))


def reconstruct_words(tokens: list[Token]) -> list[str]:
    """Rebuild the source word sequence from a completed scan.

    Detached punctuation reattaches to its host word; standalone punctuation
    becomes its own word again.  Used to verify that scanning loses nothing.
    """
    words: list[str] = []
    for tok in tokens:
        if tok.kind is TokenKind.EOF:
            continue
        if tok.kind in (TokenKind.COMMA, TokenKind.DOT, TokenKind.COLON) and tok.detached:
            words[-1] += tok.lexeme
            continue
        words.extend(p for p in tok.lexeme.split(" ") if p)
    return words


def dump_tokens(tokens: list[Token]) -> str:
    """One token per line: KIND<TAB>span<TAB>lexeme."""
    return "\n".join(f"{tok.kind}\t{tok.span}\t{tok.lexeme}" for tok in tokens)
