"""Expectation-driven tokenizer.

The scanner has no fixed token boundaries of its own: the parser tells it,
with each :meth:`Scanner.take`, which kinds may come next.  An expected
keyword is matched only at the cursor; free text (STRING) ends only at a
'،', a line-final '.', an expected ':' or the caller's scope bound, so a
keyword written inside it is text.  Matching uses folded spellings so that
e.g. الامضاء matches the الإمضاء keyword; emitted lexemes always keep the
original text.

Keyword phrases (at most three words) live in one index keyed by their
folded first word: a cut-down Aho & Corasick trie (CACM 1975).  A probe
folds the word under the cursor once and, for the great majority of words,
stops at a missed lookup; a hit on a one-word phrase is the match at once.
All phrases that share a first word have the same length, so no phrase is a
proper prefix of another, and a scope bound can only keep a phrase whole or
rule it out: the bound is one comparison on the matched phrase's last word.

The scanner forms every token and moves the cursor.  :meth:`Scanner.take` is
the one expectation-driven entry; :meth:`Scanner.region` forms an article's
content region.  What a kinds set decides is worked out once, on its first
use, in the module dict ``_FACTS``.

STRING accumulation walks one line's word tuple at a time.  The scope bound
becomes a word limit once per line.  A word's last character is tested
against the line-final stop string, which holds every character that can
stop the text; only on a hit is the word checked, past any trailing format
controls, against the string for its place (mid-line or line-final).  The
words a line gives the text are taken with one slice, and the cursor is
written back once, when the token is done.

Every line's head, the keyword phrase that opens it, is read once per
document into ``Scanner.heads``; a probe at a line's first word reads that
entry instead of matching again, like the one layout pass Landin's off-side
rule (CACM 1966) and Python's INDENT/DEDENT tokenizer make per line.  The
pass folds every line's first word and looks it up among the one-word
phrases in C; only a line whose first word opens a longer phrase is probed.

A delimiter split off a host word ('الجمهورية،' ends an issuer phrase) is held
as its own token on that word and emitted before the cursor moves on.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .normalize import (_DIGITS, _FOLD_TABLE, _FORMAT_CONTROLS, NormalizedText, fold_for_matching,
                        split_trailing)
from .tokens import _PUNCTUATION, Span, Token, TokenKind, _tuple_new


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


class KeywordMatch(NamedTuple):
    kind: TokenKind
    word_count: int


# Folded first word -> (the word count of its phrases, their folded later
# words -> match).
_Index = dict[str, tuple[int, dict[tuple[str, ...], KeywordMatch]]]


def _build_index(spellings: tuple[tuple[str, TokenKind], ...]) -> _Index:
    index: _Index = {}
    for phrase, kind in spellings:
        first, *rest = (fold_for_matching(w) for w in phrase.split(" "))
        count, phrases = index.setdefault(first, (len(rest) + 1, {}))
        if count != len(rest) + 1:
            raise ValueError(f"keyword phrases opening with {first!r} differ in length; a "
                             "scope bound must keep a phrase whole or rule it out, so each "
                             "first word needs one length")
        phrases[tuple(rest)] = KeywordMatch(kind, count)
    return index


_KEYWORDS = _build_index(_SPELLINGS)

# Line heads without a probe: a folded first word that is a whole phrase is
# its line's head, and only one that opens a longer phrase needs the probe.
_ONE_WORD_HEADS = {first: phrases[()] for first, (n, phrases) in _KEYWORDS.items() if n == 1}
_OPENS_PHRASE = frozenset(first for first, (n, _) in _KEYWORDS.items() if n > 1)

# A kinds set without any of these cannot use a keyword match, so the scanner
# does not probe for one.
_KEYWORD_KINDS = frozenset(kind for _, kind in _SPELLINGS)


# Characters that end STRING accumulation when a word ends in them, keyed by
# whether ':' is expected: (mid-line, line-final).  A ',' always ends the
# text, a ':' when expected, and a '.' only on a line's last word; the format
# controls let the test see a delimiter that they follow.
_STOP_CHARS = {colon: (mid, mid + ".") for colon, mid in (
    (False, "،" + _FORMAT_CONTROLS), (True, "،:" + _FORMAT_CONTROLS))}

# The last characters of a word that may carry a trailing delimiter.
_CAN_TRAIL = _STOP_CHARS[True][1]


class _StopFacts(dict):
    """Expected kinds -> what they decide for a take: (match a keyword at the
    cursor, take a NUM, the stop strings).  Of the kinds, only COLON has a
    say in where free text ends: a '،', a line-final '.' and the bound end
    it whatever the kinds.  Each kinds set is worked out on first use, and a
    document's scan meets only a handful of them.  A set holding STRING is
    refused before anything is cached, so it raises at every use."""

    def __missing__(self, kinds: frozenset[TokenKind]) -> tuple[bool, bool, tuple[str, str]]:
        if _STRING in kinds:
            raise ValueError("STRING cannot be an expected stop kind")
        facts = self[kinds] = (not kinds.isdisjoint(_KEYWORD_KINDS), TokenKind.NUM in kinds,
                               _STOP_CHARS[TokenKind.COLON in kinds])
        return facts


_FACTS = _StopFacts()

# Kinds read once per token, bound once: in Python 3.11 the enum metaclass's
# ``__getattr__`` keeps a read such as ``TokenKind.STRING`` off the fast
# class-attribute path, and it costs ~10 times a module global's.
_NUM, _STRING = TokenKind.NUM, TokenKind.STRING


def match_keyword_phrase(text: NormalizedText, line: int, word: int) -> KeywordMatch | None:
    """The keyword phrase starting at (line, word), or None.

    Phrases never span lines; words before the last must carry no trailing
    delimiter.
    """
    lines = text.lines
    if line >= len(lines):
        return None
    words = lines[line]
    if word >= len(words):
        return None
    entry = _KEYWORDS.get(fold_for_matching(words[word]))
    if entry is None:
        return None
    count, phrases = entry
    if count == 1:
        return phrases[()]
    end = word + count
    if end > len(words):
        return None
    for w in words[word:end - 1]:
        if w[-1] in _CAN_TRAIL and split_trailing(w)[1]:
            return None
    return phrases.get(tuple(map(fold_for_matching, words[word + 1:end])))


class Scanner:
    """Stateful tokenizer over one :class:`NormalizedText`.

    The cursor only moves forward.  At most one delimiter is ever
    :attr:`pending` (else None), and the next take returns it first.
    """

    def __init__(self, text: NormalizedText):
        self.text = text
        self.line = 0
        self.word = 0
        self.pending: Token | None = None
        # Each line's head, what ``match_keyword_phrase(text, line, 0)`` gives.
        # Folding and the one-word lookup run in C; a line whose first word
        # opens a longer phrase is probed through the module global that
        # counters patch.
        folded = [*map(fold_for_matching, map(itemgetter(0), text.lines))]
        self.heads = heads = [*map(_ONE_WORD_HEADS.get, folded)]
        for line in compress(range(len(folded)), map(_OPENS_PHRASE.__contains__, folded)):
            heads[line] = match_keyword_phrase(text, line, 0)

    # -- cursor helpers -------------------------------------------------

    def at_end(self) -> bool:
        return self.line >= len(self.text.lines)

    def _eof_span(self) -> Span:
        lines = self.text.lines
        return Span.point(len(lines) - 1, len(lines[-1])) if lines else Span.point(0, 0)

    def _match(self, line: int, word: int, limit: tuple[int, int] | None) -> KeywordMatch | None:
        """The keyword phrase at a word of the text (read from :attr:`heads` at
        a line start) whose words all lie before ``limit``."""
        match = match_keyword_phrase(self.text, line, word) if word else self.heads[line]
        if match is None or (limit is not None and (line, word + match.word_count - 1) >= limit):
            return None
        return match

    def at(self, kind: TokenKind) -> bool:
        """True when a keyword phrase of ``kind`` is at the cursor; False at
        the end of input and while a delimiter is pending."""
        if self.pending is not None or self.line >= len(self.text.lines):
            return False
        match = self._match(self.line, self.word, None)
        return match is not None and match.kind is kind

    # -- tokenization ---------------------------------------------------

    def take(self, kinds: frozenset[TokenKind],
             stop_before: tuple[int, int] | None = None) -> Token:
        """The next token expecting ``kinds``, scanned no further than the
        (line, word) bound ``stop_before``.

        A pending delimiter comes first.  Then, in order: an expected keyword
        phrase at the cursor; a digit run when NUM is expected; otherwise
        STRING, which only a '،', a line-final '.', a ':' when COLON is
        expected, or ``stop_before`` ends; a keyword past the cursor is text.
        Only the keyword kinds, NUM and COLON in ``kinds`` matter.  At the end
        of the input the token is EOF.  Raises :class:`ValueError` when the
        cursor is at or past ``stop_before``, or when a word is to be read and
        ``kinds`` holds STRING.
        """
        pending = self.pending
        if pending is not None:
            self.pending = None
            return pending

        line, word = self.line, self.word
        lines = self.text.lines
        if line >= len(lines):
            return Token(TokenKind.EOF, "", self._eof_span())
        if stop_before is not None and (line, word) >= stop_before:
            raise ValueError(f"no input left before {stop_before}: the cursor is at {line, word}")

        words = lines[line]
        probe, take_num, stops = _FACTS[kinds]
        if (probe and (match := self._match(line, word, stop_before)) is not None
                and match.kind in kinds):
            kind, last = match.kind, word + match.word_count - 1
            body = words[last]
            body, trailing = split_trailing(body) if body[-1] in _CAN_TRAIL else (body, "")
        # A NUM is a word whose body, from the one split that also gives its
        # trailing delimiter, is a digit run once folded: is_folded_digit_run
        # in line, so the path calls nothing past the split.  Digits never
        # fold, so the body as written is tested first, and only a body that
        # is not already a digit run is folded.
        elif take_num and (not (body := (split := split_trailing(words[word]))[0]).strip(_DIGITS)
                           or ((folded := body.translate(_FOLD_TABLE))
                               and not folded.strip(_DIGITS))):
            kind, last = _NUM, word
            body, trailing = split
        else:
            return self._take_string(stop_before, stops)

        # A keyword or NUM token of the words up to ``last``, holding the
        # last word's trailing delimiter as pending.
        if trailing:
            self.pending = _tuple_new(Token, (_PUNCTUATION[trailing[0]], trailing,
                                               _tuple_new(Span, (line, last, line, last))))
        self.line, self.word = (line, last + 1) if last + 1 < len(words) else (line + 1, 0)
        lexeme = body if last == word else " ".join((*words[word:last], body))
        return _tuple_new(Token, (kind, lexeme, _tuple_new(Span, (line, word, line, last))))

    def _take_string(self, stop_before: tuple[int, int] | None, stops: tuple[str, str]) -> Token:
        """Free text from the cursor: whole lines' words are taken by slice,
        up to a stopping delimiter or the scope bound, whichever comes first."""
        lines = self.text.lines
        start_line, start_word = line, word = self.line, self.word
        mid_line, line_end = stops
        bound_line, bound_word = stop_before or (len(lines), 0)
        # A bound at a line start leaves the text the line before it.
        last_line = bound_line if bound_word else bound_line - 1
        pieces: list[str] = []
        end_line = end_word = 0
        delimiter: Token | None = None
        while True:
            words = lines[line]
            count = len(words)
            limit = count if line < bound_line else min(bound_word, count)
            first = word
            while word < limit:
                original = words[word]
                if original[-1] in line_end:   # every stop character: most words miss
                    stop = mid_line if word < count - 1 else line_end
                    body = original.rstrip(_FORMAT_CONTROLS)
                    if body and body[-1] in stop:   # a word of controls alone is text
                        cut = len(body) - 1
                        delimiter = _tuple_new(Token, (_PUNCTUATION[body[-1]], original[cut:],
                                                       _tuple_new(Span, (line, word, line, word))))
                        body = original[:cut]
                        break
                word += 1
            if word > first:
                pieces += words[first:word]
                end_line, end_word = line, word - 1
            if delimiter is not None:
                if body:
                    pieces.append(body)
                    end_line, end_word = line, word
                word += 1
                if word == count:   # the delimiter ended its line
                    line += 1
                    word = 0
                break
            if word < count:   # the scope bound ends the text
                break
            line += 1
            word = 0
            if line > last_line or line == len(lines):
                break
        self.line, self.word = line, word
        if delimiter is not None:
            if not pieces:
                # The very first word was standalone punctuation that stopped
                # accumulation; hand it out directly instead of an empty STRING.
                return delimiter
            self.pending = delimiter
        return _tuple_new(Token, (_STRING, " ".join(pieces),
                                  _tuple_new(Span, (start_line, start_word, end_line, end_word))))

    def region(self, end_line: int) -> Token:
        """An article's content region: the words from the cursor, which lies
        before ``end_line`` with nothing pending, to that line, as written, as
        one STRING; no word is read for a stop.  A region that ends on its
        first line is one join of that line's words from the cursor on; only a
        region over several lines is joined line by line.  The cursor moves to
        ``end_line``."""
        line, word, lines, last = self.line, self.word, self.text.lines, end_line - 1
        lexeme = (" ".join(lines[line][word:]) if line == last else
                  " ".join(map(" ".join, (lines[line][word:], *lines[line + 1:end_line]))))
        self.line, self.word = end_line, 0
        return _tuple_new(Token, (_STRING, lexeme,
                                  _tuple_new(Span, (line, word, last, len(lines[last]) - 1))))


def reconstruct_words(tokens: list[Token]) -> list[str]:
    """Rebuild the source word sequence from a completed scan.

    A delimiter whose span starts where the previous token's ends was split
    off that token's last word and reattaches to it; standalone punctuation
    becomes its own word again.  Used to verify that scanning loses nothing.
    """
    words: list[str] = []
    end = None
    for tok in tokens:
        if tok.kind is TokenKind.EOF:
            continue
        if tok.span[:2] == end:
            words[-1] += tok.lexeme
        else:
            words.extend(p for p in tok.lexeme.split(" ") if p)
        end = tok.span[2:]
    return words


def dump_tokens(tokens: list[Token]) -> str:
    """One token per line: KIND<TAB>span<TAB>lexeme."""
    return "\n".join(f"{tok.kind}\t{tok.span}\t{tok.lexeme}" for tok in tokens)
