"""Line-at-a-time STRING accumulation scans exactly like the per-word loop.

The reference below is the straightforward scanner: it moves the cursor one
word at a time through its own cursor helpers and splits each word's
trailing delimiter before deciding whether it ends the text, and it matches
keywords afresh, line starts too, bounded like the three-table reference
matcher.  The scanner's line walk must produce the same tokens, spans and
cursor positions under every kinds set and scope bound.  Both probe for a
keyword only at the cursor a take starts from, never within free text, and
the scanner does not probe at a line's first word, which it reads from the
line heads.
"""

import random

import legalc.scanner as scanner
from legalc.normalize import _FORMAT_CONTROLS, preprocess, split_trailing
from legalc.scanner import _KEYWORD_KINDS, _SPELLINGS, Scanner
from legalc.tokens import Span, Token, TokenKind
from test_keyword_index import reference_match

K = TokenKind
PUNCTUATION = {"،": K.COMMA, ".": K.DOT, ":": K.COLON}


class ReferenceScanner(Scanner):
    """A :class:`Scanner` whose STRING accumulation goes a word at a time,
    and which never reads a keyword match from the line heads."""

    def _match(self, line, word, limit):
        scanner.match_keyword_phrase(self.text, line, word)   # a probe, counted like the scanner's
        return reference_match(self.text, line, word, limit)

    def take(self, kinds, stop_before=None):
        self.kinds = kinds
        return super().take(kinds, stop_before)

    @property
    def cursor(self):
        return (self.line, self.word)

    def _at_bound(self, stop_before):
        return stop_before is not None and self.cursor >= stop_before

    def _advance(self):
        if self.word + 1 < len(self.text.lines[self.line]):
            self.word += 1
        else:
            self.line += 1
            self.word = 0

    def _take_string(self, stop_before, _stops):
        pieces = []
        start = self.cursor
        end = self.cursor
        while not self.at_end() and not self._at_bound(stop_before):
            line, word = self.cursor
            original = self.text.lines[line][word]
            # a lone delimiter, perhaps followed by format controls
            lone_kind = PUNCTUATION.get(original.rstrip(_FORMAT_CONTROLS))
            if lone_kind is not None and self._delimiter_stops(lone_kind):
                self.pending = Token(lone_kind, original, Span.point(line, word))
                self._advance()
                break
            body, trailing = split_trailing(original)
            trailing_kind = PUNCTUATION.get(trailing[:1])
            if trailing_kind is not None and self._delimiter_stops(trailing_kind):
                pieces.append(body)
                end = (line, word)
                self.pending = Token(trailing_kind, trailing, Span.point(line, word))
                self._advance()
                break
            pieces.append(original)
            end = (line, word)
            self._advance()
        if not pieces:
            if self.pending is not None:
                lone, self.pending = self.pending, None
                return lone
            raise ValueError(f"expected text, found none at {start}")
        return Token(K.STRING, " ".join(pieces), Span(*start, *end))

    def _delimiter_stops(self, kind):
        if kind is K.COMMA:
            return True
        if kind is K.DOT:
            return self.word == len(self.text.lines[self.line]) - 1
        if kind is K.COLON:
            return K.COLON in self.kinds
        return False


KEYWORD_WORDS = sorted({w for phrase, _ in _SPELLINGS for w in phrase.split(" ")})
PHRASES = sorted(phrase for phrase, _ in _SPELLINGS if " " in phrase)
FILLER = ["نص", "عمل", "خبر", "الوزير", "١٢", "25", "٣أ"]
CONTROLS = "\u200c\u200f\u061c\u202b\u2067"   # ZWNJ, RLM, ALM, RLE, RLI
STOP_KINDS = sorted(_KEYWORD_KINDS | {K.NUM, K.COLON, K.COMMA, K.DOT}, key=lambda k: k.value)


def random_document(rng: random.Random, controls: bool = False) -> str:
    """Random lines of keyword words, filler and delimiters; with ``controls``,
    some words also end in format controls, after a delimiter or not, and
    some are nothing but controls."""
    lines = []
    for _ in range(rng.randint(1, 5)):
        words = []
        for i in range(rng.randint(1, 7)):
            roll = rng.random()
            if i == 0 and roll < 0.35:
                w = rng.choice(KEYWORD_WORDS)    # lines often open with a keyword
            elif i == 0 and roll < 0.5:
                w = rng.choice(PHRASES)          # ... or a whole multi-word phrase
            elif roll < 0.1:
                w = rng.choice("،.:")            # a lone delimiter
            elif roll < 0.5:
                w = rng.choice(KEYWORD_WORDS)
            else:
                w = rng.choice(FILLER)
            if len(w) > 1 and rng.random() < 0.15:
                w += rng.choice("،.:")           # a trailing delimiter
            if controls and rng.random() < 0.3:
                if rng.random() < 0.2:
                    w = ""                               # a word of controls alone
                w += "".join(rng.choices(CONTROLS, k=rng.randint(1, 2)))
            words.append(w)
        lines.append(" ".join(words))
    return "\n".join(lines)


def random_expectation(rng: random.Random, text, cursor):
    """Random expected kinds and a random bound for a take at ``cursor``."""
    kinds = frozenset(rng.sample(STOP_KINDS, rng.randint(0, 7)))
    roll = rng.random()
    line = rng.randint(cursor[0], len(text.lines))
    if roll < 0.4:
        stop_before = None
    elif roll < 0.6 or line == len(text.lines):
        stop_before = (line, 0)                                     # a line start
    elif roll < 0.85:
        stop_before = (line, rng.randint(1, len(text.lines[line])))  # mid-line or line end
    else:
        stop_before = (len(text.lines) + rng.randint(0, 1), rng.randint(0, 3))  # past the end
    return kinds, stop_before


def walk_both(monkeypatch, rng, documents, controls=False):
    """Scan random documents under random expectations with both scanners,
    asserting each step agrees; return counts of how the STRINGs ended."""
    match_keyword_phrase = scanner.match_keyword_phrase
    probes = []

    def probe(text, line, word):
        probes.append((line, word))
        return match_keyword_phrase(text, line, word)
    monkeypatch.setattr(scanner, "match_keyword_phrase", probe)

    def step(sc: Scanner, kinds, stop_before):
        probes.clear()
        try:
            outcome = sc.take(kinds, stop_before)
        except ValueError as exc:
            outcome = ("ValueError", str(exc))
        return outcome, (sc.line, sc.word), list(probes)

    strings = ended_by_delimiter = past_keyword = head_probes = 0
    for _ in range(documents):
        text = preprocess(random_document(rng, controls).encode("utf-8"), "random")
        ours, ref = Scanner(text), ReferenceScanner(text)
        for _ in range(40):
            kinds, stop_before = random_expectation(rng, text, ref.cursor)
            start = ref.cursor
            token, position, ref_probes = step(ref, kinds, stop_before)
            # a keyword is probed for only where the take starts, never mid-text
            assert all(p == start for p in ref_probes), (text.lines, kinds, ref_probes)
            want_probes = [p for p in ref_probes if p[1] > 0]
            assert step(ours, kinds, stop_before) == (token, position, want_probes), (
                text.lines, kinds, stop_before)
            head_probes += len(ref_probes) - len(want_probes)
            if token[0] is K.EOF:
                break
            if token[0] is K.STRING:
                strings += 1
                if ref.pending is not None:
                    ended_by_delimiter += 1
                past_keyword += expected_keyword_inside(text, token, kinds, stop_before)
    return strings, ended_by_delimiter, past_keyword, head_probes


def expected_keyword_inside(text, token, kinds, stop_before) -> bool:
    """True when an expected keyword phrase starts at a word of a STRING
    other than its first, mid-line: text that runs on past it."""
    first_line, first_word, last_line, last_word = token.span
    for line in range(first_line, last_line + 1):
        end = last_word if line == last_line else len(text.lines[line]) - 1
        for word in range(first_word + 1 if line == first_line else 1, end + 1):
            m = reference_match(text, line, word, stop_before)
            if m is not None and m.kind in kinds:
                return True
    return False


def test_line_walk_agrees_with_per_word_reference(monkeypatch):
    strings, ended_by_delimiter, past_keyword, head_probes = walk_both(
        monkeypatch, random.Random(20261018), 1500)
    # the draw really exercises every way a STRING ends, text running on past
    # an expected mid-line keyword, and line heads
    assert strings > 2000 and ended_by_delimiter > 800
    assert past_keyword > 250, past_keyword
    assert head_probes > 0, head_probes


def test_line_walk_looks_past_format_controls(monkeypatch):
    strings, ended_by_delimiter, _, _ = walk_both(monkeypatch, random.Random(20261019), 400,
                                                  controls=True)
    assert strings > 500 and ended_by_delimiter > 200
