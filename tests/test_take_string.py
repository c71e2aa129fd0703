"""Line-at-a-time STRING accumulation scans exactly like the per-word loop.

The reference below is the straightforward scanner: it moves the cursor one
word at a time through the cursor helpers, asks a helper per word whether a
keyword stops the text, and splits each word's trailing delimiter before
deciding, and it matches keywords afresh at every word, line starts too.
The scanner's line walk must produce the same tokens, spans and cursor
positions under every stop set and scope bound.  It must probe for keywords
at the same places in the same order, except at a line's first word, which
it reads from the line heads: there it may only probe again where the scope
bound cuts the cached phrase.
"""

import random

import legalc.scanner as scanner
from legalc.normalize import preprocess, split_trailing
from legalc.scanner import _KEYWORD_KINDS, _SPELLINGS, ScanError, Scanner
from legalc.tokens import Span, StopSet, Token, TokenKind, punctuation_kind

K = TokenKind


class ReferenceScanner(Scanner):
    """A :class:`Scanner` whose STRING accumulation goes a word at a time,
    and which never reads a keyword match from the line heads."""

    def _match(self, line, word, limit):
        return scanner.match_keyword_phrase(self.text, line, word, limit)

    def _take_string(self, expect):
        pieces = []
        start = self.position
        end = self.position
        while not self.at_end() and not self._at_bound(expect.stop_before):
            line, word = self.position
            if pieces and self._keyword_stops_here(expect):
                break
            original = self.text.word(line, word)
            lone_kind = punctuation_kind(original) if len(original) == 1 else None
            if lone_kind is not None and self._delimiter_stops(lone_kind, expect):
                self._pending.append(Token(lone_kind, original, Span.point(line, word)))
                self._advance()
                break
            body, trailing = split_trailing(original)
            trailing_kind = punctuation_kind(trailing) if trailing else None
            if trailing_kind is not None and self._delimiter_stops(trailing_kind, expect):
                pieces.append(body)
                end = (line, word)
                self._queue_trailing(trailing, line, word)
                self._advance()
                break
            pieces.append(original)
            end = (line, word)
            self._advance()
        if not pieces:
            if self._pending:
                return self._pending.popleft()
            raise ScanError("expected text, found none", Span.point(*start))
        return Token(K.STRING, " ".join(pieces), Span(*start, *end))

    def _keyword_stops_here(self, expect):
        if self.word == 0 and not expect.line_break_stops:
            return False
        if expect.kinds.isdisjoint(_KEYWORD_KINDS):
            return False
        match = scanner.match_keyword_phrase(self.text, self.line, self.word, expect.stop_before)
        return match is not None and match.kind in expect.kinds

    def _delimiter_stops(self, kind, expect):
        if kind is K.COMMA:
            return True
        if kind is K.DOT:
            return self.word == len(self.text.words(self.line)) - 1
        if kind is K.COLON:
            return K.COLON in expect.kinds
        return False


KEYWORD_WORDS = sorted({w for phrase, _ in _SPELLINGS for w in phrase.split(" ")})
PHRASES = sorted(phrase for phrase, _ in _SPELLINGS if " " in phrase)
FILLER = ["نص", "عمل", "خبر", "الوزير", "١٢", "25", "٣أ"]
STOP_KINDS = sorted(_KEYWORD_KINDS | {K.NUM, K.COLON, K.COMMA, K.DOT}, key=lambda k: k.value)


def random_document(rng: random.Random) -> str:
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
            words.append(w)
        lines.append(" ".join(words))
    return "\n".join(lines)


def random_stop_set(rng: random.Random, text, cursor) -> StopSet:
    kinds = rng.sample(STOP_KINDS, rng.randint(0, 7))
    line_break_stops = rng.random() < 0.5
    roll = rng.random()
    line = rng.randint(cursor[0], text.line_count)
    if roll < 0.4:
        stop_before = None
    elif roll < 0.6 or line == text.line_count:
        stop_before = (line, 0)                                     # a line start
    elif roll < 0.85:
        stop_before = (line, rng.randint(1, len(text.words(line))))  # mid-line or line end
    else:
        stop_before = (text.line_count + rng.randint(0, 1), rng.randint(0, 3))  # past the end
    return StopSet.of(*kinds, line_break_stops=line_break_stops, stop_before=stop_before)


def test_line_walk_agrees_with_per_word_reference(monkeypatch):
    match_keyword_phrase = scanner.match_keyword_phrase
    probes = []

    def probe(text, line, word, limit=None):
        probes.append((line, word, limit))
        return match_keyword_phrase(text, line, word, limit)
    monkeypatch.setattr(scanner, "match_keyword_phrase", probe)

    def step(sc: Scanner, expect: StopSet):
        probes.clear()
        try:
            outcome = sc.next_token(expect)
        except ScanError as exc:
            outcome = ("ScanError", str(exc), exc.span)
        return outcome, sc.position, list(probes)

    def cuts_head(text, line, word, limit):
        """Whether ``limit`` cuts the unlimited match at this line start."""
        head = match_keyword_phrase(text, line, 0)
        return (word == 0 and limit is not None and head is not None
                and (line, head.word_count - 1) >= limit)

    rng = random.Random(20261018)
    strings = ended_by_delimiter = cut_heads = 0
    ended_by_keyword = {"mid-line": 0, "line start": 0}
    for _ in range(1500):
        text = preprocess(random_document(rng).encode("utf-8"), "random")
        ours, ref = Scanner(text), ReferenceScanner(text)
        for _ in range(40):
            expect = random_stop_set(rng, text, ref.position)
            token, position, ref_probes = step(ref, expect)
            want_probes = [p for p in ref_probes if p[1] > 0 or cuts_head(text, *p)]
            assert step(ours, expect) == (token, position, want_probes), (text.lines, expect)
            cut_heads += sum(p[1] == 0 for p in want_probes)
            if token[0] is K.EOF:
                break
            if token[0] is K.STRING:
                strings += 1
                if ref.has_pending:
                    ended_by_delimiter += 1
                elif not ref.at_end():
                    m = match_keyword_phrase(text, *ref.position, expect.stop_before)
                    if m is not None and m.kind in expect.kinds:
                        ended_by_keyword["line start" if ref.word == 0 else "mid-line"] += 1
    # the draw really exercises every way a STRING ends
    assert strings > 2000 and ended_by_delimiter > 800
    assert min(ended_by_keyword.values()) > 25, ended_by_keyword
    assert cut_heads > 0, cut_heads
