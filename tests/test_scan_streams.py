"""The driver's token stream, and what scanning one token costs.

The grammar reads the stream as scanned: each article content region is one
STRING that the driver builds from the text's lines, and ``grammar_tokens``
is the same list as ``tokens``.  The stream ends in the one EOF wherever the
text ends, which the cuts below check at every step of the driver's policy.

Scanning cost is pinned by a count, not a timing: the number of Python-level
function calls per scanned token is deterministic, so a change that adds
work to the per-token path fails here on any machine.
"""

import random
import sys

import docgen
from conftest import CORPUS_DIR
from differential import lone_delimiters
from legalc.normalize import fold_for_matching, preprocess
from legalc.parser import _segment_trailer, parse_document, scan_document
from legalc.scanner import Scanner, reconstruct_words
from legalc.tokens import Span, Token, TokenKind

# Python-level calls per token over the inputs of the test below.  Measured
# at 4.22 (4.28 while content regions were scanned into tokens); a change
# that raises it must raise this on purpose and say why.
CALLS_PER_TOKEN_CEILING = 4.7


def norm(source: str):
    return preprocess(source.encode("utf-8"), "test")


def check_regions(text, tokens) -> int:
    """Check that each article content region is one STRING: the text's words
    from where it starts to the end of the line before the next header line
    (or the location/date line), joined by single spaces, after header tokens
    that all end on the header line.  Return how many regions span a line
    below their header line."""
    lines = text.lines
    headers = [tok.span.start_line for tok in tokens if tok.kind is TokenKind.MADA]
    if not headers:
        return 0
    ends = [*headers[1:], _segment_trailer(text, Scanner(text).heads, headers[0])]
    checked = 0
    for header, end in zip(headers, ends):
        *head, region = [tok for tok in tokens if header <= tok.span.start_line < end]
        assert all(tok.span.end_line == header for tok in head), head
        if end == header + 1:   # no line below the header: the region may be empty
            continue
        line, word = region.span[:2]
        words = [*lines[line][word:], *(w for row in lines[line + 1:end] for w in row)]
        last = len(lines[end - 1]) - 1
        assert region == Token(TokenKind.STRING, " ".join(words), Span(line, word, end - 1, last))
        checked += 1
    return checked


def test_grammar_stream_is_the_token_stream_with_one_string_per_region():
    rng = random.Random(15)
    sources = [docgen.generate_document(rng).text for _ in range(300)]
    sources += [docgen.mutate_text(rng, text) for text in sources]
    sources += lone_delimiters()
    regions = 0
    for source in sources:
        text = norm(source)
        result = scan_document(text)
        assert result.grammar_tokens is result.tokens
        regions += check_regions(text, result.tokens)
    # regions of several lines, words and delimiters, and lone delimiters
    assert regions > 500, regions


def cuts(lines):
    """The text of ``lines`` (tuples of words) cut after each word, as lines
    of words: once as written and once with the last word's trailing ، . or
    : dropped."""
    for n, line in enumerate(lines):
        for k in range(1, len(line) + 1):
            head = [*lines[:n], line[:k]]
            yield head
            last = line[k - 1]
            if len(last) > 1 and last[-1] in "،.:":
                yield [*lines[:n], (*line[:k - 1], last[:-1])]


def test_end_of_input_at_every_step_of_the_policy():
    rng = random.Random(18)
    sources = [path.read_text(encoding="utf-8") for path in sorted(CORPUS_DIR.glob("*.txt"))]
    sources += [docgen.generate_document(rng).text for _ in range(20)]
    # a title opening with a lone ، leaves the policy with a delimiter pending
    # when a cut ends right after the issuer's ،
    sources.append(docgen.many_articles(2).replace("عنوان قصير", "، عنوان قصير"))
    count = 0
    for source in sources:
        for cut in cuts(norm(source).lines):
            words = [word for line in cut for word in line]
            result = parse_document(norm("\n".join(map(" ".join, cut)) + "\n"))
            kinds = [tok.kind for tok in result.tokens]
            assert kinds.count(TokenKind.EOF) == 1 and kinds[-1] is TokenKind.EOF, words
            assert result.grammar_tokens[-1] is result.tokens[-1], words
            assert reconstruct_words(result.tokens) == words
            assert len(result.diagnostics) == (result.document is None), words
            count += 1
    assert count > 1500, count


def test_end_of_input_after_the_acknowledgment_expects_an_article():
    # At the end of the input the layout finds no location/date line and
    # takes no article, so the grammar expects one at the end.
    for path in sorted(CORPUS_DIR.glob("*.txt")):
        text = norm(path.read_text(encoding="utf-8"))
        ack = next(tok for tok in parse_document(text).tokens
                   if tok.kind is TokenKind.YAKOUR).span.start_line
        lines = text.lines[:ack + 1]
        [diag] = parse_document(norm("\n".join(map(" ".join, lines)) + "\n")).diagnostics
        assert diag.message == "expected مادة opening an article", (path.name, diag)
        assert diag.expected == (TokenKind.MADA,) and diag.found is TokenKind.EOF, path.name
        assert (diag.span.start_line, diag.span.start_word) == (ack, len(lines[-1])), path.name


def test_scan_calls_per_token_stay_under_the_ceiling():
    rng = random.Random(7)
    sources = [docgen.generate_document(rng).text for _ in range(250)]
    sources.append(docgen.many_articles(300))
    texts = [norm(source) for source in sources]
    fold_for_matching.cache_clear()   # a cache miss is a call: start from none cached
    calls = tokens = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for text in texts:
        sys.setprofile(count)
        try:
            result = scan_document(text)
        finally:
            sys.setprofile(None)
        tokens += len(result.tokens)
    assert tokens > 9000, tokens
    assert calls / tokens <= CALLS_PER_TOKEN_CEILING, (calls, tokens, calls / tokens)
