"""The driver's two token streams, and what scanning one token costs.

The grammar stream is the fine stream with each article content region
merged into one STRING; the driver records the merged regions while it
scans and builds the grammar stream from them at the end.  The walk below
checks that shape from the two streams alone, without the driver's records.
Both streams end in the one EOF wherever the text ends, which the cuts below
check at every step of the driver's policy.

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
from legalc.parser import _merge_region, parse_document, scan_document
from legalc.scanner import reconstruct_words
from legalc.tokens import TokenKind

# Python-level calls per token over the inputs of the test below.  Measured
# at 4.48; a change that raises it must raise this on purpose and say why.
CALLS_PER_TOKEN_CEILING = 4.7


def norm(source: str):
    return preprocess(source.encode("utf-8"), "test")


def walk_streams(fine, grammar) -> int:
    """Check that ``grammar`` is ``fine`` with some runs merged; return how
    many grammar tokens are merged runs."""
    assert fine[-1].kind is TokenKind.EOF and grammar[-1] is fine[-1]
    merged = i = 0
    for n, tok in enumerate(grammar):
        if fine[i] is tok:
            i += 1
            continue
        # a merged run ends where the next grammar token's own object is
        following = grammar[n + 1]
        j = next(k for k in range(i + 1, len(fine)) if fine[k] is following)
        assert tok == _merge_region(fine[i:j]), (tok, fine[i:j])
        # a merged run is never read as split off the token before it
        assert tok.kind is TokenKind.STRING and tok.span[:2] != grammar[n - 1].span[2:]
        merged += 1
        i = j
    assert i == len(fine)
    return merged


def test_grammar_stream_is_the_fine_stream_with_merged_regions():
    rng = random.Random(15)
    sources = [docgen.generate_document(rng).text for _ in range(300)]
    sources += [docgen.mutate_text(rng, text) for text in sources]
    sources += lone_delimiters()
    merged = 0
    for source in sources:
        result = scan_document(norm(source))
        merged += walk_streams(result.tokens, result.grammar_tokens)
    # regions of several tokens and lone delimiters both merged
    assert merged > 500, merged


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
    # The policy stops at the end of the input before it looks for the
    # location/date line; past it, the layout would report a missing
    # signature line at the start of the acknowledgment line instead.
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
    sources = [docgen.generate_document(rng).text for _ in range(200)]
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
