"""Memory, read by tracemalloc and never by a clock.

What a parsed document costs to hold (the AST records carry no per-record
dict) and what a compile costs at its peak, per input byte, as the input
grows.
"""

import pickle
import sys
import tracemalloc

import docgen
from legalc import Article, emit, parse_document, preprocess

# Traced bytes per unpickled Article, its strings shared: 56.5 on CPython
# 3.11 as a slotted record, 161.2 with a per-record dict.
RECORD_CEILING = 64
# Traced compile peak per input byte of docgen.many_articles: 30.2 at 1,000
# and 30.5 at 3,000 articles on CPython 3.11, plus ~15 %.
PEAK_PER_BYTE_CEILING = 35


def traced(fn):
    """``fn()``, and the traced bytes it left allocated and at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def test_unpickled_articles_carry_no_per_record_dict():
    # pickle rebuilds an instance with a dict by filling a fresh dict; a
    # slotted record has none.  The field strings are shared, so only the
    # records themselves are counted.
    number, title, content = "١٢", "عنوان", "نص المادة"
    blob = pickle.dumps([Article(number, title, content) for _ in range(10_000)])
    articles, held, _ = traced(lambda: pickle.loads(blob))
    assert (held - sys.getsizeof(articles)) / len(articles) <= RECORD_CEILING


def compile_peak_per_byte(count: int) -> float:
    """Traced peak of one compile of ``many_articles(count)``, per input byte."""
    data = docgen.many_articles(count).encode("utf-8")

    def compile_once() -> bytes:
        return emit(parse_document(preprocess(data, "many-articles.txt")).document)

    compile_once()   # warm-up: fills the fold cache
    _, _, peak = traced(compile_once)
    return peak / len(data)


def test_compile_peak_memory_is_linear_in_the_input():
    small, large = compile_peak_per_byte(1000), compile_peak_per_byte(3000)
    assert small <= PEAK_PER_BYTE_CEILING and large <= PEAK_PER_BYTE_CEILING
    assert large <= 1.1 * small
