"""Grammar membership oracle: recognizer vs direct enumeration, minimum length, shapes.

The oracle, a memoized top-down recognizer, is checked against a second,
independent route: a bottom-up fixpoint enumeration of derivable strings
straight from the raw productions.  The two implementations share nothing
but the grammar table itself.  The sweep over one-token edits of whole
documents also checks the descent parser against the oracle.
"""

import itertools
import random

import pytest

from descent import parse_token_kinds
from legalc.grammar import (
    GRAMMAR,
    derivable_strings,
    oracle_accepts,
)
from legalc.tokens import TokenKind

K = TokenKind

MIN_DOC = (
    K.TYPE, K.RAQM, K.NUM, K.STRING, K.INNA, K.STRING, K.COMMA,
    K.BINAA, K.STRING, K.COMMA, K.YAKOUR, K.COLON,
    K.MADA, K.NUM, K.COLON, K.STRING, K.STRING, K.STRING,
)


def test_minimal_document_accepted():
    assert oracle_accepts(list(MIN_DOC))


def test_minimal_document_length_is_tight():
    # statement(3) + title(1) + issuer(3) + one reference(3) +
    # acknowledgment(2) + one article(4) + loc-date(2) = 18
    assert not any(oracle_accepts(list(s))
                   for s in derivable_strings("document", 17))
    assert derivable_strings("document", 17) == set()


def test_unknown_start_symbol_rejected():
    with pytest.raises(KeyError):
        oracle_accepts([], start="no-such-rule")


def test_nullable_starts():
    assert oracle_accepts([], start="just-list")
    assert oracle_accepts([], start="sig-list")
    assert oracle_accepts([], start="article-title")
    assert not oracle_accepts([], start="document")
    assert not oracle_accepts([], start="ref-list")


def reachable_terminals(start):
    """The token kinds that ``start`` can derive, in declaration order."""
    seen, todo, terms = set(), [start], set()
    while todo:
        nt = todo.pop()
        if nt not in seen:
            seen.add(nt)
            for body in GRAMMAR[nt]:
                for sym in body:
                    if isinstance(sym, TokenKind):
                        terms.add(sym)
                    else:
                        todo.append(sym)
    return tuple(k for k in TokenKind if k in terms)


def single_edits(seq, alphabet):
    """Every one-token insertion, deletion and substitution of ``seq``."""
    for i in range(len(seq) + 1):
        for k in alphabet:
            yield seq[:i] + (k,) + seq[i:]
    for i in range(len(seq)):
        yield seq[:i] + seq[i + 1:]
        for k in alphabet:
            if k != seq[i]:
                yield seq[:i] + (k,) + seq[i + 1:]


# Longest sequence swept per nonterminal; long enough for two items of a list.
SWEEP_LENGTHS = {"article": 6, "loc-date": 4, "sig-list": 8, "ref": 4,
                 "article-list": 8, "sig-type2-list": 8}


def _exhaustive_cross_check(start, alphabet, max_len):
    """The recognizer and the raw-grammar enumeration must agree on every
    string over ``alphabet`` of length <= ``max_len``."""
    derivable = derivable_strings(start, max_len)
    seen = set()
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            ok = oracle_accepts(list(combo), start=start)
            assert ok == (combo in derivable), (start, combo)
            if ok:
                seen.add(combo)
    assert seen == derivable


@pytest.mark.parametrize("start", [nt for nt in GRAMMAR if nt != "document"])
def test_nonterminal_shapes_exhaustively(start):
    alphabet = reachable_terminals(start)
    assert len(alphabet) <= 4
    _exhaustive_cross_check(start, alphabet, SWEEP_LENGTHS.get(start, 6))


def test_document_single_edits():
    alphabet = [k for k in K if k is not K.EOF]
    derivable = derivable_strings("document", 21)
    checked = 0
    for s in derivable_strings("document", 20):
        for edit in single_edits(s, alphabet):
            ok = oracle_accepts(list(edit))
            assert ok == (edit in derivable), edit
            assert parse_token_kinds(list(edit)) == ok, edit
            checked += 1
    assert checked == 8736


def test_left_recursion_raises(monkeypatch):
    monkeypatch.setitem(GRAMMAR, "loop", (("loop", K.STRING), (K.STRING,)))
    with pytest.raises(ValueError, match="loop"):
        oracle_accepts([K.STRING, K.STRING], start="loop")


def test_clause_list_shapes():
    assert oracle_accepts([K.BINAA, K.STRING, K.COMMA], start="ref-list")
    assert oracle_accepts([K.BINAA, K.STRING, K.DOT] * 2, start="ref-list")
    assert not oracle_accepts([K.BINAA, K.STRING], start="ref-list")
    assert oracle_accepts([K.HAYSOU, K.STRING, K.COMMA], start="just-list")


def test_signature_pair_shapes():
    assert oracle_accepts([K.IMDAA, K.COLON, K.STRING, K.STRING],
                          start="sig-type1")
    assert oracle_accepts([K.STRING, K.IMDAA, K.COLON, K.STRING],
                          start="sig-type2")
    # a signature block may hold a leading pair, trailing pairs, or both
    both = [K.IMDAA, K.COLON, K.STRING, K.STRING,
            K.STRING, K.IMDAA, K.COLON, K.STRING]
    assert oracle_accepts(both, start="sig-list")
    assert not oracle_accepts(both[::-1], start="sig-list")


def test_grammar_table_mentions_every_kind_it_needs():
    used = {sym for rules in GRAMMAR.values() for rule in rules
            for sym in rule if isinstance(sym, TokenKind)}
    assert K.EOF not in used
    assert {K.TYPE, K.RAQM, K.NUM, K.STRING, K.INNA, K.BINAA, K.HAYSOU,
            K.YAKOUR, K.MADA, K.FI, K.IMDAA, K.COMMA, K.DOT, K.COLON} <= used


def test_random_strings_rejected_below_min_length():
    rng = random.Random(31)
    kinds = [k for k in K if k is not K.EOF]
    for _ in range(2000):
        n = rng.randrange(0, 17)
        s = [rng.choice(kinds) for _ in range(n)]
        assert not oracle_accepts(s)


def test_derivable_strings_all_reaccepted():
    for s in derivable_strings("document", 20):
        assert oracle_accepts(list(s))
        assert len(s) >= 18
