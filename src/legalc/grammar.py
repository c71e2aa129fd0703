"""Document grammar and a membership oracle.

The context-free grammar below defines which token-kind sequences form a
well-shaped legal document.  :func:`oracle_accepts` decides membership with
a memoized top-down recognizer read straight off the productions, and shares
no code with the recursive-descent parser, so the two can be checked against
each other.

The signature block accepts an optional leading name/position signature
followed by any number of position/name signatures; both shapes occur in
real decrees.
"""

from __future__ import annotations

from typing import Sequence, Union

from .tokens import TokenKind

Symbol = Union[str, TokenKind]  # str = nonterminal, TokenKind = terminal

K = TokenKind

GRAMMAR: dict[str, tuple[tuple[Symbol, ...], ...]] = {
    "document": (
        ("statement", "title", "issuer", "ref-list", "just-list",
         "acknowledge", "article-list", "loc-date", "sig-list"),
    ),
    "statement": ((K.TYPE, K.RAQM, K.NUM),),
    "title": ((K.STRING,),),
    "issuer": ((K.INNA, K.STRING, K.COMMA),),
    "ref-list": (("ref", "ref-list"), ("ref",)),
    "ref": ((K.BINAA, K.STRING, K.COMMA), (K.BINAA, K.STRING, K.DOT)),
    "just-list": (("just", "just-list"), ()),
    "just": ((K.HAYSOU, K.STRING, K.COMMA), (K.HAYSOU, K.STRING, K.DOT)),
    "acknowledge": ((K.YAKOUR, K.COLON),),
    "article-list": (("article", "article-list"), ("article",)),
    "article": ((K.MADA, "article-num", K.COLON, "article-title", "article-content"),),
    "article-num": ((K.NUM,), (K.STRING,)),
    "article-title": ((K.STRING,), ()),
    "article-content": ((K.STRING,),),
    "loc-date": ((K.STRING, K.FI, K.STRING), (K.STRING, K.STRING)),
    "sig-list": (
        ("sig-type1", "sig-type2-list"),
        ("sig-type1",),
        ("sig-type2-list",),
        (),
    ),
    "sig-type1": ((K.IMDAA, K.COLON, K.STRING, K.STRING),),
    "sig-type2-list": (("sig-type2", "sig-type2-list"), ("sig-type2",)),
    "sig-type2": ((K.STRING, K.IMDAA, K.COLON, K.STRING),),
}

START = "document"


def oracle_accepts(kinds: Sequence[TokenKind], start: str = START) -> bool:
    """True iff the token-kind sequence is derivable from ``start``.

    A memoized top-down recognizer read straight off :data:`GRAMMAR`: for a
    symbol and a position it computes every end position the symbol can
    reach, once per call.  It is exact for any grammar without left
    recursion, and raises ``ValueError`` naming the rule when it meets one.
    Raises ``KeyError`` for unknown start symbols.
    """
    n = len(kinds)
    memo: dict[tuple[str, int], frozenset[int] | None] = {}

    def ends(symbol: Symbol, i: int) -> frozenset[int]:
        """Every j such that ``symbol`` derives ``kinds[i:j]``."""
        if isinstance(symbol, TokenKind):
            return frozenset((i + 1,)) if i < n and kinds[i] == symbol else frozenset()
        key = (symbol, i)
        if key in memo:
            found = memo[key]
            if found is None:
                raise ValueError(f"left recursion through {symbol!r}")
            return found
        memo[key] = None   # in progress
        reached: set[int] = set()
        for body in GRAMMAR[symbol]:
            frontier = {i}
            for sym in body:
                frontier = {j for k in frontier for j in ends(sym, k)}
                if not frontier:
                    break
            reached |= frontier
        memo[key] = found = frozenset(reached)
        return found

    return n in ends(start, 0)


def derivable_strings(start: str, max_len: int) -> frozenset[tuple[TokenKind, ...]]:
    """Every token-kind sequence of length <= max_len derivable from ``start``.

    Independent of :func:`oracle_accepts`: a bottom-up fixpoint enumeration
    of the raw productions, where the oracle works top-down over one input.
    Intended for tests and bounded-exhaustive checks.  Raises ``KeyError``
    for unknown start symbols.
    """
    sets: dict[str, set[tuple[TokenKind, ...]]] = {nt: set() for nt in GRAMMAR}
    changed = True
    while changed:
        changed = False
        for nt, bodies in GRAMMAR.items():
            for body in bodies:
                combos: set[tuple[TokenKind, ...]] = {()}
                for sym in body:
                    if isinstance(sym, TokenKind):
                        pieces: set[tuple[TokenKind, ...]] = {(sym,)}
                    else:
                        pieces = sets[sym]
                    combos = {
                        a + b
                        for a in combos
                        for b in pieces
                        if len(a) + len(b) <= max_len
                    }
                    if not combos:
                        break
                before = len(sets[nt])
                sets[nt].update(combos)
                if len(sets[nt]) != before:
                    changed = True
    return frozenset(sets[start])
