"""Test helpers over the descent parser: bare token-kind sequences in, verdicts out.

Tests and ``tests/differential.py`` import these; pytest does not collect
this module.  They read only ``legalc.parser`` names that the package had
while it still shipped these helpers itself, so the differential script
prints comparable digests against an older ``src`` too.
"""

from __future__ import annotations

from typing import Sequence

from legalc.parser import _Ctx, _parse_document_tokens, parse_grammar_tokens
from legalc.tokens import Span, Token, TokenKind


def _tokens(kinds: Sequence[TokenKind]) -> list[Token]:
    return [Token(k, k.value, Span.point(0, i)) for i, k in enumerate(kinds)]


def parse_token_kinds(kinds: Sequence[TokenKind]) -> bool:
    """Grammar acceptance of a bare token-kind sequence."""
    return parse_grammar_tokens(_tokens(kinds))[0] is not None


def rejects_all_extensions(kinds: Sequence[TokenKind]) -> bool:
    """True when the parser rejects this prefix without ever consulting a
    token at or past ``len(kinds)``.  Every extension of such a prefix is
    rejected identically, which lets bounded-exhaustive equivalence checks
    prune whole subtrees soundly."""
    ctx = _Ctx(_tokens(kinds))
    try:
        return _parse_document_tokens(ctx) is None
    except IndexError:   # a read past the prefix: the outcome depends on later tokens
        return False
