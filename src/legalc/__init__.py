"""legalc: validate Arabic legal documents and translate them to XML.

The pipeline is preprocess -> scan/parse -> generate -> serialize.  The
high-level entry point is :func:`compile_document`; the intermediate stages
are exposed for tools and tests.
"""

from .normalize import DecodeError, NormalizedText, preprocess
from .tokens import Span, Token, TokenKind
from .scanner import Scanner, dump_tokens, reconstruct_words
from .grammar import derivable_strings, oracle_accepts
from .parser import (
    Article,
    Diagnostic,
    Document,
    LocDate,
    ParseResult,
    ScanResult,
    Signature,
    SignatureKind,
    Statement,
    dump_ast,
    parse_document,
    parse_grammar_tokens,
    scan_document,
)
from .codegen import emit, escape_xml, generate, serialize

__version__ = "0.1.0"


class DocumentRejected(ValueError):
    """Raised by :func:`compile_document` when the input does not parse."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__(diagnostics[0].message if diagnostics else "document rejected")
        self.diagnostics = diagnostics


def compile_document(data: bytes, source_name: str = "<input>") -> bytes:
    """Bytes in, XML bytes out.

    Raises :class:`DecodeError` on invalid UTF-8 or a character XML forbids,
    and :class:`DocumentRejected` when the document does not match the grammar.
    """
    text = preprocess(data, source_name)
    result = parse_document(text)
    if result.document is None:
        raise DocumentRejected(result.diagnostics)
    return emit(result.document)


__all__ = [
    "Article",
    "Diagnostic",
    "DecodeError",
    "Document",
    "DocumentRejected",
    "LocDate",
    "NormalizedText",
    "ParseResult",
    "ScanResult",
    "Scanner",
    "Signature",
    "SignatureKind",
    "Span",
    "Statement",
    "Token",
    "TokenKind",
    "compile_document",
    "derivable_strings",
    "dump_ast",
    "dump_tokens",
    "emit",
    "escape_xml",
    "generate",
    "oracle_accepts",
    "parse_document",
    "parse_grammar_tokens",
    "preprocess",
    "reconstruct_words",
    "scan_document",
    "serialize",
    "__version__",
]
