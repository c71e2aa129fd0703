"""XML generation from a parsed document.

:func:`generate` walks the AST once and writes each XML line as it goes:
the document's shape fixes every element's depth, so no element tree is
built.  :func:`serialize` puts the declaration before the lines and a
newline after them.  The byte shape (a ``<document>`` root, two spaces a
level, self-closing empties, declaration, trailing newline) is the only one
and is pinned down here rather than inherited from a library; round-trip
tests re-read it with an independent XML parser.

Digits: the document number and numeric article numbers are emitted in
Western digits; every other field keeps its original script.  An article
number is numeric when it is read as a number: a digit run once folded
(:func:`~legalc.normalize.is_folded_digit_run`), as the scanner decides NUM.
Only the digits change; a tatweel or format control among them stays.
"""

from __future__ import annotations

import re

from .normalize import is_folded_digit_run, to_western_digits
from .parser import Document, SignatureKind, _gc_paused


def escape_xml(text: str) -> str:
    # & must go first or it would re-escape the entities below.
    return (text.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;")
                .replace('"', "&quot;")
                .replace("'", "&apos;"))


# Any character that escape_xml replaces.
_NEEDS_ESCAPE = re.compile("[&<>\"']")


def _leaf(pad: str, tag: str, text: str | None) -> str:
    """One text element on one line; an empty one closes itself."""
    if not text:
        return f"{pad}<{tag}/>"
    if _NEEDS_ESCAPE.search(text):
        text = escape_xml(text)
    return f"{pad}<{tag}>{text}</{tag}>"


def _wrap(lines: list[str], pad: str, tag: str, body: list[str]) -> None:
    """Append a collection around its items' lines; an empty one closes itself."""
    lines += (f"{pad}<{tag}>", *body, f"{pad}</{tag}>") if body else (f"{pad}<{tag}/>",)


def generate(doc: Document) -> list[str]:
    """The root element's lines, in order and without line ends."""
    pad1, pad2, pad3 = "  ", "    ", "      "
    statement, loc_date = doc.statement, doc.loc_date
    lines = ["<document>",
             _leaf(pad1, "type", statement.doc_type),
             _leaf(pad1, "contentNumber", to_western_digits(statement.number)),
             _leaf(pad1, "title", doc.title),
             _leaf(pad1, "issuer", doc.issuer)]
    _wrap(lines, pad1, "references", [_leaf(pad2, "reference", ref) for ref in doc.references])
    _wrap(lines, pad1, "justifications",
          [_leaf(pad2, "justification", just) for just in doc.justifications])
    articles: list[str] = []
    opening, closing = f"{pad2}<article>", f"{pad2}</article>"
    for art in doc.articles:
        number = to_western_digits(art.number) if is_folded_digit_run(art.number) else art.number
        articles += (opening, _leaf(pad3, "articleNumber", number),
                     _leaf(pad3, "articleTitle", art.title),
                     _leaf(pad3, "articleContent", art.content), closing)
    _wrap(lines, pad1, "articles", articles)
    lines += (_leaf(pad1, "issueLocation", loc_date.location),
              _leaf(pad1, "issueDate", loc_date.date))
    signatures: list[str] = []
    for sig in doc.signatures:
        name, position = _leaf(pad3, "name", sig.name), _leaf(pad3, "position", sig.position)
        signatures += (f"{pad2}<signature>",
                       *((name, position) if sig.kind is SignatureKind.TYPE1 else (position, name)),
                       f"{pad2}</signature>")
    _wrap(lines, pad1, "signatures", signatures)
    lines.append("</document>")
    return lines


def serialize(lines: list[str]) -> str:
    """The declaration, the lines, and a trailing newline."""
    return "\n".join(('<?xml version="1.0" encoding="UTF-8"?>', *lines, ""))   # copied once


@_gc_paused
def emit(doc: Document) -> bytes:
    """Generate and serialize in one step, as UTF-8 bytes."""
    return serialize(generate(doc)).encode("utf-8")
