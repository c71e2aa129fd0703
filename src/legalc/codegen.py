"""XML generation from a parsed document.

:func:`generate` walks the AST once and writes each XML line as it goes:
the document's shape fixes every element's depth, so no element tree is
built.  :func:`serialize` puts the optional declaration before the lines and
a newline after them.  The byte shape (indent, self-closing empties,
declaration, trailing newline) is pinned down here rather than inherited
from a library; round-trip tests re-read it with an independent XML parser.

Digits: the document number and numeric article numbers are emitted in
Western digits; every other field keeps its original script.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .normalize import is_digit_run, to_western_digits
from .parser import Document, SignatureKind, _gc_paused


class EmitConfig(NamedTuple):
    root_tag: str = "document"
    indent: int = 2
    xml_declaration: bool = True


MAX_INDENT = 64
_TAG_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")


def check_config(config: EmitConfig) -> None:
    """Raise ValueError unless the indent is 0 to :data:`MAX_INDENT` and the
    root tag an XML name."""
    if not 0 <= config.indent <= MAX_INDENT:
        raise ValueError(f"indent must be between 0 and {MAX_INDENT}")
    if not _TAG_NAME.fullmatch(config.root_tag):
        raise ValueError(f"invalid root tag name: {config.root_tag!r}")


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


def generate(doc: Document, config: EmitConfig = EmitConfig()) -> list[str]:
    """The root element's lines, in order and without line ends.  Raises
    ValueError for a bad ``config`` (:func:`check_config`)."""
    check_config(config)
    pad1 = " " * config.indent
    pad2, pad3 = pad1 * 2, pad1 * 3
    statement, loc_date = doc.statement, doc.loc_date
    lines = [f"<{config.root_tag}>",
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
        number = to_western_digits(art.number) if is_digit_run(art.number) else art.number
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
    lines.append(f"</{config.root_tag}>")
    return lines


def serialize(lines: list[str], config: EmitConfig = EmitConfig()) -> str:
    """The declaration when configured, the lines, and a trailing newline."""
    head = ('<?xml version="1.0" encoding="UTF-8"?>',) if config.xml_declaration else ()
    return "\n".join((*head, *lines, ""))   # the text is copied once


@_gc_paused
def emit(doc: Document, config: EmitConfig = EmitConfig()) -> bytes:
    """Generate and serialize in one step, as UTF-8 bytes."""
    return serialize(generate(doc, config), config).encode("utf-8")
