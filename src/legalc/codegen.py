"""XML generation from a parsed document.

The element tree is built by structural recursion over the AST, then
serialized by a small hand-rolled emitter so the exact byte shape (indent,
self-closing empties, declaration, trailing newline) is pinned down here
rather than inherited from a library.  Round-trip tests re-read the output
with an independent XML parser.

Digits: the document number and numeric article numbers are emitted in
Western digits; every other field keeps its original script.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .normalize import is_digit_run, to_western_digits
from .parser import Document, SignatureKind, _gc_paused


class Element:
    """One XML element: a tag, its text, and its child elements in order."""

    __slots__ = ("tag", "text", "children")

    def __init__(self, tag: str, text: str = "", children: list[Element] | None = None):
        self.tag = tag
        self.text = text
        self.children: list[Element] = [] if children is None else children

    def child(self, tag: str, text: str = "") -> Element:
        el = Element(tag, text)
        self.children.append(el)
        return el


class EmitConfig(NamedTuple):
    root_tag: str = "document"
    indent: int = 2
    xml_declaration: bool = True


def escape_xml(text: str) -> str:
    # & must go first or it would re-escape the entities below.
    return (text.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;")
                .replace('"', "&quot;")
                .replace("'", "&apos;"))


def generate(doc: Document, root_tag: str = "document") -> Element:
    """Build the element tree for one document."""
    root = Element(root_tag)
    root.child("type", doc.statement.doc_type)
    root.child("contentNumber", to_western_digits(doc.statement.number))
    root.child("title", doc.title)
    root.child("issuer", doc.issuer)
    references = root.child("references")
    for ref in doc.references:
        references.child("reference", ref)
    justifications = root.child("justifications")
    for just in doc.justifications:
        justifications.child("justification", just)
    add_article = root.child("articles").children.append
    for art in doc.articles:
        number = to_western_digits(art.number) if is_digit_run(art.number) else art.number
        add_article(Element("article", "", [Element("articleNumber", number),
                                            Element("articleTitle", art.title or ""),
                                            Element("articleContent", art.content)]))
    root.child("issueLocation", doc.loc_date.location)
    root.child("issueDate", doc.loc_date.date)
    signatures = root.child("signatures")
    for sig in doc.signatures:
        el = signatures.child("signature")
        if sig.kind is SignatureKind.TYPE1:
            el.child("name", sig.name)
            el.child("position", sig.position)
        else:
            el.child("position", sig.position)
            el.child("name", sig.name)
    return root


def serialize(root: Element, config: EmitConfig = EmitConfig()) -> str:
    lines: list[str] = []
    if config.xml_declaration:
        lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    _render([root], 0, lines, config.indent)
    lines.append("")   # the trailing newline, without copying the document again
    return "\n".join(lines)


# Any character that escape_xml replaces.
_NEEDS_ESCAPE = re.compile("[&<>\"']")


def _render(elements: list[Element], depth: int, lines: list[str], indent: int) -> None:
    """Render sibling elements: a leaf on one line, written here, and an
    element with children around its children, one level deeper."""
    pad = " " * (indent * depth)
    for el in elements:
        if el.children:
            lines.append(f"{pad}<{el.tag}>")
            _render(el.children, depth + 1, lines, indent)
            lines.append(f"{pad}</{el.tag}>")
        elif el.text:
            text = el.text
            if _NEEDS_ESCAPE.search(text):
                text = escape_xml(text)
            lines.append(f"{pad}<{el.tag}>{text}</{el.tag}>")
        else:
            lines.append(f"{pad}<{el.tag}/>")


@_gc_paused
def emit(doc: Document, config: EmitConfig = EmitConfig()) -> bytes:
    """Generate and serialize in one step, as UTF-8 bytes."""
    return serialize(generate(doc, config.root_tag), config).encode("utf-8")
