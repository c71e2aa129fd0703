"""Output checks that do not rely on the program under test.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  Expected values come from the inputs (the generator's AST,
the committed golden XML, the edited line) and from this file's own reading
of the XML schema and the word rules, never from legalc.
"""

from __future__ import annotations

import re
import unicodedata
import xml.etree.ElementTree as ET

WESTERN = str.maketrans("٠١٢٣٤٥٦٧٨٩", "0123456789")
DIGITS = set("0123456789٠١٢٣٤٥٦٧٨٩")
LOCATION = re.compile(r"^error: .+ at (.+):(\d+):(\d+)$")


def expected_tree(doc) -> tuple:
    """The XML the schema asks for, as nested ``(tag, text or children)``,
    derived from a generator-built AST."""
    def leaf(tag, text):
        return (tag, text or "")

    def number(text):
        # articleNumber is in Western digits only when it is a digit run
        return text.translate(WESTERN) if text and set(text) <= DIGITS else text

    signatures = []
    for sig in doc.signatures:
        pair = [leaf("name", sig.name), leaf("position", sig.position)]
        if sig.kind.value == "type2":
            pair.reverse()
        signatures.append(("signature", pair))
    return ("document", [
        leaf("type", doc.statement.doc_type),
        leaf("contentNumber", doc.statement.number.translate(WESTERN)),
        leaf("title", doc.title),
        leaf("issuer", doc.issuer),
        ("references", [leaf("reference", r) for r in doc.references]),
        ("justifications", [leaf("justification", j) for j in doc.justifications]),
        ("articles", [("article", [leaf("articleNumber", number(a.number)),
                                   leaf("articleTitle", a.title),
                                   leaf("articleContent", a.content)])
                      for a in doc.articles]),
        leaf("issueLocation", doc.loc_date.location),
        leaf("issueDate", doc.loc_date.date),
        ("signatures", signatures),
    ])


_CONTAINERS = {"document", "references", "justifications", "articles", "article",
               "signatures", "signature"}


def _read_tree(el) -> tuple:
    if el.tag in _CONTAINERS:
        return (el.tag, [_read_tree(c) for c in el])
    return (el.tag, el.text or "")


def _first_difference(got, want, path="") -> str:
    tag_g, body_g = got
    tag_w, body_w = want
    here = f"{path}/{tag_w}"
    if tag_g != tag_w:
        return f"{here}: element <{tag_g}>"
    if isinstance(body_w, str) or isinstance(body_g, str):
        return f"{here}: {str(body_g)[:60]!r} instead of {str(body_w)[:60]!r}"
    if len(body_g) != len(body_w):
        return f"{here}: {len(body_g)} children instead of {len(body_w)}"
    for g, w in zip(body_g, body_w):
        if g != w:
            return _first_difference(g, w, here)
    return here


def check_xml(xml: bytes, doc) -> str | None:
    """The XML re-read with ElementTree carries the AST's field values."""
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        return f"XML does not parse: {exc}"
    got, want = _read_tree(root), expected_tree(doc)
    if got != want:
        return "XML differs at " + _first_difference(got, want)
    return None


def check_ast(got, want) -> str | None:
    if got != want:
        for field in ("statement", "title", "issuer", "references", "justifications",
                      "articles", "loc_date", "signatures"):
            if getattr(got, field) != getattr(want, field):
                return f"AST differs in {field}"
        return "AST differs"
    return None


def check_golden(xml: bytes, golden: bytes) -> str | None:
    if xml != golden:
        at = next((i for i, (a, b) in enumerate(zip(xml, golden)) if a != b),
                  min(len(xml), len(golden)))
        return f"XML differs from the golden file at byte {at}"
    return None


def check_diagnostics(lines: list[int], edit_line: int) -> str | None:
    """Exactly one diagnostic, on the edited line (both 0-based)."""
    if len(lines) != 1:
        return f"{len(lines)} diagnostics instead of one"
    if lines[0] != edit_line:
        return f"diagnostic on line {lines[0] + 1}, edit on line {edit_line + 1}"
    return None


def check_rendered(rendered: str, source: str, edit_line: int) -> str | None:
    """The first line of a rendered diagnostic names the edited line."""
    first = rendered.split("\n", 1)[0]
    m = LOCATION.match(first)
    if m is None:
        return f"no error location in {first[:80]!r}"
    if m.group(1) != source or int(m.group(2)) != edit_line + 1:
        return f"error located at {m.group(1)}:{m.group(2)}, edit on line {edit_line + 1}"
    return None


def check_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code} instead of {want}"


def input_words(data: bytes) -> list[str]:
    """The document's words: UTF-8 (BOM dropped), NFC, split on line breaks,
    spaces and tabs only."""
    text = unicodedata.normalize("NFC", data.decode("utf-8-sig"))
    text = text.replace("\r\n", "\n").replace("\r", "\n").replace("\t", " ")
    return [w for line in text.split("\n") for w in line.split(" ") if w]


def check_words(rebuilt: list[str], data: bytes) -> str | None:
    """Words rebuilt from the token stream equal the input words."""
    words = input_words(data)
    if rebuilt == words:
        return None
    at = next((i for i, (a, b) in enumerate(zip(rebuilt, words)) if a != b),
              min(len(rebuilt), len(words)))
    return f"token stream rebuilds {len(rebuilt)} words of {len(words)}, first difference at word {at}"


def judge_library(doc, result, out) -> str | None:
    """Check one in-process outcome: ``result`` is legalc's ParseResult and
    ``out`` the emitted XML bytes or the rendered diagnostics."""
    if doc.rejected:
        if result.document is not None:
            return "accepted a document that has an invalidating edit"
        return (check_diagnostics([d.span.start_line for d in result.diagnostics], doc.edit_line)
                or check_rendered(out, doc.name, doc.edit_line))
    if result.document is None:
        return "rejected a valid document: " + out.split("\n", 1)[0][:80]
    if doc.golden is not None:
        return check_golden(out, doc.golden)
    return check_ast(result.document, doc.ast) or check_xml(out, doc.ast)


def judge_cli(doc, source: str, code: int, stderr: str, xml: bytes | None) -> str | None:
    """Check one ``python -m legalc <source> -o <xml>`` run."""
    if doc.rejected:
        return check_exit(code, 1) or check_rendered(stderr, source, doc.edit_line)
    problem = check_exit(code, 0)
    if problem:
        return f"{problem}: {stderr.splitlines()[0][:80] if stderr else 'no message'}"
    if xml is None:
        return "no output file"
    return check_golden(xml, doc.golden) if doc.golden is not None else check_xml(xml, doc.ast)
