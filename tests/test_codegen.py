"""XML generation: escaping, element order, layout, serialization, round-trip."""

import dataclasses
import random
import xml.etree.ElementTree as ET

import pytest

import legalc
import legalc.codegen as codegen
from docgen import generate_document
from legalc import (
    Article,
    Document,
    LocDate,
    Signature,
    SignatureKind,
    Statement,
    compile_document,
    emit,
    escape_xml,
    generate,
    serialize,
)

SAMPLE = Document(
    statement=Statement("مرسوم", "٢٥"),
    title="عنوان",
    issuer="الوزير",
    references=("الدستور",),
    justifications=(),
    articles=(Article("١", "فرعي", "نص"), Article("أولى", None, "نص آخر")),
    loc_date=LocDate("بيروت", "٢٠٢٠", True),
    signatures=(Signature(SignatureKind.TYPE1, "فلان", "منصب"),
                Signature(SignatureKind.TYPE2, "علان", "موقع")),
)


def test_escape_covers_all_five_markup_characters():
    assert escape_xml("&<>\"'") == "&amp;&lt;&gt;&quot;&apos;"
    assert escape_xml("a&amp;b") == "a&amp;amp;b"  # ampersand escapes first


def test_escaped_text_survives_reparse_byte_exactly():
    rng = random.Random(5)
    pool = "&<>\"'ابج xyz&lt;"
    for _ in range(200):
        original = "".join(rng.choice(pool) for _ in range(rng.randint(1, 40)))
        xml = f"<t>{escape_xml(original)}</t>"
        assert ET.fromstring(xml).text == original


def _reread(doc):
    return ET.fromstring(emit(doc))


def test_tree_shape_and_tag_order():
    assert [c.tag for c in _reread(SAMPLE)] == [
        "type", "contentNumber", "title", "issuer", "references",
        "justifications", "articles", "issueLocation", "issueDate", "signatures",
    ]


def test_numbers_westernized_only_where_numeric():
    # an article number that mixes digits and letters keeps its script
    mixed = Article("٣مكرر", None, "نص")
    root = _reread(dataclasses.replace(SAMPLE, articles=(*SAMPLE.articles, mixed)))
    assert root.findtext("contentNumber") == "25"
    assert [a.findtext("articleNumber") for a in root.find("articles")] == ["1", "أولى", "٣مكرر"]
    assert root.findtext("issueDate") == "٢٠٢٠"


def test_signature_child_order_depends_on_kind():
    sigs = _reread(SAMPLE).find("signatures")
    assert [c.tag for c in sigs[0]] == ["name", "position"]
    assert [c.tag for c in sigs[1]] == ["position", "name"]


def test_empty_collections_self_close():
    root = _reread(SAMPLE)
    empty = root.find("justifications")
    assert len(empty) == 0 and empty.text is None
    titles = [a.find("articleTitle") for a in root.find("articles")]
    assert [t.text for t in titles] == ["فرعي", None]
    out = emit(SAMPLE).decode("utf-8")
    assert "<justifications/>" in out
    assert "<articleTitle/>" in out
    assert "<articleTitle>فرعي</articleTitle>" in out


# SAMPLE as emitted: two spaces a level, with the declaration.
LAYOUT = """\
<?xml version="1.0" encoding="UTF-8"?>
<document>
  <type>مرسوم</type>
  <contentNumber>25</contentNumber>
  <title>عنوان</title>
  <issuer>الوزير</issuer>
  <references>
    <reference>الدستور</reference>
  </references>
  <justifications/>
  <articles>
    <article>
      <articleNumber>1</articleNumber>
      <articleTitle>فرعي</articleTitle>
      <articleContent>نص</articleContent>
    </article>
    <article>
      <articleNumber>أولى</articleNumber>
      <articleTitle/>
      <articleContent>نص آخر</articleContent>
    </article>
  </articles>
  <issueLocation>بيروت</issueLocation>
  <issueDate>٢٠٢٠</issueDate>
  <signatures>
    <signature>
      <name>فلان</name>
      <position>منصب</position>
    </signature>
    <signature>
      <position>موقع</position>
      <name>علان</name>
    </signature>
  </signatures>
</document>
"""


def test_serialize_layout():
    assert emit(SAMPLE).decode("utf-8") == LAYOUT


def test_generate_gives_the_root_lines_and_serialize_frames_them():
    assert generate(SAMPLE) == LAYOUT.splitlines()[1:]
    assert serialize(["<r>", "  <a>x</a>", "</r>"]) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n<r>\n  <a>x</a>\n</r>\n')


def test_emit_calls_generate_and_serialize_once_each(monkeypatch):
    # the benchmark times the two layers by wrapping these module globals
    calls = {"generate": 0, "serialize": 0}

    def counting(name):
        fn = getattr(codegen, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(codegen, name, counting(name))
    assert emit(SAMPLE) == LAYOUT.encode("utf-8")
    assert calls == {"generate": 1, "serialize": 1}


def test_emit_is_utf8_bytes_with_trailing_newline():
    payload = emit(SAMPLE)
    assert isinstance(payload, bytes)
    assert payload.endswith(b"</document>\n")
    assert payload.decode("utf-8").startswith('<?xml version="1.0" encoding="UTF-8"?>')


def test_every_level_indents_two_spaces():
    rng = random.Random(11)
    for _ in range(50):
        lines = emit(generate_document(rng).document).decode("utf-8").splitlines()
        assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
        depth = 0
        for line in lines[1:]:
            body = line.lstrip(" ")
            closing = body.startswith("</")
            depth -= closing
            assert line == "  " * depth + body
            depth += not closing and not body.endswith("/>") and "</" not in body
        assert depth == 0


def test_output_shape_has_no_config():
    assert "EmitConfig" not in legalc.__all__
    for name in ("EmitConfig", "check_config", "MAX_INDENT"):
        assert not hasattr(codegen, name) and not hasattr(legalc, name), name


def test_emit_and_compile_document_take_no_config(corpus_dir):
    data = (corpus_dir / "decree-25.txt").read_bytes()
    for call in (lambda: generate(SAMPLE, None), lambda: serialize(["<r/>"], None),
                 lambda: emit(SAMPLE, None), lambda: compile_document(data, "x", None)):
        with pytest.raises(TypeError):
            call()


def _structure(node):
    children = list(node)
    if children:
        return (node.tag, [_structure(c) for c in children])
    return (node.tag, node.text or "")


def test_round_trip_structure_matches_element_tree():
    assert _structure(_reread(SAMPLE)) == ("document", [
        ("type", "مرسوم"), ("contentNumber", "25"), ("title", "عنوان"), ("issuer", "الوزير"),
        ("references", [("reference", "الدستور")]), ("justifications", ""),
        ("articles", [
            ("article", [("articleNumber", "1"), ("articleTitle", "فرعي"),
                         ("articleContent", "نص")]),
            ("article", [("articleNumber", "أولى"), ("articleTitle", ""),
                         ("articleContent", "نص آخر")])]),
        ("issueLocation", "بيروت"), ("issueDate", "٢٠٢٠"),
        ("signatures", [("signature", [("name", "فلان"), ("position", "منصب")]),
                        ("signature", [("position", "موقع"), ("name", "علان")])]),
    ])


def test_corpus_outputs_reparse_and_match_goldens(corpus_paths, golden_dir):
    for path in corpus_paths:
        payload = compile_document(path.read_bytes(), path.name)
        ET.fromstring(payload)  # well-formed
        golden = (golden_dir / (path.stem + ".xml")).read_bytes()
        assert payload == golden, path.name
