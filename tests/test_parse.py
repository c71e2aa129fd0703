"""Parsing: trailer segmentation, document structure, diagnostics, properties."""

import dataclasses
import inspect
import random
import sys
import unicodedata

import pytest

import docgen
from descent import parse_token_kinds, rejects_all_extensions
from legalc import (
    Diagnostic,
    LocDate,
    Scanner,
    Signature,
    SignatureKind,
    parse_document,
    preprocess,
    reconstruct_words,
)
from legalc.parser import _segment_trailer, dump_ast, parse_grammar_tokens
from legalc.tokens import Span, Token, TokenKind

K = TokenKind


def norm(source: str):
    return preprocess(source.encode("utf-8"), "test")


def parse(source: str):
    return parse_document(norm(source))


# -- trailer segmentation ------------------------------------------------------

def test_trailer_loc_date_just_above_signature():
    text = norm("محتوى\nبعيدا في ٢٠١٨\nالامضاء: فلان\nمنصب")
    assert _segment_trailer(text, Scanner(text).heads, 0) == 1


def test_trailer_position_line_between():
    # the line above the signature is no location/date, so it is a position
    text = norm("محتوى\nبيروت ٢٠١٩/١/٧\nمنصب كذا\nالإمضاء: فلان")
    assert _segment_trailer(text, Scanner(text).heads, 0) == 1


def test_trailer_without_signatures_uses_final_line():
    text = norm("محتوى\nبيروت في ٥ شباط")
    assert _segment_trailer(text, Scanner(text).heads, 0) == 1


def test_trailer_digit_bearing_word_counts_as_loc_date():
    text = norm("محتوى\nبيروت ٢٠١٩\nالامضاء: فلان\nمنصب")
    assert _segment_trailer(text, Scanner(text).heads, 0) == 1


def test_trailer_missing_loc_date_is_diagnosed():
    text = norm("محتوى فقط\nسطر أخير بلا تاريخ")
    assert _segment_trailer(text, Scanner(text).heads, 0) is None
    # The driver then takes no article, and the grammar reports the first
    # token after the acknowledgment.
    d = reject(MINIMAL.replace("بيروت في ٢٠٢٠", "سطر أخير بلا تاريخ"))
    assert (d.message, d.span.start_line, d.span.start_word) == (
        "expected مادة opening an article", 5, 0)


def test_trailer_signature_too_early_is_diagnosed():
    text = norm("الامضاء: فلان\nمنصب")
    assert _segment_trailer(text, Scanner(text).heads, 0) is None
    # the same trailer after the acknowledgment: no article is taken
    d = reject(MINIMAL.split("مادة ١:")[0] + "الامضاء: فلان\nمنصب")
    assert (d.message, d.span.start_line, d.span.start_word) == (
        "expected مادة opening an article", 5, 0)


# -- full documents -------------------------------------------------------------

MINIMAL = """مرسوم رقم ٥
عنوان قصير
إن الوزير،
بناء على الدستور،
يرسم ما يأتي:
مادة ١:
نص المادة
بيروت في ٢٠٢٠
"""


def test_minimal_document_parses():
    result = parse(MINIMAL)
    assert result.ok
    doc = result.document
    assert doc.statement.doc_type == "مرسوم"
    assert doc.statement.number == "٥"
    assert doc.title == "عنوان قصير"
    assert doc.issuer == "الوزير"
    assert doc.references == ("الدستور",)
    assert doc.justifications == ()
    assert len(doc.articles) == 1
    assert doc.articles[0].title is None
    assert doc.articles[0].content == "نص المادة"
    assert doc.loc_date == LocDate("بيروت", "٢٠٢٠", True)
    assert doc.signatures == ()


def test_corpus_decree_structure(corpus_dir):
    text = preprocess((corpus_dir / "decree-25.txt").read_bytes(), "decree-25.txt")
    doc = parse_document(text).document
    assert doc is not None
    assert [a.number for a in doc.articles] == ["١", "٢", "٣"]
    assert doc.articles[0].title == "عقد استثنائي"
    assert doc.articles[2].title is None
    assert doc.articles[1].content.endswith("على المجلس.")
    assert [s.kind for s in doc.signatures] == [SignatureKind.TYPE1, SignatureKind.TYPE2]
    assert doc.loc_date.location == "بعيدا"


def test_corpus_decision_structure(corpus_dir):
    text = preprocess((corpus_dir / "decision-104.txt").read_bytes(), "decision-104.txt")
    doc = parse_document(text).document
    assert doc is not None
    # ونظرا opens a reference; وبعد أن and وحيث أن open justifications
    assert len(doc.references) == 2
    assert doc.justifications == ("اطلعت اللجنة على التقرير", "المهل القانونية لم تنقض")
    assert doc.articles[0].number == "أولى"
    assert [s.kind for s in doc.signatures] == [SignatureKind.TYPE2]
    assert doc.loc_date == LocDate("بيروت", "٢٠١٩/١/٧", False)


def test_multiline_article_content_merges_with_punctuation():
    result = parse(MINIMAL.replace("نص المادة", "نص المادة، تابع\nسطر ثان."))
    assert result.ok
    assert result.document.articles[0].content == "نص المادة، تابع سطر ثان."


def _from_first_article(result):
    """The token stream from the first article's مادة on."""
    toks = result.tokens
    return toks[next(i for i, tok in enumerate(toks) if tok.kind is K.MADA):]


@pytest.mark.parametrize("content,lexeme,span", [
    ("نص، تابع", "نص، تابع", Span(6, 0, 6, 1)),            # a ، split off its word
    ("نص المادة.", "نص المادة.", Span(6, 0, 6, 1)),          # a line-final .
    # a standalone delimiter word is joined with a space, as it was written
    ("نص المادة\n.", "نص المادة .", Span(6, 0, 7, 0)),
    (".", ".", Span.point(6, 0)),
    ("،", "،", Span.point(6, 0)),
])
def test_content_region_joins_as_written(content, lexeme, span):
    result = parse(MINIMAL.replace("نص المادة\n", content + "\n"))
    assert result.ok and result.document.articles[0].content == lexeme
    toks = _from_first_article(result)
    # the region is the one token between the header and the location/date line
    assert toks[3] == Token(K.STRING, lexeme, span)
    assert toks[4].span[:2] == (span.end_line + 1, 0)


def test_content_region_starts_mid_header_line_after_a_title_stopped_at_comma():
    result = parse(MINIMAL.replace("مادة ١:\nنص المادة", "مادة ١: عنوان، بقية\nسطر ثان"))
    assert [(tok.kind, tok.lexeme, tok.span) for tok in _from_first_article(result)[:6]] == [
        (K.MADA, "مادة", Span.point(5, 0)), (K.NUM, "١", Span.point(5, 1)),
        (K.COLON, ":", Span.point(5, 1)), (K.STRING, "عنوان", Span.point(5, 2)),
        (K.COMMA, "،", Span.point(5, 2)), (K.STRING, "بقية سطر ثان", Span(5, 3, 6, 1))]
    [diag] = result.diagnostics
    assert (diag.message, diag.span, diag.found) == (
        "expected the location/date line", Span.point(5, 2), K.COMMA)


def test_empty_content_region_takes_no_token():
    result = parse(MINIMAL.replace("مادة ١:\nنص المادة", "مادة ١:\nمادة ٢:\nنص المادة"))
    assert [tok.kind for tok in _from_first_article(result)[:4]] == [K.MADA, K.NUM, K.COLON, K.MADA]
    [diag] = result.diagnostics
    assert (diag.message, diag.span, diag.expected, diag.found) == (
        "article has no content", Span.point(6, 0), (K.STRING,), K.MADA)


def test_article_headers_accept_word_numbers():
    result = parse(MINIMAL.replace("مادة ١:", "مادة أولى: عنوان جانبي"))
    assert result.ok
    art = result.document.articles[0]
    assert (art.number, art.title) == ("أولى", "عنوان جانبي")


def test_detached_article_colon():
    result = parse(MINIMAL.replace("مادة ١:", "مادة ١ :"))
    assert result.ok


def test_title_may_span_lines():
    result = parse(MINIMAL.replace("عنوان قصير", "عنوان قصير\nيمتد سطرين"))
    assert result.ok
    assert result.document.title == "عنوان قصير يمتد سطرين"


def test_title_ends_at_the_first_later_line_opening_with_inna():
    # a mid-line إن on the title's second line ends the title there
    result = parse(MINIMAL.replace("عنوان قصير", "عنوان قصير\nيمتد إن سطرين"))
    assert result.ok
    assert (result.document.title, result.document.issuer) == ("عنوان قصير يمتد",
                                                               "سطرين إن الوزير")
    # a later line that also opens with إن does not move the title's end
    source = MINIMAL.replace("عنوان قصير", "عنوان قصير\nيمتد سطرين")
    result = parse(source.replace("نص المادة", "نص المادة\nإن النص نافذ"))
    assert result.ok
    assert (result.document.title, result.document.issuer) == ("عنوان قصير يمتد سطرين",
                                                               "الوزير")
    assert result.document.articles[0].content == "نص المادة إن النص نافذ"


def test_reference_clause_may_span_lines():
    result = parse(MINIMAL.replace("بناء على الدستور،", "بناء على الدستور\nلا سيما بعضه،"))
    assert result.ok
    assert result.document.references == ("الدستور لا سيما بعضه",)


def test_dot_terminated_reference():
    result = parse(MINIMAL.replace("بناء على الدستور،", "بناء على الدستور."))
    assert result.ok


# -- rejections -----------------------------------------------------------------

def reject(source: str) -> Diagnostic:
    result = parse(source)
    assert result.document is None
    assert len(result.diagnostics) == 1
    return result.diagnostics[0]


def test_missing_raqm_is_rejected():
    d = reject(MINIMAL.replace("مرسوم رقم ٥", "مرسوم بلا ٥"))
    assert K.RAQM in d.expected
    assert d.span.start_line == 0


def test_missing_number_is_rejected():
    d = reject(MINIMAL.replace("مرسوم رقم ٥", "مرسوم رقم خمسة"))
    assert K.NUM in d.expected


def test_missing_issuer_line_is_rejected():
    d = reject(MINIMAL.replace("إن الوزير،\n", ""))
    assert K.INNA in d.expected


def test_empty_issuer_is_rejected():
    d = reject(MINIMAL.replace("إن الوزير،", "إن،"))
    assert K.STRING in d.expected


def test_missing_issuer_comma_is_rejected():
    assert reject(MINIMAL.replace("إن الوزير،", "إن الوزير"))


def test_document_without_references_is_rejected():
    d = reject(MINIMAL.replace("بناء على الدستور،\n", ""))
    assert K.BINAA in d.expected


def test_clause_without_terminator_is_rejected():
    assert reject(MINIMAL.replace("بناء على الدستور،", "بناء على الدستور"))


def test_missing_acknowledgment_is_rejected():
    d = reject(MINIMAL.replace("يرسم ما يأتي:\n", ""))
    assert K.YAKOUR in d.expected


def test_article_without_content_is_rejected():
    assert reject(MINIMAL.replace("مادة ١:\nنص المادة", "مادة ١:"))


def test_missing_article_colon_is_rejected():
    d = reject(MINIMAL.replace("مادة ١:", "مادة ١"))
    assert K.COLON in d.expected


def test_justification_before_references_is_rejected():
    src = MINIMAL.replace("بناء على الدستور،",
                          "وحيث أن المهل تنقضي،\nبناء على الدستور،")
    assert reject(src)


def test_signature_without_position_is_rejected():
    src = MINIMAL + "الامضاء: فلان\n"
    # a lone signature line leaves no position line for the pair
    assert reject(src)


def test_trailing_garbage_after_signatures_is_rejected():
    src = MINIMAL.replace("بيروت في ٢٠٢٠\n",
                          "بيروت في ٢٠٢٠\nالامضاء: فلان\nمنصب\nسطر زائد بعدها\n")
    assert reject(src)


def test_diagnostic_reports_furthest_failure():
    # the articles parse fine; the failure is inside the signature block
    src = MINIMAL + "منصب أول\nالإمضاء بلا نقطتين\n"
    d = reject(src)
    assert d.span.start_line >= 8


def test_rejection_never_raises_on_structured_text():
    # scanning stays total even when the trailer cannot be segmented
    result = parse("مرسوم رقم ٥\nعنوان\nإن الوزير،\nبناء على كذا،\nيرسم ما يأتي:\nبلا مادة هنا")
    assert result.document is None
    assert len(result.diagnostics) == 1


# -- trailers the grammar reports --------------------------------------------------
#
# Where the layout finds no location/date line, the driver takes no article,
# so the grammar fails at or before the first token after the acknowledgment.
# That token lies on or before the line the layout would have named: the first
# line opening with الإمضاء from the acknowledgment on, or else the last line.

def _lines_opening(text, kind) -> list[int]:
    return [line for line, head in enumerate(Scanner(text).heads)
            if head is not None and head.kind is kind]


def _trailer_bound(text, tokens) -> int:
    ack = next((tok.span.start_line for tok in tokens if tok.kind is K.YAKOUR), 0)
    return next((line for line in _lines_opening(text, K.IMDAA) if line >= ack),
                len(text.lines) - 1)


# (source, the grammar's message, its 1-based line and word)
_TRAILER_CASES = [
    # the acknowledgment line carries text and is the last line
    ("\n".join(MINIMAL.splitlines()[:4]) + "\nيرسم ما يأتي: نص",
     "expected مادة opening an article", (5, 4)),
    # a reference clause runs onto a line opening with الإمضاء
    (MINIMAL.replace("الدستور،", "الدستور\nالإمضاء فلان، كذا"),
     "expected the acknowledgment phrase (يرسم/يقرر ما يأتي)", (5, 3)),
    # a signature line right after the acknowledgment
    (MINIMAL.replace("يرسم ما يأتي:", "يرسم ما يلي:\nالإمضاء: فلان"),
     "expected مادة opening an article", (6, 1)),
]


def _trailer_shapes():
    """Documents whose trailer leaves no room for a location/date line."""
    rng = random.Random(25)
    for _ in range(150):
        text = norm(docgen.generate_document(rng).text)
        lines = [" ".join(words) for words in text.lines]
        signatures = _lines_opening(text, K.IMDAA)
        # every signature line deleted, and a last line with no date
        yield "\n".join([line for n, line in enumerate(lines) if n not in signatures]
                        + ["سطر أخير بلا تاريخ"])
        if signatures:
            # the first signature line moved to just after the acknowledgment
            moved = lines.pop(signatures[0])
            lines.insert(_lines_opening(text, K.YAKOUR)[0] + 1, moved)
            yield "\n".join(lines)
    yield from (source for source, _, _ in _TRAILER_CASES)
    # a title line opening with الإمضاء, and no date on the last line
    yield MINIMAL.replace("عنوان قصير", "الإمضاء: عنوان").replace("في ٢٠٢٠", "بلا تاريخ")


def test_trailer_without_loc_date_is_rejected_by_the_grammar_in_time():
    count = 0
    for source in _trailer_shapes():
        text = norm(source)
        result = parse_document(text)
        assert result.document is None and len(result.diagnostics) == 1, source
        [d] = result.diagnostics
        assert d.span.start_line <= _trailer_bound(text, result.tokens), (source, d)
        count += 1
    assert count > 250, count


@pytest.mark.parametrize("source, message, at", _TRAILER_CASES,
                         ids=["ack-text-last", "clause-runs-on", "signature-after-ack"])
def test_trailer_diagnostic_is_the_grammars(source, message, at):
    d = reject(source)
    assert (d.message, (d.span.start_line + 1, d.span.start_word + 1)) == (message, at)


# -- driver paths no other input reaches ------------------------------------------

def _with_line(corpus_dir, number: int, line: str) -> str:
    """corpus/decree-25.txt with its 1-based line ``number`` replaced."""
    lines = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8").split("\n")
    lines[number - 1] = line
    return "\n".join(lines)


def _rejected_with(source: str, message: str, span: str, *tokens: str) -> None:
    """The one diagnostic (message and 1-based span), and each listed token
    as ``KIND span lexeme`` in the token stream (``--dump-tokens`` prints it)."""
    result = parse(source)
    assert result.document is None
    assert [(d.message, str(d.span)) for d in result.diagnostics] == [(message, span)]
    stream = {f"{tok.kind} {tok.span} {tok.lexeme}" for tok in result.tokens}
    for tok in tokens:
        assert tok in stream


def test_delimiter_pending_after_a_signature_name(corpus_dir):
    # the name's scan leaves the ، after it pending
    _rejected_with(_with_line(corpus_dir, 17, "الامضاء: ميشال عون،"),
                   "expected a position line under the signature", "17:3-17:3",
                   "STRING 17:2-17:3 ميشال عون", "COMMA 17:3-17:3 ،")


def test_delimiter_pending_after_the_last_signature(corpus_dir):
    _rejected_with(_with_line(corpus_dir, 20, "الامضاء: سعد الدين الحريري."),
                   "unexpected trailing input after the signature block", "20:4-20:4",
                   "DOT 20:4-20:4 .")


def test_loc_date_line_opening_with_fi_takes_no_location(corpus_dir):
    _rejected_with(_with_line(corpus_dir, 16, "في بعيدا في ١٣ آذار ٢٠١٨"),
                   "expected the location/date line", "16:1-16:1",
                   "FI 16:1-16:1 في", "STRING 16:2-16:6 بعيدا في ١٣ آذار ٢٠١٨")


def test_two_word_loc_date_line_with_fi_expects_the_date(corpus_dir):
    # a second word في makes the line the location/date line, so the date
    # is missing after في, on the signature line below it
    _rejected_with(_with_line(corpus_dir, 16, "بعيدا في"),
                   "expected the date after في", "17:1-17:1",
                   "STRING 16:1-16:1 بعيدا", "FI 16:2-16:2 في")


def test_loc_date_line_already_entered_is_scanned_as_text():
    # the location/date line is the acknowledgment's own line, so the cursor
    # is past its start and the loc/date steps are skipped
    src = ("مرسوم رقم ٢٥\nعنوان\nإن رئيس الجمهورية،\nبناء على الدستور،\n"
           "يرسم ما يأتي: بيروت ٢٠١٨\nالامضاء: ميشال عون\nرئيس الجمهورية")
    _rejected_with(src, "expected مادة opening an article", "5:4-5:5",
                   "STRING 5:4-5:5 بيروت ٢٠١٨")


def test_articles_not_entered_mid_line(corpus_dir):
    # With the last reference clause unterminated and no acknowledgment line,
    # the clause runs on to the ، of the مادة line, so the articles would
    # start mid-line: all up to the location/date line is one text instead.
    lines = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8").split("\n")
    lines[4] = lines[4].rstrip("،")
    lines[5:7] = ["مادة ١: عقد، استثنائي"]
    source = "\n".join(lines)
    _rejected_with(source, "expected the acknowledgment phrase (يرسم/يقرر ما يأتي)", "6:4-12:12")
    assert K.MADA not in [tok.kind for tok in parse(source).tokens]


def _fine_stream_from(source: str, line: int) -> list[str]:
    """``KIND span`` of each fine token from the 1-based ``line`` on."""
    return [f"{tok.kind.name} {tok.span}" for tok in parse(source).tokens
            if tok.span.start_line >= line - 1]


def test_articles_not_entered_with_a_delimiter_pending():
    # The acknowledgment lacks its ':', so the scan for it takes the next
    # line's مادة ١ as text and stops at that line's ':', still pending when
    # the articles would begin: no مادة line is a header then, and the rest
    # is scanned as text.
    source = MINIMAL.replace("يرسم ما يأتي:", "يرسم ما يأتي").replace(
        "مادة ١:", "مادة ١:\nمادة ٢:")
    assert _fine_stream_from(source, 6) == [
        "STRING 6:1-6:2", "COLON 6:2-6:2", "STRING 7:1-8:2",
        "STRING 9:1-9:1", "FI 9:2-9:2", "STRING 9:3-9:3", "EOF 9:4-9:4"]


def test_signature_keyword_only_opens_a_line():
    # Line 4 is taken for the location/date line, and the scan reaches the
    # signatures mid-way through it, after the reference clause's ،: a
    # signature opens only at a line's start, so its الإمضاء: is text.
    source = ("مرسوم رقم ٥\nعنوان\nإن الوزير،\nبناء على الدستور، الإمضاء: فلان في ٢٠٢٠\n"
              "الإمضاء: علان\nالوزير\n")
    assert _fine_stream_from(source, 4) == [
        "BINAA 4:1-4:2", "STRING 4:3-4:3", "COMMA 4:3-4:3", "STRING 4:4-4:7",
        "IMDAA 5:1-5:1", "COLON 5:1-5:1", "STRING 5:2-5:2", "STRING 6:1-6:1", "EOF 6:2-6:2"]


# -- synthetic token-kind parsing ------------------------------------------------

MIN_KINDS = [
    K.TYPE, K.RAQM, K.NUM, K.STRING, K.INNA, K.STRING, K.COMMA,
    K.BINAA, K.STRING, K.COMMA, K.YAKOUR, K.COLON,
    K.MADA, K.NUM, K.COLON, K.STRING, K.STRING, K.STRING,
]


def test_minimal_kind_sequence_accepted():
    assert parse_token_kinds(MIN_KINDS)


def test_kind_sequence_variants():
    assert not parse_token_kinds(MIN_KINDS[:-1])       # truncated
    assert not parse_token_kinds(MIN_KINDS + [K.NUM])  # stray tail
    # one extra STRING reads as an article title and stays valid
    assert parse_token_kinds(MIN_KINDS + [K.STRING])
    with_title = MIN_KINDS[:16] + [K.STRING] + MIN_KINDS[16:]
    assert parse_token_kinds(with_title)
    sig1 = MIN_KINDS + [K.IMDAA, K.COLON, K.STRING, K.STRING]
    assert parse_token_kinds(sig1)
    sig2 = MIN_KINDS + [K.STRING, K.IMDAA, K.COLON, K.STRING]
    assert parse_token_kinds(sig2)
    assert parse_token_kinds(sig1 + [K.STRING, K.IMDAA, K.COLON, K.STRING])
    assert not parse_token_kinds(sig2 + [K.IMDAA, K.COLON, K.STRING, K.STRING])


def test_rejects_all_extensions_probe():
    assert rejects_all_extensions([K.RAQM])
    assert rejects_all_extensions([K.TYPE, K.TYPE])
    # a valid prefix is never a determined rejection
    assert not rejects_all_extensions(MIN_KINDS[:5])
    assert not rejects_all_extensions([])


def test_parse_grammar_tokens_handles_empty_stream():
    doc, diag = parse_grammar_tokens([])
    assert doc is None and diag is not None
    assert K.TYPE in diag.expected


_PRE = [K.TYPE, K.RAQM, K.NUM, K.STRING, K.INNA, K.STRING, K.COMMA]
_REF = [K.BINAA, K.STRING, K.COMMA]
_ACK = [K.YAKOUR, K.COLON]
_BODY = _PRE + _REF + _ACK + [K.MADA, K.NUM, K.COLON, K.STRING]
_DOC = _BODY + [K.STRING, K.FI, K.STRING]

# One kind sequence per grammar-phase failure site: (kinds, message, index of
# the failing token, expected kinds in diagnostic order).
GRAMMAR_FAILURES = {
    "empty": ([], "expected a document type keyword (قانون, قرار or مرسوم)", 0, [K.TYPE]),
    "type": ([K.RAQM], "expected a document type keyword (قانون, قرار or مرسوم)", 0, [K.TYPE]),
    "raqm": ([K.TYPE, K.TYPE], "expected رقم after the document type", 1, [K.RAQM]),
    "number": ([K.TYPE, K.RAQM, K.STRING], "expected the document number", 2, [K.NUM]),
    "title": (_PRE[:3] + [K.INNA], "expected the document title", 3, [K.STRING]),
    "inna": (_PRE[:4] + [K.STRING], "expected إن opening the issuer line", 4, [K.INNA]),
    "issuer-empty": (_PRE[:5] + [K.COMMA], "empty issuer text", 5, [K.STRING]),
    "issuer-comma": (_PRE[:6] + [K.DOT], "issuer line must end with ،", 6, [K.COMMA]),
    "reference-empty": (_PRE + [K.BINAA, K.COMMA], "empty reference clause", 8, [K.STRING]),
    "reference-end": (_PRE + [K.BINAA, K.STRING, K.STRING],
                      "reference clause must end with ، or a line-final .", 9, [K.COMMA, K.DOT]),
    "reference-required": (_PRE + _ACK, "expected at least one reference clause", 7, [K.BINAA]),
    "justification-empty": (_PRE + _REF + [K.HAYSOU, K.DOT], "empty justification clause", 11,
                            [K.STRING]),
    "justification-end": (_PRE + _REF + [K.HAYSOU, K.STRING, K.COLON],
                          "justification clause must end with ، or a line-final .", 12,
                          [K.COMMA, K.DOT]),
    "acknowledgment": (_PRE + _REF + [K.MADA],
                       "expected the acknowledgment phrase (يرسم/يقرر ما يأتي)", 10, [K.YAKOUR]),
    "acknowledgment-colon": (_PRE + _REF + [K.YAKOUR, K.STRING],
                             "acknowledgment phrase must end with :", 11, [K.COLON]),
    "mada": (_PRE + _REF + _ACK + [K.STRING], "expected مادة opening an article", 12, [K.MADA]),
    "article-number": (_PRE + _REF + _ACK + [K.MADA, K.COLON], "expected the article number", 13,
                       [K.NUM, K.STRING]),
    "article-colon": (_PRE + _REF + _ACK + [K.MADA, K.NUM, K.STRING],
                      "expected : after the article number", 14, [K.COLON]),
    "second-article-colon": (_BODY + [K.MADA, K.NUM, K.STRING],
                             "expected : after the article number", 18, [K.COLON]),
    "article-content": (_PRE + _REF + _ACK + [K.MADA, K.NUM, K.COLON, K.COLON],
                        "article has no content", 15, [K.STRING]),
    "loc-date": (_BODY + [K.IMDAA], "expected the location/date line", 16, [K.STRING]),
    "date-after-fi": (_BODY + [K.STRING, K.FI, K.IMDAA], "expected the date after في", 18,
                      [K.STRING]),
    "fi-or-date": (_BODY + [K.STRING, K.STRING, K.COLON],
                   "expected في or the date text after the location", 18, [K.EOF, K.FI, K.STRING]),
    "type1-colon": (_DOC + [K.IMDAA, K.STRING], "الإمضاء must be followed by :", 20, [K.COLON]),
    "type1-name": (_DOC + [K.IMDAA, K.COLON, K.COLON], "signature line has an empty name", 21,
                   [K.STRING]),
    "type1-position": (_DOC + [K.IMDAA, K.COLON, K.STRING],
                       "expected a position line under the signature", 22, [K.STRING]),
    "type2-colon": (_DOC + [K.STRING, K.IMDAA, K.STRING], "الإمضاء must be followed by :", 21,
                    [K.COLON]),
    "type2-name": (_DOC + [K.STRING, K.IMDAA, K.COLON, K.COLON],
                   "signature line has an empty name", 22, [K.STRING]),
    "type2-after-type1-colon": (_DOC + [K.IMDAA, K.COLON, K.STRING, K.STRING,
                                        K.STRING, K.IMDAA, K.DOT],
                                "الإمضاء must be followed by :", 25, [K.COLON]),
    "trailing": (_DOC + [K.COMMA], "unexpected trailing input after the signature block", 19,
                 [K.EOF]),
}


@pytest.mark.parametrize("name", GRAMMAR_FAILURES)
def test_grammar_failure_diagnostics(name):
    kinds, message, at, expected = GRAMMAR_FAILURES[name]
    tokens = [Token(k, k.value, Span.point(0, i)) for i, k in enumerate(kinds)]
    doc, diag = parse_grammar_tokens(tokens)
    assert doc is None
    assert diag.message == message
    assert diag.span.start_word == at
    assert list(diag.expected) == expected
    assert diag.found is (kinds + [K.EOF])[at]


def _grammar_diagnostic(kinds):
    """What parse_grammar_tokens reports for a kind sequence, by token index."""
    _, diag = parse_grammar_tokens([Token(k, k.value, Span.point(0, i)) for i, k in enumerate(kinds)])
    return diag and (diag.message, diag.expected, diag.found, diag.span.start_word)


def test_determined_prefixes_reject_every_extension_identically():
    # Criterion 2 prunes the subtree under a prefix that rejects_all_extensions
    # calls determined; that is sound only if every extension is rejected
    # exactly as the prefix alone is.
    rng = random.Random(20261018)
    kinds = [k for k in K if k is not K.EOF]
    valid = [_DOC, MIN_KINDS, MIN_KINDS[:16] + [K.STRING] + MIN_KINDS[16:],
             _DOC + [K.IMDAA, K.COLON, K.STRING, K.STRING, K.STRING, K.IMDAA, K.COLON, K.STRING],
             _PRE + _REF + [K.HAYSOU, K.STRING, K.DOT] + _ACK + _DOC[len(_PRE + _REF + _ACK):]]
    determined = set()
    for _ in range(3000):
        seq = list(rng.choice(valid))
        for _ in range(rng.randint(0, 2)):   # replace, insert or delete one kind
            at = rng.randrange(len(seq))
            edit = rng.randrange(3)
            if edit == 0:
                seq[at] = rng.choice(kinds)
            elif edit == 1:
                seq.insert(at, rng.choice(kinds))
            else:
                del seq[at]
        prefix = seq[:rng.randint(0, len(seq))]
        if not rejects_all_extensions(prefix):
            continue
        want = _grammar_diagnostic(prefix)
        assert want is not None
        determined.add(want)
        for kind in kinds:
            assert _grammar_diagnostic(prefix + [kind]) == want, (prefix, kind)
    # the draw reaches most failure sites, all along the document
    assert len({d[0] for d in determined}) > 20 and len({d[3] for d in determined}) > 20


# -- generated-document properties ----------------------------------------------

def test_unicode_spaces_read_like_ascii_spaces():
    rng = random.Random(2026)
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if unicodedata.category(c) == "Zs"]
    for _ in range(200):
        rendered = docgen.generate_document(rng)
        swapped = "".join(rng.choice(spaces) if ch == " " and rng.random() < 0.3 else ch
                          for ch in rendered.text)
        result = parse_document(norm(swapped))
        assert result.ok, (result.diagnostics, swapped)
        assert result.document == rendered.document


def test_generated_documents_round_trip_exactly():
    rng = random.Random(1402)
    for _ in range(300):
        rendered = docgen.generate_document(rng)
        text = norm(rendered.text)
        result = parse_document(text)
        assert result.ok, (result.diagnostics, rendered.text)
        assert result.document == rendered.document
        original = [w for line in text.lines for w in line]
        assert reconstruct_words(result.tokens) == original


def test_fold_invariant_noise_leaves_the_parse_unchanged():
    # harakat, ZWNJ and RLM inside keywords, and RLM after delimiters
    rng = random.Random(618)
    drop = str.maketrans(dict.fromkeys(docgen.FOLDED_NOISE))
    noisy_delimiters = 0
    for _ in range(300):
        rendered = docgen.generate_document(rng)
        noisy = docgen.add_fold_noise(rng, rendered.text)
        assert noisy.translate(drop) == rendered.text
        text = norm(noisy)
        result = parse_document(text)
        assert result.ok, (result.diagnostics, noisy)
        assert dump_ast(result.document).translate(drop) == dump_ast(rendered.document)
        original = [w for line in text.lines for w in line]
        assert reconstruct_words(result.tokens) == original
        noisy_delimiters += sum(t.lexeme.endswith("\u200f") for t in result.tokens
                                if t.kind in (K.COMMA, K.DOT, K.COLON))
    assert noisy_delimiters > 500


def test_fold_noise_passes_over_empty_lines_and_double_spaces():
    # Both split into empty words, which take no noise and draw nothing.
    rng = random.Random(619)
    drop = str.maketrans(dict.fromkeys(docgen.FOLDED_NOISE))
    for _ in range(50):
        rendered = docgen.generate_document(rng)
        source = rendered.text.replace("\n", "\n\n", 2).replace(" ", "  ", 1)
        noisy = docgen.add_fold_noise(rng, source)
        assert noisy != source and noisy.translate(drop) == source
        result = parse(noisy)
        assert result.ok, (result.diagnostics, noisy)
        assert dump_ast(result.document).translate(drop) == dump_ast(rendered.document)


def test_mutated_documents_fail_safely():
    rng = random.Random(2096)
    for _ in range(300):
        rendered = docgen.generate_document(rng)
        mutated = docgen.mutate_text(rng, rendered.text)
        text = norm(mutated)
        result = parse_document(text)          # must not raise
        if result.document is None:
            assert len(result.diagnostics) == 1
            d = result.diagnostics[0]
            assert 0 <= d.span.start_line <= len(text.lines)
        original = [w for line in text.lines for w in line]
        assert reconstruct_words(result.tokens) == original


# -- package surface -------------------------------------------------------------

def test_public_names_resolve():
    import legalc
    for name in legalc.__all__:
        getattr(legalc, name)  # a stale entry raises AttributeError


def test_removed_names_stay_removed():
    # Test-only helpers and members no caller in the package used; the
    # helpers live on in tests/descent.py.  The code generator writes lines,
    # not an element tree.  The scanner's one entry is Scanner.take.  The
    # oracle takes a sequence of any length; NormalizedText is its lines.
    import legalc
    from legalc import codegen, grammar, normalize, parser, scanner, tokens
    removed = [(legalc, "parse_token_kinds"), (legalc, "segment_trailer"),
               (legalc, "Element"), (codegen, "Element"), (codegen, "_render"),
               (parser, "parse_token_kinds"), (parser, "rejects_all_extensions"),
               (parser, "segment_trailer"), (parser, "StopSet"),
               (scanner, "line_heads"), (tokens, "punctuation_kind"),
               (scanner.Scanner, "position"), (scanner.Scanner, "has_pending"),
               (normalize.NormalizedText, "word"),
               (legalc, "StopSet"), (tokens, "StopSet"), (legalc, "ScanError"),
               (scanner, "ScanError"), (scanner.Scanner, "next_token"),
               (legalc, "LengthBoundError"), (grammar, "LengthBoundError"),
               (grammar, "DEFAULT_LENGTH_BOUND"), (legalc, "min_derivable_length"),
               (grammar, "min_derivable_length"), (normalize.NormalizedText, "words"),
               (normalize.NormalizedText, "line_count"),
               (normalize.NormalizedText, "line_text"), (tokens.Token, "detached")]
    for owner, name in removed:
        assert not hasattr(owner, name), name
    assert {"parse_token_kinds", "segment_trailer", "Element", "StopSet",
            "ScanError", "LengthBoundError", "min_derivable_length"}.isdisjoint(legalc.__all__)
    assert "max_len" not in inspect.signature(grammar.oracle_accepts).parameters


def test_ast_nodes_support_dataclass_replace():
    # callers rebuild parsed documents with dataclasses.replace, so the AST
    # stays frozen dataclasses while tokens and spans are NamedTuples
    doc = parse(MINIMAL).document
    article = dataclasses.replace(doc.articles[0], title="عنوان")
    signature = dataclasses.replace(Signature(SignatureKind.TYPE1, "فلان", "وزير"), name="علان")
    changed = dataclasses.replace(doc, articles=(article,), signatures=(signature,))
    assert (changed.articles[0].number, changed.articles[0].title) == (doc.articles[0].number, "عنوان")
    assert changed.signatures == (Signature(SignatureKind.TYPE1, "علان", "وزير"),)
    assert (changed.title, changed.loc_date) == (doc.title, doc.loc_date)
    assert doc.articles[0].title is None and doc.signatures == ()
