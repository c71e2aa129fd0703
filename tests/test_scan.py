"""Scanner behavior: keyword phrases, expected kinds and bounds, pending punctuation."""

import copy
import pickle
import random
from pathlib import Path

import pytest

import docgen
from legalc.normalize import is_digit_run, preprocess
from legalc.parser import _ANY, _NUMBER, _STOP_AT, scan_document
from legalc.scanner import (
    Scanner,
    dump_tokens,
    match_keyword_phrase,
    reconstruct_words,
)
from legalc.tokens import Span, Token, TokenKind

K = TokenKind


def norm(source: str):
    return preprocess(source.encode("utf-8"), "test")


def kinds_of(tokens):
    return [t.kind for t in tokens]


# -- keyword phrase matching -------------------------------------------------

@pytest.mark.parametrize("phrase,kind,count", [
    ("قانون", K.TYPE, 1),
    ("قرار", K.TYPE, 1),
    ("مرسوم", K.TYPE, 1),
    ("رقم", K.RAQM, 1),
    ("إن", K.INNA, 1),
    ("ونظرا", K.BINAA, 1),
    ("وبعد الاطلاع", K.BINAA, 2),
    ("وبعد موافقة", K.BINAA, 2),
    ("وبناء على", K.BINAA, 2),
    ("بناء على", K.BINAA, 2),
    ("نظرا", K.HAYSOU, 1),
    ("وبعد أن", K.HAYSOU, 2),
    ("وبما أن", K.HAYSOU, 2),
    ("وحيث أن", K.HAYSOU, 2),
    ("يرسم ما يأتي", K.YAKOUR, 3),
    ("يرسم ما يلي", K.YAKOUR, 3),
    ("يقرر ما يأتي", K.YAKOUR, 3),
    ("يقرر ما يلي", K.YAKOUR, 3),
    ("مادة", K.MADA, 1),
    ("المادة", K.MADA, 1),
    ("في", K.FI, 1),
    ("إمضاء", K.IMDAA, 1),
    ("الإمضاء", K.IMDAA, 1),
])
def test_every_keyword_spelling_matches(phrase, kind, count):
    m = match_keyword_phrase(norm(phrase + " كذا"), 0, 0)
    assert m is not None and (m.kind, m.word_count) == (kind, count)


def test_longest_phrase_wins():
    # the 2-word وبعد أن must win over any 1-word reading of وبعد
    m = match_keyword_phrase(norm("وبعد أن اطلعت"), 0, 0)
    assert m is not None and (m.kind, m.word_count) == (K.HAYSOU, 2)
    assert match_keyword_phrase(norm("وبعد شيء"), 0, 0) is None


def test_folded_spelling_variants_match():
    # bare alef and stripped hamza forms fold onto the canonical keywords
    assert match_keyword_phrase(norm("الامضاء: فلان"), 0, 0).kind is K.IMDAA
    assert match_keyword_phrase(norm("ان الوزير"), 0, 0).kind is K.INNA
    assert match_keyword_phrase(norm("ماده ١:"), 0, 0).kind is K.MADA


def test_phrases_never_span_lines():
    assert match_keyword_phrase(norm("بناء\nعلى الدستور"), 0, 0) is None


def test_intermediate_trailing_punctuation_blocks_phrase():
    assert match_keyword_phrase(norm("يرسم، ما يأتي"), 0, 0) is None
    assert match_keyword_phrase(norm("بناء، على"), 0, 0) is None


def test_trailing_punctuation_on_final_word_is_fine():
    m = match_keyword_phrase(norm("يرسم ما يأتي:"), 0, 0)
    assert m is not None and m.kind is K.YAKOUR


def test_match_respects_stop_before_limit():
    text = norm("كذا بناء على الدستور")
    assert match_keyword_phrase(text, 0, 1) is not None
    # a bound excluding the phrase's second word leaves it plain text
    sc = Scanner(text)
    assert sc.take(frozenset({K.BINAA}), (0, 2)).lexeme == "كذا بناء"
    sc = Scanner(text)
    kinds = frozenset({K.BINAA})
    assert sc.take(kinds, (0, 3)) == Token(K.STRING, "كذا", Span(0, 0, 0, 0))
    assert sc.take(kinds, (0, 3)) == Token(K.BINAA, "بناء على", Span(0, 1, 0, 2))


def test_bench_hooks_resolve_on_scanner_and_parser():
    # bench/worker.py install() wraps both names on both modules to count
    # folds and keyword probes, so each module must keep them importable.
    import legalc.parser
    import legalc.scanner
    for module in (legalc.scanner, legalc.parser):
        assert callable(module.match_keyword_phrase) and callable(module.fold_for_matching)


def test_scan_number():
    # NUM is scanned exactly when the folded word is a digit run
    assert is_digit_run("٢٥")
    assert is_digit_run("25")
    assert not is_digit_run("٢٥أ")
    assert not is_digit_run("")


# -- token emission ----------------------------------------------------------

def test_statement_line_tokens():
    sc = Scanner(norm("مرسوم رقم ٢٥"))
    assert sc.take(frozenset({K.TYPE})).kind is K.TYPE
    assert sc.take(frozenset({K.RAQM})).kind is K.RAQM
    tok = sc.take(frozenset({K.NUM}))
    assert (tok.kind, tok.lexeme) == (K.NUM, "٢٥")
    assert sc.take(frozenset()).kind is K.EOF


def test_number_only_taken_when_expected():
    sc = Scanner(norm("٢٥ كذا"))
    tok = sc.take(frozenset())
    assert tok.kind is K.STRING
    assert tok.lexeme == "٢٥ كذا"


def test_string_stops_at_attached_comma_and_queues_it():
    sc = Scanner(norm("رئيس الجمهورية، كذا"))
    tok = sc.take(frozenset({K.COMMA}))
    assert (tok.kind, tok.lexeme, tok.span) == (K.STRING, "رئيس الجمهورية", Span(0, 0, 0, 1))
    # split off its host, the comma spans the word the text ends in
    comma = sc.take(frozenset({K.COMMA}))
    assert (comma.kind, comma.lexeme, comma.span) == (K.COMMA, "،", Span.point(0, 1))
    rest = sc.take(frozenset())
    assert (rest.kind, rest.lexeme) == (K.STRING, "كذا")


def test_no_keyword_is_peeked_while_a_delimiter_is_pending():
    sc = Scanner(norm("كذا، بناء على"))
    assert sc.take(frozenset({K.COMMA})).lexeme == "كذا"
    assert sc.pending is not None and sc.peek_keyword() is None
    assert sc.take(frozenset({K.BINAA})).kind is K.COMMA
    assert sc.peek_keyword() == (K.BINAA, 2)


def test_standalone_comma_stops_and_is_not_detached():
    sc = Scanner(norm("كذا ، تابع"))
    tok = sc.take(frozenset({K.COMMA}))
    assert (tok.lexeme, tok.span) == ("كذا", Span.point(0, 0))
    # a word of its own, the comma starts after the text's last word
    comma = sc.take(frozenset())
    assert (comma.kind, comma.span) == (K.COMMA, Span.point(0, 1))


def test_comma_stops_even_when_unexpected():
    sc = Scanner(norm("كذا، تابع"))
    tok = sc.take(frozenset())
    assert tok.lexeme == "كذا"
    assert sc.take(frozenset()).kind is K.COMMA


def test_dot_stops_only_at_line_end():
    sc = Scanner(norm("قمر. شمس نهاية.\nجبل"))
    tok = sc.take(frozenset({K.DOT}))
    assert tok.lexeme == "قمر. شمس نهاية"
    assert sc.take(frozenset({K.DOT})).kind is K.DOT
    assert sc.take(frozenset()).lexeme == "جبل"


def test_colon_stops_only_when_expected():
    sc = Scanner(norm("عنوان: تابع"))
    tok = sc.take(frozenset())
    assert tok.lexeme == "عنوان: تابع"
    sc = Scanner(norm("عنوان: تابع"))
    tok = sc.take(frozenset({K.COLON}))
    assert tok.lexeme == "عنوان"
    assert sc.take(frozenset()).kind is K.COLON


def test_lone_colon_word_returned_directly_when_expected():
    sc = Scanner(norm("يرسم ما يأتي :"))
    tok = sc.take(frozenset({K.YAKOUR}))
    assert (tok.kind, tok.span) == (K.YAKOUR, Span(0, 0, 0, 2))
    colon = sc.take(frozenset({K.COLON}))
    assert (colon.kind, colon.lexeme, colon.span) == (K.COLON, ":", Span.point(0, 3))


def test_keyword_stops_string_mid_line():
    sc = Scanner(norm("بعيدا في ٢٠١٨"))
    tok = sc.take(frozenset({K.FI}))
    assert tok.lexeme == "بعيدا"
    assert sc.take(frozenset({K.FI})).kind is K.FI


def test_keyword_at_line_start_does_not_end_text():
    sc = Scanner(norm("عنوان طويل\nإن الوزير"))
    tok = sc.take(frozenset({K.INNA}))
    assert tok.lexeme == "عنوان طويل إن الوزير"


def test_unexpected_keyword_is_plain_text():
    sc = Scanner(norm("المرسوم رقم ١١٦ كذا"))
    tok = sc.take(frozenset({K.COMMA}))
    assert tok.lexeme == "المرسوم رقم ١١٦ كذا"


def test_no_keyword_probe_without_an_expected_keyword(monkeypatch):
    import legalc.scanner as scanner_module
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return match_keyword_phrase(*args, **kwargs)
    monkeypatch.setattr(scanner_module, "match_keyword_phrase", counted)

    clause = "الدستور إن مادة رقم ١١٦ في كذا، تابع ونظرا."
    sc = Scanner(norm(clause))
    calls.clear()   # building the scanner matches each line's head once
    tokens = [sc.take(frozenset({K.COMMA, K.DOT})) for _ in range(5)]
    assert kinds_of(tokens) == [K.STRING, K.COMMA, K.STRING, K.DOT, K.EOF]
    assert calls == []

    sc = Scanner(norm(clause))
    assert sc.take(frozenset({K.INNA})).lexeme == "الدستور"
    assert sc.take(frozenset({K.INNA})).kind is K.INNA
    assert calls


def test_stop_before_bounds_accumulation():
    sc = Scanner(norm("واحد اثنان ثلاثة أربعة"))
    tok = sc.take(frozenset(), (0, 2))
    assert tok.lexeme == "واحد اثنان"
    tok = sc.take(frozenset(), (1, 0))
    assert tok.lexeme == "ثلاثة أربعة"


def test_exhausted_region_raises():
    sc = Scanner(norm("واحد اثنان"))
    sc.take(frozenset(), (0, 1))
    with pytest.raises(ValueError, match="no input left"):
        sc.take(frozenset(), (0, 1))


def test_end_of_input_beats_region_bound():
    sc = Scanner(norm("واحد"))
    sc.take(frozenset())
    assert sc.take(frozenset(), (0, 1)).kind is K.EOF


def test_eof_token_at_end():
    sc = Scanner(norm("كلمة"))
    sc.take(frozenset())
    eof = sc.take(frozenset())
    assert eof.kind is K.EOF
    assert eof.span.start_line == 0


def test_keyword_lexeme_keeps_original_spelling():
    sc = Scanner(norm("الامضاء: فلان"))
    tok = sc.take(frozenset({K.IMDAA}))
    assert tok.lexeme == "الامضاء"
    assert sc.take(frozenset({K.COLON})).kind is K.COLON


def test_spans_are_one_based_in_display():
    sc = Scanner(norm("مرسوم رقم ٢٥"))
    tok = sc.take(frozenset({K.TYPE}))
    assert str(tok.span) == "1:1-1:1"


def test_string_is_never_a_stop_kind():
    # The guard runs where a kinds set is first worked out and caches
    # nothing, so a second take raises again.
    sc = Scanner(norm("واحد اثنان"))
    for _ in range(2):
        with pytest.raises(ValueError, match="STRING"):
            sc.take(frozenset({K.STRING}))
        with pytest.raises(ValueError, match="STRING"):
            sc.take(frozenset({K.COMMA, K.STRING}), (0, 1))
    assert (sc.line, sc.word, sc.pending) == (0, 0, None)
    # The driver's constant kinds sets pass the same guard.
    for kinds in (_ANY, _NUMBER, *_STOP_AT.values()):
        assert type(kinds) is frozenset and K.STRING not in kinds, kinds


def test_spans_and_tokens_compare_and_hash_by_value():
    span = Span(0, 1, 2, 3)
    token = Token(K.STRING, "نص", span)
    twin = Token(K.STRING, "نص", Span(0, 1, 2, 3))
    assert token == twin and hash(token) == hash(twin) and len({token, twin}) == 1
    assert Span.point(1, 2) == Span(1, 2, 1, 2) and hash(Span.point(1, 2)) == hash(Span(1, 2, 1, 2))
    assert token != Token(K.COMMA, "نص", span)
    assert token != Token(K.STRING, "نص", Span(0, 1, 2, 4))
    assert str(span) == "1:2-3:4" and Token._fields == ("kind", "lexeme", "span")


def test_hot_path_records_are_full_namedtuples():
    # The scanner and the driver's content regions build their records with
    # tuple.__new__, which checks nothing; a plain tuple or one of the wrong
    # length would still compare or unpack, so types and lengths are checked
    # here.
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    rng = random.Random(12)
    sources = [p.read_text(encoding="utf-8") for p in sorted(corpus.glob("*.txt"))]
    sources += [docgen.generate_document(rng).text for _ in range(100)]
    sources += [docgen.many_articles(300),
                docgen.many_articles(3).replace("نص المادة رقمها 1\n", ".\n"),
                docgen.many_articles(3).replace("نص المادة رقمها 3\n", "،\n"),
                # a content region is one STRING, so the split-off and the
                # standalone DOT come from the residual of a rejected text
                "نص بلا نوع.\n.\n"]
    kinds_seen = set()
    for source in sources:
        result = scan_document(norm(source))
        for tok in (*result.tokens, *result.grammar_tokens):
            assert type(tok) is Token and len(tok) == 3, tok
            assert type(tok.span) is Span and len(tok.span) == 4, tok
        for before, tok in zip(result.tokens, result.tokens[1:]):
            kinds_seen.add((tok.kind, tok.span[:2] == before.span[2:]))
    # every scanner site ran: keyword, NUM, STRING, split-off and whole delimiters
    assert {(K.MADA, False), (K.NUM, False), (K.STRING, False),
            (K.COMMA, True), (K.DOT, True), (K.DOT, False), (K.COMMA, False)} <= kinds_seen


@pytest.mark.parametrize("kind", list(TokenKind))
def test_kinds_survive_copies_as_the_same_member(kind):
    kinds = frozenset(TokenKind)
    for copied in (pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind)):
        assert copied is kind and hash(copied) == hash(kind)
        assert copied in kinds and copied in frozenset({kind})
    assert pickle.loads(pickle.dumps(kinds)) == kinds


# -- reconstruction and dumps -------------------------------------------------

def test_reconstruct_reattaches_detached_punctuation():
    text = norm("رئيس الجمهورية،\nكذا ، تابع.")
    sc = Scanner(text)
    tokens = []
    while True:
        tok = sc.take(frozenset({K.COMMA, K.DOT}))
        tokens.append(tok)
        if tok.kind is K.EOF:
            break
    original = [w for line in text.lines for w in line]
    assert reconstruct_words(tokens) == original


def test_dump_tokens_format():
    sc = Scanner(norm("مرسوم رقم ٢٥"))
    tokens = [sc.take(frozenset({K.TYPE})),
              sc.take(frozenset({K.RAQM})),
              sc.take(frozenset({K.NUM}))]
    dump = dump_tokens(tokens)
    lines = dump.splitlines()
    assert lines[0].split("\t") == ["TYPE", "1:1-1:1", "مرسوم"]
    assert lines[2].split("\t") == ["NUM", "1:3-1:3", "٢٥"]
