"""Preprocessing: decoding, line/word structure, folding, digits."""

import random
import sys
import unicodedata
from pathlib import Path

import pytest

import docgen
import legalc.parser
import legalc.scanner
from legalc.cli import render_diagnostic
from legalc.codegen import emit
from legalc.normalize import (
    _FORMAT_CONTROLS,
    DecodeError,
    fold_for_matching,
    has_digit,
    is_digit_run,
    preprocess,
    split_trailing,
    to_western_digits,
)

ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"
ASCII_DIGITS = "0123456789"


def test_utf8_bom_is_tolerated():
    text = preprocess("﻿مرسوم رقم ٥".encode("utf-8"), "t")
    assert text.lines[0][0] == "مرسوم"


@pytest.mark.parametrize("data,offset", [(b"\xef\xbb\xbfabc\xff", 6), (b"\xef\xbb\xbfab\x01c", 5)],
                         ids=["invalid-utf8", "illegal-character"])
def test_byte_offset_after_a_bom_counts_the_bom(data, offset):
    with pytest.raises(DecodeError) as exc:
        preprocess(data, "t")
    assert exc.value.byte_offset == offset


def test_crlf_and_cr_become_lf():
    text = preprocess("أ ب\r\nج\rد".encode("utf-8"), "t")
    assert len(text.lines) == 3
    assert text.lines[1] == ("ج",)
    assert text.lines[2] == ("د",)


def test_decode_error_carries_byte_offset():
    with pytest.raises(DecodeError) as exc:
        preprocess("مرسوم".encode("utf-8") + b"\xff\x81", "t")
    assert exc.value.byte_offset == len("مرسوم".encode("utf-8"))
    assert exc.value.reason


def test_nfc_composition():
    # alef + combining madda composes to the single madda-alef codepoint
    decomposed = "آ"
    text = preprocess(decomposed.encode("utf-8"), "t")
    assert text.lines == (("آ",),)
    assert unicodedata.is_normalized("NFC", text.lines[0][0])


def test_blank_lines_are_dropped():
    text = preprocess("أ\n\n   \n\t\nب\n".encode("utf-8"), "t")
    assert len(text.lines) == 2
    assert text.lines[1][0] == "ب"


def test_tabs_and_spaces_split_words():
    text = preprocess("أ\tب  ج \t د".encode("utf-8"), "t")
    assert text.lines[0] == ("أ", "ب", "ج", "د")


def test_every_unicode_space_separates_words():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if unicodedata.category(c) == "Zs"]
    for space in spaces:
        text = preprocess(f"أ{space}ب {space}\tج{space}".encode("utf-8"), "t")
        assert text.lines == (("أ", "ب", "ج"),), hex(ord(space))
    # other invisible or whitespace-like characters stay inside words
    for other in "\u200b\u0085\u2028\u180e":
        assert preprocess(f"أ{other}ب".encode("utf-8"), "t").lines == ((f"أ{other}ب",),)


def test_lines_keep_every_word_in_order_without_blank_lines():
    rng = random.Random(7)
    glyphs = "ابتثجحخدولةيى٠١٢،.:"
    for _ in range(200):
        lines = []
        for _ in range(rng.randint(1, 6)):
            words = ["".join(rng.choice(glyphs) for _ in range(rng.randint(1, 5)))
                     for _ in range(rng.randint(0, 5))]
            lines.append(words)
        raw = "\n".join(rng.choice((" ", "  ", "\t", " \t")).join(words) for words in lines)
        text = preprocess(raw.encode("utf-8"), "t")
        assert text.lines == tuple(tuple(words) for words in lines if words)


def test_separator_runs_leave_no_empty_words():
    text = preprocess("أ\t ب  ج".encode("utf-8"), "t")
    assert text.lines == (("أ", "ب", "ج"),)


# -- folding ---------------------------------------------------------------

def test_fold_alef_variants():
    for variant in "أإآٱ":
        assert fold_for_matching(variant) == "ا"


def test_fold_teh_marbuta_and_final_yeh():
    assert fold_for_matching("مادة") == "ماده"
    assert fold_for_matching("يأتى") == "ياتي"


def test_fold_removes_tatweel():
    assert fold_for_matching("مـادة") == "ماده"


def test_fold_drops_diacritics_and_format_controls():
    assert fold_for_matching("م\u064eاد\u0651ة") == "ماده"
    dropped = [*range(0x064B, 0x0660), 0x0670, *range(0x200C, 0x2010), 0x061C,
               *range(0x202A, 0x202F), *range(0x2066, 0x206A)]
    for code in dropped:
        assert fold_for_matching("ير" + chr(code) + "سم:") == "يرسم", hex(code)
    assert fold_for_matching("ير\u00a0سم") == "ير\u00a0سم"   # non-ASCII spaces stay


def test_fold_detaches_one_trailing_mark():
    assert fold_for_matching("منه،") == "منه"
    assert split_trailing("منه،") == ("منه", "،")
    assert fold_for_matching("يأتي:") == "ياتي"
    assert split_trailing("يأتي:") == ("يأتي", ":")


def test_fold_keeps_lone_punctuation_whole():
    assert fold_for_matching("،") == "،"
    assert split_trailing("،") == ("،", "")


def test_fold_detaches_only_the_last_mark():
    assert fold_for_matching("كذا،.") == "كذا،"
    assert split_trailing("كذا،.") == ("كذا،", ".")


def test_body_preserves_original_spelling():
    assert fold_for_matching("الإمضاء:") == "الامضاء"
    assert split_trailing("الإمضاء:") == ("الإمضاء", ":")


def test_cached_fold_equals_the_uncached_function():
    rng = random.Random(31)
    vocabulary = [*docgen.WORDS, *docgen.KEYWORD_WORDS]
    digits = docgen.ARABIC_DIGITS + docgen.ASCII_DIGITS
    words = []
    for _ in range(400):
        line = " ".join(rng.choice(vocabulary) + rng.choice(("", "", "،", ".", ":"))
                        for _ in range(rng.randint(1, 8)))
        words += docgen.add_fold_noise(rng, line).split()
        words += ["".join(rng.choices(digits, k=rng.randint(1, 4))) + rng.choice(("", "،", "."))]
        words += [rng.choice("،.:") + "".join(rng.choices(_FORMAT_CONTROLS, k=rng.randint(0, 2)))]
        words += [rng.choice(vocabulary) + rng.choice("،.:") + rng.choice(_FORMAT_CONTROLS)]
    fold_for_matching.cache_clear()
    for word in words:   # each word twice: a miss, then (mostly) a hit
        assert fold_for_matching(word) == fold_for_matching.__wrapped__(word), repr(word)
        assert fold_for_matching(word) == fold_for_matching.__wrapped__(word), repr(word)
    assert fold_for_matching.cache_info().hits >= len(words)


def test_fold_cache_is_bounded():
    assert fold_for_matching.cache_info().maxsize == 1024


def _outputs(sources: list[bytes]) -> list[bytes | str]:
    """The XML of each accepted document, the rendered diagnostics of each
    rejected one."""
    outputs = []
    for data in sources:
        text = preprocess(data, "t")
        result = legalc.parser.parse_document(text)
        outputs.append(emit(result.document) if result.document is not None
                       else "".join(render_diagnostic(d, text) for d in result.diagnostics))
    return outputs


def test_compiles_do_not_depend_on_the_fold_cache(monkeypatch):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    rng = random.Random(32)
    generated = [docgen.generate_document(rng).text for _ in range(200)]
    # every fourth one broken, so diagnostics are compared too; the rest noisy
    sources = [p.read_bytes() for p in sorted(corpus.glob("*.txt"))]
    sources += [(docgen.mutate_text(rng, t) if i % 4 == 0 else docgen.add_fold_noise(rng, t))
                .encode("utf-8") for i, t in enumerate(generated)]
    with monkeypatch.context() as patch:
        for module in (legalc.scanner, legalc.parser):
            patch.setattr(module, "fold_for_matching", fold_for_matching.__wrapped__)
        uncached = _outputs(sources)
    assert any(isinstance(out, str) and out for out in uncached)   # some are rejected
    fold_for_matching.cache_clear()
    assert _outputs(sources) == uncached     # cold cache
    assert _outputs(sources) == uncached     # warm cache
    assert fold_for_matching.cache_info().hits > 0


# -- digits ----------------------------------------------------------------

def test_digit_pairs_map_exhaustively():
    seen = set()
    for arabic, ascii_ in zip(ARABIC_DIGITS, ASCII_DIGITS):
        converted = to_western_digits(arabic)
        assert converted == ascii_
        seen.add(converted)
    assert len(seen) == 10


def test_to_western_digits_leaves_other_text_alone():
    assert to_western_digits("قمر 12 ٣٤") == "قمر 12 34"


def test_to_western_digits_idempotent():
    rng = random.Random(11)
    pool = ARABIC_DIGITS + ASCII_DIGITS + "ابج ،.:"
    for _ in range(300):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
        once = to_western_digits(s)
        assert to_western_digits(once) == once


def test_digit_run_predicates():
    assert is_digit_run("٢٥")
    assert is_digit_run("25")
    assert is_digit_run("٢5")
    assert not is_digit_run("٢٥،")
    assert not is_digit_run("")
    assert has_digit("بتاريخ٢٠١٨")
    assert not has_digit("قمر")


def test_digit_run_agrees_with_per_character_reference():
    # The per-character tests is_digit_run and has_digit replaced, with their
    # 20 digits.  Look-alikes stay non-digits: extended Arabic-Indic
    # U+06F0-U+06F9, superscript two, fullwidth one and Devanagari one
    # (str.isdigit and the regex class \d take all or some of these).
    reference_digits = frozenset(ASCII_DIGITS + ARABIC_DIGITS)
    look_alikes = "".join(map(chr, range(0x06F0, 0x06FA))) + "\u00b2\uff11\u0967"
    pools = (ASCII_DIGITS + ARABIC_DIGITS, look_alikes, "ابجمن،.:")
    rng = random.Random(23)
    seen, isdigit_differs, has_seen = set(), 0, set()
    words = [*ASCII_DIGITS, *ARABIC_DIGITS, *look_alikes]
    # mostly digits, so that whole digit runs are drawn often
    words += ["".join(rng.choice(rng.choices(pools, (8, 1, 1))[0])
                      for _ in range(rng.randint(0, 6))) for _ in range(3000)]
    for w in words:
        expected = bool(w) and all(ch in reference_digits for ch in w)
        assert is_digit_run(w) == expected, repr(w)
        seen.add(expected)
        isdigit_differs += w.isdigit() != expected
        has = any(ch in reference_digits for ch in w)
        assert has_digit(w) == has, repr(w)
        has_seen.add((has, expected))
    assert seen == {True, False} and isdigit_differs > 100
    # has_digit also meets words with a digit that are no digit run
    assert has_seen == {(True, True), (True, False), (False, False)}
