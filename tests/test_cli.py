"""Command-line behavior: modes, exit codes, outputs, diagnostics."""

import argparse
import contextlib
import io
import random
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from docgen import add_fold_noise, generate_document, many_articles, mutate_text
from legalc.cli import _USAGE, _Args, _read_args, render_diagnostic, run
from legalc.codegen import emit
from legalc.normalize import fold_for_matching, preprocess
from legalc.parser import parse_document
from legalc.scanner import reconstruct_words

GOOD = """مرسوم رقم ٥
عنوان قصير
إن الوزير،
بناء على الدستور،
يرسم ما يأتي:
مادة ١:
نص المادة
بيروت في ٢٠٢٠
"""

BAD = GOOD.replace("رقم", "بلا")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def good(tmp_path):
    p = tmp_path / "doc.txt"
    p.write_text(GOOD, encoding="utf-8")
    return p


@pytest.fixture
def bad(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text(BAD, encoding="utf-8")
    return p


def test_default_output_path_swaps_suffix(good):
    code, out, err = invoke([str(good)])
    assert (code, out, err) == (0, "", "")
    produced = good.with_suffix(".xml")
    assert produced.exists()
    assert ET.parse(produced).getroot().tag == "document"


def test_output_to_stdout(good):
    code, out, err = invoke([str(good), "-o", "-"])
    assert code == 0
    assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "<إن" not in out


def test_explicit_output_path(good, tmp_path):
    target = tmp_path / "custom.xml"
    code, _, _ = invoke([str(good), "-o", str(target)])
    assert code == 0 and target.exists()


def test_validate_mode_is_quiet(good):
    assert invoke([str(good), "--validate"]) == (0, "", "")


def test_validate_rejected_document(bad):
    code, out, err = invoke([str(bad), "--validate"])
    assert (code, out) == (1, "")
    assert "error:" in err
    assert str(bad) in err
    assert "^" in err  # caret under the offending word


def test_diagnostic_shows_offending_line_and_expectations(bad):
    _, _, err = invoke([str(bad), "--validate"])
    assert "مرسوم بلا ٥" in err
    assert "expected:" in err
    assert "رقم" in err


@pytest.mark.parametrize("old,new,line,caret", [
    # one middle word of a line typed with a tab and double spaces
    ("مادة ١:", "مادة\t١  كذا:  نص", "مادة ١ كذا: نص", "       ^~~~"),
    # a keyword phrase spanning three words of one line
    ("بناء على الدستور،\nيرسم ما يأتي:", "يرسم  ما\tيأتي: شيء",
     "يرسم ما يأتي: شيء", "^~~~~~~~~~~~~"),
    # a text span that runs on to later lines: the caret runs to the line end
    ("رقم", "بلا", "مرسوم بلا ٥", "      ^~~~~"),
])
def test_caret_marks_the_diagnostic_span(tmp_path, old, new, line, caret):
    p = tmp_path / "doc.txt"
    p.write_text(GOOD.replace(old, new), encoding="utf-8")
    code, _, err = invoke([str(p), "--validate"])
    assert code == 1
    assert err.splitlines()[1:3] == ["  " + line, "  " + caret]


@pytest.mark.parametrize("line,old,new", [
    (6, "مادة", "م\u064eادة"),              # fatha
    (6, "مادة", "ماد\u0651ة"),              # shadda
    (5, "يرسم", "ير\u200cسم"),              # ZWNJ
    (16, "الامضاء", "\u200fالامضاء"),        # RLM before the first signature
    (19, "الامضاء", "\u200fالامضاء"),        # RLM before the second
], ids=["fatha", "shadda", "zwnj", "rlm-first-signature", "rlm-second-signature"])
def test_invisible_marks_in_keywords_are_matched_through(tmp_path, corpus_dir, golden_dir,
                                                          line, old, new):
    lines = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8").split("\n")
    lines[line] = lines[line].replace(old, new, 1)
    p = tmp_path / "doc.txt"
    p.write_text("\n".join(lines), encoding="utf-8")
    assert invoke([str(p), "--validate"]) == (0, "", "")
    code, tokens, _ = invoke([str(p), "--dump-tokens"])
    assert code == 0 and f"\t{new}" in tokens        # the keyword keeps its spelling
    code, xml, _ = invoke([str(p), "-o", "-"])
    assert code == 0 and xml == (golden_dir / "decree-25.xml").read_text(encoding="utf-8")


@pytest.mark.parametrize("space", ["\u00a0", "\u2009", "\u202f"], ids=["nbsp", "thin", "narrow-nbsp"])
def test_non_ascii_space_separates_words(tmp_path, corpus_dir, golden_dir, space):
    lines = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].replace("بناء على", f"بناء{space}على", 1)
    p = tmp_path / "doc.txt"
    p.write_text("\n".join(lines), encoding="utf-8")
    assert invoke([str(p), "--validate"]) == (0, "", "")
    code, xml, _ = invoke([str(p), "-o", "-"])
    assert code == 0 and xml == (golden_dir / "decree-25.xml").read_text(encoding="utf-8")


@pytest.mark.parametrize("line,word", [
    (3, "الجمهورية،"), (4, "منه،"), (5, "الوزراء،"), (6, "يأتي:"), (7, "١:"), (10, "٢:"),
    (11, "يلي:"), (13, "المجلس."), (14, "٣:"), (17, "الامضاء:"), (20, "الامضاء:"),
])
def test_format_control_after_a_delimiter_keeps_it_a_delimiter(tmp_path, corpus_dir, line, word):
    source = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8")
    lines = source.split("\n")
    assert lines[line - 1].count(word) == 1
    lines[line - 1] = lines[line - 1].replace(word, word + "\u200f")    # an RLM after it
    p = tmp_path / "doc.txt"
    p.write_text("\n".join(lines), encoding="utf-8")
    assert invoke([str(p), "--validate"]) == (0, "", "")
    plain = tmp_path / "plain.txt"
    plain.write_text(source, encoding="utf-8")
    want = invoke([str(plain), "--dump-ast"])[1]
    if line in (11, 13):   # inside article content, which keeps the mark
        want = want.replace(word, word + "\u200f")
    assert invoke([str(p), "--dump-ast"]) == (0, want, "")
    text = preprocess(p.read_bytes(), "doc")
    words = [w for line_words in text.lines for w in line_words]
    assert reconstruct_words(parse_document(text).tokens) == words


def test_dump_tokens(good):
    code, out, _ = invoke([str(good), "--dump-tokens"])
    assert code == 0
    first = out.splitlines()[0].split("\t")
    assert first[0] == "TYPE"
    assert out.splitlines()[-1].startswith("EOF")


@pytest.mark.parametrize("flag,suffix", [("--dump-tokens", ".tokens"), ("--dump-ast", ".ast")])
def test_dumps_are_the_golden(corpus_dir, golden_dir, flag, suffix):
    code, out, err = invoke([str(corpus_dir / "decree-25.txt"), flag])
    assert (code, err) == (0, "")
    assert out == (golden_dir / ("decree-25" + suffix)).read_text(encoding="utf-8")


def test_dump_tokens_on_rejected_input_still_prints(bad):
    code, out, err = invoke([str(bad), "--dump-tokens"])
    assert code == 1
    assert out.splitlines()[0].split("\t")[0] == "TYPE"
    assert "error:" in err


def test_dump_ast(good):
    code, out, _ = invoke([str(good), "--dump-ast"])
    assert code == 0
    assert out.splitlines()[0] == "document"
    assert "statement type=مرسوم number=٥" in out


def test_stdin_to_stdout(good, monkeypatch):
    stdin = io.BytesIO(GOOD.encode("utf-8"))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin, encoding="utf-8"))
    code, out, _ = invoke(["-"])
    assert code == 0
    assert out.startswith('<?xml')


def test_invalid_utf8_is_a_rejection(tmp_path):
    p = tmp_path / "bin.txt"
    p.write_bytes(b"\xff\xfe\x00")
    code, _, err = invoke([str(p), "--validate"])
    assert code == 1
    assert "byte 0" in err


def test_diagnostic_gives_the_source_line_number(tmp_path, corpus_dir):
    # blank and whitespace-only lines drop before scanning, but the
    # location still counts them
    lines = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8").split("\n")
    lines[5] = lines[5].replace("يأتي:", "يأتي")
    p = tmp_path / "doc.txt"
    p.write_text("\n".join(lines), encoding="utf-8")
    assert f"at {p}:7:1\n" in invoke([str(p), "--validate"])[2]
    p.write_bytes("\n".join([*lines[:3], "", " \t ", "\u00a0", *lines[3:]])
                  .replace("\n", "\r\n", 2).encode("utf-8"))
    code, _, err = invoke([str(p), "--validate"])
    assert code == 1 and f"at {p}:10:1\n" in err
    assert err.split("\n")[1] == "  " + lines[6]


def decree_with_title_char(tmp_path, corpus_dir, char):
    """decree-25 with ``char`` inside its title: the file and the byte offset
    of ``char``."""
    first, title, rest = (corpus_dir / "decree-25.txt").read_bytes().split(b"\n", 2)
    title = title.decode("utf-8")
    head = first + b"\n" + title[:4].encode("utf-8")
    p = tmp_path / "doc.txt"
    p.write_bytes(head + (char + title[4:]).encode("utf-8") + b"\n" + rest)
    return p, len(head)


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f",
                                  "\ufffe", "\uffff"])
def test_xml_illegal_character_is_a_rejection(tmp_path, corpus_dir, char):
    p, offset = decree_with_title_char(tmp_path, corpus_dir, char)
    code, out, err = invoke([str(p), "-o", "-"])
    assert (code, out) == (1, "")
    assert err == (f"error: {p}: illegal character at byte {offset}: "
                   f"U+{ord(char):04X} is not allowed in XML\n")


@pytest.mark.parametrize("char", ["\t", "\x7f", "\x85"])
def test_xml_legal_controls_are_accepted(tmp_path, corpus_dir, char):
    p, _ = decree_with_title_char(tmp_path, corpus_dir, char)
    code, out, _ = invoke([str(p), "-o", "-"])
    assert code == 0
    ET.fromstring(out.encode("utf-8"))


def test_missing_file_is_usage_error(tmp_path):
    code, _, err = invoke([str(tmp_path / "nope.txt"), "--validate"])
    assert code == 2
    assert "cannot read" in err


def test_unwritable_output_is_usage_error(good, tmp_path):
    dest = tmp_path / "missing" / "doc.xml"
    code, out, err = invoke([str(good), "-o", str(dest)])
    assert (code, out) == (2, "")
    assert err.startswith(f"legalc: error: cannot write {dest}: ") and err.count("\n") == 1
    assert not dest.parent.exists()


def test_output_never_overwrites_the_input(good, tmp_path):
    # an input named *.xml is its own default destination
    source = tmp_path / "decree.xml"
    source.write_text(GOOD, encoding="utf-8")
    for argv in ([str(source)], [str(source), "-o", f"{tmp_path}/./decree.xml"],
                 [str(good), "-o", str(good)]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err == f"legalc: error: cannot write {argv[-1]}: it is an input file\n"
    assert source.read_text(encoding="utf-8") == good.read_text(encoding="utf-8") == GOOD
    assert not good.with_suffix(".xml").exists()


def test_batch_goes_on_past_an_input_it_would_overwrite(good, tmp_path):
    source = tmp_path / "decree.xml"
    source.write_text(GOOD, encoding="utf-8")
    code, out, err = invoke([str(source), str(good)])
    assert (code, out) == (2, "")
    assert err == f"legalc: error: cannot write {source}: it is an input file\n"
    assert source.read_text(encoding="utf-8") == GOOD
    assert ET.parse(good.with_suffix(".xml")).getroot().tag == "document"


def test_batch_never_writes_over_another_input(good):
    # doc.txt's default destination is the batch's other input, doc.xml
    other = good.with_suffix(".xml")
    other.write_text(GOOD, encoding="utf-8")
    code, out, err = invoke([str(good), str(other)])
    assert (code, out) == (2, "")
    assert err == "".join(f"legalc: error: cannot write {other}: it is an input file\n"
                          for _ in range(2))
    assert other.read_text(encoding="utf-8") == GOOD


def test_batch_never_writes_over_its_own_output(good, tmp_path):
    # doc.txt and doc.md share the destination doc.xml: the first one wins
    twin = good.with_suffix(".md")
    twin.write_text(GOOD.replace("عنوان قصير", "عنوان آخر"), encoding="utf-8")
    code, out, err = invoke([str(good), str(twin), str(tmp_path / "nope.txt")])
    dest = good.with_suffix(".xml")
    assert (code, out) == (2, "")
    assert err.startswith(f"legalc: error: cannot write {dest}: this run already wrote it\n")
    assert "cannot read" in err
    assert ET.parse(dest).getroot().findtext("title") == "عنوان قصير"


def test_batch_naming_one_input_twice_writes_it_once(good):
    dest = good.with_suffix(".xml")
    code, out, err = invoke([str(good), str(good)])
    assert (code, out) == (2, "")
    assert err == f"legalc: error: cannot write {dest}: this run already wrote it\n"
    assert ET.parse(dest).getroot().tag == "document"


@pytest.mark.parametrize("link", ["hard", "symbolic"])
def test_output_never_overwrites_a_link_to_the_input(good, tmp_path, link):
    dest = tmp_path / "alias.xml"
    if link == "hard":
        dest.hardlink_to(good)
    else:
        dest.symlink_to(good)
    code, out, err = invoke([str(good), "-o", str(dest)])
    assert (code, out) == (2, "")
    assert err == f"legalc: error: cannot write {dest}: it is an input file\n"
    assert good.read_text(encoding="utf-8") == GOOD


def test_output_replaces_a_file_that_is_no_input(good):
    dest = good.with_suffix(".xml")
    dest.write_text("stale", encoding="utf-8")
    assert invoke([str(good)]) == (0, "", "")
    assert ET.parse(dest).getroot().findtext("title") == "عنوان قصير"


def test_batch_returns_worst_code(good, bad, tmp_path):
    code, _, _ = invoke([str(good), str(bad), "--validate"])
    assert code == 1
    code, _, _ = invoke([str(good), str(tmp_path / "nope.txt"), str(bad), "--validate"])
    assert code == 2


def test_batch_processes_every_input(good, bad):
    _, _, err = invoke([str(bad), str(good), "--validate"])
    assert str(bad) in err


def test_output_with_multiple_inputs_is_usage_error(good, bad):
    code, _, err = invoke([str(good), str(bad), "-o", "x.xml"])
    assert code == 2
    assert "requires exactly one input" in err


@pytest.mark.parametrize("flag", [["--indent", "2"], ["--root-tag", "decree"], ["--no-declaration"]],
                         ids=["indent", "root-tag", "no-declaration"])
def test_removed_output_shape_flags_are_usage_errors(good, flag):
    code, out, err = invoke([*flag, str(good)])
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err
    assert not good.with_suffix(".xml").exists()


def test_mutually_exclusive_modes(good):
    code, _, err = invoke([str(good), "--validate", "--dump-ast"])
    assert code == 2
    assert "not allowed with" in err


def test_no_arguments_is_usage_error():
    code, _, err = invoke([])
    assert code == 2
    assert "usage:" in err


def test_help_exits_zero():
    code, out, _ = invoke(["--help"])
    assert code == 0
    assert "usage:" in out and "--validate" in out


HELP = _Args([], None, "--help")
NO_PATH = "argument -o/--output: expected a path"
NO_INPUT = "the following arguments are required: input"


def unknown(arg):
    return f"unrecognized arguments: {arg}"


def exclusive(second, first):
    return f"argument {second}: not allowed with argument {first}"


# (argv, the reading: (inputs, output, mode) or the first usage error's message)
CONTRACT = [
    # -o's four forms; in -oPATH the path is everything after -o
    (["-o", "x", "a"], (["a"], "x", None)), (["-ox", "a"], (["a"], "x", None)),
    (["--output", "x", "a"], (["a"], "x", None)), (["--output=x", "a"], (["a"], "x", None)),
    (["-o=x", "a"], (["a"], "=x", None)),
    # -o takes the next argument whatever it is; the last -o wins; - is stdout and stdin
    (["-o", "--validate", "a"], (["a"], "--validate", None)),
    (["-o", "--", "a"], (["a"], "--", None)), (["-o", "-h"], NO_INPUT),
    (["-o", "x", "-o", "y", "a"], (["a"], "y", None)), (["-o", "-", "-"], (["-"], "-", None)),
    # -o with no value, or an empty one
    (["a", "-o"], NO_PATH), (["a", "--output"], NO_PATH), (["-o", "", "a"], NO_PATH),
    (["--output", "", "a"], NO_PATH), (["--output=", "a"], NO_PATH),
    # -- ends the options, and is an input after that
    (["a", "--", "-b", "--validate"], (["a", "-b", "--validate"], None, None)),
    (["--", "-o"], (["-o"], None, None)), (["a", "--"], (["a"], None, None)),
    (["a", "--", "--"], (["a", "--"], None, None)), (["-o", "x", "--", "a"], (["a"], "x", None)),
    (["a", "--validate", "--"], (["a"], None, "--validate")),
    (["a", "--", "b", "c"], (["a", "b", "c"], None, None)),
    # options before, after and between the inputs
    (["--validate", "a", "b"], (["a", "b"], None, "--validate")),
    (["a", "b", "--dump-ast"], (["a", "b"], None, "--dump-ast")),
    (["-o", "x", "a", "--dump-tokens"], (["a"], "x", "--dump-tokens")),
    (["a", "-o", "x"], (["a"], "x", None)),
    (["a", "--validate", "b"], (["a", "b"], None, "--validate")),
    # two modes, and one mode twice
    (["--validate", "--dump-ast", "a"], exclusive("--dump-ast", "--validate")),
    (["a", "--dump-tokens", "--validate"], exclusive("--validate", "--dump-tokens")),
    (["--validate", "--validate", "a"], (["a"], None, "--validate")),
    # no option may be shortened, or take a value it has no use for
    (["--val", "a"], unknown("--val")), (["--out=x", "a"], unknown("--out=x")),
    (["--out", "x", "a"], unknown("--out")), (["--dump", "a"], unknown("--dump")),
    (["--dump-t", "a"], unknown("--dump-t")), (["--he"], unknown("--he")),
    (["--validate", "a", "--dump"], unknown("--dump")),
    (["--validate=x", "a"], unknown("--validate=x")), (["--val=", "a"], unknown("--val=")),
    (["--help=x"], unknown("--help=x")), (["-h=x"], unknown("-h=x")), (["-h="], unknown("-h=")),
    (["-hx"], unknown("-hx")), (["-hhx"], unknown("-hhx")), (["-hh"], unknown("-hh")),
    (["-ho"], unknown("-ho")), (["-ho", "x"], unknown("-ho")), (["-hox"], unknown("-hox")),
    # any other argument that starts with - is an unknown option; the rest are inputs
    (["-x", "a"], unknown("-x")), (["a", "-x"], unknown("-x")), (["--=x", "a"], unknown("--=x")),
    (["--indent", "2", "a"], unknown("--indent")), (["-1"], unknown("-1")),
    (["-.5", "a"], unknown("-.5")), (["-x y"], unknown("-x y")),
    ([""], ([""], None, None)), (["./-x"], (["./-x"], None, None)),
    # no input
    ([], NO_INPUT), (["--validate"], NO_INPUT), (["--"], NO_INPUT),
    # -h anywhere, unless a usage error comes first
    (["-h"], HELP), (["--help"], HELP), (["a", "-h", "--validate"], HELP), (["-h", "-x"], HELP),
    (["-h", "--dump"], HELP), (["-h", "--validate", "--dump-ast"], HELP),
    (["-x", "-h"], unknown("-x")),
    (["--validate", "--dump-ast", "-h"], exclusive("--dump-ast", "--validate")),
]


@pytest.mark.parametrize("argv,read", CONTRACT, ids=[repr(argv) for argv, _ in CONTRACT])
def test_command_line_is_read_by_its_contract(argv, read):
    assert _read_args(argv) == read
    if isinstance(read, str):
        assert invoke(argv) == (2, "", f"{_USAGE}legalc: error: {read}\n")


def argparse_reading(argv):
    """What the argparse parser legalc once read its command line with makes
    of ``argv``: (inputs, output, mode), or (exit code, stdout, stderr)."""
    parser = argparse.ArgumentParser(
        prog="legalc",
        description="Validate Arabic legal documents and translate them to XML.")
    parser.add_argument("inputs", nargs="+", metavar="input",
                        help="input file(s); use - to read one document from stdin")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="output path (single input only); use - for stdout")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--validate", action="store_true",
                      help="check the inputs and set the exit code, write no XML")
    mode.add_argument("--dump-tokens", action="store_true",
                      help="print the token stream instead of XML")
    mode.add_argument("--dump-ast", action="store_true",
                      help="print the parsed structure instead of XML")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    modes = [flag for flag in ("--validate", "--dump-tokens", "--dump-ast")
             if getattr(args, flag[2:].replace("-", "_"))]
    return args.inputs, args.output, (modes or [None])[0]


def reading(argv):
    """What legalc makes of ``argv``, in :func:`argparse_reading`'s terms."""
    args = _read_args(argv)
    if isinstance(args, str) or args.mode == "--help":
        return invoke(argv)
    return args.inputs, args.output, args.mode


# The command lines of the contract table that argparse read the same way:
# a command line that worked before the contract, or failed, still does, with
# the same output, the same usage error and the same help text.
@pytest.mark.parametrize("argv", [
    ["-o", "x", "a"], ["-ox", "a"], ["--output", "x", "a"], ["--output=x", "a"],
    ["-o", "-", "-"], ["-o", "x", "-o", "y", "a"],
    ["a", "--", "-b", "--validate"], ["--", "-o"], ["a", "--"], ["a", "--", "--"],
    ["-o", "x", "--", "a"], ["a", "--", "b", "c"],
    ["--validate", "a", "b"], ["a", "b", "--dump-ast"], ["-o", "x", "a", "--dump-tokens"],
    ["a", "-o", "x"],
    ["--validate", "--dump-ast", "a"], ["a", "--dump-tokens", "--validate"],
    ["--validate", "--validate", "a"],
    ["-x", "a"], ["a", "-x"], ["--indent", "2", "a"], [], ["--validate"], [""],
    ["-h"], ["--help"], ["a", "-h", "--validate"], ["-h", "--validate", "--dump-ast"],
    ["--validate", "--dump-ast", "-h"],
], ids=repr)
def test_command_line_is_read_as_argparse_reads_it(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps its help to the terminal
    assert reading(argv) == argparse_reading(argv)


def test_thousands_of_articles(tmp_path):
    # the article list is walked in a loop, not one stack frame per article
    count = 2500
    p = tmp_path / "long.txt"
    p.write_text(many_articles(count), encoding="utf-8")
    assert invoke([str(p), "--validate"]) == (0, "", "")

    code, out, err = invoke([str(p), "-o", "-"])
    assert (code, err) == (0, "")
    articles = ET.fromstring(out.encode("utf-8")).find("articles")
    assert [a.findtext("articleNumber") for a in articles] == [str(n) for n in range(1, count + 1)]
    assert [a.findtext("articleTitle") for a in articles][:3] == ["", "", "عنوان فرعي"]

    p.write_text(many_articles(count).replace("مرسوم", "مرسم", 1), encoding="utf-8")
    code, out, err = invoke([str(p), "--validate"])
    assert (code, out) == (1, "")
    assert err.count("error:") == 1
    assert f"at {p}:1:" in err
    assert "Traceback" not in err


def long_line_document(words: int) -> tuple[str, str]:
    """A valid one-article document whose content is one line of ``words``
    words, and that line.  Delimiters and keywords sit mid-line."""
    vocabulary = ["نص", "المادة", "في", "جملة،", "رقم", "تابع.", "الإمضاء", "بناء", "على:"]
    line = " ".join(vocabulary[n % len(vocabulary)] for n in range(words))
    lines = GOOD.splitlines()[:5] + ["مادة ١:", line, "بيروت في ٢٠٢٠"]
    return "\n".join(lines) + "\n", line


def test_large_inputs_scale(tmp_path):
    p = tmp_path / "large.txt"
    p.write_text(many_articles(10_000), encoding="utf-8")
    assert invoke([str(p), "--validate"]) == (0, "", "")
    code, out, err = invoke([str(p), "-o", "-"])
    assert (code, err) == (0, "")
    articles = ET.fromstring(out.encode("utf-8")).find("articles")
    assert [a.findtext("articleContent") for a in articles] == \
        [f"نص المادة رقمها {n}" for n in range(1, 10_001)]

    def validate_seconds(text: str, code: int) -> float:
        p.write_text(text, encoding="utf-8")
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            result = invoke([str(p), "--validate"])
            best = min(best, time.perf_counter() - t0)
            assert result[:2] == (code, "") and bool(result[2]) == bool(code)   # err iff rejected
        return best

    def long_line_seconds(words: int) -> float:
        text, line = long_line_document(words)
        best = validate_seconds(text, 0)
        code, out, err = invoke([str(p), "-o", "-"])
        assert (code, err) == (0, "")
        content = ET.fromstring(out.encode("utf-8")).find("articles/article/articleContent")
        assert content.text == line
        return best

    # scanning grows linearly with the line: 10x the words, well under 20x the time
    small, large = long_line_seconds(10_000), long_line_seconds(100_000)
    assert large < 20 * small, (small, large)

    # A misspelt type makes one STRING of the lines from the fifth to the end
    # of the file.  A copy per line in that take would show here, though not
    # in the call counts of test_compile_calls_grow_linearly: 4x the
    # articles, well under 8x the time.
    def misspelt_type_seconds(articles: int) -> float:
        return validate_seconds(many_articles(articles).replace("مرسوم", "مرسم", 1), 1)

    small, large = misspelt_type_seconds(1000), misspelt_type_seconds(4000)
    assert large < 8 * small, (small, large)

    # n clauses on one line, then n text lines above the acknowledgment: each
    # clause's text ends before the next line that opens a part.  A search
    # for that line over the n text lines, once per clause, would show here,
    # though not in the call counts: 4x the clauses, well under 8x the time.
    def one_line_clauses_seconds(n: int) -> float:
        clauses = " ".join(["بناء على نص،"] * n)
        return validate_seconds(shaped(head=[*HEAD[:3], clauses, *["نص"] * n, HEAD[4]]), 1)

    small, large = one_line_clauses_seconds(500), one_line_clauses_seconds(2000)
    assert large < 8 * small, (small, large)


# Adversarial shapes of n lines or words, each around the lines of GOOD.
GOOD_LINES = GOOD.splitlines()
HEAD, ARTICLE, LOC_DATE = GOOD_LINES[:5], GOOD_LINES[5:7], GOOD_LINES[7]
SIGNED = [LOC_DATE, "الإمضاء: فلان", "رئيس الوزراء"]


def shaped(head=HEAD, body=ARTICLE, tail=(LOC_DATE,)) -> str:
    return "\n".join([*head, *body, *tail]) + "\n"


SHAPES = {
    "long title": lambda n: shaped(head=[HEAD[0], " ".join(["عنوان"] * n), *HEAD[2:]]),
    "phrase-word title": lambda n: shaped(head=[HEAD[0], " ".join(["وبعد"] * n), *HEAD[2:]]),
    "bare مادة lines": lambda n: shaped(body=ARTICLE + ["مادة"] * n),
    "colonless headers": lambda n: shaped(body=[f"مادة {k} نص" for k in range(1, n + 1)]),
    "lone ، lines": lambda n: shaped(body=ARTICLE + ["،"] * n),
    "comma per word": lambda n: shaped(body=[ARTICLE[0], " ".join(["نص،"] * n)]),
    "repeated الإمضاء: lines": lambda n: shaped(tail=SIGNED + ["الإمضاء:"] * n),
    "repeated إن lines": lambda n: shaped(head=HEAD[:2] + ["إن الوزير،"] * n + HEAD[3:]),
    "junk after signatures": lambda n: shaped(tail=SIGNED + ["خبر عمل، شمس."] * n),
    "many articles": many_articles,
}


def compile_calls(source: str) -> int:
    """Python and C calls made to compile ``source``, or to render its
    diagnostic, from a cold fold cache."""
    data = source.encode("utf-8")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    fold_for_matching.cache_clear()
    sys.setprofile(count)
    try:
        text = preprocess(data, "shape")
        result = parse_document(text)
        if result.ok:
            emit(result.document)
        else:
            render_diagnostic(result.diagnostics[0], text)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("shape", SHAPES)
def test_compile_calls_grow_linearly(shape):
    # exact counts, so the bound holds on any machine: 4x the input, at most
    # 4.4x the calls (linear within 10 %)
    small, large = compile_calls(SHAPES[shape](250)), compile_calls(SHAPES[shape](1000))
    assert large <= 4.4 * small, (small, large, large / small)


# Unicode Zs spaces other than the ASCII space, and characters a damaged copy
# may gain: letters and keyword letters, both digit scripts, the delimiters,
# XML markup, format controls, a harakah, a tab, a CR, invisible separators
# that stay inside words, and characters XML forbids.
ZS_SPACES = "\u00a0\u1680\u2000\u2005\u200a\u202f\u205f\u3000"
DAMAGE = ("ابمدةرقإ٠٣9،.:؛<&>\"'\u200c\u200f\u064e\t\r\u200b\u2028x"
          "\x01\x08\x0b\x0c\x1f\ufffe\uffff")


def damaged(rng: random.Random, text: str) -> str:
    """``text`` after 1-12 structural edits, and maybe fold noise, Zs spaces
    for some ASCII spaces, and a few characters inserted or deleted."""
    for _ in range(rng.randint(1, 12)):
        text = mutate_text(rng, text)
    if rng.random() < 0.3:
        text = add_fold_noise(rng, text)
    if rng.random() < 0.3:
        text = "".join(rng.choice(ZS_SPACES) if ch == " " and rng.random() < 0.3 else ch
                       for ch in text)
    for _ in range(rng.choice((0, 0, 1, 3))):
        k = rng.randrange(len(text))
        text = text[:k] + (rng.choice(DAMAGE) if rng.random() < 0.5 else "") + text[k + 1:]
    return text


def test_structural_fuzz_at_document_size(tmp_path):
    # whole documents broken in many places at once: every run ends in XML
    # or in one located diagnostic, never in an exception
    rng = random.Random(19)
    target = tmp_path / "fuzz.txt"
    codes = {0: 0, 1: 0}
    illegal = 0
    for n in range(2000):
        source = (generate_document(rng).text if rng.random() < 0.75
                  else many_articles(rng.randint(1, 60)))
        target.write_bytes(damaged(rng, source).encode("utf-8"))
        code, out, err = invoke([str(target), "-o", "-"])
        if code == 0:
            assert err == "", n
            ET.fromstring(out.encode("utf-8"))
        else:
            errors = [line for line in err.split("\n") if line.startswith("error:")]
            assert code == 1 and len(errors) == 1 and out == "", (n, code, err)
            illegal += "illegal character" in errors[0]
        codes[code] += 1
    # the edits keep some documents valid and break most (159 and 1,841 with
    # this seed, 189 of them for a character XML forbids)
    assert codes[0] > 100 and codes[1] > 1000, codes
    assert illegal > 100, illegal
