"""The benchmark's own checks must catch wrong outputs.

    python3 -m pytest bench/test_checks.py     (or: python3 bench/test_checks.py)

Each check is fed a right output, which it must pass, and deliberately
wrong ones, each of which it must fail.
"""

from __future__ import annotations

import random
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from legalc import compile_document, parse_document, preprocess  # noqa: E402
from legalc.cli import render_diagnostic  # noqa: E402


def valid_doc(seed: int = 3) -> inputs.Doc:
    return inputs.docgen_docs(random.Random(seed), 1, 0)[0]


def rejected_doc() -> inputs.Doc:
    docs = inputs.docgen_docs(random.Random(5), 8, 8)
    return next(d for d in docs if d.edit_line and d.edit_line > 0)


class XmlChecks(unittest.TestCase):
    def setUp(self):
        self.doc = valid_doc()
        self.xml = compile_document(self.doc.data)

    def test_right_xml_passes(self):
        self.assertIsNone(checks.check_xml(self.xml, self.doc.ast))

    def wrong(self, old: str, new: str) -> None:
        text = self.xml.decode("utf-8")
        self.assertIn(old, text)
        bad = text.replace(old, new, 1).encode("utf-8")
        self.assertIsNotNone(checks.check_xml(bad, self.doc.ast), f"{old} -> {new}")

    def test_content_number_in_arabic_digits_fails(self):
        number = self.doc.ast.statement.number.translate(checks.WESTERN)
        arabic = "".join("٠١٢٣٤٥٦٧٨٩"[int(d)] for d in number)
        self.wrong(f"<contentNumber>{number}<", f"<contentNumber>{arabic}<")

    def test_changed_title_fails(self):
        self.wrong("<title>", "<title>x")

    def test_missing_article_fails(self):
        start = self.xml.index(b"<article>")
        end = self.xml.index(b"</article>") + len(b"</article>")
        self.assertIsNotNone(checks.check_xml(self.xml[:start] + self.xml[end:], self.doc.ast))

    def test_truncated_xml_fails(self):
        self.assertIsNotNone(checks.check_xml(self.xml[:-20], self.doc.ast))

    def test_signature_fields_swapped_fails(self):
        doc = replace(self.doc.ast, signatures=tuple(
            replace(s, name=s.position, position=s.name) for s in self.doc.ast.signatures))
        if doc == self.doc.ast:
            self.skipTest("document has no signature")
        self.assertIsNotNone(checks.check_xml(self.xml, doc))

    def test_ast_mismatch_fails(self):
        got = parse_document(preprocess(self.doc.data)).document
        self.assertIsNone(checks.check_ast(got, self.doc.ast))
        self.assertIsNotNone(checks.check_ast(replace(got, issuer=got.issuer + " x"),
                                              self.doc.ast))


class GoldenCheck(unittest.TestCase):
    def test_golden(self):
        golden = next(d for d in inputs.corpus_docs() if d.name == "decree-25.txt").golden
        self.assertIsNone(checks.check_golden(golden, golden))
        self.assertIsNotNone(checks.check_golden(golden.replace(b"25", b"52", 1), golden))
        self.assertIsNotNone(checks.check_golden(golden[:-1], golden))
        self.assertIsNotNone(checks.check_golden(golden + b"\n", golden))


class RejectionChecks(unittest.TestCase):
    def setUp(self):
        self.doc = rejected_doc()
        text = preprocess(self.doc.data, self.doc.name)
        self.result = parse_document(text)
        self.rendered = "".join(render_diagnostic(d, text) for d in self.result.diagnostics)

    def test_right_rejection_passes(self):
        self.assertIsNone(checks.judge_library(self.doc, self.result, self.rendered))

    def test_diagnostic_count_and_line(self):
        line = self.doc.edit_line
        self.assertIsNone(checks.check_diagnostics([line], line))
        self.assertIsNotNone(checks.check_diagnostics([], line))
        self.assertIsNotNone(checks.check_diagnostics([line, line], line))
        self.assertIsNotNone(checks.check_diagnostics([line + 1], line))

    def test_rendered_location(self):
        line = self.doc.edit_line
        self.assertIsNotNone(checks.check_rendered(self.rendered, self.doc.name, line + 1))
        self.assertIsNotNone(checks.check_rendered(self.rendered, "other.txt", line))
        self.assertIsNotNone(checks.check_rendered("error: no location\n", self.doc.name, line))

    def test_accepting_a_broken_document_fails(self):
        valid = valid_doc()
        ok = parse_document(preprocess(valid.data))
        self.assertIsNotNone(checks.judge_library(self.doc, ok, compile_document(valid.data)))

    def test_rejecting_a_valid_document_fails(self):
        valid = valid_doc()
        self.assertIsNotNone(checks.judge_library(valid, self.result, self.rendered))


class CliChecks(unittest.TestCase):
    def test_exit_codes_and_output(self):
        valid, bad = valid_doc(), rejected_doc()
        xml = compile_document(valid.data)
        stderr = f"error: something at src.txt:{bad.edit_line + 1}:1\n"
        self.assertIsNone(checks.judge_cli(valid, "src.txt", 0, "", xml))
        self.assertIsNone(checks.judge_cli(bad, "src.txt", 1, stderr, None))
        self.assertIsNotNone(checks.judge_cli(valid, "src.txt", 1, stderr, xml))
        self.assertIsNotNone(checks.judge_cli(valid, "src.txt", 0, "", None))
        self.assertIsNotNone(checks.judge_cli(valid, "src.txt", 0, "", xml[:-30]))
        self.assertIsNotNone(checks.judge_cli(bad, "src.txt", 0, "", xml))
        self.assertIsNotNone(checks.judge_cli(bad, "src.txt", 2, stderr, None))
        self.assertIsNotNone(checks.judge_cli(
            bad, "src.txt", 1, f"error: x at src.txt:{bad.edit_line + 3}:1\n", None))


class WordCheck(unittest.TestCase):
    def test_reconstruction(self):
        data = "مرسوم رقم ٥\nنص  قصير\tجدا\n".encode("utf-8")
        words = ["مرسوم", "رقم", "٥", "نص", "قصير", "جدا"]
        self.assertEqual(checks.input_words(data), words)
        self.assertIsNone(checks.check_words(words, data))
        self.assertIsNotNone(checks.check_words(words[:-1], data))
        self.assertIsNotNone(checks.check_words(["مرسوم رقم", *words[2:]], data))


class FailureAccounting(unittest.TestCase):
    """Only the known RecursionError leaves a run correct."""

    def test_known_failure_is_expected(self):
        doc = valid_doc()
        doc.known_failure = True
        outcomes = worker.Outcomes()
        with mock.patch.object(worker, "compile_doc", side_effect=RecursionError("deep")):
            self.assertIsNone(worker.run_one(doc, outcomes))
            self.assertEqual((outcomes.records[0][0], outcomes.unexpected), ("fail", 0))
            doc.known_failure = False
            worker.run_one(doc, outcomes)
            self.assertEqual(outcomes.unexpected, 1)
        with mock.patch.object(worker, "compile_doc", side_effect=ValueError("other")):
            doc.known_failure = True
            worker.run_one(doc, outcomes)
            self.assertEqual(outcomes.unexpected, 2)

    def test_wrong_output_is_unexpected(self):
        doc = valid_doc()
        doc.ast = replace(doc.ast, title="x")
        outcomes = worker.Outcomes()
        self.assertIsNone(worker.run_one(doc, outcomes))
        self.assertEqual(outcomes.unexpected, 1)


if __name__ == "__main__":
    unittest.main()
