"""Acceptance criteria for the whole pipeline, one test per criterion.

Each test prints a single pass/fail line (visible in the report summary)
and enforces its stated tolerance.
"""

import io
import random
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import docgen
from descent import parse_token_kinds, rejects_all_extensions
from legalc import (
    Article,
    Signature,
    SignatureKind,
    compile_document,
    emit,
    parse_document,
    preprocess,
    reconstruct_words,
    scan_document,
)
from legalc.cli import run
from legalc.grammar import derivable_strings, oracle_accepts
from legalc.normalize import is_digit_run, to_western_digits
from legalc.tokens import TokenKind

ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"
ASCII_DIGITS = "0123456789"


def _report(label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_golden_pipeline(corpus_dir):
    started = time.monotonic()
    payload = compile_document((corpus_dir / "decree-25.txt").read_bytes(), "decree-25.txt")
    elapsed = time.monotonic() - started
    root = ET.fromstring(payload)

    def texts(path):
        return [el.text or "" for el in root.findall(path)]

    checks = {
        "type": root.findtext("type") == "مرسوم",
        "contentNumber": root.findtext("contentNumber") == "25",
        "title": root.findtext("title") == "دعوة مجلس النواب إلى عقد استثنائي",
        "references": len(root.findall("references/reference")) == 2,
        "justifications": (len(root.findall("justifications/justification")) == 0
                           and b"<justifications/>" in payload),
        "articleNumbers": texts("articles/article/articleNumber") == ["1", "2", "3"],
        "article1Title": texts("articles/article/articleTitle")[0] == "عقد استثنائي",
        "article2Title": texts("articles/article/articleTitle")[1] == "برنامج أعمال",
        "article3TitleAbsent": b"<articleTitle/>" in payload,
        "issueDate": root.findtext("issueDate") == "١٣ آذار ٢٠١٨",
        "signatureNames": texts("signatures/signature/name") == ["ميشال عون",
                                                                 "سعد الدين الحريري"],
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report("criterion 1 (golden pipeline)", ok, f"{elapsed:.2f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    kinds = [k for k in TokenKind if k is not TokenKind.EOF]
    max_len = 8
    derivable = derivable_strings("document", max_len)
    disagreements: list[tuple] = []
    visited = 0

    # Exhaustive over all len(kinds)**n sequences for n <= max_len.  A prefix
    # is pruned only when the parser rejects it without reading past it (so
    # every extension fails identically) AND the grammar derives no string
    # under it; both sides then reject the whole subtree, which keeps the
    # sweep exhaustive while visiting only a handful of live prefixes.
    def sweep(prefix: list) -> None:
        nonlocal visited
        visited += 1
        if parse_token_kinds(prefix) != oracle_accepts(prefix):
            disagreements.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for kind in kinds:
            prefix.append(kind)
            if rejects_all_extensions(prefix):
                p = tuple(prefix)
                if any(s[:len(p)] == p for s in derivable):
                    disagreements.append(p)
            else:
                sweep(prefix)
            prefix.pop()

    sweep([])

    rng = random.Random(20250819)
    for _ in range(10_000):
        n = rng.randrange(0, 17)
        seq = [rng.choice(kinds) for _ in range(n)]
        if parse_token_kinds(seq) != oracle_accepts(seq):
            disagreements.append(tuple(seq))

    elapsed = time.monotonic() - started
    ok = not disagreements and elapsed < 60.0
    _report("criterion 2 (oracle equivalence)", ok,
            f"exhaustive <=8 plus 10000 random <=16, {elapsed:.1f}s")
    assert not disagreements, disagreements[:5]
    assert elapsed < 60.0


def test_criterion_3_tokenizer_reconstruction(corpus_paths):
    mismatches = []
    for path in corpus_paths:
        text = preprocess(path.read_bytes(), path.name)
        rebuilt = reconstruct_words(scan_document(text).tokens)
        original = [w for line in text.lines for w in line]
        if rebuilt != original:
            mismatches.append(path.name)
    ok = not mismatches
    _report("criterion 3 (tokenizer reconstruction)", ok,
            f"{len(corpus_paths)} documents")
    assert ok, mismatches


def test_criterion_4_xml_round_trip(corpus_paths):
    def structure(node):
        children = list(node)
        if children:
            return (node.tag, [structure(c) for c in children])
        return (node.tag, node.text or "")

    def collection(tag, items):
        return (tag, items) if items else (tag, "")

    def signature(sig):
        pair = [("name", sig.name), ("position", sig.position)]
        return ("signature", pair if sig.kind is SignatureKind.TYPE1 else pair[::-1])

    def article_number(number):
        return to_western_digits(number) if is_digit_run(number) else number

    def expected(doc):
        # the shape the schema asks for, read off the AST
        return ("document", [
            ("type", doc.statement.doc_type),
            ("contentNumber", to_western_digits(doc.statement.number)),
            ("title", doc.title),
            ("issuer", doc.issuer),
            collection("references", [("reference", ref) for ref in doc.references]),
            collection("justifications", [("justification", j) for j in doc.justifications]),
            collection("articles", [("article", [
                ("articleNumber", article_number(art.number)),
                ("articleTitle", art.title or ""),
                ("articleContent", art.content)]) for art in doc.articles]),
            ("issueLocation", doc.loc_date.location),
            ("issueDate", doc.loc_date.date),
            collection("signatures", [signature(sig) for sig in doc.signatures]),
        ])

    documents = []
    for path in corpus_paths:
        documents.append(parse_document(preprocess(path.read_bytes(), path.name)).document)
    rng = random.Random(88)
    documents.extend(docgen.generate_document(rng).document for _ in range(100))

    # the five markup characters must survive escape/unescape byte-exactly,
    # in every text field
    base = documents[0]
    for payload in ("&<>\"'", "a&amp;b <t> \"q\" 'w'", "&&&&", "]]>", "<?x?> &#1575; '\"'"):
        article = Article(payload, payload, payload)
        documents.append(replace(
            base, title=payload, issuer=payload, references=(payload,),
            justifications=(payload,), articles=(article, *base.articles),
            loc_date=replace(base.loc_date, location=payload, date=payload),
            signatures=(Signature(SignatureKind.TYPE1, payload, payload),
                        Signature(SignatureKind.TYPE2, payload, payload))))

    failures = [i for i, doc in enumerate(documents)
                if structure(ET.fromstring(emit(doc))) != expected(doc)]
    ok = not failures
    _report("criterion 4 (XML round-trip)", ok, f"{len(documents)} documents")
    assert ok, failures


def test_criterion_5_digit_conversion():
    pairs_ok = all(to_western_digits(a) == w
                   for a, w in zip(ARABIC_DIGITS, ASCII_DIGITS))
    bijective = len({to_western_digits(a) for a in ARABIC_DIGITS}) == 10
    rng = random.Random(55)
    pool = ARABIC_DIGITS + ASCII_DIGITS + "ابجد ة،.:xyz"
    idempotent = True
    for _ in range(1_000):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        once = to_western_digits(s)
        if to_western_digits(once) != once:
            idempotent = False
            break
    ok = pairs_ok and bijective and idempotent
    _report("criterion 5 (digit conversion)", ok,
            "10 pairs + 1000 idempotence samples")
    assert ok


def test_criterion_6_robustness_fuzz(tmp_path):
    rng = random.Random(99)
    target = tmp_path / "fuzz.bin"
    failures = 0
    for i in range(10_000):
        n = rng.randrange(0, 200)
        if rng.random() < 0.5:
            data = bytes(rng.randrange(256) for _ in range(n))
        else:
            data = "".join(
                chr(rng.choice((rng.randrange(0x20, 0x80),
                                rng.randrange(0x600, 0x700),
                                rng.choice((0x0A, 0x20, 0x09)))))
                for _ in range(n)).encode("utf-8")
        target.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        code = run([str(target), "--validate"], stdout=out, stderr=err)
        if code not in (1, 2) or not err.getvalue():
            failures += 1
    ok = failures == 0
    _report("criterion 6 (robustness fuzz)", ok, "10000 inputs")
    assert ok, f"{failures} inputs crashed or exited cleanly"


def test_criterion_7_determinism(corpus_paths, golden_dir):
    mismatches = []
    for path in corpus_paths:
        data = path.read_bytes()
        first = compile_document(data, path.name)
        second = compile_document(data, path.name)
        golden = (golden_dir / (path.stem + ".xml")).read_bytes()
        if not (first == second == golden):
            mismatches.append(path.name)
    ok = not mismatches
    _report("criterion 7 (determinism)", ok,
            f"{len(corpus_paths)} documents compiled twice")
    assert ok, mismatches
