"""The compile path pauses the cyclic garbage collector and makes no cycles.

``parse_document`` and ``emit`` disable the collector for the call and
restore it on the way out.  That is only sound while a compile leaves no
cyclic garbage, which reference counting alone would never free: the first
test pins that property, the others the on/off contract.
"""

from __future__ import annotations

import gc
import inspect
import io
import random
import sys
from contextlib import contextmanager

import pytest

import docgen
import legalc.codegen as codegen
import legalc.parser as parser
from legalc import DecodeError, DocumentRejected, cli, compile_document, emit, parse_document, preprocess


@contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, then restore it."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def sample_inputs(corpus_paths) -> list[bytes]:
    rng = random.Random(10)
    generated = [docgen.generate_document(rng).text for _ in range(100)]
    texts = [*generated, *(docgen.mutate_text(rng, t) for t in generated),
             docgen.many_articles(300)]
    return [*(p.read_bytes() for p in corpus_paths), *(t.encode("utf-8") for t in texts),
            "مرسوم رقم ٥\n".encode("utf-8") + b"\xff\xfe\n",
            *(rng.randbytes(rng.randrange(400)) for _ in range(200))]


def test_compiles_leave_no_cyclic_garbage(corpus_paths, tmp_path):
    docs = sample_inputs(corpus_paths)
    paths = []
    for i, data in enumerate(docs):
        path = tmp_path / f"{i}.txt"
        path.write_bytes(data)
        paths.append(str(path))
    runs = [
        paths, ["--dump-tokens", *paths], ["--dump-ast", *paths],
        # usage errors: -o with two inputs, -o naming the input, a missing file
        ["-o", "-", *paths[:2]], ["-o", paths[0], paths[0]], [str(tmp_path / "missing.txt")],
        # the help, and a command line with no input
        ["--help"], [],
    ]
    codes = []
    with collector(False):
        gc.collect()
        for data in docs:
            try:
                compile_document(data)
            except (DecodeError, DocumentRejected):
                pass
        for argv in runs:
            codes.append(cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()))
        assert gc.collect() == 0
    assert codes == [cli.EXIT_REJECTED] * 3 + [cli.EXIT_USAGE] * 3 + [cli.EXIT_OK, cli.EXIT_USAGE]


def test_a_second_cli_run_leaves_no_cyclic_garbage(corpus_paths):
    argv = ["--validate", *map(str, corpus_paths)]
    with collector(False):
        cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())   # fills the caches
        gc.collect()
        assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == cli.EXIT_OK
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_compile_leaves_the_collector_as_it_found_it(enabled):
    data = docgen.many_articles(3).encode("utf-8")
    with collector(enabled):
        result = parse_document(preprocess(data))
        assert gc.isenabled() is enabled
        emit(result.document)
        assert gc.isenabled() is enabled
        compile_document(data)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failing_compile_restores_the_collector(enabled, monkeypatch):
    data = docgen.many_articles(3).encode("utf-8")
    doc = parse_document(preprocess(data)).document
    inside = []

    def fail(*args):
        inside.append(gc.isenabled())
        raise RuntimeError("injected")
    monkeypatch.setattr(parser, "scan_document", fail)
    monkeypatch.setattr(codegen, "generate", fail)
    with collector(enabled):
        for call in (lambda: parse_document(preprocess(data)), lambda: emit(doc),
                     lambda: compile_document(data)):
            with pytest.raises(RuntimeError, match="injected"):
                call()
            assert gc.isenabled() is enabled
    assert inside == [False, False, False]


def test_no_collection_starts_inside_parse_document():
    text = preprocess(docgen.many_articles(3000).encode("utf-8"))
    body = inspect.unwrap(parser.parse_document).__code__
    starts: list[int] = []

    def record(phase, info):
        # a collection started by an allocation somewhere below parse_document
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is body:
                starts.append(info["generation"])
                return
            frame = frame.f_back
    with collector(True):
        gc.collect()
        gc.callbacks.append(record)
        try:
            result = parse_document(text)
        finally:
            gc.callbacks.remove(record)
    assert result.ok and len(result.document.articles) == 3000
    assert starts == []
