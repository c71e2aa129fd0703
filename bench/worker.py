"""In-process workload loop: one process, one thread, one document at a time.

Run by ``run.py`` as ``python bench/worker.py <job.pickle> <result.json>``.
The job holds the documents of one round, the run length, and whether to
trace.  Each document goes through ``preprocess`` -> ``parse_document`` and
then ``emit`` when accepted or ``cli.render_diagnostic`` when rejected, all
looked up through their modules so that tracing can wrap them.

With tracing on, every layer's public functions are wrapped at the module
attribute their callers look up, so the program runs unchanged.  Spans stay
in memory and are written out at the end.
"""

from __future__ import annotations

import json
import math
import pickle
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
from speed import SpeedProbe  # noqa: E402
import legalc.cli as cli  # noqa: E402
import legalc.codegen as codegen  # noqa: E402
import legalc.normalize as normalize  # noqa: E402
import legalc.parser as parser  # noqa: E402
import legalc.scanner as scanner  # noqa: E402


def compile_doc(doc):
    text = normalize.preprocess(doc.data, doc.name)
    result = parser.parse_document(text)
    if result.document is not None:
        return result, codegen.emit(result.document)
    return result, "".join(cli.render_diagnostic(d, text) for d in result.diagnostics)


class Outcomes:
    """Per-document wall times by outcome, and what went wrong."""

    def __init__(self):
        self.records: list[tuple[str, float]] = []   # (accept|reject|fail, seconds)
        self.unexpected = 0
        self.problems: list[str] = []

    def fail(self, doc, elapsed: float, problem: str, expected: bool = False) -> None:
        self.records.append(("fail", elapsed))
        if not expected:
            self.unexpected += 1
            if len(self.problems) < 5:
                self.problems.append(f"{doc.name}: {problem}")


class Tracer:
    """Spans ``[doc, name, start, end, parent]`` and call counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.counts_at_begin: dict[str, int] = {}
        self.doc = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self) -> None:
        """Start the next document: a new span group and counter baseline."""
        self.doc += 1
        self.counts_at_begin = dict(self.counts)

    def open(self, name: str) -> int:
        self.spans.append([self.doc, name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def time(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        self._patch(module, attr, timed)

    def count(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        self._patch(module, attr, counted)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, _, start, end, _) in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for doc, name, start, end, parent in self.spans:
                f.write(json.dumps({"doc": doc, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer where its callers look it up."""
    tracer.time(normalize, "preprocess", "normalize.preprocess")
    tracer.time(parser, "scan_document", "scanner.scan_document")
    tracer.time(parser, "parse_grammar_tokens", "parser.parse_grammar_tokens")
    tracer.time(codegen, "generate", "codegen.generate")
    tracer.time(codegen, "serialize", "codegen.serialize")
    tracer.time(cli, "render_diagnostic", "cli.render_diagnostic")
    for module in (scanner, parser):
        tracer.count(module, "fold_for_matching", "fold")
        tracer.count(module, "match_keyword_phrase", "probe")


def run_one(doc, outcomes: Outcomes, tracer: Tracer | None = None):
    """Compile and check one document; return (result, output), or None when
    it failed."""
    if tracer:
        tracer.begin()
        root = tracer.open("doc")
    t0 = perf_counter()
    try:
        result, out = compile_doc(doc)
    except Exception as exc:  # the loop must go on; every failure is recorded
        elapsed = perf_counter() - t0
        if tracer:
            tracer.close(root)
        outcomes.fail(doc, elapsed, f"{type(exc).__name__}: {str(exc)[:80]}",
                      expected=doc.known_failure and isinstance(exc, RecursionError))
        return None
    elapsed = perf_counter() - t0
    if tracer:
        tracer.close(root)
    problem = checks.judge_library(doc, result, out)
    if problem is None and tracer:
        problem = checks.check_words(scanner.reconstruct_words(result.tokens), doc.data)
    if problem is not None:
        outcomes.fail(doc, elapsed, problem)
        return None
    outcomes.records.append(("reject" if doc.rejected else "accept", elapsed))
    return result, out


def run_rounds(docs, seconds: float, min_docs: int, outcomes: Outcomes, speed: SpeedProbe,
               tracer: Tracer | None = None, on_done=None) -> None:
    """Whole rounds over ``docs`` until ``seconds`` have passed and at least
    ``min_docs`` documents were attempted."""
    start = perf_counter()
    while True:
        for doc in docs:
            done = run_one(doc, outcomes, tracer)
            speed.after(outcomes.records[-1][1])
            if done is not None and on_done is not None:
                on_done(doc, *done)
        if perf_counter() - start >= seconds and len(outcomes.records) >= min_docs:
            return


class LayerTotals:
    """Work counted over the traced documents that passed their checks."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.docs: set[int] = set()
        self.words = self.tokens = self.grammar_tokens = 0
        self.accepted_words = self.xml_bytes = 0
        self.calls = {name: 0 for name in tracer.counts}

    def add(self, doc, result, out) -> None:
        words = len(checks.input_words(doc.data))
        self.docs.add(self.tracer.doc)
        self.words += words
        self.tokens += len(result.tokens)
        self.grammar_tokens += len(result.grammar_tokens)
        for name, before in self.tracer.counts_at_begin.items():
            self.calls[name] += self.tracer.counts[name] - before
        if result.document is not None:
            self.accepted_words += words
            self.xml_bytes += len(out)

    def metrics(self) -> dict[str, float]:
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, t in zip(self.tracer.spans, self.tracer.self_times()):
            if span[0] in self.docs:
                busy[span[1]] = busy.get(span[1], 0.0) + t
                calls[span[1]] = calls.get(span[1], 0) + 1
        us = 1e6
        return {
            "normalize.preprocess_us_per_word": busy["normalize.preprocess"] * us / self.words,
            "scanner.scan_us_per_word": busy["scanner.scan_document"] * us / self.words,
            "scanner.fold_calls_per_word": self.calls["fold"] / self.words,
            "scanner.keyword_probes_per_word": self.calls["probe"] / self.words,
            "scanner.tokens_per_word": self.tokens / self.words,
            "parser.grammar_us_per_token": (busy["parser.parse_grammar_tokens"] * us
                                            / self.grammar_tokens),
            "codegen.generate_us_per_word": busy["codegen.generate"] * us / self.accepted_words,
            "codegen.serialize_us_per_byte": busy["codegen.serialize"] * us / self.xml_bytes,
            "codegen.xml_bytes_per_word": self.xml_bytes / self.accepted_words,
            "cli.render_us": (busy["cli.render_diagnostic"] * us
                              / calls["cli.render_diagnostic"]),
        }


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def exponent(docs, size, layer: str, tracer: Tracer, outcomes: Outcomes,
             passes: int = 2) -> float:
    """Slope of ``layer``'s time against ``size(doc)``, fastest of ``passes``."""
    best: dict[str, float] = {}
    for _ in range(passes):
        for doc in docs:
            first = len(tracer.spans)
            run_one(doc, outcomes, tracer)
            t = sum(end - start for _, name, start, end, _ in tracer.spans[first:]
                    if name == layer)
            best[doc.name] = min(best.get(doc.name, math.inf), t)
    return slope([(size(doc), best[doc.name]) for doc in docs])


def main(job_path: str, result_path: str) -> None:
    with open(job_path, "rb") as f:
        job = pickle.load(f)
    compile_doc(job["warmup"])  # lazy set-up is paid before timing starts
    outcomes, speed = Outcomes(), SpeedProbe()
    report = {}
    if job["trace"]:
        tracer = Tracer()
        install(tracer)
        totals = LayerTotals(tracer)
        run_rounds(job["docs"], job["seconds"], 1, outcomes, speed, tracer, totals.add)
        report["layers"] = totals.metrics()
        ladder = Outcomes()
        long_lines, many_articles = job["ladder"]
        report["layers"]["scanner.scan_exponent"] = exponent(
            long_lines, lambda d: d.line_words, "scanner.scan_document", tracer, ladder)
        report["layers"]["parser.grammar_exponent"] = exponent(
            many_articles, lambda d: d.articles, "parser.parse_grammar_tokens", tracer, ladder)
        outcomes.unexpected += ladder.unexpected
        outcomes.problems += ladder.problems
        tracer.remove()
        tracer.write(Path(job["trace_path"]))
    else:
        run_rounds(job["docs"], job["seconds"], job["min_docs"], outcomes, speed)
    report.update(records=outcomes.records, speed_factor=speed.factor(), unexpected=outcomes.unexpected,
                  problems=outcomes.problems,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
