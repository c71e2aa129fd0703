"""End-to-end and per-layer benchmark for legalc.

    python3 bench/run.py --workload batch-mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, untraced
    python3 bench/run.py --trace 1       # every workload, traced (per-layer figures)
    python3 bench/run.py --smoke         # tiny inputs, every workload, both modes

Workloads (see README.md): ``cli-cold`` runs one ``python -m legalc`` process
per document; ``batch-mixed`` and ``large-docs`` call the library in one
worker process.  Every loop is closed: the next document starts when the
previous one is done.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PYTHON = sys.executable
REQUIRED = ("src/legalc/__init__.py", "tests/docgen.py", "corpus/decree-25.txt",
            "corpus/golden/decree-25.xml")

WORKLOADS = ("cli-cold", "batch-mixed", "large-docs")
# Percentile behind doc_tail_ms, and the documents a run needs so that at
# least ten lie beyond it.
TAIL = {"cli-cold": (90, 100), "batch-mixed": (99, 1000), "large-docs": (90, 100)}
SETUP_RUNS = 9      # fresh processes timed for setup_s, after one warm-up
PROBE_RUNS = 7      # fresh processes per cli.* figure in a traced run
INTERPRETER_MS = 70.0   # typical `python -c pass` here; cli-cold is reported at this speed

END_TO_END = (("setup_s", "s"), ("docs_per_s", "1/s"), ("accept_p50_ms", "ms"),
              ("reject_p50_ms", "ms"), ("doc_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("normalize.preprocess_us_per_word", "us/word"),
    ("scanner.scan_us_per_word", "us/word"),
    ("scanner.fold_calls_per_word", "calls/word"),
    ("scanner.keyword_probes_per_word", "calls/word"),
    ("scanner.tokens_per_word", "tokens/word"),
    ("scanner.scan_exponent", "slope"),
    ("parser.grammar_us_per_token", "us/token"),
    ("parser.grammar_exponent", "slope"),
    ("codegen.generate_us_per_word", "us/word"),
    ("codegen.serialize_us_per_byte", "us/B"),
    ("codegen.xml_bytes_per_word", "B/word"),
    ("cli.render_us", "us"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.grammar_import_ms", "ms"),
    ("cli.modules_imported", "count"),
    ("cli.work_ms", "ms"),
)

# Set-up time, then the speed reference in the same process right after it.
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import legalc
legalc.compile_document(open(sys.argv[1], "rb").read(), sys.argv[1])
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
import speed, statistics
print(t, statistics.median(speed.reference() for _ in range(40)))
"""

# A cold CLI run split in two: the import (under -X importtime) and the work.
CLI_CODE = """\
import sys, time
n = len(sys.modules)
sys.stderr.write("-- import legalc.cli --\\n")
import legalc.cli
modules = len(sys.modules) - n
t = time.perf_counter()
code = legalc.cli.run(sys.argv[1:])
print(modules, time.perf_counter() - t, code)
"""


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def spawn(argv: list[str], stdout: Path | None = None,
          stderr: Path | None = None) -> tuple[int, float, int]:
    """Run one child to its end: (exit code, wall seconds, peak RSS in KiB)."""
    def sink(fd, path):
        return (os.POSIX_SPAWN_OPEN, fd, str(path) if path else os.devnull,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               sink(1, stdout), sink(2, stderr)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(PYTHON, [PYTHON, *argv], child_env(), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage.ru_maxrss


def run_python(argv: list[str], work: Path) -> tuple[float, str, str]:
    """Run a Python child that must succeed: (wall seconds, stdout, stderr)."""
    out, err = work / "probe.out", work / "probe.err"
    code, elapsed, _ = spawn(argv, out, err)
    if code != 0:
        raise RuntimeError(f"python {' '.join(argv[:2])} exited {code}: "
                           + err.read_text(encoding="utf-8")[-400:])
    return elapsed, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8")


def setup_seconds(work: Path) -> tuple[float, float, float]:
    """In-process time to import legalc and compile one corpus document:
    the median over fresh processes, scaled and unscaled, and the median
    speed factor."""
    from speed import REFERENCE_EXPONENT, REFERENCE_MS
    argv = ["-c", SETUP_CODE, str(ROOT / "corpus" / "decree-25.txt"), str(BENCH)]
    run_python(argv, work)   # may write bytecode
    raw, factors = [], []
    for _ in range(SETUP_RUNS):
        seconds, reference = map(float, run_python(argv, work)[1].split())
        raw.append(seconds)
        factors.append((REFERENCE_MS / 1e3 / reference) ** REFERENCE_EXPONENT)
    scaled = statistics.median(t * f for t, f in zip(raw, factors))
    return scaled, statistics.median(raw), statistics.median(factors)


def cli_layers(work: Path) -> dict[str, float]:
    """Where a cold ``python -m legalc`` run spends its time.  The two
    probes take turns, and each figure is the fastest of its runs: the run
    least disturbed by the rest of the machine."""
    argv = [str(ROOT / "corpus" / "decree-25.txt"), "-o", str(work / "probe.xml")]
    interpreter, imports, grammar, modules, runs = [], [], [], [], []
    for _ in range(PROBE_RUNS):
        interpreter.append(run_python(["-c", "pass"], work)[0] * 1e3)
        _, out, err = run_python(["-X", "importtime", "-c", CLI_CODE, *argv], work)
        total = 0
        for line in err.split("-- import legalc.cli --\n", 1)[1].splitlines():
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line.split("|")
            if name.startswith(" ") and not name.startswith("  "):   # top level
                total += int(cumulative)
            if name.strip() == "legalc.grammar":
                grammar.append(int(cumulative) / 1e3)
        imports.append(total / 1e3)
        count, seconds, code = out.split()
        if code != "0":
            raise RuntimeError(f"legalc exited {code} on corpus/decree-25.txt")
        modules.append(int(count))
        runs.append(float(seconds) * 1e3)
    return {"cli.interpreter_ms": min(interpreter),
            "cli.import_ms": min(imports),
            "cli.grammar_import_ms": min(grammar),
            "cli.modules_imported": statistics.median(modules),
            "cli.work_ms": min(runs)}


def run_cli(docs, seconds: float, min_docs: int, work: Path):
    """cli-cold: one ``python -m legalc <doc> -o <out>.xml`` at a time."""
    import checks
    from speed import SpeedProbe
    from worker import Outcomes
    for doc in docs:
        (work / doc.name).write_bytes(doc.data)
    out, err = work / "out.xml", work / "stderr.txt"
    # Each run is scaled by the bare interpreter's start-up, timed beside it.
    speed = SpeedProbe(lambda: spawn(["-c", "pass"])[1], INTERPRETER_MS / 1e3,
                       share=0.5, exponent=1.0)
    outcomes, peak_kb = Outcomes(), 0
    start = time.perf_counter()
    while True:
        for doc in docs:
            source = str(work / doc.name)
            out.unlink(missing_ok=True)
            code, elapsed, rss_kb = spawn(["-m", "legalc", source, "-o", str(out)], stderr=err)
            speed.after(elapsed)
            peak_kb = max(peak_kb, rss_kb)
            xml = out.read_bytes() if out.exists() else None
            problem = checks.judge_cli(doc, source, code, err.read_text(encoding="utf-8"), xml)
            if problem is not None:
                outcomes.fail(doc, elapsed, problem)
            else:
                outcomes.records.append(("reject" if doc.rejected else "accept", elapsed))
        if time.perf_counter() - start >= seconds and len(outcomes.records) >= min_docs:
            return {"records": outcomes.records, "unexpected": outcomes.unexpected,
                    "problems": outcomes.problems, "peak_rss_kb": peak_kb,
                    "speed_factor": speed.factor()}


def run_worker(job: dict, work: Path) -> dict:
    """Run the in-process loop in a fresh worker process."""
    job_path, result_path, err = work / "job.pickle", work / "worker.json", work / "worker.err"
    with job_path.open("wb") as f:
        pickle.dump(job, f)
    code, _, _ = spawn([str(BENCH / "worker.py"), str(job_path),
                        str(result_path)], stderr=err)
    if code != 0:
        raise RuntimeError(f"worker exited {code}: " + err.read_text(encoding="utf-8")[-800:])
    return json.loads(result_path.read_text(encoding="utf-8"))


def percentile(values: list[float], p: int) -> float:
    """Nearest rank: the smallest value with at least p % of values at or
    below it.  Over r rounds of the same documents it lands on the same
    document whatever r is."""
    return sorted(values)[math.ceil(p / 100 * len(values)) - 1]


def summarize(records: list, tail_pct: int, factor: float) -> dict[str, float]:
    """End-to-end timings from per-document (outcome, seconds) records,
    scaled by the run's speed factor.

    docs_per_s counts finished (accepted or rejected) documents over the
    time of every attempted one; a failed document costs time and finishes
    nothing."""
    times = [t * factor for _, t in records]
    accepted = [t * factor for s, t in records if s == "accept"]
    rejected = [t * factor for s, t in records if s == "reject"]
    return {
        "docs_per_s": (len(accepted) + len(rejected)) / sum(times),
        "accept_p50_ms": statistics.median(accepted) * 1e3 if accepted else 0.0,
        "reject_p50_ms": statistics.median(rejected) * 1e3 if rejected else 0.0,
        "doc_tail_ms": percentile(times, tail_pct) * 1e3,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, smoke, work) -> dict:
    import inputs
    tail_pct, min_docs = TAIL[workload]
    if smoke:
        min_docs = 1
    docs = inputs.build(workload, seed, smoke)
    warmup = next(d for d in inputs.corpus_docs() if d.name == "decree-25.txt")
    if trace:
        ladder = inputs.scaling_ladder(random.Random(f"ladder/{seed}"), smoke)
        trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
        report = run_worker({"docs": docs, "ladder": ladder, "seconds": seconds,
                             "trace": True, "warmup": warmup,
                             "trace_path": str(trace_path)}, work)
        metrics = {**report["layers"], **cli_layers(work)}
        traced = summarize(report["records"], tail_pct, report["speed_factor"])["docs_per_s"]
        info = [f"  traced in-process docs_per_s {traced:.6g} 1/s; spans in {trace_path}"]
        units = dict(PER_LAYER)
    else:
        setup, raw_setup, setup_factor = setup_seconds(work)
        if workload == "cli-cold":
            report = run_cli(docs, seconds, min_docs, work)
        else:
            report = run_worker({"docs": docs, "seconds": seconds, "min_docs": min_docs,
                                 "trace": False, "warmup": warmup}, work)
        factor = report["speed_factor"]
        raw = summarize(report["records"], tail_pct, 1.0)
        metrics = {"setup_s": setup,
                   **summarize(report["records"], tail_pct, factor),
                   "peak_rss_mb": report["peak_rss_kb"] / 1024}
        info = [f"  doc_tail_ms is p{tail_pct} of {len(report['records'])} documents",
                f"  speed factor {factor:.4f} "
                f"(set-up {setup_factor:.4f}); unscaled: "
                f"setup_s {raw_setup:.6g}, " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())]
        units = dict(END_TO_END)
    records = report["records"]
    failed = sum(1 for s, _ in records if s == "fail")
    return {
        "result": {"correct": report["unexpected"] == 0, "attempted": len(records),
                   "failed": failed,
                   "metrics": {name: {"value": metrics[name], "unit": unit}
                               for name, unit in units.items()}},
        "info": info + [f"  unexpected failure: {p}" for p in report["problems"]],
    }


def print_result(workload: str, seed: int, outcome: dict) -> None:
    result = outcome["result"]
    print(f"{workload} (seed {seed}): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']}")
    for line in outcome["info"]:
        print(line)
    print(json.dumps(result), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and runs: every workload, untraced and traced")
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: cannot run, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.2 if args.smoke else args.seconds
    correct = True
    for workload in workloads:
        for trace in modes:
            outcome = run_workload(workload, args.seed, seconds, trace, args.smoke)
            print_result(workload, args.seed, outcome)
            (OUT / f"result-{workload}-{args.seed}-trace{int(trace)}.json").write_text(
                json.dumps(outcome["result"]) + "\n", encoding="utf-8")
            correct &= outcome["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
