"""Time two checkouts of legalc side by side.

    python3 tests/interleave.py PARENT/src/legalc CHANGE/src/legalc \
        [--workload large-docs] [--seed 1] [--rounds 7]

Each argument is a ``src/legalc`` package directory.  A round runs each of
one workload's documents (built by ``bench/inputs.py``, which is only read)
on both trees back to back, the tree that goes first swapping with each
document, and sums each tree's times.  A machine whose speed drifts, even
within seconds, slows both trees alike, so the per-round ratio is steadier
than two separate benchmark runs, or than whole rounds run one tree at a
time.

For ``batch-mixed`` and ``large-docs`` the two trees are imported under
distinct package names, so both live in this one process, and a round
compiles each document in process.  ``bench/inputs.py`` imports this
checkout's ``legalc`` for the AST records it builds; only the two loaded
trees are timed.  For ``cli-cold`` a round runs one
``python -m legalc <doc> -o <tmp>.xml`` process per document, with
``PYTHONPATH`` set to the ``src`` directory above the tree's package, so
interpreter start-up, imports and exit are timed too.  The environment is
passed on otherwise unchanged, ``PYTHONDONTWRITEBYTECODE`` included: whether
a tree's ``__pycache__`` holds bytecode decides whether each process
compiles the package from source, so the report says which it was.

Before timing, one untimed round per tree runs every document and asserts
that both trees give the same output (in process: the XML, or the rendered
diagnostics of a rejected document, or the exception type of a failure; as
processes: the exit code, the XML bytes and the stderr).
It prints each tree's minimum, quartiles and median round time, the median
of the per-round ratios A/B (above 1 means tree B is faster), and how many
rounds tree B won.  A gain is shown when B wins at least nine rounds in ten
and the medians differ by more than the distance between A's quartiles; the
last line gives that verdict, or names the half of the rule that failed.  It
is a script, not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import inputs  # noqa: E402


def load_tree(package_dir: Path, name: str):
    """Import the package in ``package_dir`` as ``name``, with its submodules
    resolved from that directory."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"{package_dir}: not a package directory")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def compiler(package):
    """One document's output under ``package``, as the bench worker makes it."""
    normalize, parser = package.normalize, package.parser
    emit = package.codegen.emit
    render = importlib.import_module(package.__name__ + ".cli").render_diagnostic

    def compile_doc(doc) -> bytes | str:
        try:
            text = normalize.preprocess(doc.data, doc.name)
            result = parser.parse_document(text)
            if result.document is not None:
                return emit(result.document)
            return "".join(render(d, text) for d in result.diagnostics)
        except Exception as exc:  # a known failure is output too; it must match
            return type(exc).__name__
    return compile_doc


def process_runner(package_dir: Path, work: Path):
    """One document's (exit code, XML bytes or None, stderr) from a fresh
    ``python -m legalc`` process over the tree in ``package_dir``; the
    documents are files in ``work``."""
    if package_dir.name != "legalc" or not (package_dir / "__main__.py").is_file():
        raise SystemExit(f"{package_dir}: not a legalc package directory")
    env = {**os.environ, "PYTHONPATH": str(package_dir.parent)}
    out = work / "out.xml"

    def run_doc(doc) -> tuple[int, bytes | None, bytes]:
        out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "legalc", str(work / doc.name), "-o", str(out)],
            cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        return proc.returncode, out.read_bytes() if out.exists() else None, proc.stderr
    return run_doc


def bytecode_state(package_dir: Path) -> str:
    """Whether the tree has a ``__pycache__``, and for how many of its modules
    it holds bytecode that matches the source (a timestamp ``.pyc`` records
    the source's mtime and size), which a process loads instead of compiling."""
    if not (package_dir / "__pycache__").is_dir():
        return "no __pycache__"
    sources = sorted(package_dir.glob("*.py"))
    fresh = 0
    for source in sources:
        pyc = Path(importlib.util.cache_from_source(str(source)))
        st = source.stat()
        stamp = struct.pack("<III", 0, int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        fresh += pyc.is_file() and pyc.read_bytes()[4:16] == stamp
    return f"__pycache__ with current bytecode for {fresh} of {len(sources)} modules"


def time_round(trees, docs, first: int) -> list[float]:
    """Each tree's seconds over ``docs``, every document run on both trees
    back to back; tree ``first`` goes first on the first document."""
    totals = [0.0, 0.0]
    for i, doc in enumerate(docs):
        for side in ((0, 1) if (first + i) % 2 == 0 else (1, 0)):
            start = perf_counter()
            trees[side](doc)
            totals[side] += perf_counter() - start
    return totals


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path, help="src/legalc directory of tree A (the parent)")
    ap.add_argument("tree_b", type=Path, help="src/legalc directory of tree B (the change)")
    ap.add_argument("--workload", default="large-docs",
                    choices=("cli-cold", "batch-mixed", "large-docs"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")

    docs = inputs.build(args.workload, args.seed)
    dirs = (args.tree_a.resolve(), args.tree_b.resolve())
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        work = Path(tmp)
        if args.workload == "cli-cold":
            for doc in docs:
                (work / doc.name).write_bytes(doc.data)
            trees = [process_runner(d, work) for d in dirs]
        else:
            trees = [compiler(load_tree(d, name)) for d, name in zip(dirs, ("legalc_a", "legalc_b"))]
        compare_and_time(args, docs, trees, dirs)


def compare_and_time(args, docs, trees, dirs: tuple[Path, Path]) -> None:
    for doc in docs:
        out_a, out_b = (compile_doc(doc) for compile_doc in trees)
        if out_a != out_b:
            raise SystemExit(f"{doc.name}: the trees' outputs differ")
    print(f"{args.workload} seed {args.seed}: {len(docs)} documents, outputs identical")
    if args.workload == "cli-cold":
        print("one process per document; PYTHONDONTWRITEBYTECODE="
              f"{os.environ.get('PYTHONDONTWRITEBYTECODE') or '(unset)'}")
        for label, d in zip("AB", dirs):
            print(f"{label}: {d} ({bytecode_state(d)})")

    times: list[list[float]] = [[], []]
    for r in range(args.rounds):
        for side, seconds in enumerate(time_round(trees, docs, r % 2)):
            times[side].append(seconds)
    quartiles = []
    for label, ts in zip("AB", times):
        q1, median, q3 = statistics.quantiles(ts, n=4, method="inclusive")
        quartiles.append((q1, median, q3))
        print(f"{label}: min {min(ts) * 1e3:.1f} ms  q1 {q1 * 1e3:.1f} ms"
              f"  median {median * 1e3:.1f} ms  q3 {q3 * 1e3:.1f} ms  ({args.rounds} rounds)")
    ratios = [a / b for a, b in zip(*times)]
    print(f"A/B median per-round ratio {statistics.median(ratios):.3f}"
          f"  (range {min(ratios):.3f}-{max(ratios):.3f})")
    (a_q1, a_median, a_q3), (_, b_median, _) = quartiles
    wins = sum(a > b for a, b in zip(*times))
    print(f"B won {wins} of {args.rounds} rounds; medians differ by"
          f" {(a_median - b_median) * 1e3:.1f} ms, A's interquartile range is"
          f" {(a_q3 - a_q1) * 1e3:.1f} ms")
    print(verdict(wins, args.rounds, a_median - b_median, a_q3 - a_q1))


def verdict(wins: int, rounds: int, gap: float, a_iqr: float) -> str:
    """The pair rule's verdict: a gain is shown when B won at least nine
    rounds in ten and the medians differ by more than A's interquartile
    range; otherwise the verdict names each half that failed."""
    failed = []
    if wins * 10 < rounds * 9:
        failed.append(f"B won {wins} of {rounds} rounds, fewer than 9 in 10")
    if gap <= a_iqr:
        failed.append("the medians differ by no more than A's interquartile range")
    return "verdict: gain not shown: " + "; ".join(failed) if failed else "verdict: gain shown"


if __name__ == "__main__":
    main()
