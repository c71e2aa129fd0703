"""The command line as a real process: ``python -m legalc`` on the ``src``
this suite imports, its exit codes and output bytes, and the ``gc.freeze()``
that only the process entry makes."""

import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import legalc
from legalc import cli

SRC = Path(legalc.__file__).resolve().parents[1]


def python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=60)


def test_output_file_is_the_golden(tmp_path, corpus_dir, golden_dir):
    proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), "-o", "tmp.xml", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "tmp.xml").read_bytes() == (golden_dir / "decree-25.xml").read_bytes()


def test_stdout_is_the_golden(tmp_path, corpus_dir, golden_dir):
    # all of it: the exit flushes stdout
    proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), "-o", "-", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (golden_dir / "decree-25.xml").read_bytes()


def test_rejection_and_usage_error_exit_codes(tmp_path, corpus_dir):
    bad = tmp_path / "bad.txt"
    bad.write_text((corpus_dir / "decree-25.txt").read_text(encoding="utf-8")
                   .replace("مرسوم", "مرسم", 1), encoding="utf-8")
    proc = python("-m", "legalc", str(bad), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith("error: expected a document type keyword".encode("utf-8"))
    assert not bad.with_suffix(".xml").exists()
    proc = python("-m", "legalc", "--indent", "-1", str(corpus_dir / "decree-25.txt"), cwd=tmp_path)
    assert proc.returncode == 2


def test_main_freezes_the_start_up_heap(tmp_path, corpus_dir):
    script = ("import gc, sys\n"
              f"sys.argv = ['legalc', '--validate', {str(corpus_dir / 'decree-25.txt')!r}]\n"
              "import legalc.cli\n"
              "before = gc.get_freeze_count()\n"
              "try:\n"
              "    legalc.cli.main()\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, before, gc.get_freeze_count())\n")
    proc = python("-c", script, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    code, before, after = map(int, proc.stdout.split())
    assert (code, before) == (0, 0)
    assert after > 0


def test_run_leaves_the_heap_unfrozen(corpus_paths):
    before = gc.get_freeze_count()
    code = cli.run(["--validate", *map(str, corpus_paths)],
                   stdout=io.StringIO(), stderr=io.StringIO())
    assert code == cli.EXIT_OK
    assert gc.get_freeze_count() == before
