"""The command line as a real process: ``python -m legalc`` on the ``src``
this suite imports, its exit codes and output bytes, its standard streams
failing, and the ``gc.freeze()`` that only the process entry makes."""

import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import docgen
import legalc
from legalc import cli

SRC = Path(legalc.__file__).resolve().parents[1]


def python(*args: str, cwd: Path, env: dict[str, str] | None = None,
           **streams) -> subprocess.CompletedProcess:
    """``args`` run by this interpreter over ``SRC``, with Python's default
    buffering of stdout and the variables ``env`` added to the environment;
    ``streams`` are :func:`subprocess.run` arguments, by default stdout and
    stderr captured."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    env.pop("PYTHONUNBUFFERED", None)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, timeout=60, **streams)


def assert_io_error(proc: subprocess.CompletedProcess, message: str) -> None:
    """Exit 2 with one error line, ``message`` and the reason, no traceback."""
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.decode("utf-8").splitlines()
    assert line.startswith(f"legalc: error: {message}: "), line


def test_output_file_is_the_golden(tmp_path, corpus_dir, golden_dir):
    proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), "-o", "tmp.xml", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "tmp.xml").read_bytes() == (golden_dir / "decree-25.xml").read_bytes()


def test_stdout_is_the_golden(tmp_path, corpus_dir, golden_dir):
    # all of it: the exit flushes stdout
    proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), "-o", "-", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (golden_dir / "decree-25.xml").read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "cp1256", "utf-16"])
def test_stdout_is_utf8_whatever_its_encoding_was(tmp_path, corpus_dir, golden_dir, encoding):
    # the XML declares UTF-8; ascii and cp1256 cannot hold all of the
    # document's text (cp1256 has no Arabic-Indic digits)
    source, env = str(corpus_dir / "decree-25.txt"), {"PYTHONIOENCODING": encoding}
    proc = python("-m", "legalc", source, "-o", "-", cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (golden_dir / "decree-25.xml").read_bytes()
    proc = python("-m", "legalc", source, "--dump-ast", cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (golden_dir / "decree-25.ast").read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "cp1256", "utf-16"])
def test_stderr_is_utf8_whatever_its_encoding_was(tmp_path, corpus_dir, encoding):
    # the diagnostic's Arabic line, with the caret under the misspelt word
    bad = tmp_path / "bad.txt"
    bad.write_text((corpus_dir / "decree-25.txt").read_text(encoding="utf-8")
                   .replace("مرسوم", "مرسم", 1), encoding="utf-8")
    expected = io.StringIO()
    assert cli.run([str(bad)], stdout=io.StringIO(), stderr=expected) == cli.EXIT_REJECTED
    proc = python("-m", "legalc", str(bad), cwd=tmp_path, env={"PYTHONIOENCODING": encoding})
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == expected.getvalue().encode("utf-8")
    line, caret = proc.stderr.decode("utf-8").splitlines()[1:3]
    assert line[caret.index("^"):].startswith("مرسم ")


def test_undecodable_file_name_is_escaped_on_stderr(tmp_path):
    name = os.fsdecode(b"\xff.txt")   # a lone surrogate where the file system encoding is UTF-8
    proc = python("-m", "legalc", name, cwd=tmp_path)
    assert_io_error(proc, "cannot read " + name.encode("utf-8", "backslashreplace").decode("utf-8"))
    assert proc.stdout == b""


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


def test_a_run_imports_no_argument_parser(tmp_path, corpus_dir):
    # argparse, the gettext it imports, and the BOM-stripping codec are
    # start-up work that no run needs
    script = ("import sys\n"
              "import legalc.cli\n"
              f"code = legalc.cli.run(['--validate', {str(corpus_dir / 'decree-25.txt')!r}])\n"
              "unwanted = {'argparse', 'gettext', 'encodings.utf_8_sig'}\n"
              "print(code, *sorted(unwanted & set(sys.modules)))\n")
    proc = python("-c", script, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0\n", b"")


def test_run_leaves_the_heap_unfrozen(corpus_paths):
    before = gc.get_freeze_count()
    code = cli.run(["--validate", *map(str, corpus_paths)],
                   stdout=io.StringIO(), stderr=io.StringIO())
    assert code == cli.EXIT_OK
    assert gc.get_freeze_count() == before


def test_stdout_a_pipe_whose_reader_is_gone(tmp_path):
    source = tmp_path / "large.txt"
    source.write_text(docgen.many_articles(3000), encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python("-m", "legalc", str(source), "-o", "-", cwd=tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert_io_error(proc, "cannot write <stdout>")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("mode", [["-o", "-"], ["--dump-tokens"]])
def test_stdout_a_full_device(tmp_path, corpus_dir, mode):
    with open("/dev/full", "wb") as full:
        proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), *mode,
                      cwd=tmp_path, stdout=full)
    assert_io_error(proc, "cannot write <stdout>")


def test_stdout_closed(tmp_path, corpus_dir):
    proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), "-o", "-",
                  cwd=tmp_path, preexec_fn=lambda: os.close(1))
    assert_io_error(proc, "cannot write <stdout>")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_help_to_a_full_device(tmp_path):
    with open("/dev/full", "wb") as full:
        proc = python("-m", "legalc", "--help", cwd=tmp_path, stdout=full)
    assert_io_error(proc, "cannot write <stdout>")


def test_help_to_a_closed_stdout(tmp_path):
    proc = python("-m", "legalc", "--help", cwd=tmp_path, preexec_fn=lambda: os.close(1))
    assert_io_error(proc, "cannot write <stdout>")


@pytest.mark.parametrize("mode", [["--validate"], ["-o", "out.xml"]],
                         ids=["--validate", "-o FILE"])
def test_stdout_closed_and_not_written_to(tmp_path, corpus_dir, golden_dir, mode):
    proc = python("-m", "legalc", str(corpus_dir / "decree-25.txt"), *mode,
                  cwd=tmp_path, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
    if "-o" in mode:
        assert (tmp_path / "out.xml").read_bytes() == (golden_dir / "decree-25.xml").read_bytes()


def test_stdin_closed(tmp_path):
    proc = python("-m", "legalc", "-", cwd=tmp_path, preexec_fn=lambda: os.close(0))
    assert_io_error(proc, "cannot read <stdin>")
    assert proc.stdout == b""
