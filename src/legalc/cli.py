"""Command-line driver.

Exit codes: 0 all inputs valid, 1 at least one input rejected, 2 usage or
I/O error.  Batch runs process every input and return the worst code.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import os
import sys
from pathlib import Path
from typing import TextIO

from .codegen import emit
from .normalize import DecodeError, NormalizedText, preprocess
from .parser import Diagnostic, dump_ast, parse_document
from .scanner import dump_tokens
from .tokens import KIND_DISPLAY

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2


@functools.cache   # one parser per process: argparse builds reference cycles
def build_arg_parser() -> argparse.ArgumentParser:
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
    return parser


def render_diagnostic(diag: Diagnostic, text: NormalizedText) -> str:
    """Human-readable rendering: location header, offending line, caret.  The
    span indexes ``text.lines``; the header gives the line's source number."""
    line, word = diag.span.start_line, diag.span.start_word
    number = text.line_numbers[line] if line < len(text.line_numbers) else line + 1
    out = [f"error: {diag.message} at {text.source_name}:{number}:{word + 1}"]
    if line < len(text.lines):
        words = text.lines[line]
        line_str = " ".join(words)
        # The line is its words joined by single spaces: a word starts after
        # the words before it plus one space each.
        start = sum(len(w) + 1 for w in words[:min(word, len(words) - 1)])
        if diag.span.end_line == line and diag.span.end_word < len(words):
            end = len(" ".join(words[:diag.span.end_word + 1]))
        else:
            end = len(line_str)
        out.append("  " + line_str)
        out.append("  " + " " * start + "^" + "~" * max(end - start - 1, 0))
    if diag.expected:
        out.append("expected: " + ", ".join(KIND_DISPLAY[k] for k in diag.expected))
    return "\n".join(out) + "\n"


class _Stream:
    """One of :func:`run`'s text streams, flushed after each write.  Its first
    failure (a closed pipe, a full device, or None for a closed descriptor)
    is the last write tried."""

    def __init__(self, stream: TextIO | None):
        self.stream = stream
        self.error = None if stream is not None else OSError(errno.EBADF, os.strerror(errno.EBADF))

    def write(self, text: str) -> bool:
        """Write ``text``; False once the stream has failed."""
        if self.error is None:
            try:
                self.stream.write(text)
                self.stream.flush()
            except OSError as exc:
                self.error = exc
        return self.error is None


def _read_input(path: str, source: str, err: _Stream) -> bytes | None:
    try:
        if path != "-":
            return Path(path).read_bytes()
        if sys.stdin is None:   # a closed descriptor
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return sys.stdin.buffer.read()
    except OSError as exc:
        err.write(f"legalc: error: cannot read {source}: {exc.strerror or exc}\n")
        return None


def _file_id(path: str) -> tuple[int, int] | None:
    """The (device, inode) of the file at ``path``, or None if there is none."""
    try:
        st = os.stat(path)
    except OSError:   # a destination that does not exist yet is no input
        return None
    return st.st_dev, st.st_ino


def _process_one(path: str, args: argparse.Namespace, claimed: dict[tuple[int, int], str],
                 out: _Stream, err: _Stream) -> int:
    """Compile one input.  ``claimed`` maps the file ids that no output may
    overwrite (the inputs, and the outputs written so far) to the reason.  A
    failed write to ``out`` gives exit 2, and :func:`run` reports it."""
    source = "<stdin>" if path == "-" else path
    data = _read_input(path, source, err)
    if data is None:
        return EXIT_USAGE
    try:
        text = preprocess(data, source)
    except DecodeError as exc:
        err.write(f"error: {source}: {exc}\n")
        return EXIT_REJECTED

    result = parse_document(text)
    if args.dump_tokens and not out.write(dump_tokens(result.tokens) + "\n"):
        return EXIT_USAGE
    if result.document is None:
        for diag in result.diagnostics:
            err.write(render_diagnostic(diag, text))
        return EXIT_REJECTED
    if args.validate or args.dump_tokens:
        return EXIT_OK
    if args.dump_ast:
        return EXIT_OK if out.write(dump_ast(result.document) + "\n") else EXIT_USAGE

    payload = emit(result.document)
    if args.output:
        dest = args.output
    elif path == "-":
        dest = "-"
    else:
        dest = str(Path(path).with_suffix(".xml"))
    if dest == "-":
        return EXIT_OK if out.write(payload.decode("utf-8")) else EXIT_USAGE
    # an input named *.xml is its own default destination, and a.txt and
    # a.md share one
    reason = claimed.get(_file_id(dest))
    if reason is None:
        try:
            Path(dest).write_bytes(payload)
        except OSError as exc:
            reason = exc.strerror or str(exc)
        else:
            claimed[_file_id(dest)] = "this run already wrote it"
            return EXIT_OK
    err.write(f"legalc: error: cannot write {dest}: {reason}\n")
    return EXIT_USAGE


def run(argv: list[str] | None = None, stdout: TextIO | None = None,
        stderr: TextIO | None = None) -> int:
    out = _Stream(stdout if stdout is not None else sys.stdout)
    err = _Stream(stderr if stderr is not None else sys.stderr)
    parser = build_arg_parser()
    try:
        # argparse prints usage/help to the process streams on its own;
        # route that through the streams the caller handed us instead.  Like
        # argparse's own printing, that output may fail unreported.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.output and len(args.inputs) > 1:
        err.write("legalc: error: -o/--output requires exactly one input\n")
        return EXIT_USAGE
    ids = (_file_id(path) for path in args.inputs if path != "-")
    claimed = {fid: "it is an input file" for fid in ids if fid}
    code = EXIT_OK
    for path in args.inputs:
        code = max(code, _process_one(path, args, claimed, out, err))
    if out.error is not None:
        err.write(f"legalc: error: cannot write <stdout>: {out.error.strerror or out.error}\n")
        return EXIT_USAGE
    return code


def main() -> None:
    """The process entry behind the ``legalc`` script and ``python -m legalc``.

    It first freezes the collector's view of the heap (``gc.freeze()``): the
    modules, classes and tables that start-up built live until the process
    exits, so no later collection, the interpreter's shutdown ones included,
    needs to walk them.  Unlike ``os._exit``, the exit still flushes stdio
    and runs atexit handlers.  :func:`run` and the library never freeze, as
    a caller's heap is not theirs to pin.

    Stdout holds data at the end only after a write that :func:`run`
    reported failed.  If the flush here fails on it again, the descriptor
    goes to ``os.devnull``, as the ``signal`` docs advise for a closed pipe,
    so that the interpreter's own flush at exit cannot fail too.
    """
    gc.freeze()
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
