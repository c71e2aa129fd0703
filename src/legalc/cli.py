"""Command-line driver.

Exit codes: 0 all inputs valid, 1 at least one input rejected, 2 usage or
I/O error.  Batch runs process every input and return the worst code.
"""

from __future__ import annotations

import errno
import gc
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple, TextIO

from .codegen import emit
from .normalize import DecodeError, NormalizedText, preprocess
from .parser import Diagnostic, dump_ast, parse_document
from .scanner import dump_tokens
from .tokens import KIND_DISPLAY

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2

# The options, in the order argparse lists them when a long option's prefix
# is ambiguous.
_OPTIONS = ("-h", "--help", "-o", "--output", "--validate", "--dump-tokens", "--dump-ast")
# An argument that looks like a negative number is an input, not an option.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match

_USAGE = """\
usage: legalc [-h] [-o PATH] [--validate | --dump-tokens | --dump-ast]
              input [input ...]
"""

_HELP = _USAGE + """
Validate Arabic legal documents and translate them to XML.

positional arguments:
  input                 input file(s); use - to read one document from stdin

options:
  -h, --help            show this help message and exit
  -o PATH, --output PATH
                        output path (single input only); use - for stdout
  --validate            check the inputs and set the exit code, write no XML
  --dump-tokens         print the token stream instead of XML
  --dump-ast            print the parsed structure instead of XML
"""


class _Args(NamedTuple):
    """A command line read: the inputs, the ``-o`` path, and the mode, the
    option that chose it (``--validate``, ``--dump-tokens``, ``--dump-ast``
    or ``--help``) or None for XML."""

    inputs: list[str]
    output: str | None
    mode: str | None


def _read_args(argv: list[str]) -> _Args | str:
    """``argv`` read as an argparse parser of legalc's options reads it, or
    the message of the usage error it makes.

    An option takes its value as ``-o PATH``, ``-oPATH``, ``--output PATH``
    or ``--output=PATH``; a long option may be shortened to any prefix that
    names it alone.  Every argument after ``--``, and ``-``, is an input.
    The inputs are one run of arguments, which may stand before, after or
    between options; an argument after that run is unrecognized.  The
    checks fall in argparse's order: an ambiguous prefix first, then each
    option in turn (``--help`` ends the reading there), then a missing
    input, then the unrecognized arguments.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    # index -> (the option, or None for an unknown one; the value attached)
    named: dict[int, tuple[str | None, str | None]] = {}
    for i, arg in enumerate(argv[:end]):
        if arg[:1] != "-" or arg == "-":
            continue
        name, eq, value = arg.partition("=")
        if arg in _OPTIONS:
            named[i] = arg, None
        elif eq and name in _OPTIONS:
            named[i] = name, value
        elif arg[1] == "-" and (matches := [o for o in _OPTIONS if o.startswith(name)]):
            if len(matches) > 1:
                return f"ambiguous option: {arg} could match {', '.join(matches)}"
            named[i] = matches[0], value if eq else None
        elif arg[:2] in _OPTIONS:   # -oPATH, or -h run together with more short options
            named[i] = arg[:2], arg[2:]
        elif not _NEGATIVE_NUMBER(arg) and " " not in arg:
            named[i] = None, None

    inputs: list[str] | None = None
    output: str | None = None
    mode: str | None = None
    extras: list[str] = []
    i = 0
    while i < len(argv):
        if i not in named:   # a run of arguments, up to the next option
            j = i + 1
            while j < len(argv) and j not in named:
                j += 1
            values = argv[i:j]
            if i <= end < j:
                del values[end - i]
            if inputs is None and values:
                inputs = values
            else:
                extras += argv[i:j]
            i = j
            continue
        name, value = named[i]
        i += 1
        takes_next = i < end and i not in named
        if name is None:
            extras.append(argv[i - 1])
        elif name in ("-o", "--output"):
            if value is None:
                if not takes_next:
                    return "argument -o/--output: expected one argument"
                value = argv[i]
                i += 1
            output = value
        elif name in ("-h", "--help"):
            if value is not None:
                if name == "--help" or not value:
                    return f"argument -h/--help: ignored explicit argument {value!r}"
                value = value.lstrip("h")   # -hh, -hoPATH, -ho PATH
                if value[:1] not in ("", "o"):
                    return f"argument -h/--help: ignored explicit argument {value!r}"
                if value == "o" and not takes_next:
                    return "argument -o/--output: expected one argument"
            return _Args([], None, "--help")
        elif value is not None:
            return f"argument {name}: ignored explicit argument {value!r}"
        elif mode not in (None, name):
            return f"argument {name}: not allowed with argument {mode}"
        else:
            mode = name
    if inputs is None:
        return "the following arguments are required: input"
    if extras:
        return "unrecognized arguments: " + " ".join(extras)
    return _Args(inputs, output, mode)


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
        self.error: OSError | None = None

    def write(self, text: str) -> bool:
        """Write ``text``; False once the stream has failed."""
        if self.error is None:
            try:
                if self.stream is None:   # a closed descriptor fails only when written to
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
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


def _process_one(path: str, args: _Args, claimed: dict[tuple[int, int], str],
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
    if args.mode == "--dump-tokens" and not out.write(dump_tokens(result.tokens) + "\n"):
        return EXIT_USAGE
    if result.document is None:
        for diag in result.diagnostics:
            err.write(render_diagnostic(diag, text))
        return EXIT_REJECTED
    if args.mode in ("--validate", "--dump-tokens"):
        return EXIT_OK
    if args.mode == "--dump-ast":
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
    args = _read_args(sys.argv[1:] if argv is None else list(argv))
    if isinstance(args, str):
        err.write(f"{_USAGE}legalc: error: {args}\n")
        return EXIT_USAGE
    code = EXIT_OK
    if args.mode == "--help":
        out.write(_HELP)
    elif args.output and len(args.inputs) > 1:
        err.write("legalc: error: -o/--output requires exactly one input\n")
        return EXIT_USAGE
    else:
        ids = (_file_id(path) for path in args.inputs if path != "-")
        claimed = {fid: "it is an input file" for fid in ids if fid}
        for path in args.inputs:
            code = max(code, _process_one(path, args, claimed, out, err))
    if out.error is not None:
        err.write(f"legalc: error: cannot write <stdout>: {out.error.strerror or out.error}\n")
        return EXIT_USAGE
    return code


def main() -> None:
    """The process entry behind the ``legalc`` script and ``python -m legalc``.

    It freezes the collector's view of the heap (``gc.freeze()``): the
    modules, classes and tables that start-up built live until the process
    exits, so no later collection, the interpreter's shutdown ones included,
    needs to walk them.  Unlike ``os._exit``, the exit still flushes stdio
    and runs atexit handlers.  It also sets stdout's encoding to UTF-8, the
    one the XML declares.  :func:`run` and the library do neither, as a
    caller's heap and streams are not theirs to change.

    Stdout holds data at the end only after a write that :func:`run`
    reported failed.  If the flush here fails on it again, the descriptor
    goes to ``os.devnull``, as the ``signal`` docs advise for a closed pipe,
    so that the interpreter's own flush at exit cannot fail too.
    """
    gc.freeze()
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8")
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
