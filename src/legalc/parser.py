"""Document parsing: layout-aware scanning plus grammar-exact descent.

Parsing happens in two phases.  A driver walks the document shape
(statement line, title, issuer, reference and justification clauses,
acknowledgment, articles, location/date line, signature block), telling the
scanner which kinds it expects at every step, and produces one token
stream.  Each article's content region, which may span lines, is one STRING
in it, built by the driver from the text's lines.

The second phase is a recursive-descent parser over that stream.  It
implements the document grammar exactly (see :mod:`legalc.grammar`) and
decides each step from the next token, except once: the last article's title,
which the article list retries without (:func:`_gen_article_list`).  Because
it reads nothing but tokens, the same code parses synthetic token sequences,
which is how it is cross-checked against the membership oracle of
:mod:`legalc.grammar`.  Each fixed run of tokens (the preamble, a clause
body, the acknowledgment, an article header, the rest of a signature) is a
module-level table of (kinds, message) steps that one function,
:func:`_expect`, checks in order.

The first error aborts; there is no recovery.
"""

from __future__ import annotations

import enum
import functools
import gc
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .normalize import NormalizedText, fold_for_matching, has_digit
# match_keyword_phrase is not called here, but stays importable from this
# module: bench/worker.py counts probes wherever a module looks it up.
from .scanner import KeywordMatch, Scanner, match_keyword_phrase  # noqa: F401
from .tokens import Span, Token, TokenKind, _tuple_new

K = TokenKind
_F = TypeVar("_F", bound=Callable)


def _gc_paused(fn: _F) -> _F:
    """Run ``fn`` with the cyclic garbage collector paused.

    A compile builds tens of thousands of tokens, spans and elements that
    form no reference cycles, so reference counting frees all of them and
    the collector's passes over them are pure overhead.  The collector is
    re-enabled on the way out, also when ``fn`` raises; a caller that has
    already disabled it (or a nested call) is left as it is.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused  # type: ignore[return-value]


# -- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """The statement line: the document type and its number."""

    doc_type: str   # original keyword spelling: قانون, قرار or مرسوم
    number: str     # digit run, original script


@dataclass(frozen=True)
class Article:
    """One article: its number, its optional title and its content."""

    number: str
    title: str | None   # None exactly when the header line ends at the colon
    content: str


@dataclass(frozen=True)
class LocDate:
    """The issue line: location, date, and whether في joined them."""

    location: str
    date: str
    had_fi: bool


class SignatureKind(enum.Enum):
    TYPE1 = "type1"   # الإمضاء: name / position line below
    TYPE2 = "type2"   # position line above / الإمضاء: name


@dataclass(frozen=True)
class Signature:
    """One signature: its layout kind, the signer's name and position."""

    kind: SignatureKind
    name: str
    position: str


@dataclass(frozen=True)
class Document:
    """A parsed document, one field per part of its layout."""

    statement: Statement
    title: str
    issuer: str
    references: tuple[str, ...]
    justifications: tuple[str, ...]
    articles: tuple[Article, ...]
    loc_date: LocDate
    signatures: tuple[Signature, ...]


class Diagnostic(NamedTuple):
    message: str
    span: Span
    expected: tuple[TokenKind, ...] = ()
    found: TokenKind | None = None


class ScanResult(NamedTuple):
    """One document's token stream (``grammar_tokens`` is ``tokens``) and layout diagnostic."""

    tokens: list[Token]
    grammar_tokens: list[Token]
    diagnostics: list[Diagnostic]


class ParseResult(NamedTuple):
    document: Document | None
    diagnostics: list[Diagnostic]
    tokens: list[Token]
    grammar_tokens: list[Token]

    @property
    def ok(self) -> bool:
        return self.document is not None


# -- grammar phase ---------------------------------------------------------

# Kinds read once per token or per article, in both phases, bound once: in
# Python 3.11 the enum metaclass's ``__getattr__`` keeps a read such as
# ``K.EOF`` off the fast class-attribute path, and it costs ~10 times a
# module global's.
_EOF, _MADA, _STRING = K.EOF, K.MADA, K.STRING


class _Ctx:
    """Parse state: the token list and the furthest failure seen so far.

    The descent reads a token only at 0 or right after a token it matched,
    and EOF matches no step, so over a list that ends in EOF no read passes
    that EOF.  Over a bare prefix, a read past its end raises IndexError.
    """

    def __init__(self, toks: Sequence[Token]):
        self.toks = toks
        self.fail_pos = -1
        self.fail_expected: set[TokenKind] = set()
        self.fail_message = ""

    def fail(self, i: int, expected: set[TokenKind], message: str) -> None:
        if i > self.fail_pos:
            self.fail_pos = i
            self.fail_expected = set(expected)
            self.fail_message = message
        elif i == self.fail_pos:
            self.fail_expected |= expected


# The grammar's fixed token runs as data: one (kinds, message) step per
# token, checked in order by :func:`_expect`.
_Steps = tuple[tuple[tuple[TokenKind, ...], str], ...]

_PREAMBLE: _Steps = (
    ((K.TYPE,), "expected a document type keyword (قانون, قرار or مرسوم)"),
    ((K.RAQM,), "expected رقم after the document type"),
    ((K.NUM,), "expected the document number"),
    ((K.STRING,), "expected the document title"),
    ((K.INNA,), "expected إن opening the issuer line"),
    ((K.STRING,), "empty issuer text"),
    ((K.COMMA,), "issuer line must end with ،"),
)
_REFERENCE_BODY: _Steps = (
    ((K.STRING,), "empty reference clause"),
    ((K.COMMA, K.DOT), "reference clause must end with ، or a line-final ."),
)
_JUSTIFICATION_BODY: _Steps = (
    ((K.STRING,), "empty justification clause"),
    ((K.COMMA, K.DOT), "justification clause must end with ، or a line-final ."),
)
_ACKNOWLEDGMENT: _Steps = (
    ((K.YAKOUR,), "expected the acknowledgment phrase (يرسم/يقرر ما يأتي)"),
    ((K.COLON,), "acknowledgment phrase must end with :"),
)
_ARTICLE_HEAD: _Steps = (                 # مادة n : and the first content STRING
    ((K.MADA,), "expected مادة opening an article"),
    ((K.NUM, K.STRING), "expected the article number"),
    ((K.COLON,), "expected : after the article number"),
    ((K.STRING,), "article has no content"),
)
_TYPE1_REST: _Steps = (                   # after الإمضاء: ": name", then the position
    ((K.COLON,), "الإمضاء must be followed by :"),
    ((K.STRING,), "signature line has an empty name"),
    ((K.STRING,), "expected a position line under the signature"),
)
_TYPE2_REST = _TYPE1_REST[:2]             # after "position الإمضاء": ": name"


def _expect(ctx: _Ctx, i: int, steps: _Steps) -> list[Token] | None:
    """The tokens of one fixed run from ``i`` on, or None once the first
    mismatch is recorded."""
    toks = ctx.toks
    run: list[Token] = []
    for kinds, message in steps:
        tok = toks[i]
        if tok.kind not in kinds:
            ctx.fail(i, set(kinds), message)
            return None
        run.append(tok)
        i += 1
    return run


def _parse_clause_list(ctx: _Ctx, i: int, opener: TokenKind,
                       body: _Steps) -> tuple[list[str], int] | None:
    items: list[str] = []
    while ctx.toks[i].kind is opener:
        toks = _expect(ctx, i + 1, body)
        if toks is None:
            return None
        items.append(toks[0].lexeme)
        i += 1 + len(body)
    return items, i


def _gen_article_list(ctx: _Ctx, i: int) -> Iterator[tuple[list[Article], int]]:
    """The greedy reading of the article list at i, then at most one retry.

    An article reads as titled when ``STRING STRING`` follows its header, and
    as untitled when one STRING does; another MADA continues the list.  When
    the last article took a title, the retry reads it untitled, one token
    shorter, so that its content STRING opens the location/date line.  An
    earlier article needs no retry: untitled, the next MADA would follow the
    location STRING, failing before anything the greedy reading records.  The
    yielded list is reused: it is valid only until the generator resumes.
    """
    toks = ctx.toks
    articles: list[Article] = []
    while (head := _expect(ctx, i, _ARTICLE_HEAD)) is not None:
        number, first = head[1].lexeme, head[3].lexeme
        i += len(_ARTICLE_HEAD)
        titled = toks[i].kind is _STRING
        if titled:
            articles.append(Article(number, first, toks[i].lexeme))
            i += 1
        else:
            articles.append(Article(number, None, first))
        # Another MADA must belong to the article list; anything else ends it.
        if toks[i].kind is not _MADA:
            yield articles, i
            if titled:
                articles[-1] = Article(number, None, first)
                yield articles, i - 1
            return


def _parse_loc_date(ctx: _Ctx, i: int) -> tuple[LocDate, int] | None:
    loc_tok = ctx.toks[i]
    if loc_tok.kind is not K.STRING:
        ctx.fail(i, {K.STRING}, "expected the location/date line")
        return None
    nxt = ctx.toks[i + 1].kind
    if nxt is K.FI:
        if ctx.toks[i + 2].kind is K.STRING:
            return LocDate(loc_tok.lexeme, ctx.toks[i + 2].lexeme, True), i + 3
        ctx.fail(i + 2, {K.STRING}, "expected the date after في")
    elif nxt is K.STRING:
        return LocDate(loc_tok.lexeme, ctx.toks[i + 1].lexeme, False), i + 2
    else:
        ctx.fail(i + 1, {K.FI, K.STRING}, "expected في or the date text after the location")
    return None


def _parse_sig_list(ctx: _Ctx, i: int) -> tuple[list[Signature], int] | None:
    """The signature block at i: one type-1 signature when it opens with
    الإمضاء, then type-2 signatures.  Read as type-2 only, such a block is
    empty and fails at that الإمضاء, before anything the type-1 reading does.
    """
    toks = ctx.toks
    sigs: list[Signature] = []
    if toks[i].kind is K.IMDAA:
        first = _expect(ctx, i + 1, _TYPE1_REST)
        if first is None:
            return None
        sigs.append(Signature(SignatureKind.TYPE1, first[1].lexeme, first[2].lexeme))
        i += 1 + len(_TYPE1_REST)
    while toks[i].kind is _STRING and toks[i + 1].kind is K.IMDAA:
        rest = _expect(ctx, i + 2, _TYPE2_REST)
        if rest is None:
            return None
        sigs.append(Signature(SignatureKind.TYPE2, rest[1].lexeme, toks[i].lexeme))
        i += 2 + len(_TYPE2_REST)
    return sigs, i


def _parse_document_tokens(ctx: _Ctx) -> Document | None:
    pre = _expect(ctx, 0, _PREAMBLE)
    if pre is None:
        return None
    rr = _parse_clause_list(ctx, len(_PREAMBLE), K.BINAA, _REFERENCE_BODY)
    if rr is None:
        return None
    references, i = rr
    if not references:
        ctx.fail(i, {K.BINAA}, "expected at least one reference clause")
        return None
    rj = _parse_clause_list(ctx, i, K.HAYSOU, _JUSTIFICATION_BODY)
    if rj is None:
        return None
    justifications, i = rj
    if _expect(ctx, i, _ACKNOWLEDGMENT) is None:
        return None
    for articles, j in _gen_article_list(ctx, i + len(_ACKNOWLEDGMENT)):
        rl = _parse_loc_date(ctx, j)
        if rl is None:
            continue
        loc_date, k = rl
        rs = _parse_sig_list(ctx, k)
        if rs is None:
            continue
        signatures, m = rs
        if ctx.toks[m].kind is K.EOF:
            return Document(
                statement=Statement(pre[0].lexeme, pre[2].lexeme),
                title=pre[3].lexeme,
                issuer=pre[5].lexeme,
                references=tuple(references),
                justifications=tuple(justifications),
                articles=tuple(articles),
                loc_date=loc_date,
                signatures=tuple(signatures),
            )
        ctx.fail(m, {K.EOF}, "unexpected trailing input after the signature block")
    return None


def _with_eof(tokens: Sequence[Token]) -> Sequence[Token]:
    if tokens and tokens[-1].kind is _EOF:   # a scanned stream: read it as it is
        return tokens
    return [*tokens, Token(K.EOF, "", Span.point(0, len(tokens)))]


def parse_grammar_tokens(tokens: Sequence[Token]) -> tuple[Document | None, Diagnostic | None]:
    """Run the grammar over a token stream (an EOF token is appended if missing)."""
    toks = _with_eof(tokens)
    ctx = _Ctx(toks)
    doc = _parse_document_tokens(ctx)
    if doc is not None:
        return doc, None
    at = toks[ctx.fail_pos]
    expected = tuple(sorted(ctx.fail_expected, key=lambda k: k.value))
    return None, Diagnostic(ctx.fail_message, at.span, expected, at.kind)


# -- driver phase -----------------------------------------------------------


def _segment_trailer(text: NormalizedText, heads: Sequence[KeywordMatch | None],
                     start_line: int) -> int | None:
    """The location/date line, which splits the lines from ``start_line`` on
    into article content and the signature block; None when none fits.

    The anchor is the first line opening with الإمضاء (folded), read from
    the document's line ``heads`` (:attr:`~legalc.scanner.Scanner.heads`).
    The line just above it is the location/date line when it looks like one
    (second word في, or any digit-bearing word); otherwise that line is a
    signature position line and the location/date line sits one higher.
    Without any signature line, the final line must itself look like a
    location/date line.
    """
    anchor = _first_line_opening(heads, K.IMDAA, start_line, len(text.lines))
    if anchor is None:
        last = len(text.lines) - 1
        return last if last >= start_line and _looks_like_loc_date(text, last) else None
    if anchor - 1 >= start_line and _looks_like_loc_date(text, anchor - 1):
        return anchor - 1
    return anchor - 2 if anchor - 2 >= start_line else None


def _first_line_opening(heads: Sequence[KeywordMatch | None], kind: TokenKind,
                        start: int, end: int) -> int | None:
    """The first line in [start, end) whose head keyword is of ``kind``."""
    for line in range(start, end):
        head = heads[line]
        if head is not None and head.kind is kind:
            return line
    return None


def _looks_like_loc_date(text: NormalizedText, line: int) -> bool:
    words = text.lines[line]
    if len(words) >= 2 and fold_for_matching(words[1]) == "في":
        return True
    return any(has_digit(w) for w in words)


# The kinds sets the driver expects, built once; none holds STRING.  The
# driver hands the scanner one of these and, where a scan is scoped to a
# line or region, the bound as they are, so a bounded scan builds nothing.
_ANY: frozenset[TokenKind] = frozenset()
_NUMBER = frozenset((K.NUM, K.COLON))
_STOP_AT = {kind: frozenset((kind,)) for kind in (
    K.TYPE, K.RAQM, K.NUM, K.INNA, K.BINAA, K.HAYSOU, K.YAKOUR, K.COLON,
    K.MADA, K.FI, K.IMDAA)}
_AT_MADA = _STOP_AT[K.MADA]
# An article header after مادة, one kinds set a step: the number, the colon
# and the title, each taken while the header line has words or a delimiter
# left.
_HEADER = (_NUMBER, _STOP_AT[K.COLON], _ANY)


class _Driver:
    """Walks the document shape, choosing expected kinds and scoping line scans.

    The article header lines are read off the scanner's line heads in one
    pass.  Each article's header is a table of steps, each scoped to the
    header line.  Its content region, up to the next header line or the
    location/date line, is one STRING of its words as written, joined here
    from the text's lines: a scan with ``_ANY`` would probe no keyword and
    only split pieces to rejoin, and a STRING kinds set in :meth:`Scanner.take`
    would loosen its refusal of STRING and fork its hottest path.
    :meth:`take` keeps no EOF; :meth:`run` adds the one EOF.
    """

    def __init__(self, text: NormalizedText):
        self.sc = Scanner(text)
        self.tokens: list[Token] = []
        self.diagnostics: list[Diagnostic] = []

    def take(self, kinds: frozenset[TokenKind], bound: tuple[int, int] | None = None) -> Token:
        """The next token expecting ``kinds``, scoped to end before ``bound``,
        kept in the stream unless it is EOF."""
        tok = self.sc.take(kinds, bound)
        if tok.kind is not _EOF:
            self.tokens.append(tok)
        return tok

    def drain(self) -> None:
        if self.sc.pending is not None:
            self.take(_ANY)

    def at(self, kind: TokenKind) -> bool:
        """True when the keyword at the cursor is of ``kind``."""
        m = self.sc.peek_keyword()
        return m is not None and m.kind is kind

    def text_to(self, bound: tuple[int, int]) -> None:
        """Scan plain text, split at ، and ., up to ``bound`` and through any
        delimiter still pending there.  Every caller's bound lies within the
        text, so no token taken here is EOF."""
        sc = self.sc
        take, append, kinds = sc.take, self.tokens.append, _ANY
        while sc.pending is not None or (sc.line, sc.word) < bound:
            append(take(kinds, bound))

    def run(self) -> ScanResult:
        self._policy()
        self._residual()
        tokens = self.tokens
        tokens.append(self.sc.take(_ANY, None))
        return ScanResult(tokens, tokens, self.diagnostics)

    # The policy mirrors the document shape.  It never fails on mismatches:
    # it keeps scanning something sensible and lets the grammar phase report
    # the first error with a proper span.  Nor does it stop at the end of the
    # input: from there every take gives EOF and keeps nothing, ``at`` is
    # False and ``drain`` does nothing, so the remaining steps run out.
    def _policy(self) -> None:
        sc = self.sc
        self.take(_STOP_AT[K.TYPE])
        self.take(_STOP_AT[K.RAQM])
        self.take(_STOP_AT[K.NUM])
        # The title may span lines, but not into a later line opening with إن.
        title_end = _first_line_opening(sc.heads, K.INNA, sc.line + 1, len(sc.text.lines))
        at_inna = _STOP_AT[K.INNA]
        tok = self.take(at_inna, None if title_end is None else (title_end, 0))
        if tok.kind is not K.INNA:
            tok = self.take(at_inna)
        if tok.kind is K.INNA:
            self.take(_ANY)                                          # issuer text
            self.drain()                                             # terminator
        self._clauses(K.BINAA)
        self._clauses(K.HAYSOU)
        if self.at(K.YAKOUR):
            self.take(_STOP_AT[K.YAKOUR])
            self.take(_STOP_AT[K.COLON])
        loc_date_line = _segment_trailer(sc.text, sc.heads, sc.line)
        if loc_date_line is None:
            return
        self._articles(loc_date_line)
        self._loc_date(loc_date_line)
        self._signatures()

    def _clauses(self, opener: TokenKind) -> None:
        while self.at(opener):
            self.take(_STOP_AT[opener])
            self.take(_ANY)                                          # clause text
            self.drain()                                             # terminator

    def _articles(self, boundary_line: int) -> None:
        sc = self.sc
        heads, first = sc.heads, sc.line
        if (sc.word == 0 and sc.pending is None
                and (head := heads[first]) is not None and head.kind is _MADA):
            # Each article runs from its مادة line to the next one, the last
            # to the location/date line.  An article's scan ends exactly at
            # the next header line's start with nothing pending, so the
            # header lines are known before the first is scanned.
            starts = [line for line in range(first, boundary_line)
                      if (head := heads[line]) is not None and head.kind is _MADA]
            starts.append(boundary_line)
            for header_line, content_end in zip(starts, starts[1:]):
                self._one_article(header_line, content_end)
        # Anything left before the location/date line is scanned as plain
        # text; the grammar phase reports what was actually wrong.
        self.text_to((boundary_line, 0))

    def _one_article(self, header_line: int, content_end: int) -> None:
        sc = self.sc
        take, append = sc.take, self.tokens.append
        header_end = (header_line + 1, 0)
        # The header takes all stay before ``header_end``, a line that exists,
        # so none meets EOF.
        append(take(_AT_MADA, header_end))
        for kinds in _HEADER:                                   # number, colon, title
            if sc.pending is not None or (sc.line, sc.word) < header_end:
                append(take(kinds, header_end))
        self.drain()
        # The content region: one STRING to the next header line, with
        # nothing pending.
        line, word = sc.line, sc.word
        if line < content_end:
            lines, last = sc.text.lines, content_end - 1
            lexeme = " ".join(map(" ".join, (lines[line][word:], *lines[line + 1:content_end])))
            append(_tuple_new(Token, (_STRING, lexeme,
                                      _tuple_new(Span, (line, word, last, len(lines[last]) - 1)))))
            sc.line, sc.word = content_end, 0

    def _loc_date(self, line: int) -> None:
        sc = self.sc
        if (sc.line, sc.word) != (line, 0):
            return
        line_end = (line + 1, 0)
        words = sc.text.lines[line]
        fi_index = next((i for i, w in enumerate(words) if fold_for_matching(w) == "في"), None)
        if fi_index is not None:
            at_fi = _STOP_AT[K.FI]
            if fi_index > 0:
                self.take(at_fi, line_end)                                   # location
            self.take(at_fi, line_end)                                       # في
        else:
            digit_index = next((i for i, w in enumerate(words) if has_digit(w)), None)
            if len(words) < 2 or digit_index is None:
                self.diagnostics.append(Diagnostic(
                    "location/date line needs a location and a date "
                    "(في or a digit-bearing word)",
                    Span(line, 0, line, max(len(words) - 1, 0))))
            if digit_index is not None and digit_index > 0:
                self.take(_ANY, (line, digit_index))                         # location
        self.text_to(line_end)                                               # date

    def _signatures(self) -> None:
        sc = self.sc
        while not sc.at_end():
            line_end = (sc.line + 1, 0)
            if sc.word == 0 and self.at(K.IMDAA):
                self.take(_STOP_AT[K.IMDAA])
                if sc.pending is not None or (sc.line, sc.word) < line_end:
                    self.take(_STOP_AT[K.COLON], line_end)
            self.text_to(line_end)                                           # name, or the line

    def _residual(self) -> None:
        sc = self.sc
        while not sc.at_end():
            self.text_to((sc.line + 1, 0))
        self.drain()


def scan_document(text: NormalizedText) -> ScanResult:
    """Tokenize one whole document (total: every word reaches the stream)."""
    return _Driver(text).run()


@_gc_paused
def parse_document(text: NormalizedText) -> ParseResult:
    """Scan and parse one document.  On failure the result carries exactly
    one diagnostic, the earliest detected."""
    scan = scan_document(text)
    doc, grammar_diag = parse_grammar_tokens(scan.grammar_tokens)
    diagnostics = scan.diagnostics + ([grammar_diag] if grammar_diag is not None else [])
    if diagnostics:   # a scan diagnostic rejects a document the grammar accepts
        doc = None
        diagnostics = [min(diagnostics, key=lambda d: (d.span.start_line, d.span.start_word))]
    return ParseResult(doc, diagnostics, scan.tokens, scan.grammar_tokens)


def dump_ast(doc: Document) -> str:
    """Stable line-oriented rendering of a parsed document."""
    out: list[str] = ["document"]
    out.append(f"  statement type={doc.statement.doc_type} number={doc.statement.number}")
    out.append(f"  title {doc.title}")
    out.append(f"  issuer {doc.issuer}")
    out.append(f"  references ({len(doc.references)})")
    out.extend(f"    reference {r}" for r in doc.references)
    out.append(f"  justifications ({len(doc.justifications)})")
    out.extend(f"    justification {j}" for j in doc.justifications)
    out.append(f"  articles ({len(doc.articles)})")
    for art in doc.articles:
        out.append(f"    article number={art.number}")
        if art.title is not None:
            out.append(f"      title {art.title}")
        out.append(f"      content {art.content}")
    fi = "yes" if doc.loc_date.had_fi else "no"
    out.append(f"  loc-date location={doc.loc_date.location} date={doc.loc_date.date} fi={fi}")
    out.append(f"  signatures ({len(doc.signatures)})")
    for sig in doc.signatures:
        out.append(f"    signature kind={sig.kind.value} name={sig.name} position={sig.position}")
    return "\n".join(out)
