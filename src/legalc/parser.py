"""Document parsing: layout-aware scanning plus grammar-exact descent.

Parsing happens in two phases.  A driver walks the document shape in two
parts, telling the scanner which kinds it expects at every step, and produces
one token stream: the head policy (statement line to acknowledgment), decided
by the keywords it expects, and the tail walk (article list, location/date
line and signature block), decided by lines.  The scanner forms every token
and moves its own cursor; each article's content region, which may span
lines, is one STRING that it forms from the text's lines.

The second phase is a recursive-descent parser over that stream.  It
implements the document grammar exactly (see :mod:`legalc.grammar`) and
decides each step from the next token, except once: the last article's title,
which the trailer is read again without (:func:`_parse_document_tokens`).
Because it reads nothing but tokens, the same code parses synthetic token
sequences, which is how it is cross-checked against the membership oracle of
:mod:`legalc.grammar`.  Each fixed run of tokens (the preamble, a clause
body, the acknowledgment, an article header, the rest of a signature) is a
module-level table of (kinds, message) steps that one function,
:func:`_expect`, checks in order.

A reading fails at the first token that no step takes, and that failure
aborts the parse; there is no recovery.
"""

from __future__ import annotations

import enum
import functools
import gc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TypeVar

from .normalize import NormalizedText, fold_for_matching, has_digit
# match_keyword_phrase is not called here, but stays importable from this
# module: bench/worker.py counts probes wherever a module looks it up.
from .scanner import KeywordMatch, Scanner, match_keyword_phrase  # noqa: F401
from .tokens import Span, Token, TokenKind

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
    """One document's token stream and layout diagnostic."""

    tokens: list[Token]
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


class _Mismatch(Exception):
    """The first token, at ``i``, that no step of a reading takes."""

    def __init__(self, i: int, expected: Sequence[TokenKind], message: str):
        self.i, self.expected, self.message = i, expected, message


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


def _expect(toks: Sequence[Token], i: int, steps: _Steps) -> list[Token]:
    """The tokens of one fixed run from ``i`` on."""
    run: list[Token] = []
    for kinds, message in steps:
        tok = toks[i]
        if tok.kind not in kinds:
            raise _Mismatch(i, kinds, message)
        run.append(tok)
        i += 1
    return run


def _parse_clause_list(toks: Sequence[Token], i: int, opener: TokenKind,
                       body: _Steps) -> tuple[list[str], int]:
    items: list[str] = []
    while toks[i].kind is opener:
        items.append(_expect(toks, i + 1, body)[0].lexeme)
        i += 1 + len(body)
    return items, i


def _parse_article_list(toks: Sequence[Token], i: int) -> tuple[list[Article], int]:
    """The greedy reading of the article list at i.

    An article reads as titled when ``STRING STRING`` follows its header, and
    as untitled when one STRING does; another MADA continues the list.
    """
    articles: list[Article] = []
    while True:
        head = _expect(toks, i, _ARTICLE_HEAD)
        number, first = head[1].lexeme, head[3].lexeme
        i += len(_ARTICLE_HEAD)
        if toks[i].kind is _STRING:
            articles.append(Article(number, first, toks[i].lexeme))
            i += 1
        else:
            articles.append(Article(number, None, first))
        # Another MADA must belong to the article list; anything else ends it.
        if toks[i].kind is not _MADA:
            return articles, i


def _parse_loc_date(toks: Sequence[Token], i: int) -> tuple[LocDate, int]:
    loc_tok = toks[i]
    if loc_tok.kind is not _STRING:
        raise _Mismatch(i, (K.STRING,), "expected the location/date line")
    nxt = toks[i + 1].kind
    if nxt is K.FI:
        if toks[i + 2].kind is _STRING:
            return LocDate(loc_tok.lexeme, toks[i + 2].lexeme, True), i + 3
        raise _Mismatch(i + 2, (K.STRING,), "expected the date after في")
    if nxt is _STRING:
        return LocDate(loc_tok.lexeme, toks[i + 1].lexeme, False), i + 2
    raise _Mismatch(i + 1, (K.FI, K.STRING), "expected في or the date text after the location")


def _parse_sig_list(toks: Sequence[Token], i: int) -> tuple[list[Signature], int]:
    """The signature block at i: one type-1 signature when it opens with
    الإمضاء, then type-2 signatures.  Read as type-2 only, such a block is
    empty and fails at that الإمضاء, before anything the type-1 reading does.
    """
    sigs: list[Signature] = []
    if toks[i].kind is K.IMDAA:
        first = _expect(toks, i + 1, _TYPE1_REST)
        sigs.append(Signature(SignatureKind.TYPE1, first[1].lexeme, first[2].lexeme))
        i += 1 + len(_TYPE1_REST)
    while toks[i].kind is _STRING and toks[i + 1].kind is K.IMDAA:
        rest = _expect(toks, i + 2, _TYPE2_REST)
        sigs.append(Signature(SignatureKind.TYPE2, rest[1].lexeme, toks[i].lexeme))
        i += 2 + len(_TYPE2_REST)
    return sigs, i


def _parse_trailer(toks: Sequence[Token], i: int) -> tuple[LocDate, list[Signature]]:
    """The location/date line at i, the signature block and the EOF."""
    loc_date, i = _parse_loc_date(toks, i)
    signatures, i = _parse_sig_list(toks, i)
    if toks[i].kind is not _EOF:
        raise _Mismatch(i, (K.EOF,), "unexpected trailing input after the signature block")
    return loc_date, signatures


def _parse_document_tokens(toks: Sequence[Token]) -> Document:
    """The document that ``toks`` holds.

    The retry: when the trailer fails after a titled last article, it is read
    again with that article untitled, one token earlier, so that its content
    STRING opens the location/date line.  An earlier article needs no retry:
    untitled, the next MADA would follow the location STRING, failing before
    anything the greedy reading does.  When the retry fails too, the further
    failure is raised; at the same token, the greedy one's message with the
    kinds both expected.

    A read is made only at 0 or right after a token that a step took, and no
    step takes EOF, so over a scanned stream no read passes its EOF.  Over a
    bare prefix, a read past its end raises IndexError.
    """
    pre = _expect(toks, 0, _PREAMBLE)
    references, i = _parse_clause_list(toks, len(_PREAMBLE), K.BINAA, _REFERENCE_BODY)
    if not references:
        raise _Mismatch(i, (K.BINAA,), "expected at least one reference clause")
    justifications, i = _parse_clause_list(toks, i, K.HAYSOU, _JUSTIFICATION_BODY)
    _expect(toks, i, _ACKNOWLEDGMENT)
    articles, i = _parse_article_list(toks, i + len(_ACKNOWLEDGMENT))
    try:
        loc_date, signatures = _parse_trailer(toks, i)
    except _Mismatch as greedy:
        last = articles[-1]
        if last.title is None:
            raise
        articles[-1] = Article(last.number, None, last.title)
        try:
            loc_date, signatures = _parse_trailer(toks, i - 1)
        except _Mismatch as retry:
            if retry.i > greedy.i:
                raise
            if retry.i == greedy.i:
                greedy.expected = (*greedy.expected, *retry.expected)
            raise greedy
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


def _with_eof(tokens: Sequence[Token]) -> Sequence[Token]:
    if tokens and tokens[-1].kind is _EOF:   # a scanned stream: read it as it is
        return tokens
    return [*tokens, Token(K.EOF, "", Span.point(0, len(tokens)))]


def parse_grammar_tokens(tokens: Sequence[Token]) -> tuple[Document | None, Diagnostic | None]:
    """Run the grammar over a token stream (an EOF token is appended if missing)."""
    toks = _with_eof(tokens)
    try:
        return _parse_document_tokens(toks), None
    except _Mismatch as failure:
        at = toks[failure.i]
        expected = tuple(sorted(set(failure.expected), key=lambda k: k.value))
        return None, Diagnostic(failure.message, at.span, expected, at.kind)


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
    anchor = _first_line_opening(heads, _STOP_AT[K.IMDAA], start_line)
    if anchor is None:
        last = len(text.lines) - 1
        return last if last >= start_line and _looks_like_loc_date(text, last) else None
    if anchor - 1 >= start_line and _looks_like_loc_date(text, anchor - 1):
        return anchor - 1
    return anchor - 2 if anchor - 2 >= start_line else None


def _first_line_opening(heads: Sequence[KeywordMatch | None], kinds: frozenset[TokenKind],
                        start: int) -> int | None:
    """The first line from ``start`` on whose head keyword is of ``kinds``."""
    for line in range(start, len(heads)):
        head = heads[line]
        if head is not None and head.kind in kinds:
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
# The heads of the lines that open a part: the issuer's and a clause's text
# end before the next one.
_OPENS_PART = frozenset((K.BINAA, K.HAYSOU, K.YAKOUR, K.MADA))
# An article header after مادة, one kinds set a step: the number, the colon
# and the title, each taken while the header line has words or a delimiter
# left.
_HEADER = (_NUMBER, _STOP_AT[K.COLON], _ANY)


class _Driver:
    """Walks the document shape, choosing expected kinds and scoping line scans.

    It has two parts.  The head policy (:meth:`_policy`) takes each step of
    the statement line to the acknowledgment when its expected keyword is at
    the cursor; the issuer's and each clause's text end before the next line
    that opens a part, as Landin's off-side rule (CACM 1966) ends a phrase at
    a line.  The tail walk (:meth:`_tail`) decides the rest by lines: the
    location/date line, the article header lines before it, read off the
    scanner's line heads in one pass, and the lines after it.  Each
    article's header is a table of steps, each scoped to the header line.
    Its content region, up to the next header line or the location/date
    line, is one STRING of its words as written, which the scanner forms
    (:meth:`Scanner.region`): the driver picks kinds and bounds, never a
    token or the cursor.  :meth:`take` keeps no EOF; :meth:`run` adds the
    one EOF.
    """

    def __init__(self, text: NormalizedText):
        self.sc = Scanner(text)
        self.tokens: list[Token] = []
        self.diagnostics: list[Diagnostic] = []
        self.part_line = -1   # the line that ends the head text, as last found

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
        self._tail()
        self.tokens.append(self.sc.take(_ANY, None))
        return ScanResult(self.tokens, self.diagnostics)

    # No part fails on mismatches: each keeps scanning something sensible and
    # lets the grammar phase report the first error with a proper span.  Nor
    # does one stop at the end of the input: from there every take gives EOF
    # and keeps nothing, ``Scanner.at`` is False and ``drain`` does nothing,
    # so the steps run out.
    def _policy(self) -> None:
        sc = self.sc
        self.take(_STOP_AT[K.TYPE])
        self.take(_STOP_AT[K.RAQM])
        self.take(_STOP_AT[K.NUM])
        # The title may span lines, but not into a later line opening with إن.
        at_inna = _STOP_AT[K.INNA]
        title_end = _first_line_opening(sc.heads, at_inna, sc.line + 1)
        tok = self.take(at_inna, None if title_end is None else (title_end, 0))
        if tok.kind is not K.INNA:
            tok = self.take(at_inna)
        if tok.kind is K.INNA:
            self._head_text()                                        # the issuer
        self._clauses(K.BINAA)
        self._clauses(K.HAYSOU)
        if sc.at(K.YAKOUR):
            self.take(_STOP_AT[K.YAKOUR])
            self.take(_STOP_AT[K.COLON])

    def _clauses(self, opener: TokenKind) -> None:
        while self.sc.at(opener):
            self.take(_STOP_AT[opener])
            self._head_text()

    def _head_text(self) -> None:
        """The issuer's or a clause's text and its terminator, which end before
        the next line that opens a part.  That line is looked for again only
        once the cursor has reached the one last found, so the head's lines
        are searched once."""
        sc = self.sc
        if sc.line >= self.part_line:
            found = _first_line_opening(sc.heads, _OPENS_PART, sc.line + 1)
            self.part_line = len(sc.heads) if found is None else found
        self.take(_ANY, (self.part_line, 0))
        self.drain()

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
        if sc.line < content_end:          # the content region, with nothing pending
            append(sc.region(content_end))

    def _loc_date(self, line: int) -> None:
        # The location comes before the first في, or else before the first
        # digit-bearing word.
        words = self.sc.text.lines[line]
        split = next((i for i, w in enumerate(words) if fold_for_matching(w) == "في"), None)
        if split is None:
            split = next((i for i, w in enumerate(words) if has_digit(w)), None)
        if split:
            self.take(_ANY, (line, split))                                   # location
            tok = self.take(_STOP_AT[K.FI], (line + 1, 0))                   # في or the date
            if tok.kind is K.FI and split == len(words) - 1:    # no date on the line
                self.diagnostics.append(Diagnostic("expected the date after في", tok.span,
                                                   (K.STRING,)))
        else:
            self.diagnostics.append(Diagnostic(
                "location/date line needs a location and a date "
                "(في or a digit-bearing word)",
                Span(line, 0, line, max(len(words) - 1, 0))))

    def _tail(self) -> None:
        """Everything after the head, by lines.  The location/date line,
        found first (:func:`_segment_trailer`), ends the article list: each
        article runs from its مادة line to the next one, the last to the
        location/date line, and its scan ends at the next one's start with
        nothing pending.  Anything else before that line is plain text.
        Every line left is text to its end, after the location and في of the
        location/date line, or a signature line's الإمضاء and colon."""
        sc = self.sc
        heads, first = sc.heads, sc.line
        loc_date_line = _segment_trailer(sc.text, heads, first)
        if loc_date_line is not None:
            if (sc.word == 0 and sc.pending is None
                    and (head := heads[first]) is not None and head.kind is _MADA):
                starts = [line for line in range(first, loc_date_line)
                          if (head := heads[line]) is not None and head.kind is _MADA]
                for header_line, content_end in zip(starts, [*starts[1:], loc_date_line]):
                    self._one_article(header_line, content_end)
            self.text_to((loc_date_line, 0))
        while not sc.at_end():
            line_end = (sc.line + 1, 0)
            if sc.word == 0:
                if sc.line == loc_date_line:
                    self._loc_date(loc_date_line)
                elif loc_date_line is not None and sc.at(K.IMDAA):
                    self.take(_STOP_AT[K.IMDAA])
                    if sc.pending is not None or (sc.line, sc.word) < line_end:
                        self.take(_STOP_AT[K.COLON], line_end)
            self.text_to(line_end)                           # the date, a name, or the line
        self.drain()


def scan_document(text: NormalizedText) -> ScanResult:
    """Tokenize one whole document (total: every word reaches the stream)."""
    return _Driver(text).run()


@_gc_paused
def parse_document(text: NormalizedText) -> ParseResult:
    """Scan and parse one document.  On failure the result carries exactly
    one diagnostic, the earliest detected."""
    scan = scan_document(text)
    doc, grammar_diag = parse_grammar_tokens(scan.tokens)
    diagnostics = scan.diagnostics + ([grammar_diag] if grammar_diag is not None else [])
    if diagnostics:   # a scan diagnostic rejects a document the grammar accepts
        doc = None
        diagnostics = [min(diagnostics, key=lambda d: (d.span.start_line, d.span.start_word))]
    return ParseResult(doc, diagnostics, scan.tokens, scan.tokens)


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
