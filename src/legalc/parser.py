"""Document parsing: layout-aware scanning plus grammar-exact descent.

Parsing happens in two phases.  A driver walks the document shape
(statement line, title, issuer, reference and justification clauses,
acknowledgment, articles, location/date line, signature block), feeding the
scanner the right stop set at every step and producing two token streams:
the fine-grained stream exactly as scanned, and a grammar stream in which
each article's multi-line content region is merged into a single STRING.

The second phase is a recursive-descent parser over the grammar stream.  It
implements the document grammar exactly (see :mod:`legalc.grammar`), with
ordered-choice backtracking for the places the grammar is locally ambiguous
(article titles, the location/date line, the signature block).  Because it
reads nothing but tokens, the same code parses synthetic token sequences,
which is how it is cross-checked against the CYK oracle.

The first error aborts; there is no recovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .normalize import NormalizedText, fold_for_matching, has_digit
# match_keyword_phrase is not called here, but stays importable from this
# module: bench/worker.py counts probes wherever a module looks it up.
from .scanner import KeywordMatch, Scanner, line_heads, match_keyword_phrase  # noqa: F401
from .tokens import KIND_DISPLAY, Span, StopSet, Token, TokenKind

K = TokenKind


# -- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    doc_type: str   # original keyword spelling: قانون, قرار or مرسوم
    number: str     # digit run, original script


@dataclass(frozen=True)
class Article:
    number: str
    title: str | None   # None exactly when the header line ends at the colon
    content: str


@dataclass(frozen=True)
class LocDate:
    location: str
    date: str
    had_fi: bool


class SignatureKind(enum.Enum):
    TYPE1 = "type1"   # الإمضاء: name / position line below
    TYPE2 = "type2"   # position line above / الإمضاء: name


@dataclass(frozen=True)
class Signature:
    kind: SignatureKind
    name: str
    position: str


@dataclass(frozen=True)
class Document:
    statement: Statement
    title: str
    issuer: str
    references: tuple[str, ...]
    justifications: tuple[str, ...]
    articles: tuple[Article, ...]
    loc_date: LocDate
    signatures: tuple[Signature, ...]


class Diagnostic(NamedTuple):
    severity: str
    message: str
    span: Span
    expected: tuple[TokenKind, ...] = ()
    found: TokenKind | None = None


class ScanResult(NamedTuple):
    """Both token streams for one document plus any structural diagnostics."""

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


# Lexemes used when parsing synthetic token-kind sequences.
REPRESENTATIVE_LEXEMES: dict[TokenKind, str] = {
    K.TYPE: "مرسوم",
    K.RAQM: "رقم",
    K.NUM: "١",
    K.STRING: "نص",
    K.INNA: "إن",
    K.BINAA: "بناء على",
    K.HAYSOU: "نظرا",
    K.YAKOUR: "يرسم ما يأتي",
    K.MADA: "مادة",
    K.FI: "في",
    K.IMDAA: "الإمضاء",
    K.COMMA: "،",
    K.DOT: ".",
    K.COLON: ":",
    K.EOF: "",
}


# -- grammar phase ---------------------------------------------------------


class NeedMoreTokens(Exception):
    """Probe mode only: a parse path consulted tokens past the given prefix."""


class _TokenSource:
    """Indexed token access; reads past the end return the final EOF.  Every
    token the parser looks at goes through :meth:`get`."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens

    def get(self, i: int) -> Token:
        try:
            return self._tokens[i]
        except IndexError:
            return self._tokens[-1]

    def kind_at(self, i: int) -> TokenKind:
        return self.get(i).kind


class _PrefixSource(_TokenSource):
    """A token prefix that raises :class:`NeedMoreTokens` on any read past
    its end, so a rejection is known to depend on the prefix alone."""

    def get(self, i: int) -> Token:
        if i >= len(self._tokens):
            raise NeedMoreTokens
        return self._tokens[i]


class _Ctx:
    """Parse state: the token source and the furthest failure seen so far."""

    def __init__(self, src: _TokenSource):
        self.src = src
        self.fail_pos = -1
        self.fail_expected: set[TokenKind] = set()
        self.fail_message: str | None = None

    def fail(self, i: int, expected: set[TokenKind], message: str | None = None) -> None:
        if i > self.fail_pos:
            self.fail_pos = i
            self.fail_expected = set(expected)
            self.fail_message = message
        elif i == self.fail_pos:
            self.fail_expected |= expected


def _expect(ctx: _Ctx, i: int, kind: TokenKind, message: str) -> tuple[Token, int] | None:
    tok = ctx.src.get(i)
    if tok.kind is kind:
        return tok, i + 1
    ctx.fail(i, {kind}, message)
    return None


def _parse_statement(ctx: _Ctx, i: int) -> tuple[Statement, int] | None:
    r = _expect(ctx, i, K.TYPE, "expected a document type keyword (قانون, قرار or مرسوم)")
    if r is None:
        return None
    type_tok, i = r
    r = _expect(ctx, i, K.RAQM, "expected رقم after the document type")
    if r is None:
        return None
    _, i = r
    r = _expect(ctx, i, K.NUM, "expected the document number")
    if r is None:
        return None
    num_tok, i = r
    return Statement(type_tok.lexeme, num_tok.lexeme), i


def _parse_clause_list(ctx: _Ctx, i: int, opener: TokenKind, what: str,
                       required: bool) -> tuple[list[str], int] | None:
    items: list[str] = []
    while ctx.src.kind_at(i) is opener:
        i += 1
        r = _expect(ctx, i, K.STRING, f"empty {what} clause")
        if r is None:
            return None
        text_tok, i = r
        if ctx.src.kind_at(i) in (K.COMMA, K.DOT):
            i += 1
        else:
            ctx.fail(i, {K.COMMA, K.DOT}, f"{what} clause must end with ، or a line-final .")
            return None
        items.append(text_tok.lexeme)
    if required and not items:
        ctx.fail(i, {opener}, f"expected at least one {what} clause")
        return None
    return items, i


def _article_header(ctx: _Ctx, i: int) -> tuple[str, int] | None:
    """``مادة n :`` at i: the article number and the index after the colon."""
    if ctx.src.kind_at(i) is not K.MADA:
        ctx.fail(i, {K.MADA}, "expected مادة opening an article")
        return None
    num_tok = ctx.src.get(i + 1)
    if num_tok.kind not in (K.NUM, K.STRING):
        ctx.fail(i + 1, {K.NUM, K.STRING}, "expected the article number")
        return None
    if ctx.src.kind_at(i + 2) is not K.COLON:
        ctx.fail(i + 2, {K.COLON}, "expected : after the article number")
        return None
    return num_tok.lexeme, i + 3


def _gen_article_list(ctx: _Ctx, i: int) -> Iterator[tuple[list[Article], int]]:
    """Every reading of the article list at i, in ordered-choice order.

    An article reads as titled when ``STRING STRING`` follows its header, and
    as untitled when one STRING does; another MADA continues the list.  The
    walk takes each article's first reading and yields where the list ends.
    The only readings left are the untitled ones of titled articles, and each
    of those ends the list: the token after it is the STRING the titled
    reading took as content.  They follow deepest first, the order in which a
    recursive descent backtracking per article yields, but without a stack
    frame per article.  The yielded list is reused: it is valid only until
    the generator resumes.
    """
    articles: list[Article] = []
    titled: list[tuple[int, str, int]] = []   # (list position, number, content index)
    while (header := _article_header(ctx, i)) is not None:
        number, c = header
        if ctx.src.kind_at(c) is not K.STRING:
            ctx.fail(c, {K.STRING}, "article has no content")
            break
        if ctx.src.kind_at(c + 1) is K.STRING:
            titled.append((len(articles), number, c))
            articles.append(Article(number, ctx.src.get(c).lexeme, ctx.src.get(c + 1).lexeme))
            i = c + 2
        else:
            articles.append(Article(number, None, ctx.src.get(c).lexeme))
            i = c + 1
        # Another MADA must belong to the article list; anything else ends it.
        if ctx.src.kind_at(i) is not K.MADA:
            yield articles, i
            break
    for k, number, c in reversed(titled):
        del articles[k:]
        articles.append(Article(number, None, ctx.src.get(c).lexeme))
        yield articles, c + 1


def _parse_loc_date(ctx: _Ctx, i: int) -> tuple[LocDate, int] | None:
    loc_tok = ctx.src.get(i)
    if loc_tok.kind is not K.STRING:
        ctx.fail(i, {K.STRING}, "expected the location/date line")
        return None
    nxt = ctx.src.kind_at(i + 1)
    if nxt is K.FI:
        if ctx.src.kind_at(i + 2) is K.STRING:
            return LocDate(loc_tok.lexeme, ctx.src.get(i + 2).lexeme, True), i + 3
        ctx.fail(i + 2, {K.STRING}, "expected the date after في")
    elif nxt is K.STRING:
        return LocDate(loc_tok.lexeme, ctx.src.get(i + 1).lexeme, False), i + 2
    else:
        ctx.fail(i + 1, {K.FI, K.STRING}, "expected في or the date text after the location")
    return None


def _greedy_type2(ctx: _Ctx, i: int) -> tuple[list[Signature], int] | None:
    sigs: list[Signature] = []
    while ctx.src.kind_at(i) is K.STRING and ctx.src.kind_at(i + 1) is K.IMDAA:
        if ctx.src.kind_at(i + 2) is not K.COLON:
            ctx.fail(i + 2, {K.COLON}, "الإمضاء must be followed by :")
            return None
        if ctx.src.kind_at(i + 3) is not K.STRING:
            ctx.fail(i + 3, {K.STRING}, "signature line has an empty name")
            return None
        sigs.append(Signature(SignatureKind.TYPE2, ctx.src.get(i + 3).lexeme, ctx.src.get(i).lexeme))
        i += 4
    return sigs, i


def _gen_sig_list(ctx: _Ctx, i: int) -> Iterator[tuple[list[Signature], int]]:
    if ctx.src.kind_at(i) is K.IMDAA:
        ok = True
        j = i + 1
        if ctx.src.kind_at(j) is not K.COLON:
            ctx.fail(j, {K.COLON}, "الإمضاء must be followed by :")
            ok = False
        if ok and ctx.src.kind_at(j + 1) is not K.STRING:
            ctx.fail(j + 1, {K.STRING}, "signature line has an empty name")
            ok = False
        if ok and ctx.src.kind_at(j + 2) is not K.STRING:
            ctx.fail(j + 2, {K.STRING}, "expected a position line under the signature")
            ok = False
        if ok:
            first = Signature(SignatureKind.TYPE1, ctx.src.get(j + 1).lexeme, ctx.src.get(j + 2).lexeme)
            rest = _greedy_type2(ctx, j + 3)
            if rest is not None:
                sigs2, k = rest
                yield [first] + sigs2, k
    rest = _greedy_type2(ctx, i)
    if rest is not None:
        yield rest


def _parse_document_tokens(ctx: _Ctx) -> Document | None:
    i = 0
    r = _parse_statement(ctx, i)
    if r is None:
        return None
    statement, i = r
    rt = _expect(ctx, i, K.STRING, "expected the document title")
    if rt is None:
        return None
    title_tok, i = rt
    ri = _expect(ctx, i, K.INNA, "expected إن opening the issuer line")
    if ri is None:
        return None
    _, i = ri
    ri = _expect(ctx, i, K.STRING, "empty issuer text")
    if ri is None:
        return None
    issuer_tok, i = ri
    ri = _expect(ctx, i, K.COMMA, "issuer line must end with ،")
    if ri is None:
        return None
    _, i = ri
    rr = _parse_clause_list(ctx, i, K.BINAA, "reference", required=True)
    if rr is None:
        return None
    references, i = rr
    rj = _parse_clause_list(ctx, i, K.HAYSOU, "justification", required=False)
    if rj is None:
        return None
    justifications, i = rj
    ra = _expect(ctx, i, K.YAKOUR, "expected the acknowledgment phrase (يرسم/يقرر ما يأتي)")
    if ra is None:
        return None
    _, i = ra
    ra = _expect(ctx, i, K.COLON, "acknowledgment phrase must end with :")
    if ra is None:
        return None
    _, i = ra
    for articles, j in _gen_article_list(ctx, i):
        rl = _parse_loc_date(ctx, j)
        if rl is None:
            continue
        loc_date, k = rl
        for signatures, m in _gen_sig_list(ctx, k):
            if ctx.src.kind_at(m) is K.EOF:
                return Document(
                    statement=statement,
                    title=title_tok.lexeme,
                    issuer=issuer_tok.lexeme,
                    references=tuple(references),
                    justifications=tuple(justifications),
                    articles=tuple(articles),
                    loc_date=loc_date,
                    signatures=tuple(signatures),
                )
            ctx.fail(m, {K.EOF}, "unexpected trailing input after the signature block")
    return None


def _with_eof(tokens: Sequence[Token]) -> list[Token]:
    toks = list(tokens)
    if not toks or toks[-1].kind is not K.EOF:
        pos = len(toks)
        toks.append(Token(K.EOF, "", Span.point(0, pos)))
    return toks


def parse_grammar_tokens(tokens: Sequence[Token]) -> tuple[Document | None, Diagnostic | None]:
    """Run the grammar over a token stream (an EOF token is appended if missing)."""
    toks = _with_eof(tokens)
    ctx = _Ctx(_TokenSource(toks))
    doc = _parse_document_tokens(ctx)
    if doc is not None:
        return doc, None
    at = toks[min(max(ctx.fail_pos, 0), len(toks) - 1)]
    expected = tuple(sorted(ctx.fail_expected, key=lambda k: k.value))
    message = ctx.fail_message or "expected " + ", ".join(KIND_DISPLAY[k] for k in expected)
    return None, Diagnostic("error", message, at.span, expected, at.kind)


def parse_token_kinds(kinds: Sequence[TokenKind]) -> bool:
    """Grammar acceptance of a bare token-kind sequence (synthetic lexemes)."""
    tokens = [Token(k, REPRESENTATIVE_LEXEMES[k], Span.point(0, i)) for i, k in enumerate(kinds)]
    doc, _ = parse_grammar_tokens(tokens)
    return doc is not None


def rejects_all_extensions(kinds: Sequence[TokenKind]) -> bool:
    """True when the parser rejects this prefix without ever consulting a
    token at or past ``len(kinds)``.  Every extension of such a prefix is
    rejected identically, which lets bounded-exhaustive equivalence checks
    prune whole subtrees soundly."""
    tokens = [Token(k, REPRESENTATIVE_LEXEMES[k], Span.point(0, i)) for i, k in enumerate(kinds)]
    ctx = _Ctx(_PrefixSource(tokens))
    try:
        return _parse_document_tokens(ctx) is None
    except NeedMoreTokens:
        return False


# -- driver phase -----------------------------------------------------------


class _EndOfInput(Exception):
    pass


def segment_trailer(text: NormalizedText, start_line: int) -> tuple[int, int] | Diagnostic:
    """Split the lines from ``start_line`` on into article content, the
    location/date line, and the signature block.

    The anchor is the first line opening with الإمضاء (folded), read from
    the document's line heads (:func:`~legalc.scanner.line_heads`).  The line
    just above it is the location/date line when it looks like one (second
    word في, or any digit-bearing word); otherwise that line is a signature
    position line and the location/date line sits one higher.  Without any
    signature line, the final line must itself look like a location/date
    line.  Returns (loc_date_line, first_signature_line) where the second
    index equals the line count when there are no signatures.
    """
    return _segment_trailer(text, line_heads(text), start_line)


def _segment_trailer(text: NormalizedText, heads: Sequence[KeywordMatch | None],
                     start_line: int) -> tuple[int, int] | Diagnostic:
    anchor = _first_line_opening(heads, K.IMDAA, start_line, text.line_count)
    if anchor is None:
        last = text.line_count - 1
        if last >= start_line and _looks_like_loc_date(text, last):
            return (last, text.line_count)
        span = Span.point(max(last, 0), 0)
        return Diagnostic("error", "no signature line found and the final line "
                                   "does not look like a location/date line", span)
    if anchor - 1 >= start_line and _looks_like_loc_date(text, anchor - 1):
        return (anchor - 1, anchor)
    if anchor - 2 >= start_line:
        return (anchor - 2, anchor - 1)
    return Diagnostic("error", "signature block leaves no room for article content "
                               "and a location/date line", Span.point(anchor, 0))


def _first_line_opening(heads: Sequence[KeywordMatch | None], kind: TokenKind,
                        start: int, end: int) -> int | None:
    """The first line in [start, end) whose head keyword is of ``kind``."""
    for line in range(start, end):
        head = heads[line]
        if head is not None and head.kind is kind:
            return line
    return None


def _looks_like_loc_date(text: NormalizedText, line: int) -> bool:
    words = text.words(line)
    if len(words) >= 2 and fold_for_matching(words[1]) == "في":
        return True
    return any(has_digit(w) for w in words)


def _merge_region(tokens: list[Token]) -> Token:
    parts: list[str] = []
    for tok in tokens:
        if tok.kind is K.STRING or not tok.detached:
            if parts:
                parts.append(" ")
        parts.append(tok.lexeme)
    span = Span(tokens[0].span.start_line, tokens[0].span.start_word,
                tokens[-1].span.end_line, tokens[-1].span.end_word)
    return Token(K.STRING, "".join(parts), span)


# The driver's unbounded stop sets, built once.  Sets bounded by a
# ``stop_before`` are built where that bound is known.
_ANY = StopSet.of()
_TEXT = StopSet.of(K.COMMA, K.DOT)
_TITLE = StopSet.of(K.INNA, line_break_stops=True)
_STOP_AT = {kind: StopSet.of(kind) for kind in (
    K.TYPE, K.RAQM, K.NUM, K.INNA, K.COMMA, K.BINAA, K.HAYSOU, K.YAKOUR, K.COLON,
    K.MADA, K.IMDAA)}


class _Driver:
    """Walks the document shape, choosing stop sets and scoping line scans."""

    def __init__(self, text: NormalizedText):
        self.text = text
        self.sc = Scanner(text)
        self.fine: list[Token] = []
        self.grammar: list[Token] = []
        self.diagnostics: list[Diagnostic] = []

    def take(self, stop: StopSet) -> Token:
        tok = self.sc.next_token(stop)
        if tok.kind is K.EOF:
            raise _EndOfInput
        self.fine.append(tok)
        self.grammar.append(tok)
        return tok

    def drain(self) -> None:
        while self.sc.has_pending:
            self.take(_ANY)

    def run(self) -> ScanResult:
        try:
            self._policy()
            self._residual()
        except _EndOfInput:
            pass
        eof = Token(K.EOF, "", self.sc._eof_span())
        self.fine.append(eof)
        self.grammar.append(eof)
        return ScanResult(self.fine, self.grammar, self.diagnostics)

    # The policy mirrors the document shape.  It never fails on mismatches:
    # it keeps scanning something sensible and lets the grammar phase report
    # the first error with a proper span.
    def _policy(self) -> None:
        sc = self.sc
        self.take(_STOP_AT[K.TYPE])
        self.take(_STOP_AT[K.RAQM])
        self.take(_STOP_AT[K.NUM])
        tok = self.take(_TITLE)                                      # title
        if tok.kind is not K.INNA:
            tok = self.take(_STOP_AT[K.INNA])
        if tok.kind is K.INNA:
            tok = self.take(_STOP_AT[K.COMMA])                       # issuer text
            if tok.kind is K.STRING:
                self.take(_STOP_AT[K.COMMA])                         # terminator
        self._clauses(K.BINAA)
        self._clauses(K.HAYSOU)
        m = sc.peek_keyword()
        if not sc.has_pending and m is not None and m.kind is K.YAKOUR:
            self.take(_STOP_AT[K.YAKOUR])
            self.take(_STOP_AT[K.COLON])
        if sc.at_end() and not sc.has_pending:
            raise _EndOfInput
        seg = _segment_trailer(self.text, sc.heads, sc.line)
        if isinstance(seg, Diagnostic):
            self.diagnostics.append(seg)
            return
        loc_date_line, _ = seg
        self._articles(loc_date_line)
        self._loc_date(loc_date_line)
        self._signatures()

    def _clauses(self, opener: TokenKind) -> None:
        sc = self.sc
        while True:
            m = sc.peek_keyword()
            if sc.has_pending or m is None or m.kind is not opener:
                return
            self.take(_STOP_AT[opener])
            tok = self.take(_TEXT)                                   # clause text
            if tok.kind is K.STRING:
                self.take(_TEXT)                                     # terminator

    def _articles(self, boundary_line: int) -> None:
        sc = self.sc
        while sc.line < boundary_line and sc.word == 0 and not sc.has_pending:
            m = sc.peek_keyword()
            if m is None or m.kind is not K.MADA:
                break
            self._one_article(boundary_line)
        # Anything left before the location/date line is scanned as plain
        # text; the grammar phase reports what was actually wrong.
        bound = (boundary_line, 0)
        stop = StopSet.of(K.COMMA, K.DOT, stop_before=bound)
        while sc.position < bound or sc.has_pending:
            self.take(stop)

    def _one_article(self, boundary_line: int) -> None:
        sc = self.sc
        header_line = sc.line
        header_end = (header_line + 1, 0)
        self.take(_STOP_AT[K.MADA])
        if sc.has_pending or sc.position < header_end:
            self.take(StopSet.of(K.NUM, K.COLON, stop_before=header_end))   # number
        if sc.has_pending or sc.position < header_end:
            self.take(StopSet.of(K.COLON, stop_before=header_end))          # colon
        if not sc.has_pending and sc.position < header_end:
            self.take(StopSet.of(stop_before=header_end))                   # title
        self.drain()
        content_end = _first_line_opening(sc.heads, K.MADA, header_line + 1, boundary_line)
        bound = (boundary_line if content_end is None else content_end, 0)
        stop = StopSet.of(K.COMMA, K.DOT, stop_before=bound)
        region: list[Token] = []
        while sc.position < bound or sc.has_pending:
            tok = sc.next_token(stop)
            self.fine.append(tok)
            region.append(tok)
        if region:
            self.grammar.append(_merge_region(region))

    def _loc_date(self, line: int) -> None:
        sc = self.sc
        if sc.position != (line, 0) or sc.has_pending:
            return
        line_end = (line + 1, 0)
        words = self.text.words(line)
        fi_index = next((i for i, w in enumerate(words)
                         if fold_for_matching(w) == "في"), None)
        if fi_index is not None:
            if fi_index > 0:
                self.take(StopSet.of(K.FI, stop_before=line_end))            # location
            self.take(StopSet.of(K.FI, stop_before=line_end))                # في
            if not sc.has_pending and sc.position < line_end:
                self.take(StopSet.of(stop_before=line_end))                  # date
        else:
            digit_index = next((i for i, w in enumerate(words) if has_digit(w)), None)
            if len(words) < 2 or digit_index is None:
                self.diagnostics.append(Diagnostic(
                    "error", "location/date line needs a location and a date "
                             "(في or a digit-bearing word)",
                    Span(line, 0, line, max(len(words) - 1, 0))))
            if digit_index is not None and digit_index > 0:
                self.take(StopSet.of(stop_before=(line, digit_index)))       # location
            if sc.position < line_end:
                self.take(StopSet.of(stop_before=line_end))                  # date (or whole line)
        stop = StopSet.of(K.COMMA, K.DOT, stop_before=line_end)
        while sc.position < line_end or sc.has_pending:
            self.take(stop)

    def _signatures(self) -> None:
        sc = self.sc
        while not sc.at_end() or sc.has_pending:
            if sc.has_pending:
                self.drain()
                continue
            line_end = (sc.line + 1, 0)
            m = sc.peek_keyword()
            if sc.word == 0 and m is not None and m.kind is K.IMDAA:
                self.take(_STOP_AT[K.IMDAA])
                if sc.has_pending:
                    self.take(_STOP_AT[K.COLON])
                elif sc.position < line_end:
                    self.take(StopSet.of(K.COLON, stop_before=line_end))
                if not sc.has_pending and sc.position < line_end:
                    self.take(StopSet.of(stop_before=line_end))              # name
            else:
                stop = StopSet.of(K.COMMA, K.DOT, stop_before=line_end)
                while sc.position < line_end or sc.has_pending:
                    self.take(stop)

    def _residual(self) -> None:
        sc = self.sc
        while not sc.at_end() or sc.has_pending:
            if sc.has_pending:
                self.drain()
                continue
            self.take(StopSet.of(K.COMMA, K.DOT, stop_before=(sc.line + 1, 0)))


def scan_document(text: NormalizedText) -> ScanResult:
    """Tokenize one whole document (total: every word reaches the stream)."""
    return _Driver(text).run()


def parse_document(text: NormalizedText) -> ParseResult:
    """Scan and parse one document.  On failure the result carries exactly
    one diagnostic, the earliest detected."""
    scan = scan_document(text)
    doc, grammar_diag = parse_grammar_tokens(scan.grammar_tokens)
    diagnostics: list[Diagnostic] = []
    if doc is None or scan.diagnostics:
        doc = None
        candidates = list(scan.diagnostics)
        if grammar_diag is not None:
            candidates.append(grammar_diag)
        first = min(candidates, key=lambda d: (d.span.start_line, d.span.start_word))
        diagnostics = [first]
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
