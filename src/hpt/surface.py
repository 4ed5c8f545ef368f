"""Surface language: lexer and parser for `.hpt` sources.

Grammar (keywords spelled exactly as below):

    file    := decl*
    decl    := "def" IDENT binder* ":" term ":=" term
             | "axiom" IDENT binder* ":" term
             | "#check" term
             | "#eval" term
             | "#assert" "defeq" term "~" term ":" term
    binder  := "(" IDENT+ ":" term ")" | "{" IDENT+ ":" term "}"
    term    := "fun" binder+ "=>" term
             | binder "->" term | term1 "->" term
             | term1 ("=" term1)?
    term1   := term2 ("*" term2)*
    term2   := term3 ("**" term3)*
    term3   := atom+                      -- application, left-assoc
    atom    := IDENT | "@" IDENT | "_" | "Type" NAT? | "refl" | "J" | "(" term ")"

A NAT is a run of ASCII digits; as a universe level it has at most nine.
`refl x` folds into one ReflSugar; `J` is an atom whose arguments stay on
the application spine.

Comments run from `--` to end of line. `*` and `**` desugar to
applications of the globals `concat` and `par-concat`; the parser knows
nothing about their types. Identifiers are ASCII: a letter followed by
letters, digits, `_`, `'`, or `-` (a `-` is taken into the identifier only
when followed by another identifier character, so `a--b` is `a` plus a
comment and `a->b` is `a -> b`).

Everything here is a pure function of its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def cover(self, other: "SourceSpan") -> "SourceSpan":
        return SourceSpan(self.file, self.start_line, self.start_col, other.end_line, other.end_col)

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


DUMMY_SPAN = SourceSpan("<none>", 1, 1, 1, 1)


class SurfaceError(Exception):
    """Base class for errors that carry a source span."""

    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class LexError(SurfaceError):
    pass


class ParseError(SurfaceError):
    def __init__(self, span: SourceSpan, expected: frozenset[str] | str, found: str):
        names = expected if isinstance(expected, str) else ", ".join(sorted(expected))
        super().__init__(span, f"expected {names}, found {found}")


# A token's kind is its spelling for keywords, directives and punctuation,
# and one of these three names otherwise.
IDENT = "identifier"
NAT = "number"
EOF = "end of input"

_KEYWORDS = {"def", "axiom", "fun", "Type", "refl", "J", "defeq"}

# `lex` tries a two-character entry before a one-character one.
_PUNCTUATION = {"**", ":=", "=>", "->", "(", ")", "{", "}", ":", "=", "*", "~", "_", "@"}

_DIRECTIVES = {"#check", "#eval", "#assert"}


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    span: SourceSpan


def _is_ident_start(c: str) -> bool:
    return c.isascii() and c.isalpha()


def _is_ident_char(c: str) -> bool:
    return c.isascii() and (c.isalnum() or c in "_'")


def lex(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def span_here(length: int) -> SourceSpan:
        return SourceSpan(filename, line, col, line, col + length - 1)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n:
                if _is_ident_char(text[j]):
                    j += 1
                elif text[j] == "-" and j + 1 < n and _is_ident_char(text[j + 1]):
                    j += 2
                else:
                    break
            word = text[i:j]
            tokens.append(Token(word if word in _KEYWORDS else IDENT, word, span_here(len(word))))
            col += len(word)
            i = j
            continue
        if "0" <= c <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            word = text[i:j]
            tokens.append(Token(NAT, word, span_here(len(word))))
            col += len(word)
            i = j
            continue
        if c == "#":
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word not in _DIRECTIVES:
                raise LexError(span_here(j - i), f"unknown directive {word}")
            tokens.append(Token(word, word, span_here(j - i)))
            col += j - i
            i = j
            continue
        punct = text[i : i + 2]
        if punct not in _PUNCTUATION:
            punct = c
        if punct in _PUNCTUATION:
            tokens.append(Token(punct, punct, span_here(len(punct))))
            i += len(punct)
            col += len(punct)
            continue
        raise LexError(span_here(1), f"illegal character {c!r}")

    tokens.append(Token(EOF, "", SourceSpan(filename, line, col, line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Surface trees


class SurfaceTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Name(SurfaceTerm):
    name: str
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)
    explicit_all: bool = False  # True for `@name`


@dataclass(frozen=True)
class Hole(SurfaceTerm):
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class TypeU(SurfaceTerm):
    level: int
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class Binder:
    names: tuple[str, ...]
    annotation: SurfaceTerm
    implicit: bool
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SLam(SurfaceTerm):
    binders: tuple[Binder, ...]
    body: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SPi(SurfaceTerm):
    binders: tuple[Binder, ...]
    codomain: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SArrow(SurfaceTerm):
    domain: SurfaceTerm
    codomain: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class SApp(SurfaceTerm):
    fn: SurfaceTerm
    arg: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class IdSugar(SurfaceTerm):
    lhs: SurfaceTerm
    rhs: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class ReflSugar(SurfaceTerm):
    point: SurfaceTerm | None
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class JSugar(SurfaceTerm):
    """The eliminator `J`; its motive, base and path are the arguments of
    the application it heads."""

    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


class SurfaceDecl:
    __slots__ = ()


@dataclass(frozen=True)
class Def(SurfaceDecl):
    name: str
    binders: tuple[Binder, ...]
    result_type: SurfaceTerm
    body: SurfaceTerm | None  # None for an axiom
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class CheckDirective(SurfaceDecl):
    term: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class EvalDirective(SurfaceDecl):
    term: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class AssertDefeq(SurfaceDecl):
    lhs: SurfaceTerm
    rhs: SurfaceTerm
    at_type: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


_ATOM_STARTERS = {IDENT, "@", "_", "Type", "refl", "J", "("}


# How deep `_Parser.parse_term` nests before a ParseError: a level per
# parenthesis, arrow, λ body or binder; the corpus needs 53, refl^800 800.
MAX_NESTING = 1000


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, f"'{kind}'", _describe(tok))
        return self.next()

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> list[SurfaceDecl]:
        decls: list[SurfaceDecl] = []
        while not self.at(EOF):
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> SurfaceDecl:
        tok = self.peek()
        if tok.kind in ("def", "axiom"):
            self.next()
            name = self.expect(IDENT).lexeme
            binders = self.parse_binders()
            self.expect(":")
            ty = self.parse_term()
            body = None
            if tok.kind == "def":
                self.expect(":=")
                body = self.parse_term()
            end = ty if body is None else body
            return Def(name, tuple(binders), ty, body, tok.span.cover(end.span))
        if tok.kind == "#check":
            self.next()
            t = self.parse_term()
            return CheckDirective(t, tok.span.cover(t.span))
        if tok.kind == "#eval":
            self.next()
            t = self.parse_term()
            return EvalDirective(t, tok.span.cover(t.span))
        if tok.kind == "#assert":
            self.next()
            self.expect("defeq")
            lhs = self.parse_term()
            self.expect("~")
            rhs = self.parse_term()
            self.expect(":")
            ty = self.parse_term()
            return AssertDefeq(lhs, rhs, ty, tok.span.cover(ty.span))
        raise ParseError(
            tok.span,
            frozenset(["'def'", "'axiom'", "'#check'", "'#eval'", "'#assert'"]),
            _describe(tok),
        )

    def parse_binders(self) -> list[Binder]:
        binders = []
        while self.peek().kind in ("(", "{"):
            binders.append(self.parse_binder())
        return binders

    def parse_binder(self) -> Binder:
        open_tok = self.next()
        implicit = open_tok.kind == "{"
        close = "}" if implicit else ")"
        names = [self.expect(IDENT).lexeme]
        while self.at(IDENT):
            names.append(self.next().lexeme)
        self.expect(":")
        ann = self.parse_term()
        close_tok = self.expect(close)
        return Binder(tuple(names), ann, implicit, open_tok.span.cover(close_tok.span))

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> SurfaceTerm:
        if self.nesting == MAX_NESTING:
            tok = self.peek()
            raise ParseError(tok.span, f"a term nested at most {MAX_NESTING} deep", _describe(tok))
        self.nesting += 1
        try:
            return self._term()
        finally:
            self.nesting -= 1

    def _term(self) -> SurfaceTerm:
        tok = self.peek()
        if tok.kind == "fun":
            self.next()
            binders = self.parse_binders()
            if not binders:
                raise ParseError(self.peek().span, "a binder", _describe(self.peek()))
            self.expect("=>")
            body = self.parse_term()
            return SLam(tuple(binders), body, tok.span.cover(body.span))
        if tok.kind in ("(", "{"):
            saved = self.pos
            try:
                binder = self.parse_binder()
            except ParseError:
                if tok.kind == "{":
                    raise
                binder = None
            if binder is not None and self.at("->"):
                self.next()
                cod = self.parse_term()
                return SPi((binder,), cod, tok.span.cover(cod.span))
            self.pos = saved
        t = self.parse_term1()
        if self.at("->"):
            self.next()
            cod = self.parse_term()
            return SArrow(t, cod, t.span.cover(cod.span))
        if self.at("="):
            self.next()
            rhs = self.parse_term1()
            return IdSugar(t, rhs, t.span.cover(rhs.span))
        return t

    def parse_term1(self) -> SurfaceTerm:
        t = self.parse_term2()
        while self.at("*"):
            op = self.next()
            r = self.parse_term2()
            span = t.span.cover(r.span)
            t = SApp(SApp(Name("concat", op.span), t, span), r, span)
        return t

    def parse_term2(self) -> SurfaceTerm:
        t = self.parse_term3()
        while self.at("**"):
            op = self.next()
            r = self.parse_term3()
            span = t.span.cover(r.span)
            t = SApp(SApp(Name("par-concat", op.span), t, span), r, span)
        return t

    def parse_term3(self) -> SurfaceTerm:
        head = self.parse_atom()
        while self.peek().kind in _ATOM_STARTERS:
            arg = self.parse_atom()
            if isinstance(head, ReflSugar) and head.point is None:
                head = ReflSugar(arg, head.span.cover(arg.span))
            else:
                head = SApp(head, arg, head.span.cover(arg.span))
        return head

    def parse_atom(self) -> SurfaceTerm:
        tok = self.peek()
        if tok.kind == IDENT:
            self.next()
            return Name(tok.lexeme, tok.span)
        if tok.kind == "@":
            self.next()
            name_tok = self.expect(IDENT)
            return Name(name_tok.lexeme, tok.span.cover(name_tok.span), explicit_all=True)
        if tok.kind == "_":
            self.next()
            return Hole(tok.span)
        if tok.kind == "Type":
            self.next()
            if not self.at(NAT):
                return TypeU(0, tok.span)
            lvl_tok = self.next()
            if len(lvl_tok.lexeme) > 9:
                raise ParseError(lvl_tok.span, "a universe level below 10^9", _describe(lvl_tok))
            return TypeU(int(lvl_tok.lexeme), tok.span.cover(lvl_tok.span))
        if tok.kind == "refl":
            self.next()
            return ReflSugar(None, tok.span)
        if tok.kind == "J":
            self.next()
            return JSugar(tok.span)
        if tok.kind == "(":
            self.next()
            t = self.parse_term()
            close = self.expect(")")
            return _respan(t, tok.span.cover(close.span))
        raise ParseError(tok.span, "a term", _describe(tok))


def _describe(tok: Token) -> str:
    return EOF if tok.kind == EOF else f"'{tok.lexeme}'"


def _respan(t: SurfaceTerm, span: SourceSpan) -> SurfaceTerm:
    return replace(t, span=span)  # type: ignore[arg-type]


def parse_file(text: str, filename: str = "<input>") -> list[SurfaceDecl]:
    return _Parser(lex(text, filename)).parse_file()


def parse_term(text: str, filename: str = "<input>") -> SurfaceTerm:
    parser = _Parser(lex(text, filename))
    t = parser.parse_term()
    tok = parser.peek()
    if tok.kind != EOF:
        raise ParseError(tok.span, EOF, _describe(tok))
    return t
