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

Comments run from `--` to end of line. `*` and `**` desugar to
applications of the globals `concat` and `par-concat`; the parser knows
nothing about their types. Identifiers are ASCII: a letter followed by
letters, digits, `_`, `'`, or `-` (a `-` is taken into the identifier only
when followed by another identifier character, so `a--b` is `a` plus a
comment and `a->b` is `a -> b`).

Everything here is a pure function of its input.
"""

from __future__ import annotations

import enum
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


class TokenKind(enum.Enum):
    KW_DEF = "def"
    KW_AXIOM = "axiom"
    KW_FUN = "fun"
    KW_TYPE = "Type"
    KW_REFL = "refl"
    KW_J = "J"
    KW_DEFEQ = "defeq"
    HASH_CHECK = "#check"
    HASH_EVAL = "#eval"
    HASH_ASSERT = "#assert"
    IDENT = "identifier"
    NAT = "number"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COLON = ":"
    COLON_EQ = ":="
    FAT_ARROW = "=>"
    ARROW = "->"
    EQ = "="
    STAR = "*"
    STAR_STAR = "**"
    TILDE = "~"
    UNDERSCORE = "_"
    AT = "@"
    EOF = "end of input"


_KEYWORDS = {
    "def": TokenKind.KW_DEF,
    "axiom": TokenKind.KW_AXIOM,
    "fun": TokenKind.KW_FUN,
    "Type": TokenKind.KW_TYPE,
    "refl": TokenKind.KW_REFL,
    "J": TokenKind.KW_J,
    "defeq": TokenKind.KW_DEFEQ,
}

# Two-character entries are tried before one-character ones.
_PUNCTUATION = {
    "**": TokenKind.STAR_STAR,
    ":=": TokenKind.COLON_EQ,
    "=>": TokenKind.FAT_ARROW,
    "->": TokenKind.ARROW,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ":": TokenKind.COLON,
    "=": TokenKind.EQ,
    "*": TokenKind.STAR,
    "~": TokenKind.TILDE,
    "_": TokenKind.UNDERSCORE,
    "@": TokenKind.AT,
}

_HASH_DIRECTIVES = {
    "check": TokenKind.HASH_CHECK,
    "eval": TokenKind.HASH_EVAL,
    "assert": TokenKind.HASH_ASSERT,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
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
            kind = _KEYWORDS.get(word, TokenKind.IDENT)
            tokens.append(Token(kind, word, span_here(len(word))))
            col += len(word)
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            tokens.append(Token(TokenKind.NAT, word, span_here(len(word))))
            col += len(word)
            i = j
            continue
        if c == "#":
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i + 1 : j]
            kind = _HASH_DIRECTIVES.get(word)
            if kind is None:
                raise LexError(span_here(j - i), f"unknown directive #{word}")
            tokens.append(Token(kind, text[i:j], span_here(j - i)))
            col += j - i
            i = j
            continue
        punct = text[i : i + 2]
        if punct not in _PUNCTUATION:
            punct = c
        kind = _PUNCTUATION.get(punct)
        if kind is not None:
            tokens.append(Token(kind, punct, span_here(len(punct))))
            i += len(punct)
            col += len(punct)
            continue
        raise LexError(span_here(1), f"illegal character {c!r}")

    tokens.append(Token(TokenKind.EOF, "", SourceSpan(filename, line, col, line, col)))
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
    motive: SurfaceTerm | None
    base: SurfaceTerm | None
    path: SurfaceTerm | None
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


class SurfaceDecl:
    __slots__ = ()


@dataclass(frozen=True)
class Def(SurfaceDecl):
    name: str
    binders: tuple[Binder, ...]
    result_type: SurfaceTerm
    body: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(frozen=True)
class Axiom(SurfaceDecl):
    name: str
    binders: tuple[Binder, ...]
    result_type: SurfaceTerm
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


_ATOM_STARTERS = {
    TokenKind.IDENT,
    TokenKind.AT,
    TokenKind.UNDERSCORE,
    TokenKind.KW_TYPE,
    TokenKind.KW_REFL,
    TokenKind.KW_J,
    TokenKind.LPAREN,
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(tok.span, f"'{kind.value}'", _describe(tok))
        return self.next()

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> list[SurfaceDecl]:
        decls: list[SurfaceDecl] = []
        while not self.at(TokenKind.EOF):
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> SurfaceDecl:
        tok = self.peek()
        if tok.kind is TokenKind.KW_DEF:
            self.next()
            name = self.expect(TokenKind.IDENT).lexeme
            binders = self.parse_binders()
            self.expect(TokenKind.COLON)
            ty = self.parse_term()
            self.expect(TokenKind.COLON_EQ)
            body = self.parse_term()
            return Def(name, tuple(binders), ty, body, tok.span.cover(body.span))
        if tok.kind is TokenKind.KW_AXIOM:
            self.next()
            name = self.expect(TokenKind.IDENT).lexeme
            binders = self.parse_binders()
            self.expect(TokenKind.COLON)
            ty = self.parse_term()
            return Axiom(name, tuple(binders), ty, tok.span.cover(ty.span))
        if tok.kind is TokenKind.HASH_CHECK:
            self.next()
            t = self.parse_term()
            return CheckDirective(t, tok.span.cover(t.span))
        if tok.kind is TokenKind.HASH_EVAL:
            self.next()
            t = self.parse_term()
            return EvalDirective(t, tok.span.cover(t.span))
        if tok.kind is TokenKind.HASH_ASSERT:
            self.next()
            self.expect(TokenKind.KW_DEFEQ)
            lhs = self.parse_term()
            self.expect(TokenKind.TILDE)
            rhs = self.parse_term()
            self.expect(TokenKind.COLON)
            ty = self.parse_term()
            return AssertDefeq(lhs, rhs, ty, tok.span.cover(ty.span))
        raise ParseError(
            tok.span,
            frozenset(["'def'", "'axiom'", "'#check'", "'#eval'", "'#assert'"]),
            _describe(tok),
        )

    def parse_binders(self) -> list[Binder]:
        binders = []
        while self.peek().kind in (TokenKind.LPAREN, TokenKind.LBRACE):
            binders.append(self.parse_binder())
        return binders

    def parse_binder(self) -> Binder:
        open_tok = self.next()
        implicit = open_tok.kind is TokenKind.LBRACE
        close = TokenKind.RBRACE if implicit else TokenKind.RPAREN
        names = [self.expect(TokenKind.IDENT).lexeme]
        while self.at(TokenKind.IDENT):
            names.append(self.next().lexeme)
        self.expect(TokenKind.COLON)
        ann = self.parse_term()
        close_tok = self.expect(close)
        return Binder(tuple(names), ann, implicit, open_tok.span.cover(close_tok.span))

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> SurfaceTerm:
        tok = self.peek()
        if tok.kind is TokenKind.KW_FUN:
            self.next()
            binders = self.parse_binders()
            if not binders:
                raise ParseError(self.peek().span, "a binder", _describe(self.peek()))
            self.expect(TokenKind.FAT_ARROW)
            body = self.parse_term()
            return SLam(tuple(binders), body, tok.span.cover(body.span))
        if tok.kind in (TokenKind.LPAREN, TokenKind.LBRACE):
            saved = self.pos
            try:
                binder = self.parse_binder()
                if self.at(TokenKind.ARROW):
                    self.next()
                    cod = self.parse_term()
                    return SPi((binder,), cod, tok.span.cover(cod.span))
                self.pos = saved
            except ParseError:
                if tok.kind is TokenKind.LBRACE:
                    raise
                self.pos = saved
        t = self.parse_term1()
        if self.at(TokenKind.ARROW):
            self.next()
            cod = self.parse_term()
            return SArrow(t, cod, t.span.cover(cod.span))
        if self.at(TokenKind.EQ):
            self.next()
            rhs = self.parse_term1()
            return IdSugar(t, rhs, t.span.cover(rhs.span))
        return t

    def parse_term1(self) -> SurfaceTerm:
        t = self.parse_term2()
        while self.at(TokenKind.STAR):
            op = self.next()
            r = self.parse_term2()
            span = t.span.cover(r.span)
            t = SApp(SApp(Name("concat", op.span), t, span), r, span)
        return t

    def parse_term2(self) -> SurfaceTerm:
        t = self.parse_term3()
        while self.at(TokenKind.STAR_STAR):
            op = self.next()
            r = self.parse_term3()
            span = t.span.cover(r.span)
            t = SApp(SApp(Name("par-concat", op.span), t, span), r, span)
        return t

    def parse_term3(self) -> SurfaceTerm:
        atoms = [self.parse_atom()]
        while self.peek().kind in _ATOM_STARTERS:
            atoms.append(self.parse_atom())
        head = atoms[0]
        rest = atoms[1:]
        if isinstance(head, ReflSugar) and head.point is None and rest:
            point = rest.pop(0)
            head = ReflSugar(point, head.span.cover(point.span))
        elif isinstance(head, JSugar) and head.motive is None and len(rest) >= 3:
            motive, base, path = rest[0], rest[1], rest[2]
            rest = rest[3:]
            head = JSugar(motive, base, path, head.span.cover(path.span))
        for arg in rest:
            head = SApp(head, arg, head.span.cover(arg.span))
        return head

    def parse_atom(self) -> SurfaceTerm:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.next()
            return Name(tok.lexeme, tok.span)
        if tok.kind is TokenKind.AT:
            self.next()
            name_tok = self.expect(TokenKind.IDENT)
            return Name(name_tok.lexeme, tok.span.cover(name_tok.span), explicit_all=True)
        if tok.kind is TokenKind.UNDERSCORE:
            self.next()
            return Hole(tok.span)
        if tok.kind is TokenKind.KW_TYPE:
            self.next()
            if self.at(TokenKind.NAT):
                lvl_tok = self.next()
                return TypeU(int(lvl_tok.lexeme), tok.span.cover(lvl_tok.span))
            return TypeU(0, tok.span)
        if tok.kind is TokenKind.KW_REFL:
            self.next()
            return ReflSugar(None, tok.span)
        if tok.kind is TokenKind.KW_J:
            self.next()
            return JSugar(None, None, None, tok.span)
        if tok.kind is TokenKind.LPAREN:
            self.next()
            t = self.parse_term()
            close = self.expect(TokenKind.RPAREN)
            return _respan(t, tok.span.cover(close.span))
        raise ParseError(tok.span, "a term", _describe(tok))


def _describe(tok: Token) -> str:
    if tok.kind is TokenKind.EOF:
        return "end of input"
    return f"'{tok.lexeme}'"


def _respan(t: SurfaceTerm, span: SourceSpan) -> SurfaceTerm:
    return replace(t, span=span)  # type: ignore[arg-type]


def parse_file(text: str, filename: str = "<input>") -> list[SurfaceDecl]:
    return _Parser(lex(text, filename)).parse_file()


def parse_term(text: str, filename: str = "<input>") -> SurfaceTerm:
    parser = _Parser(lex(text, filename))
    t = parser.parse_term()
    tok = parser.peek()
    if tok.kind is not TokenKind.EOF:
        raise ParseError(tok.span, "end of input", _describe(tok))
    return t
