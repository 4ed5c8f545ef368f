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

The parser never backtracks. `{` always opens a binder, and `(` opens one
exactly when identifiers and then `:` follow it, which starts no term.
`term1` and `term2` are the rows of the infix table `_INFIX`.

`A -> B` is `(_ : A) -> B`: an `SPi` whose one binder is named `_`, which
lexes as punctuation, so no name can bind or reference it. `B` is
elaborated under that binder, and a hole in `B` may depend on the argument.

A NAT is a run of ASCII digits; as a universe level it has at most nine.
`refl x` folds into one ReflSugar; `J` is an atom whose arguments stay on
the application spine.

Comments run from `--` to end of line. `*` and `**` desugar to
applications of the globals `concat` and `par-concat`; the parser knows
nothing about their types. Identifiers are ASCII: a letter followed by
letters, digits, `_`, `'`, or `-` (a `-` is taken into the identifier only
when followed by another identifier character, so `a--b` is `a` plus a
comment and `a->b` is `a -> b`). One regular expression, `_TOKEN`, holds
every token class.

Everything here is a pure function of its input. Records are unfrozen, so
built by plain slot stores; the parser re-spans a `(` term it has just built,
and otherwise they are immutable by convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(slots=True, unsafe_hash=True)
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

_DIRECTIVES = {"#check", "#eval", "#assert"}

# One alternative per token class, tried in order; the identifier and number
# groups are named by their kinds. ASCII classes throughout: `\w` and `\d`
# would also match letters and digits such as `²`.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+|--[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<identifier>[A-Za-z](?:[A-Za-z0-9_']|-[A-Za-z0-9_'])*)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<directive>#[A-Za-z0-9_']*)"
    r"|(?P<punctuation>\*\*|:=|=>|->|[(){}:=*~_@])"
)


@dataclass(slots=True, unsafe_hash=True)
class Token:
    kind: str
    lexeme: str
    span: SourceSpan


def lex(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while True:
        col = pos - line_start + 1
        m = _TOKEN.match(text, pos)
        if m is None:
            span = SourceSpan(filename, line, col, line, col)
            if pos == len(text):
                tokens.append(Token(EOF, "", span))
                return tokens
            raise LexError(span, f"illegal character {text[pos]!r}")
        kind, word, pos = m.lastgroup, m.group(), m.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "space":
            span = SourceSpan(filename, line, col, line, col + len(word) - 1)
            if kind == "directive" and word not in _DIRECTIVES:
                raise LexError(span, f"unknown directive {word}")
            if kind in ("directive", "punctuation") or word in _KEYWORDS:
                kind = word
            tokens.append(Token(kind, word, span))


# ---------------------------------------------------------------------------
# Surface trees


class SurfaceTerm:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Name(SurfaceTerm):
    name: str
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)
    explicit_all: bool = False  # True for `@name`


@dataclass(slots=True, unsafe_hash=True)
class Hole(SurfaceTerm):
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class TypeU(SurfaceTerm):
    level: int
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class Binder:
    names: tuple[str, ...]
    annotation: SurfaceTerm
    implicit: bool
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class SLam(SurfaceTerm):
    binders: tuple[Binder, ...]
    body: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class SPi(SurfaceTerm):
    binders: tuple[Binder, ...]
    codomain: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class SApp(SurfaceTerm):
    fn: SurfaceTerm
    arg: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class IdSugar(SurfaceTerm):
    lhs: SurfaceTerm
    rhs: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class ReflSugar(SurfaceTerm):
    point: SurfaceTerm | None
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class JSugar(SurfaceTerm):
    """The eliminator `J`; its motive, base and path are the arguments of
    the application it heads."""

    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


class SurfaceDecl:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Def(SurfaceDecl):
    name: str
    binders: tuple[Binder, ...]
    result_type: SurfaceTerm
    body: SurfaceTerm | None  # None for an axiom
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class CheckDirective(SurfaceDecl):
    term: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class EvalDirective(SurfaceDecl):
    term: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


@dataclass(slots=True, unsafe_hash=True)
class AssertDefeq(SurfaceDecl):
    lhs: SurfaceTerm
    rhs: SurfaceTerm
    at_type: SurfaceTerm
    span: SourceSpan = field(compare=False, default=DUMMY_SPAN)


_ATOM_STARTERS = {IDENT, "@", "_", "Type", "refl", "J", "("}

# Infix operators: each one's row, loosest first, and the global it applies.
_INFIX = {"*": (0, "concat"), "**": (1, "par-concat")}


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
        if tok.kind in ("#check", "#eval"):
            self.next()
            t = self.parse_term()
            directive = CheckDirective if tok.kind == "#check" else EvalDirective
            return directive(t, tok.span.cover(t.span))
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
        # A ParseError ends the parse, so only a returning call restores the count.
        self.nesting += 1
        t = self._term()
        self.nesting -= 1
        return t

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
        if tok.kind == "{" or tok.kind == "(" and self._binder_follows():
            binder = self.parse_binder()
            self.expect("->")
            cod = self.parse_term()
            return SPi((binder,), cod, tok.span.cover(cod.span))
        t = self.parse_infix()
        if self.at("->"):
            self.next()
            cod = self.parse_term()
            return SPi((Binder(("_",), t, False, t.span),), cod, t.span.cover(cod.span))
        if self.at("="):
            self.next()
            rhs = self.parse_infix()
            return IdSugar(t, rhs, t.span.cover(rhs.span))
        return t

    def _binder_follows(self) -> bool:
        """At `(`: whether one or more identifiers and then `:` follow,
        which starts a binder and no term."""
        i = self.pos + 1
        while self.tokens[i].kind == IDENT:
            i += 1
        return i > self.pos + 1 and self.tokens[i].kind == ":"

    def parse_infix(self, row: int = 0) -> SurfaceTerm:
        """Applications joined by the left-associative operators of
        `_INFIX` from `row` on."""
        t = self.parse_term3()
        while (infix := _INFIX.get(self.peek().kind)) and infix[0] >= row:
            op = self.next()
            r = self.parse_infix(infix[0] + 1)
            span = t.span.cover(r.span)
            t = SApp(SApp(Name(infix[1], op.span), t, span), r, span)
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
            t.span = tok.span.cover(close.span)  # `t` is new: nothing else holds it
            return t
        raise ParseError(tok.span, "a term", _describe(tok))


def _describe(tok: Token) -> str:
    return EOF if tok.kind == EOF else f"'{tok.lexeme}'"


def parse_file(text: str, filename: str = "<input>") -> list[SurfaceDecl]:
    return _Parser(lex(text, filename)).parse_file()


def parse_term(text: str, filename: str = "<input>") -> SurfaceTerm:
    parser = _Parser(lex(text, filename))
    t = parser.parse_term()
    tok = parser.peek()
    if tok.kind != EOF:
        raise ParseError(tok.span, EOF, _describe(tok))
    return t
