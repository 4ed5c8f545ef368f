"""Lexer and parser for the surface language, and the parse/print round trip."""

import random

import pytest

from hpt.surface import (
    Axiom,
    Binder,
    Def,
    Hole,
    IdSugar,
    JSugar,
    LexError,
    Name,
    ParseError,
    ReflSugar,
    SApp,
    SArrow,
    SLam,
    SPi,
    SurfaceTerm,
    TokenKind,
    TypeU,
    lex,
    parse_file,
    parse_term,
)
from tests.terms import print_surface


def kinds(text):
    return [t.kind for t in lex(text)][:-1]  # drop EOF


def test_lex_keyword_split():
    assert kinds("def id") == [TokenKind.KW_DEF, TokenKind.IDENT]


def test_lex_star_operator():
    assert kinds("p * q") == [TokenKind.IDENT, TokenKind.STAR, TokenKind.IDENT]
    assert kinds("p ** q") == [TokenKind.IDENT, TokenKind.STAR_STAR, TokenKind.IDENT]


def test_lex_punctuation_prefers_two_characters():
    toks = lex("=:=*=>***->:")[:-1]
    assert [(t.kind, t.lexeme, t.span.start_col, t.span.end_col) for t in toks] == [
        (TokenKind.EQ, "=", 1, 1),
        (TokenKind.COLON_EQ, ":=", 2, 3),
        (TokenKind.STAR, "*", 4, 4),
        (TokenKind.FAT_ARROW, "=>", 5, 6),
        (TokenKind.STAR_STAR, "**", 7, 8),
        (TokenKind.STAR, "*", 9, 9),
        (TokenKind.ARROW, "->", 10, 11),
        (TokenKind.COLON, ":", 12, 12),
    ]
    # a lone '-' is no token
    with pytest.raises(LexError) as exc:
        lex("a - b")
    assert exc.value.span.start_col == 3


def test_lex_illegal_character():
    with pytest.raises(LexError) as exc:
        lex("⟦")
    assert exc.value.span.start_line == 1
    assert exc.value.span.start_col == 1


def test_lex_dashed_identifiers_and_arrows():
    assert [t.lexeme for t in lex("whisk-L-R-1-L")][:-1] == ["whisk-L-R-1-L"]
    assert kinds("a->b") == [TokenKind.IDENT, TokenKind.ARROW, TokenKind.IDENT]
    # a '-' followed by '-' ends the identifier and starts a comment
    assert [t.lexeme for t in lex("a--b")][:-1] == ["a"]


def test_lex_comments_and_spans():
    toks = lex("p -- trailing\nq")
    assert [t.lexeme for t in toks][:-1] == ["p", "q"]
    assert toks[1].span.start_line == 2


def test_lex_span_coverage():
    text = "def id (A : Type) : A := fun (a : A) => a"
    toks = lex(text)[:-1]
    # lexemes with original whitespace reconstruct the input
    rebuilt = ""
    col = 1
    for t in toks:
        rebuilt += " " * (t.span.start_col - col) + t.lexeme
        col = t.span.end_col + 1
    assert rebuilt == text


def test_parse_def_with_binders():
    decls = parse_file("def id (A : Type) (a : A) : A := a")
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, Def)
    assert d.name == "id"
    assert len(d.binders) == 2
    assert not d.binders[0].implicit


def test_parse_axiom():
    decls = parse_file("axiom star : A")
    assert len(decls) == 1
    assert isinstance(decls[0], Axiom)
    assert decls[0].name == "star"


def test_parse_error_names_offender():
    with pytest.raises(ParseError) as exc:
        parse_file("def f : := x")
    assert "':='" in str(exc.value)


def test_parse_left_assoc_concat():
    t = parse_term("p * q * r")
    # (p * q) * r as applications of `concat`
    assert isinstance(t, SApp)
    inner = t.fn.arg
    assert isinstance(inner, SApp)
    assert isinstance(inner.fn.fn, Name) and inner.fn.fn.name == "concat"


def test_parse_id_sugar():
    t = parse_term("a = b")
    assert isinstance(t, IdSugar)
    assert isinstance(t.lhs, Name) and t.lhs.name == "a"


def test_parse_mixed_binders():
    t = parse_term("fun {A : Type} (a : A) => a")
    assert isinstance(t, SLam)
    flat = [(b.implicit, len(b.names)) for b in t.binders]
    assert flat == [(True, 1), (False, 1)]


def test_parse_pi_and_arrow():
    t = parse_term("(x : A) -> B")
    assert isinstance(t, SPi)
    t2 = parse_term("A -> B -> C")
    assert isinstance(t2, SArrow)
    assert isinstance(t2.codomain, SArrow)


def test_parse_at_name_and_hole():
    t = parse_term("@concat A a b c p q")
    head = t
    while isinstance(head, SApp):
        head = head.fn
    assert isinstance(head, Name) and head.explicit_all
    assert isinstance(parse_term("_"), Hole)


def test_parse_refl_and_j():
    t = parse_term("refl star")
    assert isinstance(t, ReflSugar) and isinstance(t.point, Name)
    bare = parse_term("J")
    assert isinstance(bare, JSugar) and bare.motive is None
    full = parse_term("J m c p")
    assert isinstance(full, JSugar) and full.path is not None


def test_parse_folds_refl_into_its_point():
    # also through parentheses, so no application has a bare `refl` head
    point = ReflSugar(Name("x"))
    assert parse_term("refl x") == point
    assert parse_term("(refl) x") == point
    assert parse_term("(refl) x y") == SApp(point, Name("y"))


def test_parse_type_levels():
    assert parse_term("Type") == TypeU(0)
    assert parse_term("Type 1") == TypeU(1)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_term("a ) b")


def test_print_examples():
    assert print_surface(IdSugar(Name("a"), Name("b"))) == "a = b"
    assert print_surface(Hole()) == "_"


# ---------------------------------------------------------------------------
# Round trip on generated terms

_IDENTS = ["a", "b", "p", "q", "whisk-L", "x'", "f1"]


def _gen_term(rng: random.Random, depth: int) -> SurfaceTerm:
    if depth <= 0:
        return rng.choice(
            [
                Name(rng.choice(_IDENTS)),
                Name(rng.choice(_IDENTS), explicit_all=True),
                Hole(),
                TypeU(rng.choice([0, 1])),
                ReflSugar(None),
            ]
        )
    pick = rng.randrange(9)
    sub = lambda: _gen_term(rng, depth - 1)
    if pick == 0:
        return SApp(_gen_app_head(rng, depth - 1), sub())
    if pick == 1:
        return IdSugar(sub(), sub())
    if pick == 2:
        return SArrow(sub(), sub())
    if pick == 3:
        binders = tuple(
            Binder((rng.choice(_IDENTS),), sub(), rng.random() < 0.3)
            for _ in range(rng.choice([1, 2]))
        )
        return SLam(binders, sub())
    if pick == 4:
        return SPi((Binder((rng.choice(_IDENTS),), sub(), rng.random() < 0.3),), sub())
    if pick == 5:
        return SApp(SApp(Name("concat"), sub()), sub())
    if pick == 6:
        return SApp(SApp(Name("par-concat"), sub()), sub())
    if pick == 7:
        return ReflSugar(sub())
    return JSugar(sub(), sub(), sub())


def _gen_app_head(rng, depth):
    # application heads that are not refl/J sugar
    t = _gen_term(rng, depth)
    while isinstance(t, (ReflSugar, JSugar)):
        t = _gen_term(rng, depth)
    return t


def test_print_parse_round_trip_generated():
    rng = random.Random(20260809)
    for i in range(1000):
        t = _gen_term(rng, rng.choice([1, 2, 3]))
        text = print_surface(t)
        back = parse_term(text)
        assert back == t, f"round trip failed for {text!r}"


def test_round_trip_corpus_declarations():
    from hpt import corpus

    for filename, text in corpus.prelude_sources():
        decls = parse_file(text, filename)
        for d in decls:
            for term in _decl_terms(d):
                printed = print_surface(term)
                assert parse_term(printed) == term, (
                    f"{filename}: round trip failed for {printed[:80]!r}"
                )


def _decl_terms(d):
    from hpt.surface import AssertDefeq, CheckDirective, EvalDirective

    match d:
        case Def():
            out = [d.result_type, d.body]
            out.extend(b.annotation for b in d.binders if b.annotation)
            return out
        case Axiom():
            out = [d.result_type]
            out.extend(b.annotation for b in d.binders if b.annotation)
            return out
        case CheckDirective() | EvalDirective():
            return [d.term]
        case AssertDefeq():
            return [d.lhs, d.rhs, d.at_type]
    return []


def test_parse_determinism():
    text = open_corpus_text()
    assert parse_file(text, "x") == parse_file(text, "x")


def open_corpus_text():
    from hpt import corpus

    return corpus.prelude_sources()[0][1]


def test_spans_contained_in_parents():
    from hpt import corpus
    from hpt.surface import SourceSpan

    def contains(outer: SourceSpan, inner: SourceSpan) -> bool:
        start_ok = (outer.start_line, outer.start_col) <= (inner.start_line, inner.start_col)
        end_ok = (inner.end_line, inner.end_col) <= (outer.end_line, outer.end_col)
        return start_ok and end_ok

    def walk(t, parent_span):
        span = getattr(t, "span", None)
        if span is not None and parent_span is not None:
            assert contains(parent_span, span), (parent_span, span)
        here = span or parent_span
        for field_name in getattr(t, "__dataclass_fields__", {}):
            child = getattr(t, field_name)
            children = child if isinstance(child, tuple) else (child,)
            for c in children:
                if hasattr(c, "__dataclass_fields__") and hasattr(c, "span"):
                    walk(c, here)

    filename, text = corpus.prelude_sources()[0]
    for d in parse_file(text, filename):
        walk(d, None)
