"""Lexer and parser for the surface language, and the parse/print round trip."""

import dataclasses
import hashlib
import random

import pytest

from hpt.surface import (
    IDENT,
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
    SLam,
    SPi,
    SourceSpan,
    SurfaceTerm,
    Token,
    TypeU,
    lex,
    parse_file,
    parse_term,
)
from tests.terms import print_surface


def kinds(text):
    return [t.kind for t in lex(text)][:-1]  # drop EOF


def test_lex_keyword_split():
    assert kinds("def id") == ["def", IDENT]


def test_lex_star_operator():
    assert kinds("p * q") == [IDENT, "*", IDENT]
    assert kinds("p ** q") == [IDENT, "**", IDENT]


def test_lex_punctuation_prefers_two_characters():
    toks = lex("=:=*=>***->:")[:-1]
    assert [(t.kind, t.lexeme, t.span.start_col, t.span.end_col) for t in toks] == [
        ("=", "=", 1, 1),
        (":=", ":=", 2, 3),
        ("*", "*", 4, 4),
        ("=>", "=>", 5, 6),
        ("**", "**", 7, 8),
        ("*", "*", 9, 9),
        ("->", "->", 10, 11),
        (":", ":", 12, 12),
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
    assert kinds("a->b") == [IDENT, "->", IDENT]
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
    assert isinstance(decls[0], Def) and decls[0].body is None
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
    # an arrow is a Π whose one binder is anonymous
    arrow = lambda dom, cod: SPi((Binder(("_",), dom, False),), cod)  # noqa: E731
    assert parse_term("A -> B -> C") == arrow(Name("A"), arrow(Name("B"), Name("C")))


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
    assert parse_term("J") == JSugar()
    assert parse_term("J m c p") == SApp(SApp(SApp(JSugar(), Name("m")), Name("c")), Name("p"))


def test_parse_folds_refl_into_its_point():
    # also through parentheses, so no application has a bare `refl` head
    point = ReflSugar(Name("x"))
    assert parse_term("refl x") == point
    assert parse_term("(refl) x") == point
    assert parse_term("(refl) x y") == SApp(point, Name("y"))


def test_parse_type_levels():
    assert parse_term("Type") == TypeU(0)
    assert parse_term("Type 1") == TypeU(1)
    assert parse_term("Type 12") == TypeU(12)
    assert parse_term("Type 999999999") == TypeU(999999999)


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_numbers_are_ascii_digits(digit):
    with pytest.raises(LexError) as exc:
        lex(f"axiom A : Type {digit}")
    assert exc.value.message == f"illegal character {digit!r}"
    assert (exc.value.span.start_line, exc.value.span.start_col) == (1, 16)


def test_universe_level_has_at_most_nine_digits():
    with pytest.raises(ParseError) as exc:
        parse_term("Type 1234567890")
    assert exc.value.message == "expected a universe level below 10^9, found '1234567890'"
    assert (exc.value.span.start_col, exc.value.span.end_col) == (6, 15)


@pytest.mark.parametrize(
    "text, col",
    [("(x : A) -> (y : A) -> )", 23), ("(x : A) -> A -> )", 17), ("{x : A} -> B = )", 16)],
)
def test_error_in_a_binder_codomain_is_located_there(text, col):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.message == "expected a term, found ')'"
    assert exc.value.span.start_col == col


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("axiom B : (p : Type 1234567890) -> Type", 1, 21,
         "expected a universe level below 10^9, found '1234567890'"),
        ("axiom B : (p : a = ) -> Type", 1, 20, "expected a term, found ')'"),
        ("#check (x : A)\n", 2, 1, "expected '->', found end of input"),
        ("#check {x : A} y", 1, 16, "expected '->', found 'y'"),
    ],
)
def test_error_in_a_binder_is_located_there(text, line, col, message):
    # `(` followed by identifiers and `:` opens a binder, so an error inside
    # it is reported where it occurs, not as a failed parenthesised term
    with pytest.raises(ParseError) as exc:
        parse_file(text)
    assert exc.value.message == message
    assert (exc.value.span.start_line, exc.value.span.start_col) == (line, col)


def test_corpus_token_stream_is_pinned():
    from hpt import corpus

    digest, count = hashlib.sha256(), 0
    for filename, text in corpus.prelude_sources():
        for t in lex(text, filename)[:-1]:
            s = t.span
            digest.update(f"{t.kind}\t{t.lexeme}\t{s.start_line}\t{s.start_col}\t{s.end_col}\n".encode())
            count += 1
    assert count == 10124
    assert digest.hexdigest() == "bccd42e1e058165ef41565aa8956ff74d348b19aa47efa036cd46cf10b893953"


def test_nesting_past_the_limit_is_a_parse_error():
    from hpt.surface import MAX_NESTING

    parse_term("(" * (MAX_NESTING - 1) + "a" + ")" * (MAX_NESTING - 1))
    parse_term("(x : A) -> " * (MAX_NESTING - 1) + "A")
    deep = ["(" * MAX_NESTING + "a" + ")" * MAX_NESTING, "(x : A) -> " * MAX_NESTING + "A",
            "A -> " * MAX_NESTING + "A", "fun (x : A) => " * MAX_NESTING + "x"]
    for text in deep:
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert exc.value.message.startswith(f"expected a term nested at most {MAX_NESTING} deep")


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
        return SPi((Binder(("_",), sub(), False),), sub())
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
    return SApp(SApp(SApp(JSugar(), sub()), sub()), sub())


def _gen_app_head(rng, depth):
    # application heads that are not refl sugar
    t = _gen_term(rng, depth)
    while isinstance(t, ReflSugar):
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
            out = [d.result_type] + ([] if d.body is None else [d.body])
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


def _children(x):
    """The surface nodes, binders included, that are fields of `x`."""
    for f in dataclasses.fields(x):
        child = getattr(x, f.name)
        for c in child if isinstance(child, tuple) else (child,):
            if dataclasses.is_dataclass(c) and f.name != "span":
                yield c


def _nodes(x):
    yield x
    for c in _children(x):
        yield from _nodes(c)


def _corpus_decls():
    from hpt import corpus

    return [d for filename, text in corpus.prelude_sources() for d in parse_file(text, filename)]


def test_corpus_spans_are_pinned():
    digest, count = hashlib.sha256(), 0
    for d in _corpus_decls():
        for n in _nodes(d):
            s = n.span
            digest.update(f"{type(n).__name__}\t{s.file}\t{s.start_line}\t{s.start_col}\t"
                          f"{s.end_line}\t{s.end_col}\n".encode())
            count += 1
    assert count == 8459
    assert digest.hexdigest() == "716d31817100c38b2692c9e8e6d026d986e73f2be7fc67825e00ad46b0a44fe0"


def test_spans_contained_in_parents():
    def contains(outer: SourceSpan, inner: SourceSpan) -> bool:
        start_ok = (outer.start_line, outer.start_col) <= (inner.start_line, inner.start_col)
        end_ok = (inner.end_line, inner.end_col) <= (outer.end_line, outer.end_col)
        return start_ok and end_ok

    for n in (n for d in _corpus_decls() for n in _nodes(d)):
        for c in _children(n):
            assert contains(n.span, c.span), (n.span, c.span)


def test_records_are_slotted_and_unfrozen():
    """Building a frozen dataclass stores each field through
    `object.__setattr__`; these records are plain slot stores, immutable by
    convention, and keep the interface the frozen ones had."""
    from hpt import kernel, surface

    records = [c for m in (surface, kernel) for c in vars(m).values()
               if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == m.__name__]
    assert len(records) == 16 + 7
    for c in records:
        assert not c.__dataclass_params__.frozen, c
        assert "__slots__" in vars(c), c

    span = SourceSpan("f.hpt", 1, 2, 3, 4)
    assert repr(span) == "SourceSpan(file='f.hpt', start_line=1, start_col=2, end_line=3, end_col=4)"
    assert repr(Token(IDENT, "x", span)) == (
        "Token(kind='identifier', lexeme='x', span=SourceSpan(file='f.hpt', start_line=1, "
        "start_col=2, end_line=3, end_col=4))")
    a, b = SApp(Name("f"), Name("x"), span), SApp(Name("f"), Name("x"))
    assert a == b and hash(a) == hash(b)
    binder = Binder(("x", "y"), Hole(), True, span)
    match binder:
        case Binder(names, Hole(), True):
            assert names == ("x", "y")
        case _:
            pytest.fail("no match")
    rest = dataclasses.replace(binder, names=("y",))
    assert rest == Binder(("y",), Hole(), True) and rest.span is span and binder.names == ("x", "y")
