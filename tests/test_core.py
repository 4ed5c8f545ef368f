"""Core term classes and utilities: equality, hashing, repr, `has_meta`,
the subterm table, alpha equality, shifting, pretty-printing."""

import importlib.util
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hpt import core, elab
from hpt.core import (
    App,
    CoreTerm,
    Global,
    Id,
    J,
    Lam,
    Meta,
    Pi,
    Refl,
    Type,
    Var,
    fresh_name,
    mentions,
    pretty,
    rebuild,
    shift,
    subterms,
)
from tests.terms import alpha_eq, children, dag_size, free_indices, term_size


def _terms(max_depth=4, metas=False):
    """Hypothesis strategy for well-formed closed-enough core terms.

    Variables are drawn from a small range; callers treat the result as
    living under sufficiently many binders. With `metas`, leaves include
    `Meta` nodes.
    """
    leaves = st.one_of(
        st.integers(min_value=0, max_value=3).map(Var),
        st.sampled_from([Global("A"), Global("star"), Type(0), Type(1)]),
        *([st.integers(min_value=0, max_value=2).map(Meta)] if metas else []),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: App(*t)),
            st.tuples(st.sampled_from(["x", "y", "f"]), children, children).map(
                lambda t: Lam(*t)
            ),
            st.tuples(children, children).map(lambda t: Pi("x", t[0], t[1])),
            st.tuples(children, children, children).map(lambda t: Id(*t)),
            children.map(Refl),
            st.tuples(children, children, children, children).map(lambda t: J(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_terms())
@settings(max_examples=300)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@given(_terms(), _terms())
@settings(max_examples=300)
def test_alpha_eq_symmetric(a, b):
    assert alpha_eq(a, b) == alpha_eq(b, a)


@given(_terms(), _terms(), _terms())
@settings(max_examples=300)
def test_alpha_eq_transitive(a, b, c):
    if alpha_eq(a, b) and alpha_eq(b, c):
        assert alpha_eq(a, c)


def test_alpha_eq_ignores_hints():
    assert alpha_eq(Lam("a", Var(0), Global("A")), Lam("b", Var(0), Global("A")))
    assert not alpha_eq(Var(0), Var(1))
    assert alpha_eq(Refl(Var(0)), Refl(Var(0)))


@given(_terms(), st.integers(min_value=0, max_value=3))
@settings(max_examples=300)
def test_shift_zero_is_identity(t, c):
    assert alpha_eq(shift(t, c, 0), t)


@given(
    _terms(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=300)
def test_shift_composes(t, c, m, n):
    assert alpha_eq(shift(shift(t, c, m), c, n), shift(t, c, m + n))


def test_shift_examples():
    assert shift(Var(0), 0, 1) == Var(1)
    assert shift(Lam("x", Var(0), Var(0)), 0, 5) == Lam("x", Var(0), Var(5))
    lam = shift(Lam("x", Var(1), Var(0)), 0, 2)
    assert lam == Lam("x", Var(3), Var(2)) and lam.ann == Var(2)  # `==` skips `ann`


def test_shift_returns_unshifted_subterms_themselves():
    closed = Lam("x", App(Var(0), Refl(Global("star"))), Global("A"))
    assert shift(closed, 0, 3) is closed
    t = App(closed, Id(Global("A"), Var(0), Var(1)))
    out = shift(t, 1, 2)
    assert out == App(closed, Id(Global("A"), Var(0), Var(3)))
    assert out.fn is closed and out.arg.type is t.arg.type and out.arg.lhs is t.arg.lhs


def test_mentions_counts_free_indices_from_the_root():
    t = Lam("x", App(Var(0), Var(2)), Var(1))  # free index 1 in annotation and body
    assert not mentions(t, 0, 1)
    assert mentions(t, 1, 1)
    assert not mentions(t, 2, 5)
    assert not mentions(Pi("x", Global("A"), Var(0)), 0, 1)
    assert mentions(J(Meta(3), Var(0), Var(0), Var(0)), 1, 0, meta=3)
    assert not mentions(Meta(3), 0, 1, meta=4)


def test_mentions_on_a_non_term_annotation_and_a_range_starting_below_zero():
    assert not mentions(Lam("x", Var(0), None), 0, 1)
    assert mentions(Lam("x", Var(1), None), 0, 1)
    # [lo, lo + n) is clipped at 0: no index is negative
    assert mentions(Var(0), -1, 2) and mentions(App(Var(3), Var(1)), -2, 4)
    assert not mentions(Var(0), -1, 1) and not mentions(Var(2), -3, 4)
    assert not mentions(Var(0), 0, 0) and not mentions(Var(0), 0, -1)


def test_shift_returns_a_term_without_a_free_index_at_or_above_the_cutoff_at_once(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "rebuild", lambda *args: calls.append(args))
    t = Pi("x", Var(1), Lam("y", App(Var(0), Var(2)), Var(1)))  # free indices: 1
    assert shift(t, 2, 5) is t and shift(Var(0), 1, 5).index == 0
    assert calls == []
    shift(t, 1, 5)
    assert len(calls) == 1


def _mask(indices):
    return sum(1 << i for i in indices)


@given(_terms(metas=True))
@settings(max_examples=300)
def test_free_is_the_set_of_free_indices(t):
    assert t.free == _mask(free_indices(t))


def test_free_is_set_by_every_class_and_is_not_a_field():
    assert Var(3).free == 0b1000 and Var(-1).free == 0
    assert Lam("x", Var(0), None).free == 0 and Lam("x", Var(2), Var(0)).free == 0b11
    assert Pi("x", Var(1), Var(1)).free == 0b11 and Meta(0).free == 0
    assert J(Var(0), Var(1), Refl(Var(2)), Id(Type(0), Global("a"), Var(4))).free == 0b10111
    for cls in core.SUBTERMS:
        assert "free" not in cls.__match_args__


def test_the_subterm_table_lists_exactly_the_term_fields_of_every_core_class():
    """One node of each `CoreTerm` subclass in `hpt.core`, built from its
    constructor's annotations: the table names each field that holds a term,
    once, and no other; a class missing from the table fails here."""
    classes = {
        c for c in vars(core).values()
        if isinstance(c, type) and issubclass(c, CoreTerm) and c is not CoreTerm
    }
    assert set(core.SUBTERMS) == classes
    samples = {"CoreTerm": Var(0), "str": "x", "int": 0}
    for cls in classes:
        params = inspect.signature(cls).parameters.values()
        node = cls(*(samples[p.annotation] for p in params if p.default is p.empty))
        fields = [n for n, _ in core.SUBTERMS[cls]]
        held = {n for n in cls.__match_args__ if isinstance(getattr(node, n), CoreTerm)}
        assert len(fields) == len(held) and set(fields) == held, cls.__name__
        assert rebuild(node, lambda u, _: u, 0) is node


def test_a_class_without_a_table_entry_is_not_a_core_term():
    class Stray(CoreTerm):
        __slots__ = __match_args__ = ()
        has_meta = True

    walks = [subterms, lambda t: rebuild(t, lambda u, _: u, 0), lambda t: shift(t, 0, 1),
             lambda t: mentions(t, 0, 1), elab.zonk, lambda t: elab._restrict(elab.MetaStore(), t, 0)]
    for walk in walks:
        with pytest.raises(TypeError, match="not a core term: Stray"):
            walk(Stray())


def test_subterms_and_rebuild_follow_the_binders():
    lam = Lam("x", Var(0), Var(1))
    assert subterms(lam) == [(Var(1), 0), (Var(0), 1)]  # the annotation first
    seen = []
    out = rebuild(Pi("x", Var(2), lam), lambda u, d: seen.append(d) or Global("A"), 3)
    assert seen == [3, 4] and out == Pi("x", Global("A"), Global("A"))


def test_pretty_examples():
    assert pretty(Lam("a", Var(0), Global("A"))) == "fun (a : A) => a"
    assert pretty(Refl(Global("star"))) == "refl star"
    # name supply is outermost-first, so Var(1) = "a" and Var(0) = "b"
    assert pretty(Id(Global("A"), Var(1), Var(0)), ["a", "b"]) == "a = b"
    assert pretty(Type(0)) == "Type"
    assert pretty(Type(1)) == "Type 1"
    # a Π prints as an arrow exactly when its codomain does not use the binder
    xx = Id(Global("A"), Var(1), Var(1))
    assert pretty(Pi("x", Global("A"), Pi("y", Global("A"), xx))) == "(x : A) -> A -> x = x"


def test_fresh_name_avoids_both_containers():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x1"}, ["x"]) == "x2"
    assert fresh_name("x", {"x"}, ["x1", "x3"]) == "x2"
    assert fresh_name("y", ["y", "y1"]) == "y2"
    for hint in ("_", ""):
        assert fresh_name(hint, set()) == "x"
        assert fresh_name(hint, {"x1"}, ["x"]) == "x2"


def test_a_binder_avoids_the_names_in_scope_and_the_globals_together():
    """The inner `x` may be neither `x` (in scope) nor `x1` (a global)."""
    from hpt import driver
    from hpt.kernel import GlobalEnv

    prelude = "axiom A : Type\naxiom x1 : A\naxiom g : A -> A -> A -> A\n"
    env, _ = driver.check_source(GlobalEnv(), prelude, "t.hpt")
    _, result = driver.check_source(
        env, "#check fun (x : A) => fun (y : A) => (fun (x : A) => g x1 x y)\n", "t.hpt")
    assert result.error is None
    assert [e.text for e in result.events] == [
        "fun (x : A) => fun (y : A) => fun (x2 : A) => g x1 x2 y : A -> A -> A -> A"]


def test_printing_a_left_nested_arrow_costs_calls_linear_in_its_depth(monkeypatch):
    """`((A -> A) -> A) -> … -> A` with k Πs prints each domain once: one
    `_pp` call per Π and one per `A`, 2k + 1 in all."""
    original, calls = core._pp, [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(core, "_pp", counted)
    for k in (4, 8, 12):
        t = Global("A")
        for _ in range(k):
            t = Pi("_", t, Global("A"))
        calls[0] = 0
        assert pretty(t) == "(" * (k - 1) + "A -> A" + ") -> A" * (k - 1)
        assert calls[0] == 2 * k + 1


def test_printing_an_application_spine_costs_calls_linear_in_its_length(monkeypatch):
    """`f a1 … an` walks its spine once: one `_pp` call for the spine, one
    for `f` and one per argument, n + 2 in all. A concatenation operator
    applied to more than its arity prints its sugar applied to the rest."""
    original, calls = core._pp, [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(core, "_pp", counted)
    for n in (10, 100, 1000):
        t = Global("f")
        for i in range(n):
            t = App(t, Global(f"a{i}"))
        calls[0] = 0
        assert pretty(t) == "f " + " ".join(f"a{i}" for i in range(n))
        assert calls[0] == n + 2
    for head, k, op in (("concat", 6, "*"), ("par-concat", 10, "**")):
        t = Global(head)
        for i in range(k + 2):
            t = App(t, Global(f"a{i}"))
        assert pretty(t) == f"(a{k - 2} {op} a{k - 1}) a{k} a{k + 1}"


def test_printing_a_right_nested_arrow_makes_no_mentions_calls(monkeypatch):
    """`A -> A -> … -> A` with k Πs reads each codomain's `free` to choose
    the arrow: no `mentions` call, and one `_pp` call per Π and per `A`."""
    original, calls, mention_calls = core._pp, [0], []

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(core, "_pp", counted)
    monkeypatch.setattr(core, "mentions", lambda *args: mention_calls.append(args))
    for k in (4, 40, 400):
        t = Global("A")
        for _ in range(k):
            t = Pi("_", Global("A"), t)
        calls[0] = 0
        assert pretty(t) == "A -> " * k + "A"
        assert calls[0] == 2 * k + 1
    assert mention_calls == []


def test_term_size_counts_nodes():
    assert term_size(Var(0)) == 1
    assert term_size(App(Var(0), Var(1))) == 3


def _holds_meta(t):
    return isinstance(t, Meta) or any(_holds_meta(c) for c in children(t))


@given(_terms(metas=True))
@settings(max_examples=300)
def test_has_meta_is_set_exactly_when_a_meta_lies_in_the_tree(t):
    assert t.has_meta == _holds_meta(t)


def test_a_non_term_child_holds_no_meta():
    assert not Lam("x", Var(0), None).has_meta
    assert Lam("x", Meta(0), None).has_meta


def test_equality_and_hash_ignore_the_lambda_domain_but_not_the_hint():
    a, b = Lam("x", Var(0), Global("A")), Lam("x", Var(0), Type(0))
    assert a == b and hash(a) == hash(b)
    assert Lam("y", Var(0), Global("A")) != a
    assert Lam("x", Var(0), Global("A"), True) != a
    assert App(Var(0), Var(1)) == App(Var(0), Var(1)) != App(Var(1), Var(0))
    assert hash(Id(Var(0), Var(1), Meta(2))) == hash(Id(Var(0), Var(1), Meta(2)))
    assert Var(0) != Meta(0) and Var(0) != 0
    assert len({Pi("x", Var(0), Var(1)), Pi("x", Var(0), Var(1)), Pi("y", Var(0), Var(1))}) == 2


def test_a_solved_meta_keeps_its_identity_by_id():
    from hpt.elab import MetaStore

    m = Meta(1, depth=2)
    MetaStore().update(m, Var(0), 2)
    assert m.solution == Var(0) and m.depth == 2
    assert m == Meta(1) and hash(m) == hash(Meta(1)) and m != Meta(2)
    assert repr(m) == "Meta(id=1)"


def test_repr_keeps_the_dataclass_format():
    t = Lam("x", J(Var(0), Refl(Global("a")), Meta(1), Type(0)), Pi("_", Var(0), Var(1)))
    assert repr(t) == (
        "Lam(hint='x', body=J(motive=Var(index=0), base=Refl(point=Global(name='a')),"
        " endpoint=Meta(id=1), path=Type(level=0)),"
        " ann=Pi(hint='_', domain=Var(index=0), codomain=Var(index=1), implicit=False),"
        " implicit=False)"
    )
    assert repr(App(Var(0), Id(Var(1), Var(2), Var(3)))) == (
        "App(fn=Var(index=0), arg=Id(type=Var(index=1), lhs=Var(index=2), rhs=Var(index=3)))"
    )


def test_match_patterns_with_positional_captures_bind():
    match Lam("x", App(Var(0), Meta(4)), Global("A"), True):
        case Lam(h, App(Var(i), Meta(m)), Global(n), imp):
            assert (h, i, m, n, imp) == ("x", 0, 4, "A", True)
        case _:
            pytest.fail("Lam pattern did not match")
    match J(Var(0), Var(1), Refl(Var(2)), Type(1)):
        case J(_, b, Refl(p), Type(k)):
            assert (b, p, k) == (Var(1), Var(2), 1)
        case _:
            pytest.fail("J pattern did not match")
    match Pi("x", Global("A"), Id(Var(0), Var(1), Var(2))):
        case Pi(_, Global(n), Id(t, l, r), imp):
            assert (n, t, l, r, imp) == ("A", Var(0), Var(1), Var(2), False)
        case _:
            pytest.fail("Pi pattern did not match")


def _layers():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_size_metrics_agree_with_the_test_counts(corpus_loaded):
    """`benchmarks/layers.py` reads a term's fields from its class; its tree
    and DAG counts (behind the `normalize` oracle and the size metrics) must
    match the counts taken here through `match` patterns."""
    from hpt import core, driver, elab
    from hpt.kernel import GlobalEnv
    from hpt.surface import parse_term

    layers = _layers()
    env, _ = corpus_loaded
    terms = [e.body_core for e in env if e.body_core is not None]
    tower, _ = driver.check_source(GlobalEnv(), "axiom A : Type\naxiom star : A\n", "t.hpt")
    cores = elab.elaborate_term(tower, parse_term("refl (" * 39 + "refl star" + ")" * 39))
    for t in terms + list(cores):
        tree = term_size(t)
        assert layers.term_sizes(t, core) == (tree, dag_size(t))
        assert layers.tree_nodes(t, core) == tree
    # the type of refl^n star: (n + 1)^2 tree nodes, 2n + 1 distinct ones
    assert (term_size(cores[1]), dag_size(cores[1])) == (41 * 41, 81)
