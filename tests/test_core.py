"""Core term utilities: alpha equality, shifting, pretty-printing."""

import pytest
from hypothesis import given, settings, strategies as st

from hpt.core import (
    App,
    Global,
    Id,
    J,
    Lam,
    Level,
    Meta,
    Pi,
    Refl,
    Type,
    Var,
    alpha_eq,
    mentions,
    pretty,
    shift,
    term_size,
)


def _terms(max_depth=4):
    """Hypothesis strategy for well-formed closed-enough core terms.

    Variables are drawn from a small range; callers treat the result as
    living under sufficiently many binders.
    """
    leaves = st.one_of(
        st.integers(min_value=0, max_value=3).map(Var),
        st.sampled_from([Global("A"), Global("star"), Type(Level(0)), Type(Level(1))]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: App(*t)),
            st.tuples(st.sampled_from(["x", "y", "f"]), children).map(
                lambda t: Lam(t[0], t[1])
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
    assert alpha_eq(Lam("a", Var(0)), Lam("b", Var(0)))
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
    assert shift(Lam("x", Var(0)), 0, 5) == Lam("x", Var(0))
    assert shift(Lam("x", Var(1)), 0, 2) == Lam("x", Var(3))


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


def test_pretty_examples():
    assert pretty(Lam("a", Var(0))) == "fun (a : _) => a"
    assert pretty(Refl(Global("star"))) == "refl star"
    # name supply is outermost-first, so Var(1) = "a" and Var(0) = "b"
    assert pretty(Id(Global("A"), Var(1), Var(0)), ["a", "b"]) == "a = b"
    assert pretty(Type(Level(0))) == "Type"
    assert pretty(Type(Level(1))) == "Type 1"


def test_term_size_counts_nodes():
    assert term_size(Var(0)) == 1
    assert term_size(App(Var(0), Var(1))) == 3
