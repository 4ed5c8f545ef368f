"""Elaboration: implicits, holes, unification, declaration processing."""

import pytest

from hpt import corpus, driver, elab, kernel
from hpt.core import App, Global, Id, Lam, Meta, Pi, Refl, Var
from hpt.elab import (
    ElabCtx,
    OccursCheck,
    TypeMismatch,
    UnboundName,
    UnifyFailure,
    UnsolvedMeta,
    elaborate_decl,
    elaborate_term,
    unify,
)
from hpt.kernel import GlobalEnv, VId, VRefl, VTop, VType, apply_value, eval_term
from hpt.surface import DUMMY_SPAN, parse_file, parse_term
from tests.terms import alpha_eq


@pytest.fixture(scope="module")
def env():
    from tests.conftest import load_corpus_cached

    loaded, _ = load_corpus_cached()
    return loaded


def _decl(env, text):
    (d,) = parse_file(text)
    return elaborate_decl(env, d)


def test_elaborate_identity_def():
    core = _decl(GlobalEnv(), "def id (A : Type) (a : A) : A := a")
    assert alpha_eq(core.type, Pi("A", __import__("hpt.core", fromlist=["Type"]).Type(
        __import__("hpt.core", fromlist=["Level"]).Level(0)), Pi("a", Var(0), Var(1))))
    assert alpha_eq(core.body, Lam("A", Lam("a", Var(0))))


def test_elaborate_universe_vs_element():
    with pytest.raises(TypeMismatch):
        _decl(GlobalEnv(), "def bad (A : Type) : A := A")


def test_unbound_name():
    with pytest.raises(UnboundName):
        _decl(GlobalEnv(), "def f : missing := missing")


@pytest.mark.parametrize("body", ["P a -> P a", "(x : P a) -> A"])
def test_arrow_and_pi_take_their_level_from_their_parts(body):
    """`P a : Type 1`, so a function type over it lives in `Type 1`."""
    text = f"axiom A : Type\ndef f (P : A -> Type 1) (a : A) : Type 1 := {body}\n"
    _, result = driver.check_source(GlobalEnv(), text, "f.hpt")
    assert result.error is None and result.declarations_checked == 2


def test_arrow_in_too_small_a_universe_fails_in_the_elaborator():
    text = "axiom A : Type\ndef f (P : A -> Type 1) (a : A) : Type := P a -> P a\n"
    _, result = driver.check_source(GlobalEnv(), text, "f.hpt")
    assert isinstance(result.error, TypeMismatch)
    assert (result.error_span.start_line, result.error_span.start_col) == (2, 43)


def test_corpus_eh_is_meta_free_and_rechecks(env):
    entry = env.get("EH")
    assert entry is not None and entry.body_core is not None
    fresh = GlobalEnv()
    for e in env:
        from hpt.core import CoreDecl

        fresh = kernel.check_decl(fresh, CoreDecl(e.name, e.type_core, e.body_core))
        if e.name == "EH":
            break


def test_infer_refl_typing(env):
    core, ty = elaborate_term(env, parse_term("refl star"))
    want, _ = elaborate_term(env, parse_term("star = star"))
    assert alpha_eq(ty, want)


def test_implicit_insertion_concat(env):
    core, ty = elaborate_term(env, parse_term("concat (refl star) (refl star)"))
    # four implicit arguments were inserted before the two explicit ones
    from hpt.core import App

    count = 0
    t = core
    while isinstance(t, App):
        count += 1
        t = t.fn
    assert count == 6


def test_bare_j_is_underdetermined(env):
    with pytest.raises(UnsolvedMeta):
        elaborate_term(env, parse_term("J"))


def test_hole_solves_by_unification(env):
    ty_core, _ = elaborate_term(env, parse_term("star = star"))
    ty_v = eval_term([], env, ty_core)
    ctx = ElabCtx(env)
    core = elab.check(ctx, parse_term("refl _"), ty_v)
    zonked = elab.zonk(ctx, core)
    want, _ = elaborate_term(env, parse_term("refl star"))
    assert alpha_eq(zonked, want)


def test_unsolved_hole_is_fatal(env):
    with pytest.raises(UnsolvedMeta):
        elaborate_term(env, parse_term("refl _"))


def test_occurs_check(env):
    ctx = ElabCtx(env)
    _, m = ctx.fresh_meta(DUMMY_SPAN)
    from hpt.kernel import Closure
    from hpt.core import Var as CVar

    loop = kernel.VPi("x", m, Closure((), CVar(0), env, ctx.metas))
    with pytest.raises(OccursCheck):
        unify(ctx, m, loop, DUMMY_SPAN)


def test_unify_rigid_universe_mismatch(env):
    ctx = ElabCtx(env)
    from hpt.core import Level

    with pytest.raises(UnifyFailure):
        unify(ctx, VType(Level(0)), VType(Level(1)), DUMMY_SPAN)


def test_unify_decomposes_id(env):
    ctx = ElabCtx(env)
    _, m = ctx.fresh_meta(DUMMY_SPAN)
    a_v = eval_term([], env, elaborate_term(env, parse_term("A"))[0])
    star_v = eval_term([], env, elaborate_term(env, parse_term("star"))[0])
    unify(ctx, VId(m, star_v, star_v), VId(a_v, star_v, star_v), DUMMY_SPAN)
    assert ctx.force(m) is not m  # solved


def test_speculative_spine_unification_rolls_back(env):
    """Same-named glued globals whose spines fail after a meta was solved:
    the solution is retracted and unification succeeds by unfolding."""
    local = kernel.check_decl(env, _decl(env, "def pick (x y : A) : A := star"))
    a_v = eval_term([], local, Global("A"))
    ctx = ElabCtx(local).bound("x", a_v).bound("y", a_v)
    _, m = ctx.fresh_meta(DUMMY_SPAN)
    x, y = ctx.env()
    pick = eval_term([], local, Global("pick"))
    # Spines [?m, x] and [y, y]: ?m := y is made, then x = y fails.
    lhs = apply_value(apply_value(pick, m), x)
    rhs = apply_value(apply_value(pick, y), y)
    assert isinstance(lhs, VTop) and isinstance(rhs, VTop)
    unify(ctx, lhs, rhs, DUMMY_SPAN)
    assert ctx.force(m) is m
    assert [meta.id for meta in ctx.metas.unsolved()] == [m.head.id]


def test_rollback_retracts_solutions_made_during_speculation(env):
    """After rollback, forcing finds neither the retracted solution of ?b nor
    the value ?a (solved before, as refl ?b) had while ?b was solved."""
    a_ty = eval_term([], env, Global("A"))
    star = eval_term([], env, Global("star"))
    ctx = ElabCtx(env)
    _, b = ctx.fresh_meta(DUMMY_SPAN)
    _, a = ctx.fresh_meta(DUMMY_SPAN)
    unify(ctx, a, VRefl(b), DUMMY_SPAN)
    mark = ctx.metas.checkpoint()
    unify(ctx, b, star, DUMMY_SPAN)
    assert ctx.quote(0, ctx.force(a)) == Refl(Global("star"))
    ctx.metas.rollback(mark)
    assert ctx.force(b) is b
    assert ctx.quote(0, ctx.force(a)) == Refl(Meta(b.head.id))


def test_unify_symmetric_on_corpus_constraints(env):
    """unify(l, r) succeeds iff unify(r, l) does, over corpus-derived pairs."""
    import random

    values = []
    for entry in env:
        values.append(entry.type_value)
        if entry.body_value is not None:
            values.append(entry.body_value)
    rng = random.Random(3)
    for _ in range(80):
        a, b = rng.choice(values), rng.choice(values)
        ok_lr = ok_rl = True
        try:
            unify(ElabCtx(env), a, b, DUMMY_SPAN)
        except elab.ElabError:
            ok_lr = False
        try:
            unify(ElabCtx(env), b, a, DUMMY_SPAN)
        except elab.ElabError:
            ok_rl = False
        assert ok_lr == ok_rl


def test_zonk_idempotent(env):
    (d,) = parse_file("def two-loops (p : refl star = refl star) : refl star = refl star := p * p")
    core = elaborate_decl(env, d)
    ctx = ElabCtx(env)
    assert alpha_eq(elab.zonk(ctx, core.body), core.body)


def test_elaborated_decls_recheck_core_only(env):
    """Every corpus declaration re-checks in the kernel with elaboration
    disabled (the core-only path)."""
    from hpt.core import CoreDecl

    fresh = GlobalEnv()
    for e in env:
        fresh = kernel.check_decl(fresh, CoreDecl(e.name, e.type_core, e.body_core))
    assert len(fresh) == len(env)


def test_zonk_returns_meta_free_terms_themselves(env):
    body = env.get("EH").body_core
    assert elab.zonk(ElabCtx(env), body) is body


def test_elaborated_type_keeps_readback_sharing(env):
    _, ty = elaborate_term(env, parse_term("refl (refl (refl star))"))
    assert ty.lhs is ty.rhs


def test_zonk_rebuilds_only_the_path_to_a_solved_meta(env):
    ctx = ElabCtx(env)
    star = eval_term([], env, Global("star"))
    meta, m = ctx.fresh_meta(DUMMY_SPAN)
    unify(ctx, m, star, DUMMY_SPAN)
    ty, rhs = Global("A"), Refl(Global("star"))
    t = App(Lam("x", Var(0)), Id(ty, meta, rhs))
    out = elab.zonk(ctx, t)
    assert out == App(Lam("x", Var(0)), Id(ty, Global("star"), rhs))
    assert out.fn is t.fn and out.arg.type is ty and out.arg.rhs is rhs


def test_zonk_rejects_a_solution_escaping_its_context(env):
    a_v = eval_term([], env, Global("A"))
    ctx = ElabCtx(env).bound("x", a_v)
    meta, m = ctx.fresh_meta(DUMMY_SPAN)
    unify(ctx, m, ctx.env()[0], DUMMY_SPAN)
    assert elab.zonk(ctx, meta, 1) == Var(0)
    with pytest.raises(elab.ElabError, match="meta solution escapes its context"):
        elab.zonk(ctx, meta, 0)


def test_solve_rejects_a_variable_escaping_the_meta_scope(env):
    a_v = eval_term([], env, Global("A"))
    ctx = ElabCtx(env)
    _, m = ctx.fresh_meta(DUMMY_SPAN)
    inner = ctx.bound("x", a_v)
    (x,) = inner.env()
    with pytest.raises(UnifyFailure, match="escaping its scope"):
        unify(inner, m, x, DUMMY_SPAN)
    # A value that is both cyclic and out of scope fails the occurs check.
    with pytest.raises(OccursCheck):
        unify(inner, m, apply_value(x, m), DUMMY_SPAN)


def test_solution_is_shifted_to_the_meta_depth(env):
    a_v = eval_term([], env, Global("A"))
    ctx = ElabCtx(env).bound("x", a_v)
    meta, m = ctx.fresh_meta(DUMMY_SPAN)
    inner = ctx.bound("y", a_v)
    x, _ = inner.env()
    unify(inner, m, x, DUMMY_SPAN)
    assert ctx.metas.get(meta.id).solution == Var(0)
