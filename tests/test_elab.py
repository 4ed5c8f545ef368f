"""Elaboration: implicits, holes, unification, declaration processing."""

import pytest

from hpt import corpus, driver, elab, kernel
from hpt.core import App, Global, Id, Lam, Meta, Pi, Refl, Type, Var, pretty
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
from hpt.kernel import GlobalEnv, VId, VRefl, VTop, apply_value, eval_term
from hpt.surface import DUMMY_SPAN, AssertDefeq, parse_file, parse_term
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
    assert alpha_eq(core.type, Pi("A", Type(0), Pi("a", Var(0), Var(1))))
    assert alpha_eq(core.body, Lam("A", Lam("a", Var(0), Var(0)), core.type.domain))


def test_elaborate_universe_vs_element():
    with pytest.raises(TypeMismatch):
        _decl(GlobalEnv(), "def bad (A : Type) : A := A")


def test_unbound_name():
    with pytest.raises(UnboundName):
        _decl(GlobalEnv(), "def f : missing := missing")


@pytest.mark.parametrize("body", ["P a -> P a", "(x : P a) -> A", "x = y"])
def test_arrow_and_pi_take_their_level_from_their_parts(body):
    """`P a : Type 1`, so a function type over it and `=` on its elements
    live in `Type 1`."""
    text = f"axiom A : Type\ndef f (P : A -> Type 1) (a : A) (x y : P a) : Type 1 := {body}\n"
    _, result = driver.check_source(GlobalEnv(), text, "f.hpt")
    assert result.error is None and result.declarations_checked == 2


def test_arrow_in_too_small_a_universe_fails_in_the_elaborator():
    for binders, body, col in [("", "P a -> P a", 43), (" (x y : P a)", "x = y", 55)]:
        text = f"axiom A : Type\ndef f (P : A -> Type 1) (a : A){binders} : Type := {body}\n"
        _, result = driver.check_source(GlobalEnv(), text, "f.hpt")
        assert isinstance(result.error, TypeMismatch), body
        assert (result.error.span.start_line, result.error.span.start_col) == (2, col)


_PATH_MOTIVE = "J (fun (z : A) (q : a = z) => q) _ _"


@pytest.mark.parametrize(
    "line, part, col",
    [
        ("def k : A -> A := fun (x : A) (y : A) => x", "found:    a function", 19),
        ("def k : A -> A := fun {x : A} => x", "found:    an implicit binder", 23),
        ("def f : a := a", "expected: a universe", 9),
        ("#check J (fun (y : A) (e : a = y) => A) a a", "expected: an identity type", 43),
        ("#check J a a (refl a)", "expected: a two-argument function", 10),
        ("#check J (fun (y : A) => A) a (refl a)", "expected: a two-argument function", 10),
        # A motive whose body `q` is a path, not a type: its path hole once
        # solved to `Type`, and J met a non-path in evaluation.
        (f"#check (x : {_PATH_MOTIVE}) -> A", "found:    a = z", 15),
        (f"def t (x : {_PATH_MOTIVE}) : A := a", "found:    a = z", 14),
        (f"#check fun (x : {_PATH_MOTIVE}) => x", "found:    a = z", 19),
        (f"#check ({_PATH_MOTIVE}) -> A", "found:    a = z", 11),
    ],
    ids=["extra-binder", "implicit-binder", "not-a-type", "j-path", "j-motive", "j-motive-arity",
         "j-motive-sort-pi", "j-motive-sort-def", "j-motive-sort-lambda", "j-motive-sort-arrow"],
)
def test_elaborator_type_mismatch_is_located(line, part, col):
    text = f"axiom A : Type\naxiom a : A\n{line}\n"
    _, result = driver.check_source(GlobalEnv(), text, "m.hpt")
    assert isinstance(result.error, TypeMismatch)
    assert result.error.message.startswith("type mismatch\n")
    assert f"\n  {part}\n" in result.error.message
    assert (result.error.span.start_line, result.error.span.start_col) == (3, col)


@pytest.mark.parametrize(
    "line, found",
    [
        ("#check J (fun (w : A) (q : a = w) => q) _ _", "a = w"),
        ("def t (z : A) (x : J (fun (z : A) (q : a = z) => q) _ _) : A := a", "a = z1"),
    ],
    ids=["own-name", "named-apart"],
)
def test_j_motive_sort_error_names_the_motive_binders(line, found):
    """The motive's binders print under their own names, renamed apart from
    the names in scope."""
    text = f"axiom A : Type\naxiom a : A\n{line}\n"
    _, result = driver.check_source(GlobalEnv(), text, "m.hpt")
    assert isinstance(result.error, TypeMismatch)
    assert f"\n  found:    {found}\n" in result.error.message


@pytest.mark.parametrize(
    "line, message",
    [
        ("def k (x : A) (x : x = x) : A := x", "expected: A\n  found:    x = x"),
        ("def k (x : A) : (x : A) -> x = x := fun (x : A) => refl a",
         "expected: x = x\n  found:    a = a"),
    ],
    ids=["def-binders", "lambda-binder"],
)
def test_shadowed_source_binders_keep_their_names(line, message):
    """A source binder is bound under its own name even where it shadows
    another, as in the source."""
    text = f"axiom A : Type\naxiom a : A\n{line}\n"
    _, result = driver.check_source(GlobalEnv(), text, "m.hpt")
    assert isinstance(result.error, TypeMismatch)
    assert result.error.message == f"type mismatch\n  {message}"


def test_no_source_name_resolves_to_an_inserted_implicit_lambda():
    """The λ inserted for an expected implicit Π keeps the Π's hint in the
    core, but a source name never refers to it."""
    local, _ = driver.check_source(GlobalEnv(), "axiom A : Type\n", "a.hpt")
    f = _decl(local, "def f (x : A) : {x : A} -> A := x")
    assert f.body == Lam("x", Lam("x", Var(1), Global("A"), True), Global("A"))
    assert pretty(f.body) == "fun (x : A) => fun {x1 : A} => x"
    with pytest.raises(UnboundName) as exc:
        _decl(local, "def g (x : A) : {y : A} -> A := y")
    assert exc.value.message == "unbound name 'y'"
    span = exc.value.span
    assert (span.start_line, span.start_col, span.end_col) == (1, 33, 33)


def test_explicit_name_whose_type_unfolds_to_a_universe_or_a_path_type():
    """`@X` and `@p` keep their inferred types (globals `U`, `L`); used as a
    type or as the path of J, those types still unfold."""
    text = (
        "axiom A : Type\naxiom star : A\ndef U : Type 1 := Type\n"
        "def f (X : U) (x : @X) : @X := x\ndef L : Type := star = star\n"
        "def g (p : L) : star = star := J (fun (y : A) (q : star = y) => star = y) (refl star) @p\n"
    )
    _, result = driver.check_source(GlobalEnv(), text, "u.hpt")
    assert result.error is None and result.declarations_checked == 6


def _assertion_terms() -> list:
    """Both sides and the type of every in-source and pinned corpus assertion."""
    decls = [d for name, text in corpus.prelude_sources() for d in parse_file(text, name)]
    triples = [(d.lhs, d.rhs, d.at_type) for d in decls if isinstance(d, AssertDefeq)]
    triples += [tuple(map(parse_term, t)) for t in corpus.required_assertions()]
    assert len(triples) == 11 + 8
    return [t for triple in triples for t in triple]


def test_elaborated_types_agree_with_the_kernel(env):
    """The type `elaborate_term` returns is convertible to the one
    `kernel.infer_type` gives its core term."""
    local, result = driver.check_source(env, "axiom B : Type 1\n", "b.hpt")
    assert result.error is None
    lambdas = [
        "fun (P : A -> Type 1) (a : A) (x y : P a) => x = y",
        "fun (P : A -> Type 1) (a : A) => P a -> P a",
        "fun (x y : B) => x = y",
        # carriers of `=` whose level `universe_of` reads off a universe, a Π
        # and a stuck J
        "Type = Type",
        "(fun (x : A) => x) = (fun (x : A) => x)",
        "fun (b : Type) (y : A) (p : star = y) (u v : J (fun (z : A) (q : star = z) => Type) b p)"
        " => u = v",
    ]
    for t in _assertion_terms() + [parse_term(s) for s in lambdas]:
        core, ty = elaborate_term(local, t)
        inferred = kernel.infer_type([], local, core)
        assert kernel.conv(0, eval_term([], local, ty), inferred), pretty(core)


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
    zonked = elab.zonk(core)
    want, _ = elaborate_term(env, parse_term("refl star"))
    assert alpha_eq(zonked, want)


def test_unsolved_hole_is_fatal(env):
    with pytest.raises(UnsolvedMeta):
        elaborate_term(env, parse_term("refl _"))
    _, result = driver.check_source(GlobalEnv(), "axiom A : Type\ndef bad : A := _\n", "h.hpt")
    assert isinstance(result.error, UnsolvedMeta)
    assert str(result.error) == "h.hpt:2:16: unsolved metavariable ?0"


# Check-mode inputs that go through infer-then-unify or implicit-lambda
# insertion: a hole, a bare `refl` against a path type, `_` binder
# annotations, implicit lambdas inserted around a lambda and around a name,
# `@name`, and a meta applied to a spine.
CHECK_MODE_SOURCE = """\
axiom A : Type
axiom star : A
def id {X : Type} (x : X) : X := x
def r1 : star = star := refl
def r2 (a : A) : a = a := refl
def h1 (x : _) : A := x
def k (a : A) (p : a = a) : A := a
def k2 : A := k _ (refl star)
def l2 : {X : Type} -> X -> X := fun (x : _) => x
def l3 : {X : Type} -> X -> X := id
def l5 : (X : Type) -> {Y : Type} -> X -> Y -> X := fun (X : Type) (x : X) (y : _) => x
def e1 : A := @id A star
axiom Q : A -> Type
axiom qs : Q star
def tr {P : A -> Type} {x y : A} (p : x = y) (u : P x) : P y := J (fun (z : A) (q : x = z) => P z) u p
def t1 (p : star = star) : Q star := tr p qs
#check l5
#check t1
"""


def test_check_mode_inputs_elaborate_to_fixed_cores():
    import hashlib

    local, result = driver.check_source(GlobalEnv(), CHECK_MODE_SOURCE, "c.hpt")
    assert result.error is None
    assert [e.text for e in result.events if e.kind == "check"] == [
        "l5 : (X : Type) -> {Y : Type} -> X -> Y -> X",
        "t1 : (star = star) -> Q star",
    ]
    cores = repr([(e.name, e.type_core, e.body_core) for e in local])
    digest = hashlib.sha256(cores.encode()).hexdigest()
    assert digest == "e3bb9ae61098fb1764872cd94f2ab9fe5bdd8a73ffa0c1e390070876a453b16d"


@pytest.mark.xfail(strict=True, reason="an unsolved meta evaluated under a substituted "
                   "environment keeps no record of it (ROADMAP item 4)")
def test_hole_in_a_lambda_annotation_under_a_binder():
    text = (
        "axiom A : Type\naxiom star : A\n"
        "def test (P : A -> Type) (g : (x : A) -> P x) : P star := "
        "(fun (h : (x : A) -> _) => h star) g\n"
    )
    _, result = driver.check_source(GlobalEnv(), text, "t.hpt")
    assert result.error is None, str(result.error)


@pytest.mark.xfail(strict=True, reason="a meta's solution is not checked against the "
                   "meta's type: `?X : Type` is solved by a universe, which lives in a larger one")
# `#check id Type` is accepted: no directive but `#assert` reaches the kernel.
@pytest.mark.parametrize(
    "decl", ["#assert defeq A ~ id A : Type", "def d : _ := id Type", "#check id Type"]
)
def test_an_implicit_solved_by_a_universe_is_an_elaboration_error(decl):
    text = "axiom A : Type\ndef id {X : Type} (x : X) : X := x\n" + decl + "\n"
    _, result = driver.check_source(GlobalEnv(), text, "u.hpt")
    assert isinstance(result.error, elab.ElabError), result.error


def test_metas_made_under_a_binder_solve_metas_from_outside_it():
    # `id`'s implicit argument and J's path-type metas are made under `p`,
    # and solve the type of `p`, a meta made outside it.
    text = (
        "axiom A : Type\naxiom star : A\ndef id {X : Type} (x : X) : X := x\n"
        "#check (fun (p : _) => id p) star\n"
        "#check (fun (p : _) => J (fun (z : A) (q : star = z) => A) star p) (refl star)\n"
        "#check fun (x : A) => (fun (p : _) => J (fun (z : A) (q : x = z) => A) star p) (refl x)\n"
        # `A -> _` is `(_ : A) -> _`, so its hole is made under the binder.
        "def f : A -> _ := fun (x : A) => refl x\n#check f\n"
    )
    _, result = driver.check_source(GlobalEnv(), text, "m.hpt")
    assert result.error is None, str(result.error)
    assert [e.text for e in result.events if e.kind == "check"] == [
        "(fun (p : A) => id A p) star : A",
        "(fun (p : star = star) => J (fun (z : A) => fun (q : star = z) => A) star p)"
        " (refl star) : A",
        "fun (x : A) => (fun (p : x = x) => J (fun (z : A) => fun (q : x = z) => A) star p)"
        " (refl x) : A -> A",
        "f : (x : A) -> x = x",
    ]


UNIFY_BRANCHES_SOURCE = """\
axiom A : Type
axiom star : A
def P (z : A) : Type := z = z
def g (z : A) : P z := refl z
def use (M : A -> Type) (f : (z : A) -> M z) : M star := f star
def k (a : A) (p : a = a) : A := a
#check use _ g
def k3 : A := k _ (refl _)
"""


def test_meta_spine_against_a_glued_global_and_the_same_meta_on_both_sides():
    # `use _ g` solves a meta applied to a spine speculatively against the
    # glued global `P z`; in `k3` the same meta meets itself, and what is
    # left unsolved is reported as such, not as an occurs-check failure.
    _, result = driver.check_source(GlobalEnv(), UNIFY_BRANCHES_SOURCE, "u.hpt")
    assert [e.text for e in result.events if e.kind == "check"] == ["use P g : P star"]
    assert isinstance(result.error, UnsolvedMeta)
    assert str(result.error) == "u.hpt:8:17: unsolved metavariable ?0"


FLEX_SOURCE = "axiom A : Type\naxiom star : A\naxiom f : A -> A\ndef g (x : A) : A := x\n"


@pytest.mark.parametrize(
    "left, right, solved, solution",
    [
        ("?a", "?b", "?a", "?b"),
        ("?a star", "?b", "?b", "?a star"),
        ("?b", "?a star", "?b", "?a star"),
        ("?a star", "?b star", "?a", "?b"),
        ("?a star", "f star", "?a", "f"),
        ("f star", "?b star", "?b", "f"),
        ("?a star", "g star", "?a", "g"),
    ],
)
def test_each_flex_case_solves_the_pinned_meta(left, right, solved, solution):
    """A bare meta is solved first, the left one before the right; a meta
    under a spine takes the other side's head, a glued global's before it
    unfolds. The other meta stays unsolved."""
    local, result = driver.check_source(GlobalEnv(), FLEX_SOURCE, "flex.hpt")
    assert result.error is None
    ctx = ElabCtx(local)
    metas = {"?a": ctx.fresh_meta(DUMMY_SPAN), "?b": ctx.fresh_meta(DUMMY_SPAN)}
    star = eval_term([], local, Global("star"))

    def value(text):
        head, *args = text.split()
        v = metas[head][1] if head in metas else eval_term([], local, Global(head))
        for _ in args:
            v = apply_value(v, star)
        return v

    def core(text):
        head, *args = text.split()
        t = metas[head][0] if head in metas else Global(head)
        for _ in args:
            t = App(t, Global("star"))
        return t

    l, r = value(left), value(right)
    unify(ctx, l, r, DUMMY_SPAN)
    assert metas[solved][0].solution == core(solution)
    (other,) = set(metas) - {solved}
    assert metas[other][0].solution is None
    for v in (l, r):
        if isinstance(v, VTop):
            assert v._forced is None  # solved speculatively, never unfolded


@pytest.mark.parametrize(
    "line, col, lhs, rhs",
    [
        ("#check J (fun (y : A) (e : y = star) => A) star (refl star)", 10, "y", "star"),
        ("def k : ((x : A) -> x = x) -> A := fun (f : (x : A) -> x = star) => star", 40, "star", "x"),
        ("def k (x : A) : ((y : A) -> y = y) -> A := fun (f : (y : A) -> y = star) => star", 48,
         "star", "y"),
        ("def k (x : A) : ((x : A) -> x = x) -> A := fun (f : (x : A) -> x = star) => star", 48,
         "star", "x1"),
        ("def k : ((fun (y : A) => y) = (fun (y : A) => y)) -> A := "
         "fun (p : (fun (z : A) => star) = (fun (z : A) => star)) => star", 63, "star", "z"),
    ],
    ids=["j-motive", "lambda-annotation", "named-apart", "clash", "lambda-bodies"],
)
def test_unify_failure_names_the_binders_it_went_under(line, col, lhs, rhs):
    """Unification binds each binder it opens under the binder's own name,
    renamed apart from the names in scope, so values print with those names."""
    text = f"axiom A : Type\naxiom star : A\n{line}\n"
    _, result = driver.check_source(GlobalEnv(), text, "u.hpt")
    assert isinstance(result.error, UnifyFailure)
    assert str(result.error) == f"u.hpt:3:{col}: cannot unify\n  {lhs}\nwith\n  {rhs}"


def test_occurs_check(env):
    ctx = ElabCtx(env)
    _, m = ctx.fresh_meta(DUMMY_SPAN)
    from hpt.kernel import Closure
    from hpt.core import Var as CVar

    loop = kernel.VPi("x", m, Closure((), CVar(0), env))
    with pytest.raises(OccursCheck):
        unify(ctx, m, loop, DUMMY_SPAN)


def test_unify_rigid_universe_mismatch(env):
    ctx = ElabCtx(env)
    with pytest.raises(UnifyFailure):
        unify(ctx, Type(0), Type(1), DUMMY_SPAN)


def test_unify_compares_spine_arguments_of_different_value_classes(spine_values):
    env, fg, fstar, stuck, applied = spine_values
    ctx = ElabCtx(env)
    unify(ctx, fg, fstar, DUMMY_SPAN)
    unify(ctx, fstar, fg, DUMMY_SPAN)
    for l, r in ((stuck, applied), (applied, stuck)):
        with pytest.raises(UnifyFailure):
            unify(ctx, l, r, DUMMY_SPAN)


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
    assert m.head.solution is None


def test_a_failed_speculative_prefix_solution_unfolds_the_global(env):
    """A meta under a spine against a glued global: the prefix solution
    ?m := pick x fails on the spines' tails (x against y), is retracted, and
    the unfolding `lift x` solves ?m := lift."""
    local = env
    for text in ("axiom lift : A -> A", "def pick (u v : A) : A := lift u"):
        local = kernel.check_decl(local, _decl(local, text))
    a_v = eval_term([], local, Global("A"))
    ctx = ElabCtx(local).bound("x", a_v).bound("y", a_v)
    _, m = ctx.fresh_meta(DUMMY_SPAN)
    x, y = ctx.env()
    pick = eval_term([], local, Global("pick"))
    unify(ctx, apply_value(m, x), apply_value(apply_value(pick, x), y), DUMMY_SPAN)
    assert m.head.solution == Global("lift")


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
    assert ctx.quote(ctx.force(a)) == Refl(Global("star"))
    ctx.metas.rollback(mark)
    assert ctx.force(b) is b
    assert ctx.quote(ctx.force(a)) == Refl(Meta(b.head.id))


def test_solving_an_outer_meta_narrows_inner_metas_until_rollback(env):
    """?a, made outside `x`, is solved by ?b, made under it: ?b loses `x`
    from its scope, and a rollback gives it back."""
    ctx = ElabCtx(env)
    _, a = ctx.fresh_meta(DUMMY_SPAN)
    inner = ctx.bound("x", eval_term([], env, Global("A")))
    _, b = inner.fresh_meta(DUMMY_SPAN)
    mark = ctx.metas.checkpoint()
    unify(inner, a, b, DUMMY_SPAN)
    assert a.head.solution == Meta(b.head.id)
    assert b.head.depth == 0
    ctx.metas.rollback(mark)
    assert a.head.solution is None
    assert b.head.depth == 1


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
    assert alpha_eq(elab.zonk(core.body), core.body)


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
    assert elab.zonk(body) is body


def test_elaborated_type_keeps_readback_sharing(env):
    _, ty = elaborate_term(env, parse_term("refl (refl (refl star))"))
    assert ty.lhs is ty.rhs


def test_zonk_rebuilds_only_the_path_to_a_solved_meta(env):
    ctx = ElabCtx(env)
    star = eval_term([], env, Global("star"))
    meta, m = ctx.fresh_meta(DUMMY_SPAN)
    unify(ctx, m, star, DUMMY_SPAN)
    ty, rhs = Global("A"), Refl(Global("star"))
    t = App(Lam("x", Var(0), ty), Id(ty, meta, rhs))
    out = elab.zonk(t)
    assert out == App(Lam("x", Var(0), ty), Id(ty, Global("star"), rhs))
    assert out.fn is t.fn and out.arg.type is ty and out.arg.rhs is rhs


def test_zonk_rejects_a_solution_escaping_its_context(env):
    a_v = eval_term([], env, Global("A"))
    ctx = ElabCtx(env).bound("x", a_v)
    meta, m = ctx.fresh_meta(DUMMY_SPAN)
    unify(ctx, m, ctx.env()[0], DUMMY_SPAN)
    assert elab.zonk(meta, 1) == Var(0)
    with pytest.raises(elab.ElabError, match="meta solution escapes its context"):
        elab.zonk(meta, 0)


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
    assert meta.solution == Var(0)


TOWER_PRELUDE = "axiom A : Type\naxiom star : A\n"


def _refl_chain(n):
    """`refl (refl (... (refl star)))` with n refls, as hpt prints it."""
    return "refl " * min(n, 1) + "(refl " * max(n - 1, 0) + "star" + ")" * max(n - 1, 0)


def _count_calls(monkeypatch, module, name, *others):
    """Count calls to `module.name`, wrapped there and in each of `others`
    that binds it by name."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for m in (module, *others):
        monkeypatch.setattr(m, name, counted)
    return calls


def test_refl_tower_evaluates_a_fixed_number_of_times(monkeypatch):
    tower, _ = driver.check_source(GlobalEnv(), TOWER_PRELUDE, "t.hpt")
    calls = _count_calls(monkeypatch, kernel, "eval_term", elab)
    counts = []
    for n in (100, 400):
        calls[0] = 0
        _, result = driver.check_source(tower, f"#check {_refl_chain(n)}\n", "t.hpt")
        assert result.error is None
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_deep_refl_tower_prints_the_expected_line():
    tower, _ = driver.check_source(GlobalEnv(), TOWER_PRELUDE, "t.hpt")
    _, result = driver.check_source(tower, f"#check {_refl_chain(800)}\n", "t.hpt")
    line = f"{_refl_chain(800)} : {_refl_chain(799)} = {_refl_chain(799)}"
    assert result.error is None and [e.text for e in result.events] == [line]


def test_zonk_makes_no_recursive_call_on_a_meta_free_term(env, monkeypatch):
    body = env.get("syllepsis").body_core
    original = elab.zonk
    calls = _count_calls(monkeypatch, elab, "zonk")
    assert original(body) is body
    assert calls[0] == 0


def test_a_concatenation_chain_evaluates_linearly_many_times(env, monkeypatch):
    """`refl star * … * refl star` with k factors. `concat`'s type never
    reads `p` or `q` after binding them, so neither the elaborator nor the
    kernel evaluates those arguments to apply it, and `eval_term` calls grow
    linearly in k; evaluating each argument made them quadratic."""
    calls = _count_calls(monkeypatch, kernel, "eval_term", elab)
    elab_counts, kernel_counts = [], []
    for k in (10, 20, 40):
        calls[0] = 0
        core, ty = elaborate_term(env, parse_term(" * ".join(["refl star"] * k)))
        elab_counts.append(calls[0])
        assert pretty(ty) == "star = star"  # no skipped argument shows
        calls[0] = 0
        kernel.infer_type([], env, core)
        kernel_counts.append(calls[0])
    for c in (elab_counts, kernel_counts):
        assert c[2] - c[1] == 2 * (c[1] - c[0])
