"""Kernel behavior: evaluation, readback, conversion, type checking."""

import ast
import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

from hpt import corpus, driver, elab, kernel
from hpt.core import App, Global, Id, J, Lam, Meta, Pi, Refl, Type, Var, pretty
from hpt.kernel import (
    BudgetExhausted,
    Closure,
    DuplicateName,
    GlobalEnv,
    KernelError,
    KernelTypeError,
    VLam,
    VNeutral,
    VRefl,
    VTop,
    apply_spine,
    assert_defeq,
    check_decl,
    conv,
    eval_term,
    normalize,
    step_budget,
)
from hpt.surface import DUMMY_SPAN, SurfaceError, parse_term
from tests.terms import alpha_eq, children, dag_size, free_indices, replace_at, term_size


@pytest.fixture(scope="module")
def env():
    from tests.conftest import load_corpus_cached

    loaded, _ = load_corpus_cached()
    return loaded


@pytest.fixture(scope="module")
def body_nfs(env):
    """(entry, normal form) of every corpus body, each normalized once."""
    return [(e, normalize(env, e.body_core)) for e in env if e.body_core is not None]


def _elab(env, text, expected=None):
    core, ty = elab.elaborate_term(env, parse_term(text))
    return core, ty


def test_eval_beta(env):
    # (fun x => x) star evaluates to star
    t = App(Lam("x", Var(0), Global("A")), Global("star"))
    v = eval_term([], env, t)
    nf = kernel.readback(0, v, force=kernel.force_top)
    assert alpha_eq(nf, Global("star"))


def test_eval_j_beta(env):
    core, _ = _elab(env, "J (fun (x : A) (h : star = x) => A) star (refl star)")
    assert alpha_eq(normalize(env, core), Global("star"))


def test_eval_corpus_concat_refl(env):
    core, _ = _elab(env, "concat (refl star) (refl star)")
    assert alpha_eq(normalize(env, core), Refl(Global("star")))


def test_eval_of_a_solved_meta_reads_its_solution_under_its_scope(env):
    """A meta solved at depth 1 by `Var(0)` names the outermost binder, so
    under a two-entry environment it evaluates to the first entry; unsolved,
    it evaluates to a neutral headed by the node itself."""
    a, b = (eval_term([], env, Global(n)) for n in ("star", "A"))
    m = Meta(0)
    assert eval_term([a, b], env, m).head is m
    elab.MetaStore().update(m, Var(0), 1)
    assert eval_term([a, b], env, m) is a


def test_readback_with_force_top_is_the_full_normal_form(env):
    core, _ = _elab(env, "concat (refl star) (refl star)")
    v = eval_term([], env, core)
    assert kernel.readback(0, v) == core  # glued: `concat` stays applied
    assert kernel.readback(0, v, force=kernel.force_top) == Refl(Global("star"))


def test_readback_refl(env):
    v = eval_term([], env, Refl(Global("star")))
    assert kernel.readback(0, v) == Refl(Global("star"))


def test_conv_rigid(env):
    assert conv(0, Type(0), Type(0))
    assert not conv(0, Type(0), Type(1))


def test_conv_eh_refl(env):
    core, _ = _elab(env, "EH (refl (refl star)) (refl (refl star))")
    expected, _ = _elab(env, "refl (refl (refl star))")
    assert conv(0, eval_term([], env, core), eval_term([], env, expected))


def test_conv_compares_spine_arguments_of_different_value_classes(spine_values):
    _, fg, fstar, stuck, applied = spine_values
    assert type(fg.spine[0]) is not type(fstar.spine[0])  # a VTop and a VNeutral
    assert conv(0, fg, fstar) and conv(0, fstar, fg)
    assert not conv(0, stuck, applied) and not conv(0, applied, stuck)


_SHORTCUT_PRELUDE = ("axiom A : Type\naxiom B : Type\naxiom a : A\naxiom b : A\naxiom f : A -> A\n"
                     "def g1 (x : A) : A := a\ndef g2 (x : A) : A := b\n")


@pytest.mark.parametrize("assertion, holds", [
    ("g1 a ~ g2 a : A", False),  # glued-spine shortcut: equal spines, different entries
    ("A -> A ~ B -> A : Type", False),  # Π: equal plicity, different domains
    ("f ~ fun (x : A) => f x : A -> A", True),  # η: a λ against a neutral
], ids=["glued-spine", "pi-domain", "eta-neutral"])
def test_conv_shortcuts_decide_definitional_equality(assertion, holds):
    """Each early exit of `conv` answers as the full comparison would: a
    shortcut that fires too often is unsound, one that fires too rarely
    incomplete. The elaborator rejects such `def`s before the kernel sees
    them, so `#assert defeq` is where they reach `conv`."""
    text = f"{_SHORTCUT_PRELUDE}#assert defeq {assertion}\n"
    _, result = driver.check_source(GlobalEnv(), text, "shortcuts.hpt")
    assert result.error is None
    assert [e.ok for e in result.events if e.kind == "assert"] == [holds]


def test_infer_type_refl(env):
    core, ty = _elab(env, "refl star")
    inferred = kernel.infer_type([], env, core)
    want = eval_term([], env, Id(Global("A"), Global("star"), Global("star")))
    assert conv(0, inferred, want)


def test_infer_type_evaluates_a_refl_chain_point_once(env, monkeypatch):
    calls = [0]
    original = kernel.eval_term

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(kernel, "eval_term", counted)
    t, want = Global("star"), Global("A")
    for _ in range(300):
        t, want = Refl(t), Id(want, t, t)
    ty = kernel.infer_type([], env, t)
    assert calls[0] == 1
    assert kernel.readback(0, ty) == want
    with pytest.raises(KernelTypeError) as err:
        kernel.infer_type([], env, Refl(Refl(Refl(Var(0)))), ("d",))
    assert err.value.path == ("d", "point", "point", "point")


def test_infer_type_application_error(env):
    with pytest.raises(KernelTypeError):
        kernel.infer_type([], env, App(Global("star"), Global("star")))


def test_check_decl_axiom_and_duplicate(env):
    fresh = GlobalEnv()
    from hpt.core import CoreDecl

    fresh = check_decl(fresh, CoreDecl("B", Type(0), None))
    assert "B" in fresh
    with pytest.raises(DuplicateName):
        check_decl(fresh, CoreDecl("B", Type(0), None))


def test_a_duplicate_name_leaves_the_driver_located_at_its_declaration():
    """The kernel's DuplicateName has no span; `check_source` reports it as a
    SurfaceError at the second declaration, with the kernel's message; the
    kernel's error stays its cause, less the traceback."""
    _, result = driver.check_source(GlobalEnv(), "axiom A : Type\naxiom A : Type", "dup.hpt")
    assert type(result.error) is SurfaceError
    assert str(result.error) == "dup.hpt:2:1: duplicate global name 'A'"
    assert type(result.error.__cause__) is DuplicateName
    assert result.error.__cause__.__traceback__ is None


def test_check_decl_body_mismatch(env):
    from hpt.core import CoreDecl

    bad = CoreDecl("bad", Global("A"), Global("A"))
    with pytest.raises(KernelTypeError):
        check_decl(env, bad)


def test_lambda_without_a_domain_is_rejected(env):
    from hpt.core import CoreDecl, Pi

    lam = Lam("x", Var(0), None)
    cases = [(Pi("x", Global("A"), Global("A")), lam), (Global("A"), App(lam, Global("star")))]
    for ty, body in cases:
        with pytest.raises(KernelTypeError, match="unrecognized term None"):
            check_decl(env, CoreDecl("bad", ty, body))


# Hand-built cores over `A : Type`, `a b : A` and `p : a = b`. `_motive(dom,
# path_from, sort)` is `fun (y : dom) (e : path_from = y) => sort`; with
# `A`, `a`, `A` it makes `J _ a b p : A` well typed, and each case below
# changes one part of that term or of a declaration, keeping the rest well
# typed.
_A, _a, _b, _p = (Global(n) for n in ("A", "a", "b", "p"))


def _motive(dom, path_from=_a, sort=_A):
    return Lam("y", Lam("e", sort, Id(dom, path_from, Var(0))), dom)


def _kernel_env():
    from hpt.core import CoreDecl

    env = GlobalEnv()
    for name, ty in [("A", Type(0)), ("a", _A), ("b", _A), ("p", Id(_A, _a, _b))]:
        env = check_decl(env, CoreDecl(name, ty, None))
    return env


# Each row's path is where the kernel reports the fault; `bad` names the
# declaration. The last row reaches `infer_type`'s fallback for a non-term.
@pytest.mark.parametrize(
    "ty, body, message, path",
    [
        (_A, J(_motive(_A), _a, _b, _a), "J scrutinee is not an identity proof", ("body",)),
        (_A, J(_motive(_A), _a, _a, _p), "J endpoint does not match the path's right endpoint",
         ("body", "endpoint")),
        (_A, J(_a, _a, _b, _p), "J motive must be a two-argument function", ("body", "motive")),
        (_A, J(Lam("y", _A, _A), _a, _b, _p), "J motive must be a two-argument function",
         ("body", "motive")),
        (_A, J(_motive(Type(0), path_from=_A), _a, _b, _p),
         "J motive's first argument must range over the path's type", ("body", "motive")),
        (_A, J(_motive(_A, path_from=_b), _a, _b, _p),
         "J motive's second argument must be a path from the base point", ("body", "motive")),
        (_A, J(_motive(_A, sort=_a), _a, _b, _p), "J motive must land in a universe",
         ("body", "motive")),
        (Pi("x", _A, _A), Lam("x", Var(0), _A, implicit=True), "binder plicity mismatch", ("body",)),
        (_A, Global("nope"), "unknown global 'nope'", ("body",)),
        (_A, Meta(0), "unsolved metavariable ?0 reached the kernel", ("body",)),
        (_A, Var(0), "unbound variable index 0", ("body",)),
        (_a, J(_motive(_A), _a, _b, _p), "expected a type", ("type",)),
        (Pi("x", _A, _A), Lam("x", Var(0), Id(_A, _a, _a)),
         "lambda annotation does not match expected domain", ("body", "annotation")),
        (_A, App(_a, _a), "applied a term whose type is not a function type", ("body",)),
        (_A, J(_motive(_A), _p, _b, _p), "type mismatch", ("body", "base")),
        (_A, Lam("x", Var(0), None), "unrecognized term None", ("body", "annotation")),
    ],
    ids=["scrutinee", "endpoint", "motive-not-a-function", "motive-of-one-argument",
         "motive-domain", "motive-path", "motive-sort", "plicity", "unknown-global", "meta",
         "unbound-variable", "not-a-type", "annotation", "not-a-function", "mismatch",
         "unrecognized-term"],
)
def test_the_kernel_rejects_each_single_fault(ty, body, message, path):
    from hpt.core import CoreDecl

    env = _kernel_env()
    check_decl(env, CoreDecl("ok", _A, J(_motive(_A), _a, _b, _p)))
    with pytest.raises(KernelTypeError) as info:
        check_decl(env, CoreDecl("bad", ty, body))
    assert (info.value.message, info.value.path) == (message, ("bad", *path))


def test_rechecking_the_corpus_does_a_fixed_amount_of_kernel_work(env, monkeypatch):
    """`check_decl` on the 52 elaborated corpus cores makes these many calls,
    recursion included (it calls through the module globals the wrappers
    replace): how the checker dispatches does not change how much it does."""
    from hpt.core import CoreDecl

    counts = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("infer_type", "eval_term", "conv", "readback"):
        monkeypatch.setattr(kernel, name, counted(name, getattr(kernel, name)))
    monkeypatch.setattr(Closure, "apply", counted("Closure.apply", Closure.apply))
    checked = GlobalEnv()
    for entry in env:
        checked = check_decl(checked, CoreDecl(entry.name, entry.type_core, entry.body_core))
    assert len(checked) == 52
    assert counts == {"infer_type": 46_526, "eval_term": 139_044, "conv": 39_118,
                      "readback": 133, "Closure.apply": 23_371}


def test_a_corpus_run_unifies_and_unfolds_a_fixed_amount(monkeypatch):
    """Loading the corpus and checking its pinned assertions, as `hpt corpus`
    does, makes these many `elab._unify` calls (recursion included) and
    unfolds this many glued values: a value shared by many occurrences
    unfolds once."""
    counts = {"unify": 0, "unfold": 0}
    unify, force = elab._unify, VTop.force

    def counted_unify(*args):
        counts["unify"] += 1
        return unify(*args)

    def counted_force(self):
        counts["unfold"] += self._forced is None
        return force(self)

    monkeypatch.setattr(elab, "_unify", counted_unify)
    monkeypatch.setattr(VTop, "force", counted_force)
    loaded, _ = corpus.load_corpus()
    assert all(ok for _, ok in corpus.run_required_assertions(loaded))
    assert counts == {"unify": 40_900, "unfold": 2_147}


# The bodies of the `normalize` benchmark workload.
NORMALIZE_BODIES = (
    "EH", "EH-1-L", "EH-1-R", "EH-L-nat", "EH-R-nat", "EH-L-nat-refl",
    "EH-R-nat-refl", "EH-L-nat-refl-gen", "EH-R-nat-refl-gen",
    "syllepsis-triangle", "syllepsis-triangle-core", "syllepsis-hexagon",
)


def test_normalizing_the_benchmark_bodies_takes_a_fixed_number_of_steps(env):
    """A glued value that many occurrences share unfolds once, and its
    unfolding's steps are charged once; each closure application readback
    makes is charged, even when its normal form was read back before."""
    used = 0
    for name in NORMALIZE_BODIES:
        with step_budget() as budget:
            normalize(env, env.get(name).body_core)
        used += budget.limit - budget.remaining
    assert used == 33_046


def test_assert_defeq_reflexivity(env):
    l, _ = _elab(env, "refl star")
    ty, _ = _elab(env, "star = star")
    assert assert_defeq(env, l, l, ty)


def test_assert_defeq_checks_sides(env):
    l, _ = _elab(env, "refl star")
    ty, _ = _elab(env, "A")
    with pytest.raises(KernelTypeError):
        assert_defeq(env, l, l, ty)


def test_step_budget_reports_runaway(env):
    core, _ = _elab(env, "syllepsis")
    with pytest.raises(BudgetExhausted):
        with step_budget(50):
            normalize(env, core)


def test_step_budget_charges_every_application(env):
    # Applying one closure twice to the same argument costs two steps.
    lam = eval_term([], env, Lam("x", Var(0), Global("A")))
    star = eval_term([], env, Global("star"))
    with step_budget(1):
        lam.closure.apply(star)
        with pytest.raises(BudgetExhausted):
            lam.closure.apply(star)
    # Normalizing a corpus body needs exactly its step count, every time.
    body = env.get("EH").body_core
    with step_budget() as budget:
        normalize(env, body)
        used = kernel.DEFAULT_STEP_BUDGET - budget.remaining
    assert used > 0
    with step_budget(used):
        normalize(env, body)
    with pytest.raises(BudgetExhausted):
        with step_budget(used - 1):
            normalize(env, body)


def test_readback_shares_repeated_values(env):
    # `#check refl star`: the type is VId(A, pv, pv) with one value twice.
    ty = kernel.infer_type([], env, Refl(Global("star")))
    t = kernel.readback(0, ty)
    assert t == Id(Global("A"), Global("star"), Global("star"))
    assert t.lhs is t.rhs


def _normal_form_and_steps(v):
    """The full normal form of a value, and the budget steps reading it took."""
    with step_budget() as budget:
        nf = kernel.readback(0, v, force=kernel.force_top)
    return nf, kernel.DEFAULT_STEP_BUDGET - budget.remaining


def test_normalize_applies_every_closure_and_shares_equal_normal_forms(spine_values):
    """Two λs share the body `Var(1)`, which reads env[-1] and not env[-2]."""
    env = spine_values[0]
    a, star, body = VNeutral(Global("A")), VNeutral(Global("star")), Var(1)

    def f_of(*closure_envs):
        lams = (VLam("x", Closure(e, body, env), a) for e in closure_envs)
        return VNeutral(Global("f"), tuple(lams))

    # They differ in the entry the body uses: two normal forms, two steps.
    nf, steps = _normal_form_and_steps(f_of((a, star), (a, a)))
    assert nf == App(App(Global("f"), Lam("x", Global("star"), Global("A"))),
                     Lam("x", Global("A"), Global("A")))
    assert steps == 2
    # They differ only in an unused entry: each λ is applied, and the two
    # equal normal forms are one node.
    nf, steps = _normal_form_and_steps(f_of((star, star), (a, star)))
    assert nf.fn.arg is nf.arg
    assert steps == 2


def test_normalize_reads_a_closure_whose_body_holds_a_solved_meta(spine_values):
    """A solved meta's indices count from its own depth, not the closure's
    binder, so two closures over it differ when their envs do."""
    env = spine_values[0]
    a, star = VNeutral(Global("A")), VNeutral(Global("star"))
    m = Meta(0)
    elab.MetaStore().update(m, Var(0), 1)  # names the outermost binder
    lams = tuple(VLam("x", Closure((e,), m, env), a) for e in (star, a))
    nf, _ = _normal_form_and_steps(VNeutral(Global("f"), lams))
    assert nf == App(App(Global("f"), Lam("x", Global("star"), Global("A"))),
                     Lam("x", Global("A"), Global("A")))


# DAG sizes of some corpus normal forms, as `tests.terms.dag_size` counts.
NF_DAG_SIZES = {"EH": 192, "EH-1-L": 347, "syllepsis-triangle": 3130, "syllepsis-hexagon": 700,
                "EH-L-nat-refl": 1191}


def test_normalize_shares_equal_subterms(body_nfs):
    """Every normal form is hash-consed: it holds exactly as many node objects
    as it has structurally distinct subterms (`Lam.ann` counting), so the
    1,245,691-node tree of `syllepsis` is at most 10,000 objects."""
    sizes = {}
    for entry, nf in body_nfs:
        objects, stack = set(), [nf]
        while stack:
            t = stack.pop()
            if id(t) not in objects:
                objects.add(id(t))
                stack.extend(children(t))
        sizes[entry.name] = dag_size(nf)
        assert len(objects) == sizes[entry.name], entry.name
    assert {name: sizes[name] for name in NF_DAG_SIZES} == NF_DAG_SIZES
    (nf,) = [nf for entry, nf in body_nfs if entry.name == "syllepsis"]
    assert term_size(nf) == 1_245_691 and sizes["syllepsis"] <= 10_000


# SHA-256 and length of the printed normal forms of the two largest bodies.
LARGEST_PRINTED_NFS = {
    "syllepsis": ("14cfb72bdac8709498e96fc09ecf5d976cc3e782afccb4cad8ec141f56901efa", 2_640_067),
    "syllepsis-square": ("2d9c4148bd464696e280d5b995cac4544279fb363bc75bf1479a8274d0c1c7f1", 1_474_615),
}


def test_printed_normal_forms_have_the_pinned_digests(body_nfs):
    """Each `normalize` benchmark body prints to the text whose SHA-256 the
    benchmark's oracle holds, and the two largest to pinned texts."""
    oracle = Path(__file__).resolve().parent.parent / "benchmarks" / "expected" / "normalize.json"
    expected = json.loads(oracle.read_text())
    assert list(expected) == list(NORMALIZE_BODIES)
    printed = {entry.name: pretty(nf) for entry, nf in body_nfs
               if entry.name in expected or entry.name in LARGEST_PRINTED_NFS}
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in printed.items()}
    assert {name: digests[name] for name in expected} == {n: e["sha256"] for n, e in expected.items()}
    for name, (digest, length) in LARGEST_PRINTED_NFS.items():
        assert (digests[name], len(printed[name])) == (digest, length), name


def test_normalize_keeps_lambdas_apart_that_differ_only_in_their_domain(spine_values):
    """`Lam.__eq__` ignores `ann`, so the intern key must not be `==`: two λs
    with one body and different domains stay two nodes, each with its own."""
    env = spine_values[0]
    a, star = VNeutral(Global("A")), VNeutral(Global("star"))
    lams = tuple(VLam("x", Closure((), Var(0), env), dom) for dom in (a, star))
    nf, _ = _normal_form_and_steps(VNeutral(Global("f"), lams))
    assert nf == App(App(Global("f"), Lam("x", Var(0), Global("A"))), Lam("x", Var(0), Global("A")))
    assert nf.fn.arg is not nf.arg and nf.fn.arg.body is nf.arg.body
    assert (nf.fn.arg.ann, nf.arg.ann) == (Global("A"), Global("star"))


def test_normalize_reads_equal_leaves_back_to_one_node(spine_values):
    """Two `Type 0` objects at different depths, and two neutrals headed by
    distinct `Global` objects of one name, each read back to one node."""
    lam = VLam("x", Closure((), Type(0), spine_values[0]), Type(0))
    args = (Type(0), lam, VNeutral(Global("A")), VNeutral(Global("A")))
    nf, _ = _normal_form_and_steps(VNeutral(Global("f"), args))
    assert nf == App(App(App(App(Global("f"), Type(0)), Lam("x", Type(0), Type(0))), Global("A")), Global("A"))
    assert nf.fn.fn.fn.arg is nf.fn.fn.arg.body and nf.fn.arg is nf.arg


def test_free_agrees_with_a_plain_walk_on_corpus_cores_and_normal_forms(env, body_nfs):
    """Every node of every corpus core, and of every body's normal form (the
    hash-consed terms readback keys closures by), has as `free` exactly the
    free indices that a plain walk of the subterm table finds."""
    cache, seen = {}, set()
    stack = [t for e in env for t in (e.type_core, e.body_core) if t is not None]
    stack += [nf for _, nf in body_nfs]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            assert t.free == sum(1 << i for i in free_indices(t, cache))
            stack.extend(children(t))
    assert len(seen) > 10_000


def test_a_closure_reads_its_binder_through_a_solved_meta(spine_values):
    env = spine_values[0]
    m = Meta(0)
    elab.MetaStore().update(m, Var(0), 1)  # names the closure's binder, unseen by `free`
    assert Closure((), m, env).reads_binder() and Closure((), Var(0), env).reads_binder()
    assert not Closure((), Var(1), env).reads_binder()
    assert not Closure((), Lam("x", Var(0), Var(1)), env).reads_binder()


@pytest.mark.parametrize("k_fn", ["neutral", "lambda"])
def test_unfolding_a_glued_global_enters_its_lambda_prefix(k_fn):
    """`g`'s body has three λs. Forced on 2, 3 and 4 arguments, its glued
    value charges the steps that replaying the spine on the body value closure
    by closure charges: one per argument its λ prefix binds, plus the
    applications the rest of the work makes. Both give one normal form."""
    text = ("axiom A : Type\naxiom star : A\naxiom f : A -> A -> A\naxiom h : A -> A -> A\n"
            "def g (x : A) (y : A) (k : A -> A -> A) : A -> A := k (f x y)\n")
    env, result = driver.check_source(GlobalEnv(), text, "g.hpt")
    assert result.error is None
    entry = env.get("g")
    star = eval_term([], env, Global("star"))
    fss = eval_term([], env, App(App(Global("f"), Global("star")), Global("star")))
    lam = Lam("u", Lam("v", App(App(Global("f"), Var(0)), Var(1)), Global("A")), Global("A"))
    k = eval_term([], env, Global("h") if k_fn == "neutral" else lam)
    for n in (2, 3, 4):
        spine = (star, fss, k, star)[:n]
        with step_budget() as budget:
            v = VTop(spine, entry).force()
            steps = kernel.DEFAULT_STEP_BUDGET - budget.remaining
        with step_budget() as budget:
            w = kernel.force_top(apply_spine(entry.body_value, spine))
            replayed = kernel.DEFAULT_STEP_BUDGET - budget.remaining
        assert steps == replayed
        if k_fn == "neutral":
            assert steps == min(n, 3)
        nf = kernel.readback(0, v, force=kernel.force_top)
        assert nf == kernel.readback(0, w, force=kernel.force_top)
        assert (type(nf) is Lam) == (n == 2 or n == 3 and k_fn == "lambda")


# ---------------------------------------------------------------------------
# Corpus-wide properties


def test_readback_eval_idempotent_glued(env):
    for entry in env:
        if entry.body_core is None:
            continue
        nf1 = kernel.readback(0, eval_term([], env, entry.body_core))
        nf2 = kernel.readback(0, eval_term([], env, nf1))
        assert alpha_eq(nf1, nf2), entry.name


# Tree sizes of the normal forms of every corpus body up to 120,000 nodes,
# as read back without sharing; a shared readback must keep every tree.
NF_TREE_SIZES = {
    "concat": 33, "inv": 27, "concat-assoc": 114, "concat-1-L": 46, "concat-1-R": 31,
    "concat-inv-R": 61, "concat-inv-L": 61, "whisk-L": 98, "whisk-R": 98, "par-concat": 162,
    "exchange": 1147, "whisk-L-R": 775, "concat-cancel-R": 80, "concat-cancel-inv-R": 92,
    "concat-cancel-inv-L": 230, "concat-cancel-L": 242, "squash-down": 112,
    "squash-down-inv": 166, "squash-down-sect": 276, "squash-down-retr": 279,
    "squash-right": 181, "squash-right-inv": 97, "squash-right-sect": 912,
    "squash-right-retr": 915, "concat-1-L-nat": 470, "concat-1-R-nat": 230, "EH": 3515,
    "whisk-L-R-1-L": 1898, "whisk-L-R-1-R": 816, "EH-1-L-gen-base": 268, "EH-1-L-gen": 739,
    "EH-1-L": 13065, "EH-1-R-gen-base": 391, "EH-1-R-gen": 955, "EH-1-R": 19063,
    "EH-L-nat": 11341, "EH-R-nat": 11341, "paste-vert": 1194, "paste-horiz": 1330,
    "flip-vert": 503, "flip-horiz": 548, "EH-L-nat-refl-gen": 45940,
    "EH-R-nat-refl-gen": 33477, "EH-L-nat-refl": 66640, "EH-R-nat-refl": 52473,
    "syllepsis-triangle-core": 27031, "syllepsis-triangle": 57845, "syllepsis-hexagon": 6000,
}


def test_readback_eval_idempotent_unfolded_small(env, body_nfs):
    covered = set()
    for entry, nf1 in body_nfs:
        size = term_size(nf1)
        if size > 120_000:
            continue
        assert size == NF_TREE_SIZES[entry.name], entry.name
        covered.add(entry.name)
        nf2 = normalize(env, nf1)
        assert alpha_eq(nf1, nf2), entry.name
    assert covered == set(NF_TREE_SIZES)


def test_unify_agrees_with_conversion_against_normal_forms(env, body_nfs):
    """A glued body value unifies with the value of its own normal form, so
    every rigid case of `elab._unify` meets an unfolded counterpart."""
    small = [(e, nf) for e, nf in body_nfs if NF_TREE_SIZES.get(e.name, 20_000) < 20_000]
    assert len(small) == 42
    for entry, nf in small:
        elab.unify(elab.ElabCtx(env), entry.body_value, eval_term([], env, nf), DUMMY_SPAN)


def test_conv_equivalence_on_corpus_values(env):
    values = []
    for entry in env:
        values.append(entry.type_value)
        if entry.body_value is not None:
            values.append(entry.body_value)
    rng = random.Random(7)
    sample = [rng.choice(values) for _ in range(60)]
    for v in sample:
        assert conv(0, v, v)  # reflexive
    for _ in range(60):
        a, b = rng.choice(sample), rng.choice(sample)
        assert conv(0, a, b) == conv(0, b, a)  # symmetric
    for _ in range(60):
        a, b, c = rng.choice(sample), rng.choice(sample), rng.choice(sample)
        if conv(0, a, b) and conv(0, b, c):
            assert conv(0, a, c)  # transitive


def test_subject_reduction_on_corpus(env):
    for entry in env:
        if entry.body_core is None:
            continue
        nf = kernel.readback(0, eval_term([], env, entry.body_core))
        t1 = kernel.infer_type([], env, entry.body_core)
        t2 = kernel.infer_type([], env, nf)
        assert conv(0, t1, t2), entry.name


def test_j_beta_random_instances(env):
    rng = random.Random(20260809)
    current = env
    passed = 0
    for i in range(100):
        depth = rng.choice([0, 1, 2])
        pt = "star"
        ty = "A"
        for _ in range(depth):
            ty = f"({pt} = {pt})"
            pt = f"(refl {pt})"
        kind = rng.choice(["const", "moveable", "flipped"])
        if kind == "const":
            body_ty = "A"
            base = "star"
        elif kind == "moveable":
            body_ty = f"{pt} = x"
            base = f"refl {pt}"
        else:
            body_ty = f"x = {pt}"
            base = f"refl {pt}"
        motive = f"(fun (x : {ty}) (h : {pt} = x) => {body_ty})"
        j_term = f"J {motive} ({base}) (refl {pt})"
        if kind == "const":
            assert_ty = "A"
        else:
            assert_ty = f"{pt} = {pt}"
        ty_core, _ = _elab(current, assert_ty)
        l_core, _ = _elab(current, j_term)
        r_core, _ = _elab(current, f"({base})")
        assert assert_defeq(current, l_core, r_core, ty_core), j_term
        passed += 1
    assert passed == 100


def test_mutation_never_crashes(env):
    rng = random.Random(99)
    bodies = [e for e in env if e.body_core is not None]
    outcomes = {"type_error": 0, "still_checks": 0}
    replacements = [
        Var(0),
        Type(0),
        Refl(Global("star")),
        Global("A"),
        Global("star"),
    ]
    for i in range(50):
        entry = rng.choice(bodies)
        size = term_size(entry.body_core)
        pos = rng.randrange(size)
        mutated = replace_at(entry.body_core, pos, rng.choice(replacements))
        try:
            with step_budget(10**7):
                kernel._check_against([], env, mutated, entry.type_value, ())
            outcomes["still_checks"] += 1
        except KernelError:
            outcomes["type_error"] += 1
    assert sum(outcomes.values()) == 50


def test_pretty_reelaborate_round_trip_on_normal_forms(env, body_nfs):
    """Printing a normal-form corpus term reparses and re-elaborates to an
    alpha-equal term whose type still matches the declaration."""
    from hpt.core import pretty

    checked = 0
    for entry, nf in body_nfs:
        if term_size(nf) > 50_000:
            continue
        text = pretty(nf)
        core, ty_core = elab.elaborate_term(env, parse_term(text))
        assert alpha_eq(core, nf), entry.name
        assert conv(0, eval_term([], env, ty_core), entry.type_value), entry.name
        checked += 1
    assert checked >= 40


def test_a_printed_binder_does_not_capture_a_global():
    """`h` binds `star` and returns the global `star`: its printed normal
    form renames the binder, so it re-elaborates to the same term."""
    from hpt.core import pretty

    text = ("axiom A : Type\naxiom star : A\ndef c : A := star\n"
            "def h (star : A) : A := c\n")
    env, result = driver.check_source(GlobalEnv(), text, "capture.hpt")
    assert result.error is None
    nf = normalize(env, env.get("h").body_core)
    assert nf == Lam("star", Global("star"), Global("A"))
    printed = pretty(nf)
    assert printed == "fun (star1 : A) => star"
    core, _ = elab.elaborate_term(env, parse_term(printed))
    assert alpha_eq(normalize(env, core), nf)


def test_pretty_reelaborate_round_trip_on_types(env):
    from hpt.core import pretty

    for entry in env:
        nf_ty = normalize(env, entry.type_core)
        text = pretty(nf_ty)
        core, _ = elab.elaborate_term(env, parse_term(text))
        assert alpha_eq(core, nf_ty), entry.name


def test_checking_leaves_no_reference_cycles():
    """With the collector off, checking the corpus, normalizing and printing
    a body, re-elaborating a printed normal form, and an elaboration and a
    kernel failure leave nothing for `gc.collect()` to find: readback frees
    its per-call tables, and a stored error the frames that would hold its
    result, by reference count."""
    from hpt.core import pretty

    def error(text, budget=None):
        with step_budget(budget):
            _, result = driver.check_source(env, text, "fails.hpt")
        return str(result.error)

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        env, _ = corpus.load_corpus()
        found = {"corpus": gc.collect()}
        pretty(normalize(env, env.get("syllepsis-triangle").body_core))
        found["normalize"] = gc.collect()
        printed = pretty(normalize(env, env.get("EH").type_core))
        elab.elaborate_term(env, parse_term(printed))
        found["re-elaborate"] = gc.collect()
        assert "unbound name 'missing'" in error("def bad : A := missing\n")
        found["elab-error"] = gc.collect()
        assert "step budget exhausted" in error("#eval syllepsis-triangle\n", budget=50)
        found["kernel-error"] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == dict.fromkeys(found, 0)


def _concat_over_variables():
    """`concat {T} {a b c} p q` over six bound variables, as a new term."""
    t = Global("concat")
    for i in range(5, -1, -1):
        t = App(t, Var(i))
    return t


def test_a_block_builds_one_value_from_equal_parts(env):
    """Inside one `step_budget` block two distinct cores of one value
    evaluate to one object; outside any block each evaluation builds its own."""
    xs = kernel.identity_env(6)
    with step_budget():
        assert eval_term([], env, Refl(Global("star"))) is eval_term([], env, Refl(Global("star")))
        assert eval_term(xs, env, _concat_over_variables()) is eval_term(xs, env, _concat_over_variables())
    assert eval_term([], env, Refl(Global("star"))) is not eval_term([], env, Refl(Global("star")))
    assert eval_term(xs, env, _concat_over_variables()) is not eval_term(xs, env, _concat_over_variables())


def test_the_kernel_entry_points_build_from_a_table_of_their_own(env, monkeypatch):
    """`check_decl`, `assert_defeq` and `normalize`, run in a block where the
    elaborator has interned values, evaluate into tables of their own: no
    value they build is one the elaborator's table holds."""
    from hpt.core import CoreDecl

    built, evaluate = [], kernel.eval_term

    def recording(*args):
        v = evaluate(*args)
        built.append(v)
        return v

    with step_budget():
        core, ty_core = _elab(env, "concat (refl star) (refl star)")
        elaborated = list(kernel._table.values())
        assert elaborated
        monkeypatch.setattr(kernel, "eval_term", recording)
        for run in (lambda: check_decl(env, CoreDecl("t", ty_core, core)),
                    lambda: assert_defeq(env, core, core, ty_core),
                    lambda: normalize(env, core)):
            built.clear()
            run()
            assert built
            assert not {id(v) for v in built} & {id(v) for v in elaborated}


def test_a_rollback_that_undoes_a_solution_empties_the_table():
    """A glued value unfolded while a speculative solution held is not handed
    to a later construction from the same parts once the solution is undone;
    a rollback that undoes nothing keeps the table."""
    env, _ = driver.check_source(GlobalEnv(), "axiom A : Type\naxiom star : A\n"
                                 "def ap-star (f : A -> A) : A := f star\n", "t.hpt")
    with step_budget():
        ctx = elab.ElabCtx(env)
        m, _ = ctx.fresh_meta(DUMMY_SPAN)
        lam = VLam("x", Closure((), m, env), eval_term([], env, Global("A")))
        top = kernel.apply_value(eval_term([], env, Global("ap-star")), lam)

        def fails(solve):
            def thunk():
                if solve:
                    ctx.metas.update(m, Global("star"), 0)
                    assert top.force().head == Global("star")
                raise elab.UnifyFailure(DUMMY_SPAN, "l", "r")
            return thunk

        held = len(kernel._table)
        assert not elab._attempt(ctx, fails(solve=False))
        assert len(kernel._table) == held
        assert not elab._attempt(ctx, fails(solve=True))
        assert m.solution is None and kernel._table == {}
        again = kernel.apply_value(eval_term([], env, Global("ap-star")), lam)
        assert again is not top and again.force().head is m


def test_an_intern_table_holds_at_most_its_limit(env):
    """A table that reaches `TABLE_LIMIT` values is emptied before it takes
    another, so a declaration that builds many keeps only the recent ones."""
    assert kernel.TABLE_LIMIT == 4096
    args = [VNeutral(i) for i in range(kernel.TABLE_LIMIT + 10)]
    with step_budget():
        head = eval_term([], env, Global("A"))
        sizes = set()
        for x in args:
            v = kernel.apply_value(head, x)
            assert v.spine == (x,) and kernel.apply_value(head, x) is v
            sizes.add(len(kernel._table))
    assert max(sizes) == kernel.TABLE_LIMIT and min(sizes) < 20


def _hpt_imports(module):
    """The hpt modules that `hpt/<module>.py` imports from; `from hpt import x`
    counts as `hpt` itself."""
    path = Path(kernel.__file__).with_name(f"{module}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # relative: inside hpt
            found.update([f"hpt.{node.module}"] if node.module else (f"hpt.{a.name}" for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return {n for n in found if n.split(".")[0] == "hpt"}


def test_the_trust_root_imports_no_elaborator_state():
    """The kernel imports from no hpt module but `hpt.core`, and `hpt.core`
    from none, so evaluation and checking cannot reach the elaborator."""
    assert _hpt_imports("kernel") <= {"hpt.core"}
    assert _hpt_imports("core") == set()


def test_the_front_end_reaches_the_elaborator_through_the_driver():
    """`hpt.cli` elaborates nothing itself: `hpt eval` and `#eval` share
    `driver.evaluate`."""
    assert "hpt.elab" not in _hpt_imports("cli")


def _kernel_error_names(cls=KernelError):
    return {cls.__name__}.union(*(_kernel_error_names(sub) for sub in cls.__subclasses__()))


def test_the_front_end_names_no_kernel_error():
    """`hpt.driver` locates every kernel failure, so `hpt.cli` and
    `hpt.corpus` see only SurfaceErrors and name no KernelError class."""
    kernel_errors = _kernel_error_names()
    assert {"BudgetExhausted", "DuplicateName", "KernelTypeError"} < kernel_errors
    for module in ("cli", "corpus"):
        tree = ast.parse(Path(kernel.__file__).with_name(f"{module}.py").read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & kernel_errors, module
