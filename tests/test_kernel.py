"""Kernel behavior: evaluation, readback, conversion, type checking."""

import random

import pytest

from hpt import corpus, driver, elab, kernel
from hpt.core import App, Global, Id, J, Lam, Level, Refl, Type, Var
from hpt.kernel import (
    BudgetExhausted,
    DuplicateName,
    GlobalEnv,
    KernelError,
    KernelTypeError,
    VRefl,
    assert_defeq,
    check_decl,
    conv,
    eval_term,
    normalize,
    step_budget,
)
from hpt.surface import parse_term
from tests.terms import alpha_eq, replace_at, term_size


@pytest.fixture(scope="module")
def env():
    from tests.conftest import load_corpus_cached

    loaded, _ = load_corpus_cached()
    return loaded


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


def test_readback_with_force_top_is_the_full_normal_form(env):
    core, _ = _elab(env, "concat (refl star) (refl star)")
    v = eval_term([], env, core)
    assert kernel.readback(0, v) == core  # glued: `concat` stays applied
    assert kernel.readback(0, v, force=kernel.force_top) == Refl(Global("star"))


def test_readback_refl(env):
    v = eval_term([], env, Refl(Global("star")))
    assert kernel.readback(0, v) == Refl(Global("star"))


def test_conv_rigid(env):
    assert conv(0, kernel.VType(Level(0)), kernel.VType(Level(0)))
    assert not conv(0, kernel.VType(Level(0)), kernel.VType(Level(1)))


def test_conv_eh_refl(env):
    core, _ = _elab(env, "EH (refl (refl star)) (refl (refl star))")
    expected, _ = _elab(env, "refl (refl (refl star))")
    assert conv(0, eval_term([], env, core), eval_term([], env, expected))


def test_infer_type_refl(env):
    core, ty = _elab(env, "refl star")
    inferred = kernel.infer_type([], env, core)
    want = eval_term([], env, Id(Global("A"), Global("star"), Global("star")))
    assert conv(0, inferred, want)


def test_infer_type_application_error(env):
    with pytest.raises(KernelTypeError):
        kernel.infer_type([], env, App(Global("star"), Global("star")))


def test_check_decl_axiom_and_duplicate(env):
    fresh = GlobalEnv()
    from hpt.core import CoreDecl

    fresh = check_decl(fresh, CoreDecl("B", Type(Level(0)), None))
    assert "B" in fresh
    with pytest.raises(DuplicateName):
        check_decl(fresh, CoreDecl("B", Type(Level(0)), None))


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


def test_readback_eval_idempotent_unfolded_small(env):
    covered = set()
    for entry in env:
        if entry.body_core is None:
            continue
        nf1 = normalize(env, entry.body_core)
        size = term_size(nf1)
        if size > 120_000:
            continue
        assert size == NF_TREE_SIZES[entry.name], entry.name
        covered.add(entry.name)
        nf2 = normalize(env, nf1)
        assert alpha_eq(nf1, nf2), entry.name
    assert covered == set(NF_TREE_SIZES)


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
        Type(Level(0)),
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


def test_pretty_reelaborate_round_trip_on_normal_forms(env):
    """Printing a normal-form corpus term reparses and re-elaborates to an
    alpha-equal term whose type still matches the declaration."""
    from hpt.core import pretty

    checked = 0
    for entry in env:
        if entry.body_core is None:
            continue
        nf = normalize(env, entry.body_core)
        if term_size(nf) > 50_000:
            continue
        text = pretty(nf)
        core, ty_core = elab.elaborate_term(env, parse_term(text))
        assert alpha_eq(core, nf), entry.name
        assert conv(0, eval_term([], env, ty_core), entry.type_value), entry.name
        checked += 1
    assert checked >= 40


def test_pretty_reelaborate_round_trip_on_types(env):
    from hpt.core import pretty
    from hpt.kernel import VType

    for entry in env:
        nf_ty = normalize(env, entry.type_core)
        text = pretty(nf_ty)
        core, _ = elab.elaborate_term(env, parse_term(text))
        assert alpha_eq(core, nf_ty), entry.name
