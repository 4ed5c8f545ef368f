"""Acceptance suite: one test per acceptance criterion, each printing an
explicit pass/fail line. Run with `pytest -s tests/test_acceptance.py` to
see the lines as they execute."""

import io
import random
import time

import pytest

from hpt import corpus, driver, elab, kernel
from hpt.cli import main
from hpt.core import CoreDecl, Global, Refl, Type, Level, Var
from hpt.kernel import GlobalEnv, KernelError, conv, eval_term, step_budget
from hpt.surface import parse_file, parse_term
from tests.terms import alpha_eq, print_surface, replace_at, term_size


@pytest.fixture(scope="module")
def loaded():
    from tests.conftest import load_corpus_cached

    return load_corpus_cached()


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_corpus_check():
    """`hpt corpus` exits 0, >= 25 manifest entries, under 10 seconds."""
    out = io.StringIO()
    started = time.monotonic()
    code = main(["corpus"], out=out)
    elapsed = time.monotonic() - started
    entries = len(corpus.manifest())
    ok = code == 0 and entries >= 25 and elapsed < 10.0
    _report(
        f"corpus check (exit={code}, entries={entries}, {elapsed:.2f}s < 10s)", ok
    )


def test_criterion_definitional_reduction_suite(loaded):
    env, _ = loaded
    pinned = [
        ("concat (refl star) (refl star)", "refl star", "star = star"),
        (
            "EH (refl (refl star)) (refl (refl star))",
            "refl (refl (refl star))",
            "refl (refl star) = refl (refl star)",
        ),
        (
            "EH-1-L (refl (refl star))",
            "refl (refl (refl (refl star)))",
            "EH (refl (refl star)) (refl (refl star))"
            " = concat-1-L (refl (refl star)) * inv (concat-1-R (refl (refl star)))",
        ),
        (
            "EH-1-R (refl (refl star))",
            "refl (refl (refl (refl star)))",
            "EH (refl (refl star)) (refl (refl star))"
            " = concat-1-R (refl (refl star)) * inv (concat-1-L (refl (refl star)))",
        ),
    ]
    text = "".join(f"#assert defeq {lhs} ~ {rhs} : {ty}\n" for lhs, rhs, ty in pinned)
    _, result = driver.check_source(env, text, "<pinned>")
    assert result.error is None, result.error
    events = result.events
    assert [e.kind for e in events] == ["assert"] * len(pinned)
    for (lhs, rhs, _), event in zip(pinned, events):
        print(f"  defeq {lhs} ~ {rhs}: {'ok' if event.ok else 'FAIL'}")
    _report("definitional-reduction suite (exact)", all(e.ok for e in events))


def test_criterion_syllepsis_endpoints(loaded):
    env, _ = loaded
    checks = env.get("syllepsis") is not None

    env_before = GlobalEnv()
    sources = corpus.prelude_sources()
    for filename, text in sources[:-1]:
        env_before, res = __import__("hpt.driver", fromlist=["check_source"]).check_source(
            env_before, text, filename
        )
    filename, text = sources[-1]
    mutated = text.replace(": EH p q = inv (EH q p) :=", ": EH p q = EH q p :=")
    assert mutated != text
    from hpt.driver import check_source
    from hpt.elab import TypeMismatch
    from hpt.kernel import KernelTypeError

    _, res = check_source(env_before, mutated, filename)
    mutation_fails = isinstance(res.error, (TypeMismatch, KernelTypeError))
    _report(
        f"syllepsis endpoint test (checks={checks}, mutation fails={mutation_fails})",
        checks and mutation_fails,
    )


def test_criterion_kernel_property_suite(loaded):
    env, _ = loaded
    bodies = [e for e in env if e.body_core is not None]

    # (a) readback . eval idempotent on all corpus bodies
    idempotent = True
    for e in bodies:
        nf1 = kernel.readback(0, eval_term([], env, e.body_core))
        nf2 = kernel.readback(0, eval_term([], env, nf1))
        idempotent = idempotent and alpha_eq(nf1, nf2)
    print(f"  (a) readback.eval idempotent on {len(bodies)} bodies: {idempotent}")

    # (b) conv is an equivalence relation on sampled corpus value triples
    values = [e.type_value for e in env] + [e.body_value for e in bodies]
    rng = random.Random(11)
    sample = [rng.choice(values) for _ in range(40)]
    equiv = all(conv(0, v, v) for v in sample)
    for _ in range(40):
        a, b = rng.choice(sample), rng.choice(sample)
        equiv = equiv and conv(0, a, b) == conv(0, b, a)
    for _ in range(40):
        a, b, c = rng.choice(sample), rng.choice(sample), rng.choice(sample)
        if conv(0, a, b) and conv(0, b, c):
            equiv = equiv and conv(0, a, c)
    print(f"  (b) conv equivalence relation on sampled triples: {equiv}")

    # (c) infer_type invariant under normalization on all corpus bodies
    invariant = True
    for e in bodies:
        nf = kernel.readback(0, eval_term([], env, e.body_core))
        invariant = invariant and conv(
            0,
            kernel.infer_type([], env, e.body_core),
            kernel.infer_type([], env, nf),
        )
    print(f"  (c) infer_type invariant under normalization: {invariant}")

    # (d) J beta on 100 randomly generated well-typed instances
    rng = random.Random(20260809)
    jbeta = True
    for _ in range(100):
        depth = rng.choice([0, 1, 2])
        pt, ty = "star", "A"
        for _ in range(depth):
            ty = f"({pt} = {pt})"
            pt = f"(refl {pt})"
        kind = rng.choice(["const", "moveable", "flipped"])
        body_ty, base = {
            "const": ("A", "star"),
            "moveable": (f"{pt} = x", f"refl {pt}"),
            "flipped": (f"x = {pt}", f"refl {pt}"),
        }[kind]
        motive = f"(fun (x : {ty}) (h : {pt} = x) => {body_ty})"
        assert_ty = "A" if kind == "const" else f"{pt} = {pt}"
        ty_core, _ = elab.elaborate_term(env, parse_term(assert_ty))
        l_core, _ = elab.elaborate_term(env, parse_term(f"J {motive} ({base}) (refl {pt})"))
        r_core, _ = elab.elaborate_term(env, parse_term(f"({base})"))
        jbeta = jbeta and kernel.assert_defeq(env, l_core, r_core, ty_core)
    print(f"  (d) J beta on 100 random instances: {jbeta}")

    _report("kernel property suite (exact)", idempotent and equiv and invariant and jbeta)


def test_criterion_parser_round_trip():
    from tests.test_surface import _decl_terms, _gen_term

    rng = random.Random(424242)
    gen_ok = 0
    for _ in range(1000):
        t = _gen_term(rng, rng.choice([1, 2, 3]))
        if parse_term(print_surface(t)) == t:
            gen_ok += 1
    corpus_ok = True
    for filename, text in corpus.prelude_sources():
        for d in parse_file(text, filename):
            for term in _decl_terms(d):
                corpus_ok = corpus_ok and parse_term(print_surface(term)) == term
    print(f"  generated round trips: {gen_ok}/1000; corpus declarations: {corpus_ok}")
    _report("parser round-trip (exact)", gen_ok == 1000 and corpus_ok)


def test_criterion_elaborator_soundness(loaded):
    env, _ = loaded
    fresh = GlobalEnv()
    ok = True
    for e in env:
        try:
            fresh = kernel.check_decl(fresh, CoreDecl(e.name, e.type_core, e.body_core))
        except KernelError as err:
            print(f"  {e.name} failed kernel re-check: {err}")
            ok = False
            break
    _report(f"elaborator soundness: {len(fresh)} core-only re-checks", ok)


def test_criterion_mutation_robustness(loaded):
    env, _ = loaded
    rng = random.Random(99)
    bodies = [e for e in env if e.body_core is not None]
    replacements = [
        Var(0),
        Type(Level(0)),
        Refl(Global("star")),
        Global("A"),
        Global("star"),
    ]
    clean_errors = passes = crashes = 0
    for _ in range(50):
        entry = rng.choice(bodies)
        pos = rng.randrange(term_size(entry.body_core))
        mutated = replace_at(entry.body_core, pos, rng.choice(replacements))
        try:
            with step_budget(10**7):
                kernel._check_against([], env, mutated, entry.type_value, [], ())
            passes += 1
        except KernelError:
            clean_errors += 1
        except Exception:  # noqa: BLE001 -- anything else is a crash
            crashes += 1
    print(f"  {clean_errors} clean type errors, {passes} conv-equal passes, {crashes} crashes")
    _report("mutation robustness (50 corruptions, zero crashes)", crashes == 0)
