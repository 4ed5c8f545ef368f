"""The bundled corpus: full check, manifest invariants, assertions."""

import pytest

from hpt import corpus, driver
from hpt.driver import check_source
from hpt.kernel import GlobalEnv
from hpt.surface import SurfaceError


@pytest.fixture(scope="module")
def loaded():
    from tests.conftest import load_corpus_cached

    return load_corpus_cached()


def test_corpus_checks_end_to_end(loaded):
    env, results = loaded
    assert all(r.error is None for r in results)
    assert sum(r.assertions_failed for r in results) == 0
    assert sum(r.declarations_checked for r in results) >= 25


def test_elaborated_corpus_has_a_fixed_digest(loaded):
    """The SHA-256 of `repr` over every entry's cores: pins the elaborator's
    output and the dataclass-style `repr` of the core term classes."""
    import hashlib

    env, _ = loaded
    text = repr([(e.name, e.type_core, e.body_core) for e in env])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "e742c80234bf55da292db67243ff902206618f157d55fe69d668803a7d91fb5c"


@pytest.mark.parametrize(
    "extra, error, message",
    [("def bad : A := missing\n", SurfaceError, "unbound name 'missing'"),
     ("axiom a : A\n#assert defeq a ~ star : A\n", SurfaceError,
      "definitional assertion failed: a ~ star")],
    ids=["error", "failed-assertion"],
)
def test_load_corpus_raises_on_an_error_or_a_failed_assertion(
    tmp_path, monkeypatch, extra, error, message
):
    """A corpus copy whose first file ends in an error, or in a failed
    `#assert defeq`, makes `load_corpus` raise."""
    base = corpus.corpus_dir() / "01-base.hpt"
    (tmp_path / base.name).write_text(base.read_text() + extra)
    monkeypatch.setenv("HPT_CORPUS_DIR", str(tmp_path))
    with pytest.raises(error, match=message):
        corpus.load_corpus()


def test_load_corpus_locates_a_kernel_error_at_its_declaration(tmp_path, monkeypatch):
    """A corpus copy whose first file ends in a second `axiom star : A`: the
    kernel's duplicate name reaches `load_corpus` as a SurfaceError at that
    line, as `hpt corpus` prints it."""
    base = corpus.corpus_dir() / "01-base.hpt"
    text = base.read_text() + "axiom star : A\n"
    (tmp_path / base.name).write_text(text)
    monkeypatch.setenv("HPT_CORPUS_DIR", str(tmp_path))
    with pytest.raises(SurfaceError) as info:
        corpus.load_corpus()
    span = info.value.span
    assert (span.file, span.start_line, span.start_col) == (base.name, len(text.splitlines()), 1)
    assert info.value.message == "duplicate global name 'star'"


def test_manifest_matches_environment(loaded):
    env, _ = loaded
    entries = corpus.manifest()
    assert len(entries) >= 25
    names = [e.decl_name for e in entries]
    assert len(set(names)) == len(names)
    for entry in entries:
        assert entry.decl_name in env, entry.decl_name
        assert entry.kind in corpus.KINDS
    # entry order is a valid dependency order: same order as the corpus
    order = {e.name: i for i, e in enumerate(env)}
    positions = [order[n] for n in names]
    assert positions == sorted(positions)
    # every declaration in the corpus has exactly one entry
    assert set(names) == {e.name for e in env}


def test_manifest_assertion_count(loaded):
    _, results = loaded
    in_source = sum(
        1
        for _, text in corpus.prelude_sources()
        for ln in text.splitlines()
        if ln.strip().startswith("#assert")
    )
    assert sum(r.assertions_passed for r in results) == in_source == 11


def test_glossary_symbols_covered():
    """Every glossary-level corpus symbol maps to exactly one entry."""
    names = [e.decl_name for e in corpus.manifest()]
    for symbol in [
        "EH",
        "syllepsis",
        "whisk-L",
        "whisk-R",
        "par-concat",
        "whisk-L-R",
        "concat-1-L-nat",
        "concat-1-R-nat",
        "squash-down",
        "squash-right",
        "paste-vert",
        "paste-horiz",
        "flip-vert",
        "flip-horiz",
    ]:
        assert names.count(symbol) == 1, symbol


def test_eh_and_syllepsis_entries(loaded):
    by_name = {e.decl_name: e for e in corpus.manifest()}
    assert by_name["EH"].kind == "theorem"
    assert by_name["EH"].paper_anchor == "§1 Theorem (Eckmann-Hilton)"
    assert by_name["syllepsis"].kind == "theorem"
    assert by_name["syllepsis"].paper_anchor == "§4 Theorem (Syllepsis)"


def test_required_assertions_pass(loaded):
    env, _ = loaded
    results = corpus.run_required_assertions(env)
    assert len(results) >= 6
    for label, ok in results:
        assert ok, label


def test_required_assertions_present_in_sources():
    texts = [t for _, t in corpus.prelude_sources()]
    joined = "\n".join(texts)
    # the pinned reductions are also asserted inside the corpus files
    assert "#assert defeq EH (refl (refl star)) (refl (refl star))" in joined
    assert "#assert defeq concat (refl star) (refl star)" in joined


def test_eh_statement_prints_with_operators(loaded):
    env, _ = loaded
    from hpt.core import pretty

    entry = env.get("EH")
    printed = pretty(entry.type_core)
    assert "p * q = q * p" in printed


def test_syllepsis_statement_relates_eh_and_inverse(loaded):
    env, _ = loaded
    from hpt.core import App, Global, Id, Pi, Var

    # source-level statement
    source = dict(corpus.prelude_sources())["07-syllepsis.hpt"]
    assert ": EH p q = inv (EH q p) :=" in source

    # elaborated statement: Id whose lhs is EH applied ending in (p, q) and
    # whose rhs is inv applied to EH applied ending in (q, p)
    ty = env.get("syllepsis").type_core
    while isinstance(ty, Pi):
        ty = ty.codomain
    assert isinstance(ty, Id)

    def spine(t):
        args = []
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        args.reverse()
        return t, args

    lhs_head, lhs_args = spine(ty.lhs)
    assert lhs_head == Global("EH")
    assert lhs_args[-2:] == [Var(1), Var(0)]  # p, q
    rhs_head, rhs_args = spine(ty.rhs)
    assert rhs_head == Global("inv")
    inner_head, inner_args = spine(rhs_args[-1])
    assert inner_head == Global("EH")
    assert inner_args[-2:] == [Var(0), Var(1)]  # q, p


def test_syllepsis_mutation_fails(loaded):
    """Dropping `inv` from the syllepsis statement must be a type error:
    the two sides then inhabit different identity types."""
    env_before = GlobalEnv()
    sources = corpus.prelude_sources()
    for filename, text in sources[:-1]:
        env_before, res = check_source(env_before, text, filename)
        assert res.error is None
    filename, text = sources[-1]
    assert "inv (EH q p)" in text
    mutated = text.replace(": EH p q = inv (EH q p) :=", ": EH p q = EH q p :=")
    assert mutated != text
    _, res = check_source(env_before, mutated, filename)
    assert res.error is not None
    from hpt.elab import TypeMismatch
    from hpt.kernel import KernelTypeError

    assert isinstance(res.error, TypeMismatch) or isinstance(res.error.__cause__, KernelTypeError)


def test_corpus_prelude_order_is_stable():
    names = [fn for fn, _ in corpus.prelude_sources()]
    assert names == sorted(names)
    assert names[0].startswith("01-")
