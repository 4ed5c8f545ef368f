"""Shared fixtures: the corpus is loaded once per test session."""

import pytest

from hpt import corpus, driver
from hpt.core import App, Global
from hpt.kernel import EJ, GlobalEnv, VNeutral, eval_term

_cache = None


def load_corpus_cached():
    global _cache
    if _cache is None:
        _cache = corpus.load_corpus()
    return _cache


@pytest.fixture(scope="session")
def corpus_loaded():
    return load_corpus_cached()


@pytest.fixture(scope="session")
def spine_values():
    """Under `axiom f : A -> A` and `def g : A := star`: the environment, the
    values of `f g` (a glued argument) and `f star` (a neutral one), and two
    neutrals headed by `f` whose spines hold an `EJ` and an argument."""
    text = "axiom A : Type\naxiom star : A\naxiom f : A -> A\ndef g : A := star\n"
    env, result = driver.check_source(GlobalEnv(), text, "spine.hpt")
    assert result.error is None
    fg, fstar = (eval_term([], env, App(Global("f"), Global(x))) for x in ("g", "star"))
    star = eval_term([], env, Global("star"))
    stuck = VNeutral(Global("f"), (EJ(star, star, star),))
    return env, fg, fstar, stuck, VNeutral(Global("f"), (star,))
