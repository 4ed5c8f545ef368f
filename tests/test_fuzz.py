"""Seeded fuzzing of the whole pipeline: near-well-formed programs over a
short prelude either check, fail with a located SurfaceError, or run out of
steps. Nothing else may escape, and the kernel must accept whatever the
elaborator accepted."""

import io
import random
import re

from hpt import driver, kernel
from hpt.cli import main
from hpt.kernel import BudgetExhausted, GlobalEnv, KernelError
from hpt.surface import SurfaceError

PRELUDE = """\
axiom A : Type
axiom star : A
def id {X : Type} (x : X) : X := x
axiom P : A -> Type
axiom B : Type 1
def pick (x y : A) : A := y
"""

_ATOMS = ["A", "star", "star", "star", "id", "@id", "P", "B", "pick", "_", "Type", "Type 1", "refl", "J"]


def _term(rng: random.Random, scope: list[str], size: int) -> str:
    """A term of about `size` nodes, biased towards well-typed shapes."""
    if size <= 1 or rng.random() < 0.2:
        return rng.choice(scope + _ATOMS) if scope and rng.random() < 0.4 else rng.choice(_ATOMS)
    sub = lambda: _term(rng, scope, size // 2)  # noqa: E731
    x = f"x{len(scope)}"
    under = lambda: _term(rng, scope + [x], size // 2)  # noqa: E731
    k = rng.randrange(12)
    if k == 11:
        return f"(P {sub()})"
    if k == 0:
        return f"({sub()} {sub()})"
    if k == 1:
        return f"(id {sub()})"
    if k == 2:
        return f"(pick {sub()} {sub()})"
    if k == 3:
        return f"(@id {sub()} {sub()})"
    if k == 4:
        r = rng.randrange(3)
        binder = f"({x} : A)" if r == 0 else f"({x} : {sub()})" if r == 1 else f"{{{x} : Type}}"
        return f"(fun {binder} => {under()})"
    if k == 5:
        brace = "{}" if rng.random() < 0.3 else "()"
        return f"({brace[0]}{x} : {sub()}{brace[1]} -> {under()})"
    if k == 6:
        return f"({sub()} -> {sub()})"
    if k == 7:
        return f"({sub()} = {sub()})"
    if k == 8:
        return f"(refl {sub()})"
    if k == 9:
        motive = f"(fun (z : A) (q : star = z) => {_term(rng, scope + ['z', 'q'], size // 2)})"
        return f"(J {motive} {sub()} {sub()})"
    return f"(J {sub()} {sub()} {sub()})"


def _program(rng: random.Random) -> str:
    lines = []
    for n in range(rng.randint(1, 2)):
        size = rng.randint(1, 10)
        kind = rng.randrange(4)
        if kind == 0:
            lines.append(f"#check {_term(rng, [], size)}")
        elif kind == 1:
            lines.append(f"#eval {_term(rng, [], size)}")
        elif kind == 2:
            binders = " (a : A)" if rng.random() < 0.5 else ""
            scope = ["a"] if binders else []
            ty = rng.choice(["A", "Type", "star = star", _term(rng, scope, size // 2)])
            lines.append(f"def d{n}{binders} : {ty} := {_term(rng, scope, size)}")
        else:
            ty = rng.choice(["A", "Type", "star = star", _term(rng, [], size // 2)])
            lines.append(f"#assert defeq {_term(rng, [], size)} ~ {_term(rng, [], size)} : {ty}")
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.1:  # a near miss: one character dropped
        i = rng.randrange(len(text))
        text = text[:i] + text[i + 1 :]
    return text


def test_fuzzed_programs_check_or_fail_with_a_surface_error():
    prelude, result = driver.check_source(GlobalEnv(), PRELUDE, "prelude.hpt")
    assert result.error is None
    rng = random.Random(20261019)
    accepted = 0
    for _ in range(1000):
        text = _program(rng)
        with kernel.step_budget(10**5):
            _, result = driver.check_source(prelude, text, "fuzz.hpt")
        err = result.error
        assert err is None or isinstance(err, SurfaceError), (text, err)
        # The kernel accepts what the elaborator accepted: it only runs out of steps.
        cause = err.__cause__ if err is not None else None
        assert not isinstance(cause, (KernelError, RecursionError)) or isinstance(cause, BudgetExhausted), (text, err)
        # Every message names its variables: no raw de Bruijn index shows.
        shown = [e.text for e in result.events] + ([] if err is None else [str(err)])
        assert not any(re.search(r"!-?\d", s) for s in shown), (text, shown)
        accepted += err is None
    assert 40 <= accepted <= 500  # near-well-formed: some, not most, are accepted


def test_fuzzed_programs_get_exit_0_or_a_located_error(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "fuzz.hpt"
    for _ in range(100):
        path.write_text(PRELUDE + _program(rng), encoding="utf-8")
        out = io.StringIO()
        code = main(["check", str(path)], out=out)
        out = out.getvalue()
        assert code in (0, 1), out
        if code == 1:
            # results of `#check` and `#eval` come first, as `file:line: text`
            report = [l for l in out.splitlines() if not re.match(re.escape(str(path)) + r":\d+: ", l)]
            assert re.match(re.escape(str(path)) + r":\d+:\d+: error: ", report[0]), out
