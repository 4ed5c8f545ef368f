"""Checking pipeline shared by the CLI, the corpus loader, and the tests:
parse, elaborate, kernel-check, and run directives in source order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from . import elab, kernel
from .core import pretty
from .kernel import GlobalEnv, KernelError
from .surface import (
    AssertDefeq,
    CheckDirective,
    Def,
    EvalDirective,
    SourceSpan,
    SurfaceDecl,
    SurfaceError,
    SurfaceTerm,
    parse_file,
)


@dataclass
class Event:
    kind: str  # "decl" | "check" | "eval" | "assert"
    span: SourceSpan
    text: str
    ok: bool = True


@dataclass
class FileResult:
    filename: str
    events: list[Event] = field(default_factory=list)
    error: SurfaceError | None = None

    @property
    def declarations_checked(self) -> int:
        return sum(1 for e in self.events if e.kind == "decl")

    @property
    def assertions_passed(self) -> int:
        return sum(1 for e in self.events if e.kind == "assert" and e.ok)

    @property
    def assertions_failed(self) -> int:
        return sum(1 for e in self.events if e.kind == "assert" and not e.ok)

    @property
    def diagnostics(self) -> list[SurfaceError]:
        """Each failed assertion, located at its directive, then the error."""
        failed = [SurfaceError(e.span, f"definitional assertion failed: {e.text}")
                  for e in self.events if e.kind == "assert" and not e.ok]
        return failed if self.error is None else [*failed, self.error]


def read_source(path: str | Path, name: str, what: str = "file") -> str:
    """The UTF-8 text of `path`, less a leading byte-order mark; failing
    that, a SurfaceError at `name`:1:1."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise SurfaceError(SourceSpan(name, 1, 1, 1, 1), f"cannot read {what}: {e}") from e


def located(thunk: Callable[[], tuple], span: SourceSpan) -> tuple:
    """`thunk()` under a fresh step budget, whose limit is the enclosing
    budget's (the default if none). A KernelError, which has no span, and a
    RecursionError, from a term nested past Python's recursion limit, are
    raised as a SurfaceError at `span`, from the error less its traceback."""
    try:
        with kernel.step_budget():
            return thunk()
    except KernelError as e:
        cause, message = e.with_traceback(None), str(e)
    except RecursionError as e:
        cause, message = e.with_traceback(None), "term nested too deeply"
    raise SurfaceError(span, message) from cause  # here, where no deep traceback is held


def evaluate(globals: GlobalEnv, term: SurfaceTerm) -> tuple[str, str]:
    """The printed normal form of `term` and its type: `#eval` and `hpt eval`."""
    core, ty = elab.elaborate_term(globals, term)
    return pretty(kernel.normalize(globals, core)), pretty(ty)


def process_decl(globals: GlobalEnv, d: SurfaceDecl) -> tuple[GlobalEnv, Event]:
    """Elaborate and check one declaration or directive."""
    match d:
        case Def():
            core = elab.elaborate_decl(globals, d)
            globals = kernel.check_decl(globals, core)
            return globals, Event("decl", d.span, d.name)
        case CheckDirective(term=t, span=span):
            core, ty = elab.elaborate_term(globals, t)
            return globals, Event("check", span, f"{pretty(core)} : {pretty(ty)}")
        case EvalDirective(term=t, span=span):
            value, ty = evaluate(globals, t)
            return globals, Event("eval", span, f"{value} : {ty}")
        case AssertDefeq(lhs=l, rhs=r, at_type=ty, span=span):
            ty_core, _ = elab.elaborate_term(globals, ty)
            ty_v = kernel.eval_term([], globals, ty_core)
            ctx = elab.ElabCtx(globals)
            l_core = elab.zonk(elab.check(ctx, l, ty_v))
            r_core = elab.zonk(elab.check(ctx, r, ty_v))
            ok = kernel.assert_defeq(globals, l_core, r_core, ty_core)
            text = f"{pretty(l_core)} ~ {pretty(r_core)}"
            return globals, Event("assert", span, text, ok)
    raise ValueError(f"unknown declaration {d!r}")


def check_source(globals: GlobalEnv, text: str, filename: str) -> tuple[GlobalEnv, FileResult]:
    """Check one file against (and extending) `globals`.

    Stops at the first error in the file; the returned environment contains
    everything admitted before the error. A failed assertion is not an
    error: checking continues so all assertion outcomes are visible.
    """
    result = FileResult(filename)
    try:
        for d in parse_file(text, filename):
            globals, event = located(lambda: process_decl(globals, d), d.span)
            result.events.append(event)
    except SurfaceError as e:
        result.error = e.with_traceback(None)  # its frames hold `result`: a cycle
    return globals, result


def check_sources(
    globals: GlobalEnv, sources: Iterable[tuple[str, str]]
) -> tuple[GlobalEnv, list[FileResult]]:
    """Check (filename, text) pairs in order, each against the environment
    the previous ones built. Stops after the first file with an error."""
    results = []
    for filename, text in sources:
        globals, result = check_source(globals, text, filename)
        results.append(result)
        if result.error is not None:
            break
    return globals, results
