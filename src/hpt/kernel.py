"""The trusted core: evaluation to semantic values, readback, conversion,
and type checking of core declarations.

Evaluation is normalization by evaluation: terms evaluate into a semantic
domain (functions become closures, stuck eliminations become neutrals with
spines) and normal forms are read back from values. J applied to refl
reduces to its base argument. Defined globals unfold lazily: applying one
builds a glued value (VTop) that remembers the global and its spine, and
conversion first tries spine equality of same-named tops before falling
back to the unfolding, so neutral heads proper are only bound variables,
axioms, and unsolved metavariables.

A GlobalEnv is read-only once loaded; check_decl returns an extended
copy, so older environments stay valid.

A step budget (default 10**8) turns runaway evaluation of malformed input
into a BudgetExhausted error instead of a hang. It is charged once on every
closure application and every J elimination, which any divergent
computation must pass through; nothing is memoized, so a repeated
application is charged again. One budget is active at a time, held in a
module-level variable: `step_budget` installs a fresh one for a block, and
the driver opens one per declaration.

Readback memoizes per top-level call: a value reached twice at the same
depth is read back once, so the normal form shares that subterm in memory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass

from .core import (
    App,
    CoreDecl,
    CoreTerm,
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
    pretty,
)

DEFAULT_STEP_BUDGET = 10**8


class KernelError(Exception):
    pass


class BudgetExhausted(KernelError):
    def __init__(self) -> None:
        super().__init__("evaluation step budget exhausted")


class DuplicateName(KernelError):
    def __init__(self, name: str) -> None:
        super().__init__(f"duplicate global name {name!r}")


class KernelTypeError(KernelError):
    """A core term failed to check. `path` locates the offending subterm."""

    def __init__(
        self,
        path: tuple[str, ...],
        message: str,
        expected: CoreTerm | None = None,
        found: CoreTerm | None = None,
    ) -> None:
        detail = message
        if expected is not None:
            detail += f"\n  expected: {pretty(expected)}"
        if found is not None:
            detail += f"\n  found:    {pretty(found)}"
        where = "/".join(path) if path else "<root>"
        super().__init__(f"at {where}: {detail}")
        self.path = path
        self.message = message
        self.expected = expected
        self.found = found


class _Budget:
    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.remaining = limit


# The active budget; None outside every `step_budget` block.
_budget: _Budget | None = None


@contextmanager
def step_budget(limit: int | None = None) -> Iterator[_Budget]:
    """Install a fresh step budget of `limit` steps for the block and yield it.

    The limit defaults to that of the enclosing budget, or to
    DEFAULT_STEP_BUDGET when none is active. Steps taken inside the block are
    not charged to the enclosing budget.
    """
    global _budget
    outer = _budget
    if limit is None:
        limit = DEFAULT_STEP_BUDGET if outer is None else outer.limit
    _budget = _Budget(limit)
    try:
        yield _budget
    finally:
        _budget = outer


def _ensure_budget() -> AbstractContextManager:
    """A default step budget, unless one is already active."""
    return step_budget() if _budget is None else nullcontext()


def _tick() -> None:
    budget = _budget
    if budget is not None:
        budget.remaining -= 1
        if budget.remaining < 0:
            raise BudgetExhausted()


# ---------------------------------------------------------------------------
# Values


class Value:
    __slots__ = ()


class Head:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class HVar(Head):
    level: int


@dataclass(frozen=True, slots=True)
class HGlobal(Head):
    name: str


@dataclass(frozen=True, slots=True)
class HMeta(Head):
    id: int


class Elim:
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class EApp(Elim):
    arg: Value


@dataclass(frozen=True, eq=False, slots=True)
class EJ(Elim):
    """A stuck J elimination. The endpoint is carried for readback only;
    it is determined by the scrutinee, so conversion ignores it."""

    motive: Value
    base: Value
    endpoint: Value


class Closure:
    """A suspended body over a captured environment.

    Each application charges one budget step and evaluates the body in the
    environment extended by the argument. Results are not memoized.
    """

    __slots__ = ("env", "term", "globals", "metas")

    def __init__(
        self,
        env: tuple[Value, ...],
        term: CoreTerm,
        globals: "GlobalEnv",
        metas: object | None = None,
    ) -> None:
        self.env = env
        self.term = term
        self.globals = globals
        self.metas = metas

    def apply(self, v: Value) -> Value:
        _tick()
        return eval_term(self.env + (v,), self.globals, self.term, self.metas)


@dataclass(frozen=True, eq=False, slots=True)
class VLam(Value):
    hint: str
    closure: Closure
    domain: Value
    implicit: bool = False


@dataclass(frozen=True, eq=False, slots=True)
class VPi(Value):
    hint: str
    domain: Value
    closure: Closure
    implicit: bool = False


@dataclass(frozen=True, eq=False, slots=True)
class VType(Value):
    level: Level


@dataclass(frozen=True, eq=False, slots=True)
class VId(Value):
    type: Value
    lhs: Value
    rhs: Value


@dataclass(frozen=True, eq=False, slots=True)
class VRefl(Value):
    point: Value


@dataclass(frozen=True, eq=False, slots=True)
class VNeutral(Value):
    head: Head
    spine: tuple[Elim, ...] = ()


class VTop(Value):
    """A defined global applied to a spine, with its unfolding on demand.

    Conversion first tries spine equality of same-named tops and unfolds
    only as a fallback, which keeps corpus checking fast without affecting
    which terms are convertible.
    """

    __slots__ = ("name", "spine", "entry", "_forced")

    def __init__(self, name: str, spine: tuple[Elim, ...], entry: "GlobalEntry") -> None:
        self.name = name
        self.spine = spine
        self.entry = entry
        self._forced: Value | None = None

    def force(self) -> Value:
        v = self._forced
        if v is None:
            v = self._forced = force_top(apply_spine(self.entry.body_value, self.spine))
        return v


def force_top(v: Value) -> Value:
    """Unfold defined-global applications until a canonical shape appears."""
    while isinstance(v, VTop):
        v = v.force()
    return v


def fresh_var(depth: int) -> Value:
    return VNeutral(HVar(depth))


_IDENTITY_ENV: list[Value] = []


def identity_env(depth: int) -> list[Value]:
    """A new list of the fresh variables of levels 0 .. depth-1; the
    variables themselves are made once and shared."""
    while len(_IDENTITY_ENV) < depth:
        _IDENTITY_ENV.append(fresh_var(len(_IDENTITY_ENV)))
    return _IDENTITY_ENV[:depth]


# ---------------------------------------------------------------------------
# Global environment


@dataclass(frozen=True, eq=False, slots=True)
class GlobalEntry:
    name: str
    type_value: Value
    body_value: Value | None
    type_core: CoreTerm
    body_core: CoreTerm | None


class GlobalEnv:
    """Ordered map of checked declarations. Read-only after loading."""

    def __init__(self, entries: dict[str, GlobalEntry] | None = None) -> None:
        self._entries: dict[str, GlobalEntry] = dict(entries or {})

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> GlobalEntry | None:
        return self._entries.get(name)

    def extended(self, entry: GlobalEntry) -> "GlobalEnv":
        new = dict(self._entries)
        new[entry.name] = entry
        return GlobalEnv(new)


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(
    env: Sequence[Value], globals: GlobalEnv, t: CoreTerm, metas: object | None = None
) -> Value:
    # Exact-type tests, most frequent first; no term class is subclassed.
    tt = type(t)
    if tt is Var:
        return env[-1 - t.index]
    if tt is App:
        return apply_value(eval_term(env, globals, t.fn, metas), eval_term(env, globals, t.arg, metas))
    if tt is Lam:
        dom = eval_term(env, globals, t.ann, metas)
        return VLam(t.hint, Closure(tuple(env), t.body, globals, metas), dom, t.implicit)
    if tt is Refl:
        return VRefl(eval_term(env, globals, t.point, metas))
    if tt is Id:
        return VId(
            eval_term(env, globals, t.type, metas),
            eval_term(env, globals, t.lhs, metas),
            eval_term(env, globals, t.rhs, metas),
        )
    if tt is Global:
        entry = globals.get(t.name)
        if entry is None:
            raise KernelError(f"unknown global {t.name!r}")
        if entry.body_value is not None:
            return VTop(t.name, (), entry)
        return VNeutral(HGlobal(t.name))
    if tt is J:
        return j_apply(
            eval_term(env, globals, t.motive, metas),
            eval_term(env, globals, t.base, metas),
            eval_term(env, globals, t.endpoint, metas),
            eval_term(env, globals, t.path, metas),
        )
    if tt is Pi:
        dom = eval_term(env, globals, t.domain, metas)
        return VPi(t.hint, dom, Closure(tuple(env), t.codomain, globals, metas), t.implicit)
    if tt is Meta:
        if metas is not None:
            entry = metas.solution_entry(t.id)  # type: ignore[attr-defined]
            if entry is not None:
                d, term = entry
                # The solution is an open term over the meta's first
                # `d` binders; evaluate it under the env prefix.
                return eval_term(env[:d], globals, term, metas)
        return VNeutral(HMeta(t.id))
    if tt is Type:
        return VType(t.level)
    raise KernelError(f"cannot evaluate {t!r}")


def apply_value(f: Value, x: Value) -> Value:
    tf = type(f)
    if tf is VTop:
        return VTop(f.name, f.spine + (EApp(x),), f.entry)
    if tf is VLam:
        return f.closure.apply(x)
    if tf is VNeutral:
        return VNeutral(f.head, f.spine + (EApp(x),))
    raise KernelError("applied a non-function value (ill-typed input)")


def apply_spine(v: Value, spine: tuple[Elim, ...]) -> Value:
    """Replay a spine of eliminations on `v`, in order."""
    for elim in spine:
        if type(elim) is EApp:
            v = apply_value(v, elim.arg)
        else:
            v = j_apply(elim.motive, elim.base, elim.endpoint, v)
    return v


def j_apply(motive: Value, base: Value, endpoint: Value, path: Value) -> Value:
    _tick()
    # The beta decision needs the path's canonical shape, so a glued
    # global application is unfolded here.
    path = force_top(path)
    match path:
        case VRefl(_):
            return base
        case VNeutral(head, spine):
            return VNeutral(head, spine + (EJ(motive, base, endpoint),))
    raise KernelError("J applied to a non-path value (ill-typed input)")


# ---------------------------------------------------------------------------
# Readback


def readback(depth: int, v: Value, force: Callable[[Value], Value] | None = None) -> CoreTerm:
    """Read a value back to a beta-normal core term.

    `force`, if given, is applied to every value before it is read back:
    `normalize` passes `force_top` to unfold defined globals away (full
    normal forms), and the elaborator passes its meta resolution. Without
    it, glued global applications read back as the global applied to its
    spine.
    Eta-expansion is not performed here; conversion handles eta for Pi by
    comparing values applicatively.

    Results are memoized by depth and value identity (values hash and
    compare by identity) for the duration of this call, so a value reached
    twice is read back once and its normal form is shared.
    """
    memo: dict[int, dict[Value, CoreTerm]] = {}

    def rb(depth: int, v: Value) -> CoreTerm:
        seen = memo.get(depth)
        if seen is None:
            seen = memo[depth] = {}
        t = seen.get(v)
        if t is not None:
            return t
        w = v if force is None else force(v)
        tw = type(w)
        if tw is VNeutral:
            t = spine(depth, _readback_head(depth, w.head), w.spine)
        elif tw is VTop:
            t = spine(depth, Global(w.name), w.spine)
        elif tw is VLam:
            body = rb(depth + 1, w.closure.apply(fresh_var(depth)))
            t = Lam(w.hint, body, rb(depth, w.domain), w.implicit)
        elif tw is VId:
            t = Id(rb(depth, w.type), rb(depth, w.lhs), rb(depth, w.rhs))
        elif tw is VRefl:
            t = Refl(rb(depth, w.point))
        elif tw is VPi:
            cod = rb(depth + 1, w.closure.apply(fresh_var(depth)))
            t = Pi(w.hint, rb(depth, w.domain), cod, w.implicit)
        elif tw is VType:
            t = Type(w.level)
        else:
            raise KernelError(f"cannot read back {w!r}")
        seen[v] = t
        return t

    def spine(depth: int, t: CoreTerm, elims: tuple[Elim, ...]) -> CoreTerm:
        for elim in elims:
            if type(elim) is EApp:
                t = App(t, rb(depth, elim.arg))
            else:
                t = J(rb(depth, elim.motive), rb(depth, elim.base), rb(depth, elim.endpoint), t)
        return t

    return rb(depth, v)


def _readback_head(depth: int, head: Head) -> CoreTerm:
    match head:
        case HVar(lvl):
            return Var(depth - 1 - lvl)
        case HGlobal(name):
            return Global(name)
        case HMeta(i):
            return Meta(i)
    raise KernelError(f"bad head {head!r}")


# ---------------------------------------------------------------------------
# Conversion


def conv(depth: int, a: Value, b: Value) -> bool:
    """Definitional equality of two values of a common type."""
    if a is b:
        return True
    ta = type(a)
    tb = type(b)
    if ta is VTop:
        if tb is VTop and a.name == b.name and _conv_spines(depth, a.spine, b.spine):
            return True
        return conv(depth, a.force(), b.force() if tb is VTop else b)
    if tb is VTop:
        return conv(depth, a, b.force())
    if ta is VNeutral and tb is VNeutral:
        return a.head == b.head and _conv_spines(depth, a.spine, b.spine)
    if ta is VLam:
        if tb is not VLam and tb is not VNeutral:
            return False
        x = fresh_var(depth)
        return conv(depth + 1, a.closure.apply(x), apply_value(b, x))
    if tb is VLam:
        if ta is not VNeutral:
            return False
        x = fresh_var(depth)
        return conv(depth + 1, apply_value(a, x), b.closure.apply(x))
    if ta is not tb:
        return False
    if ta is VId:
        return conv(depth, a.type, b.type) and conv(depth, a.lhs, b.lhs) and conv(depth, a.rhs, b.rhs)
    if ta is VRefl:
        return conv(depth, a.point, b.point)
    if ta is VPi:
        if a.implicit != b.implicit or not conv(depth, a.domain, b.domain):
            return False
        x = fresh_var(depth)
        return conv(depth + 1, a.closure.apply(x), b.closure.apply(x))
    return ta is VType and a.level == b.level


def _conv_spines(depth: int, sp1: tuple[Elim, ...], sp2: tuple[Elim, ...]) -> bool:
    if len(sp1) != len(sp2):
        return False
    for e1, e2 in zip(sp1, sp2):
        kind = type(e1)
        if kind is not type(e2):
            return False
        if kind is EApp:
            if not conv(depth, e1.arg, e2.arg):
                return False
        # endpoints are determined by the shared scrutinee
        elif not (conv(depth, e1.motive, e2.motive) and conv(depth, e1.base, e2.base)):
            return False
    return True


# ---------------------------------------------------------------------------
# Type checking


def infer_type(
    ctx: list[Value], globals: GlobalEnv, t: CoreTerm, path: tuple[str, ...] = ()
) -> Value:
    """Infer the unique-up-to-conv type of a core term.

    `ctx` holds the types of the free variables (innermost last); the term
    is evaluated in the identity environment of fresh variables for them.
    """
    depth = len(ctx)
    env = identity_env(depth)

    match t:
        case Var(i):
            if i >= depth:
                raise KernelTypeError(path, f"unbound variable index {i}")
            return ctx[depth - 1 - i]
        case Global(name):
            entry = globals.get(name)
            if entry is None:
                raise KernelTypeError(path, f"unknown global {name!r}")
            return entry.type_value
        case Type(lvl):
            return VType(Level(lvl.index + 1))
        case Pi(_, dom, cod, _):
            i = _infer_universe(ctx, globals, dom, path + ("domain",))
            dom_v = eval_term(env, globals, dom)
            j = _infer_universe(ctx + [dom_v], globals, cod, path + ("codomain",))
            return VType(Level(max(i, j)))
        case Id(ty, l, r):
            i = _infer_universe(ctx, globals, ty, path + ("type",))
            ty_v = eval_term(env, globals, ty)
            _check_against(ctx, globals, l, ty_v, path + ("lhs",))
            _check_against(ctx, globals, r, ty_v, path + ("rhs",))
            return VType(Level(i))
        case Refl(p):
            pt = infer_type(ctx, globals, p, path + ("point",))
            pv = eval_term(env, globals, p)
            return VId(pt, pv, pv)
        case Lam(h, body, ann, imp):
            _infer_universe(ctx, globals, ann, path + ("annotation",))
            dom_v = eval_term(env, globals, ann)
            body_ty = infer_type(ctx + [dom_v], globals, body, path + ("body",))
            cod_core = readback(depth + 1, body_ty)
            return VPi(h, dom_v, Closure(tuple(env), cod_core, globals), imp)
        case App():
            # Flatten the application spine so an n-ary application infers
            # its head once instead of once per argument.
            spine: list[CoreTerm] = []
            head: CoreTerm = t
            while isinstance(head, App):
                spine.append(head.arg)
                head = head.fn
            spine.reverse()
            fty = infer_type(ctx, globals, head, path + ("fn",))
            for k, x in enumerate(spine):
                fty = force_top(fty)
                if not isinstance(fty, VPi):
                    raise KernelTypeError(
                        path, "applied a term whose type is not a function type",
                        found=readback(depth, fty),
                    )
                _check_against(ctx, globals, x, fty.domain, path + (f"arg{k}",))
                fty = fty.closure.apply(eval_term(env, globals, x))
            return fty
        case J(m, b, e, p):
            pty = force_top(infer_type(ctx, globals, p, path + ("path",)))
            if not isinstance(pty, VId):
                raise KernelTypeError(
                    path, "J scrutinee is not an identity proof", found=readback(depth, pty)
                )
            base_pt, end_v = pty.lhs, pty.rhs
            _check_against(ctx, globals, e, pty.type, path + ("endpoint",))
            ev = eval_term(env, globals, e)
            if not conv(depth, ev, end_v):
                raise KernelTypeError(
                    path + ("endpoint",),
                    "J endpoint does not match the path's right endpoint",
                    expected=readback(depth, end_v),
                    found=readback(depth, ev),
                )
            mty = force_top(infer_type(ctx, globals, m, path + ("motive",)))
            if not isinstance(mty, VPi):
                raise KernelTypeError(path + ("motive",), "J motive must be a two-argument function")
            if not conv(depth, mty.domain, pty.type):
                raise KernelTypeError(
                    path + ("motive",),
                    "J motive's first argument must range over the path's type",
                    expected=readback(depth, pty.type),
                    found=readback(depth, mty.domain),
                )
            x = fresh_var(depth)
            inner = force_top(mty.closure.apply(x))
            if not isinstance(inner, VPi):
                raise KernelTypeError(path + ("motive",), "J motive must be a two-argument function")
            want = VId(pty.type, base_pt, x)
            if not conv(depth + 1, inner.domain, want):
                raise KernelTypeError(
                    path + ("motive",),
                    "J motive's second argument must be a path from the base point",
                    expected=readback(depth + 1, want),
                    found=readback(depth + 1, inner.domain),
                )
            sort = force_top(inner.closure.apply(fresh_var(depth + 1)))
            if not isinstance(sort, VType):
                raise KernelTypeError(path + ("motive",), "J motive must land in a universe")
            mv = eval_term(env, globals, m)
            base_wanted = apply_value(apply_value(mv, base_pt), VRefl(base_pt))
            _check_value(ctx, globals, b, base_wanted, path + ("base",))
            pv = eval_term(env, globals, p)
            return apply_value(apply_value(mv, end_v), pv)
        case Meta(i):
            raise KernelTypeError(path, f"unsolved metavariable ?{i} reached the kernel")
    raise KernelTypeError(path, f"unrecognized term {t!r}")


def _infer_universe(
    ctx: list[Value], globals: GlobalEnv, t: CoreTerm, path: tuple[str, ...]
) -> int:
    ty = force_top(infer_type(ctx, globals, t, path))
    if not isinstance(ty, VType):
        raise KernelTypeError(path, "expected a type", found=readback(len(ctx), ty))
    return ty.level.index


def _check_against(
    ctx: list[Value],
    globals: GlobalEnv,
    t: CoreTerm,
    expected: Value,
    path: tuple[str, ...],
) -> None:
    """Check t against an expected type, descending through lambdas."""
    depth = len(ctx)
    expected = force_top(expected)
    if isinstance(t, Lam) and isinstance(expected, VPi):
        if t.implicit != expected.implicit:
            raise KernelTypeError(path, "binder plicity mismatch")
        _infer_universe(ctx, globals, t.ann, path + ("annotation",))
        ann_v = eval_term(identity_env(depth), globals, t.ann)
        if not conv(depth, ann_v, expected.domain):
            raise KernelTypeError(
                path + ("annotation",),
                "lambda annotation does not match expected domain",
                expected=readback(depth, expected.domain),
                found=readback(depth, ann_v),
            )
        body_ty = expected.closure.apply(fresh_var(depth))
        _check_against(ctx + [expected.domain], globals, t.body, body_ty, path + ("body",))
        return
    _check_value(ctx, globals, t, expected, path)


def _check_value(
    ctx: list[Value],
    globals: GlobalEnv,
    t: CoreTerm,
    expected: Value,
    path: tuple[str, ...],
) -> None:
    actual = infer_type(ctx, globals, t, path)
    depth = len(ctx)
    if not conv(depth, actual, expected):
        raise KernelTypeError(
            path,
            "type mismatch",
            expected=readback(depth, expected),
            found=readback(depth, actual),
        )


def check_decl(globals: GlobalEnv, d: CoreDecl) -> GlobalEnv:
    """Admit a declaration: its type must be a type and its body (if any)
    must check against it. Returns the extended environment."""
    if d.name in globals:
        raise DuplicateName(d.name)
    with _ensure_budget():
        _infer_universe([], globals, d.type, (d.name, "type"))
        ty_v = eval_term([], globals, d.type)
        body_v = None
        if d.body is not None:
            _check_against([], globals, d.body, ty_v, (d.name, "body"))
            body_v = eval_term([], globals, d.body)
    return globals.extended(GlobalEntry(d.name, ty_v, body_v, d.type, d.body))


def assert_defeq(globals: GlobalEnv, l: CoreTerm, r: CoreTerm, ty: CoreTerm) -> bool:
    """Do l and r check against ty and evaluate to convertible values?

    Raises KernelTypeError if either side fails to check; returns the
    conversion verdict otherwise.
    """
    with _ensure_budget():
        _infer_universe([], globals, ty, ("assert", "type"))
        ty_v = eval_term([], globals, ty)
        _check_against([], globals, l, ty_v, ("assert", "lhs"))
        _check_against([], globals, r, ty_v, ("assert", "rhs"))
        return conv(0, eval_term([], globals, l), eval_term([], globals, r))


def normalize(globals: GlobalEnv, t: CoreTerm) -> CoreTerm:
    """Full normal form of a well-typed closed term (defined globals unfolded)."""
    with _ensure_budget():
        return readback(0, eval_term([], globals, t), force=force_top)

