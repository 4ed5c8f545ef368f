"""The trusted core: evaluation to semantic values, readback, conversion,
and type checking of core declarations.

Evaluation is normalization by evaluation: terms evaluate into a semantic
domain (functions become closures, stuck eliminations become neutrals with
spines, a universe is its own `Type` node) and normal forms are read back
from values. J applied to refl reduces to its base argument. Defined globals
unfold lazily: applying one builds a glued value (VTop) that remembers the
global's entry and its spine, and conversion first tries spine equality of
tops of one entry before falling back to the unfolding, so a neutral head is
only a bound variable's level (an `int`), or the `Global` (axiom) or `Meta`
(unsolved) node it reads back to. A spine entry is an argument's value
itself, or an `EJ`. A solved `Meta` node carries its own solution, so
evaluation needs no meta store.

A GlobalEnv is read-only once loaded; check_decl returns an extended
copy, so older environments stay valid.

A step budget (default 10**8) turns runaway evaluation of malformed input
into a BudgetExhausted error instead of a hang. It is charged once on every
closure application, once on every argument a glued global's unfolding
binds in its body's λ prefix (`VTop.force`), and once on every J
elimination, which any divergent computation must pass through.
`Closure.apply` never memoizes, and a glued value unfolds once, charged to
the budget active then: every occurrence sharing it reuses that unfolding
uncharged. One budget is active at a time, held in a module-level variable:
`step_budget` installs a fresh one for a block, and the driver opens one
per declaration.

Values are hash-consed per block: each `step_budget` block has an intern
table, and evaluation builds its glued, neutral, path and `refl` values
(never a closure or an `EJ`) by looking each up there by class and parts, so
equal values built from the same parts are one object, and conversion,
unification, readback's memo and a shared unfolding answer by identity,
which is only ever a shortcut. `check_decl`, `assert_defeq` and `normalize`
start a table of their own, so the kernel never reaches a value the
elaborator built. Outside every block values are built plain.

Readback memoizes per top-level call: a value reached twice at the same
depth is read back once, so the normal form shares that subterm in memory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass

from .core import (
    App,
    CoreDecl,
    CoreTerm,
    Global,
    Id,
    J,
    Lam,
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


class _Budget:
    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.remaining = limit


# The active budget and intern table; None outside every block.
_budget: _Budget | None = None
_table: dict[tuple, Value] | None = None

# A table is emptied at this many values: a huge declaration keeps only recent ones alive.
TABLE_LIMIT = 1 << 12


@contextmanager
def _block(budget: _Budget) -> Iterator[_Budget]:
    """Make `budget` and a fresh intern table the active ones for the block."""
    global _budget, _table
    outer = _budget, _table
    _budget, _table = budget, {}
    try:
        yield budget
    finally:
        _budget, _table = outer


def step_budget(limit: int | None = None) -> AbstractContextManager[_Budget]:
    """Install a fresh step budget of `limit` steps and a fresh intern table
    for the block, and yield the budget.

    The limit defaults to that of the enclosing budget, or to
    DEFAULT_STEP_BUDGET when none is active. Steps taken inside the block are
    not charged to the enclosing budget.
    """
    if limit is None:
        limit = DEFAULT_STEP_BUDGET if _budget is None else _budget.limit
    return _block(_Budget(limit))


def clear_table() -> None:
    """Empty the active intern table, so later values are built afresh."""
    if _table is not None:
        _table.clear()


def _tick(steps: int = 1) -> None:
    budget = _budget
    if budget is not None:
        budget.remaining -= steps
        if budget.remaining < 0:
            raise BudgetExhausted()


# ---------------------------------------------------------------------------
# Values: unfrozen records, so built by plain slot stores, immutable by
# convention; `==` and `hash` are identity, which readback's memo keys on.
# Evaluation interns its glued, neutral, path and `refl` values (`_value`).


class Value:
    __slots__ = ()


@dataclass(eq=False, slots=True)
class EJ:
    """A stuck J elimination in a spine, where every other entry is the
    value of an argument. Its endpoint, fixed by the scrutinee and so ignored
    by conversion, is read back and read by `elab.universe_of`."""

    motive: Value
    base: Value
    endpoint: Value


class Closure:
    """A suspended body over a captured environment.

    Each application charges one budget step and evaluates the body in the
    environment extended by the argument. `apply` never memoizes.
    `VTop.force` binds a λ prefix without `apply`, charging the same step
    per argument.
    """

    __slots__ = ("env", "term", "globals")

    def __init__(self, env: tuple[Value, ...], term: CoreTerm, globals: "GlobalEnv") -> None:
        self.env = env
        self.term = term
        self.globals = globals

    def apply(self, v: Value) -> Value:
        _tick()
        return eval_term(self.env + (v,), self.globals, self.term)

    def reads_binder(self) -> bool:
        """May the body read its argument? A meta's solution may name the
        binder unseen by `free`, so a body holding a meta counts as reading it."""
        return bool(self.term.free & 1) or self.term.has_meta

    def apply_arg(self, env: Sequence[Value], globals: "GlobalEnv", arg: CoreTerm) -> Value:
        """Apply to `arg`'s value in `env`, evaluated only if the body may read it."""
        return self.apply(eval_term(env, globals, arg) if self.reads_binder() else UNUSED)


@dataclass(eq=False, slots=True)
class VLam(Value):
    hint: str
    closure: Closure
    domain: Value
    implicit: bool = False


@dataclass(eq=False, slots=True)
class VPi(Value):
    hint: str
    domain: Value
    closure: Closure
    implicit: bool = False


@dataclass(eq=False, slots=True)
class VId(Value):
    type: Value
    lhs: Value
    rhs: Value


@dataclass(eq=False, slots=True)
class VRefl(Value):
    point: Value


@dataclass(eq=False, slots=True)
class VNeutral(Value):
    """A head, a bound variable's level or the `Global`/`Meta` node readback
    returns as it is, under a spine of argument values and `EJ`s, in order."""

    head: int | Global | Meta
    spine: tuple[Value | EJ, ...] = ()


class VTop(Value):
    """A defined global, as its entry, applied to arguments; unfolds on demand.

    Conversion first tries spine equality of tops of one entry and unfolds
    only as a fallback, which keeps corpus checking fast without affecting
    which terms are convertible.
    """

    __slots__ = ("spine", "entry", "_forced")

    def __init__(self, spine: tuple[Value, ...], entry: "GlobalEntry") -> None:
        self.spine = spine
        self.entry = entry
        self._forced: Value | None = None

    def force(self) -> Value:
        """The body applied to the spine, unfolded to a canonical shape. A λ
        body's closure env is extended by every argument its λ prefix binds,
        one budget step each, and the inner body evaluated once; `apply_spine`
        replays the rest of the spine."""
        v = self._forced
        if v is None:
            body, spine = self.entry.body_value, self.spine
            if type(body) is VLam and spine:
                c = body.closure
                t, k = c.term, 1
                while type(t) is Lam and k < len(spine):
                    t, k = t.body, k + 1
                _tick(k)
                body, spine = eval_term(c.env + spine[:k], c.globals, t), spine[k:]
            v = self._forced = force_top(apply_spine(body, spine))
        return v


def _value(key: tuple, *fields: object) -> Value:
    """The value of class `key[0]` with `fields`; in a block, the one the
    table holds under `key`, the class and parts, built on a miss."""
    table = _table
    if table is None:
        return key[0](*fields)
    v = table.get(key)
    if v is None:
        if len(table) >= TABLE_LIMIT:
            table.clear()
        v = table[key] = key[0](*fields)
    return v


def _neutral(head: int | Global | Meta, spine: tuple[Value | EJ, ...] = ()) -> Value:
    # a head by level, by name (as `conv` compares it), or a meta by identity
    th = type(head)
    return _value((VNeutral, head if th is int else head.name if th is Global else (id(head),), spine),
                  head, spine)


def _top(spine: tuple[Value, ...], entry: "GlobalEntry") -> Value:
    return _value((VTop, entry, spine), spine, entry)


def force_top(v: Value) -> Value:
    """Unfold defined-global applications until a canonical shape appears."""
    while type(v) is VTop:
        v = v.force()
    return v


_IDENTITY_ENV: list[Value] = []


def fresh_var(depth: int) -> Value:
    """The variable of level `depth`, made once and shared by every table."""
    while len(_IDENTITY_ENV) <= depth:
        _IDENTITY_ENV.append(VNeutral(len(_IDENTITY_ENV)))
    return _IDENTITY_ENV[depth]


# The argument given to a closure whose body never reads its binder; readback
# would print it as `<unused>`.
UNUSED = VNeutral(Global("<unused>"))


def identity_env(depth: int) -> list[Value]:
    """A new list of the shared variables of levels 0 .. depth-1."""
    fresh_var(depth)
    return _IDENTITY_ENV[:depth]


# ---------------------------------------------------------------------------
# Global environment


@dataclass(eq=False, slots=True)
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


def eval_term(env: Sequence[Value], globals: GlobalEnv, t: CoreTerm) -> Value:
    # Exact-type tests, most frequent first; no term class is subclassed.
    tt = type(t)
    if tt is Var:
        return env[-1 - t.index]
    if tt is App:
        # The whole spine at once: the head, then the arguments in order.
        terms = []
        while type(t) is App:
            terms.append(t.arg)
            t = t.fn
        f = eval_term(env, globals, t)
        args = []
        for a in reversed(terms):
            args.append(env[-1 - a.index] if type(a) is Var else eval_term(env, globals, a))
        if type(f) is VTop:
            return _top(f.spine + tuple(args), f.entry)
        if type(f) is VNeutral:
            return _neutral(f.head, f.spine + tuple(args))
        for x in args:
            f = apply_value(f, x)
        return f
    if tt is Lam:
        dom = env[-1 - t.ann.index] if type(t.ann) is Var else eval_term(env, globals, t.ann)
        return VLam(t.hint, Closure(tuple(env), t.body, globals), dom, t.implicit)
    if tt is Refl:
        p = env[-1 - t.point.index] if type(t.point) is Var else eval_term(env, globals, t.point)
        return _value((VRefl, p), p)
    if tt is Id:
        a, l, r = t.type, t.lhs, t.rhs
        a = env[-1 - a.index] if type(a) is Var else eval_term(env, globals, a)
        l = env[-1 - l.index] if type(l) is Var else eval_term(env, globals, l)
        r = env[-1 - r.index] if type(r) is Var else eval_term(env, globals, r)
        return _value((VId, a, l, r), a, l, r)
    if tt is Global:
        entry = globals.get(t.name)
        if entry is None:
            raise KernelError(f"unknown global {t.name!r}")
        if entry.body_value is not None:
            return _top((), entry)
        return _neutral(t)
    if tt is J:
        return j_apply(
            eval_term(env, globals, t.motive),
            eval_term(env, globals, t.base),
            eval_term(env, globals, t.endpoint),
            eval_term(env, globals, t.path),
        )
    if tt is Pi:
        dom = env[-1 - t.domain.index] if type(t.domain) is Var else eval_term(env, globals, t.domain)
        return VPi(t.hint, dom, Closure(tuple(env), t.codomain, globals), t.implicit)
    if tt is Meta:
        if t.solution is None:
            return _neutral(t)
        # The solution is an open term over the meta's first `depth`
        # binders; evaluate it under the env prefix.
        return eval_term(env[:t.depth], globals, t.solution)
    if tt is Type:
        return t
    raise KernelError(f"cannot evaluate {t!r}")


def apply_value(f: Value, x: Value) -> Value:
    tf = type(f)
    if tf is VTop:
        return _top(f.spine + (x,), f.entry)
    if tf is VLam:
        return f.closure.apply(x)
    if tf is VNeutral:
        return _neutral(f.head, f.spine + (x,))
    raise KernelError("applied a non-function value (ill-typed input)")


def apply_spine(v: Value, spine: tuple[Value | EJ, ...]) -> Value:
    """Replay a spine of eliminations on `v`, in order."""
    for e in spine:
        if type(e) is EJ:
            v = j_apply(e.motive, e.base, e.endpoint, v)
        else:
            v = apply_value(v, e)
    return v


def j_apply(motive: Value, base: Value, endpoint: Value, path: Value) -> Value:
    _tick()
    # The beta decision needs the path's canonical shape, so a glued
    # global application is unfolded here.
    path = force_top(path)
    if type(path) is VRefl:
        return base
    if type(path) is VNeutral:
        return VNeutral(path.head, path.spine + (EJ(motive, base, endpoint),))
    raise KernelError("J applied to a non-path value (ill-typed input)")


# ---------------------------------------------------------------------------
# Readback


def readback(depth: int, v: Value, force: Callable[[Value], Value] | None = None) -> CoreTerm:
    """Read a value back to a beta-normal core term (η is left to `conv`).

    `force`, if given, is applied to every value but a `VRefl` or `VId`, which
    no hook changes, before it is read back: `normalize` passes `force_top` to
    unfold defined globals away (full normal forms), and the elaborator passes
    its meta resolution. Without it, a glued global application reads back as
    the global applied to its spine.

    Results are memoized by depth and value identity for the call, so a value
    reached twice is read back once and its normal form is shared. Without
    `force_top`, nodes are built by their constructors. With it, `nodes`
    hash-conses the output for the call, each node looked up by its class,
    scalar fields and children's ids before it is built, so equal subterms
    are one object and every node built is kept. Both per-call tables are
    freed by reference count when the call returns or raises: no reference
    cycle outlives it for the collector.
    """
    memo: dict[int, dict[Value, CoreTerm]] = {}
    nodes = {} if force is force_top else None

    def node(key: tuple, *fields: object) -> CoreTerm:
        """The node of class `key[0]` with `fields`, built on a miss."""
        t = nodes.get(key)
        if t is None:
            t = nodes[key] = key[0](*fields)
        return t

    def rb(depth: int, v: Value) -> CoreTerm:
        seen = memo.get(depth)
        if seen is None:
            seen = memo[depth] = {}
        t = seen.get(v)
        if t is not None:
            return t
        w = v if force is None or type(v) is VRefl or type(v) is VId else force(v)
        tw = type(w)
        if tw is VRefl:
            p = rb(depth, w.point)
            t = Refl(p) if nodes is None else node((Refl, id(p)), p)
        elif tw is VId:
            a, l, r = rb(depth, w.type), rb(depth, w.lhs), rb(depth, w.rhs)
            t = Id(a, l, r) if nodes is None else node((Id, id(a), id(l), id(r)), a, l, r)
        elif tw is VNeutral or tw is VTop:
            h = w.head if tw is VNeutral else Global(w.entry.name)
            if type(h) is int:
                h = Var(depth - 1 - h) if nodes is None else node((Var, depth - 1 - h), depth - 1 - h)
            elif nodes is not None and type(h) is Global:
                h = node((Global, h.name), h.name)
            t = spine(depth, h, w.spine)
        elif tw is VLam:
            body, ann = rb(depth + 1, w.closure.apply(fresh_var(depth))), rb(depth, w.domain)
            t = (Lam(w.hint, body, ann, w.implicit) if nodes is None else
                 node((Lam, w.hint, id(body), id(ann), w.implicit), w.hint, body, ann, w.implicit))
        elif tw is VPi:
            cod, dom = rb(depth + 1, w.closure.apply(fresh_var(depth))), rb(depth, w.domain)
            t = (Pi(w.hint, dom, cod, w.implicit) if nodes is None else
                 node((Pi, w.hint, id(dom), id(cod), w.implicit), w.hint, dom, cod, w.implicit))
        elif tw is Type:
            t = w if nodes is None else node((Type, w.level), w.level)
        else:
            raise KernelError(f"cannot read back {w!r}")
        seen[v] = t
        return t

    def spine(depth: int, t: CoreTerm, entries: tuple[Value | EJ, ...]) -> CoreTerm:
        for e in entries:
            if type(e) is EJ:
                m, b, x = rb(depth, e.motive), rb(depth, e.base), rb(depth, e.endpoint)
                t = J(m, b, x, t) if nodes is None else node((J, id(m), id(b), id(x), id(t)), m, b, x, t)
            else:
                a = rb(depth, e)
                t = App(t, a) if nodes is None else node((App, id(t), id(a)), t, a)
        return t

    try:
        return rb(depth, v)
    finally:
        del rb, spine  # each names the other: clearing the cells frees the tables by refcount


# ---------------------------------------------------------------------------
# Conversion


def conv(depth: int, a: Value, b: Value) -> bool:
    """Definitional equality of two values of a common type."""
    if a is b:
        return True
    ta = type(a)
    tb = type(b)
    if ta is VTop:
        if tb is VTop and a.entry is b.entry and _conv_spines(depth, a.spine, b.spine):
            return True
        return conv(depth, a.force(), b.force() if tb is VTop else b)
    if tb is VTop:
        return conv(depth, a, b.force())
    if ta is VNeutral and tb is VNeutral:
        return (a.head is b.head or a.head == b.head) and _conv_spines(depth, a.spine, b.spine)
    if ta is VLam or tb is VLam:
        # eta: a neutral is compared with a lambda applicatively
        if ta is not tb and (tb if ta is VLam else ta) is not VNeutral:
            return False
        x = fresh_var(depth)
        return conv(depth + 1, apply_value(a, x), apply_value(b, x))
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
    return ta is Type and a.level == b.level


def _conv_spines(depth: int, sp1: tuple[Value | EJ, ...], sp2: tuple[Value | EJ, ...]) -> bool:
    if len(sp1) != len(sp2):
        return False
    for e1, e2 in zip(sp1, sp2):
        if type(e1) is EJ:
            # endpoints are determined by the shared scrutinee
            if not (type(e2) is EJ and conv(depth, e1.motive, e2.motive) and conv(depth, e1.base, e2.base)):
                return False
        # two arguments are compared by conversion, whatever their value classes
        elif type(e2) is EJ or not conv(depth, e1, e2):
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
    # Exact-type tests, most frequent first; only evaluating cases build an env.
    depth = len(ctx)
    tt = type(t)
    if tt is Var:
        i = t.index
        if i >= depth:
            raise KernelTypeError(path, f"unbound variable index {i}")
        return ctx[depth - 1 - i]
    if tt is Refl:
        pt = infer_type(ctx, globals, t.point, path + ("point",))
        # `Refl(q)` evaluates to VRefl of q's endpoint: a chain evaluates one point
        pv = (_value((VRefl, pt.lhs), pt.lhs) if type(t.point) is Refl
              else eval_term(identity_env(depth), globals, t.point))
        return _value((VId, pt, pv, pv), pt, pv, pv)
    if tt is Global:
        entry = globals.get(t.name)
        if entry is None:
            raise KernelTypeError(path, f"unknown global {t.name!r}")
        return entry.type_value
    if tt is App:
        # Flatten the application spine: errors name the k-th argument
        # `arg{k}`, and a long application adds no recursion depth.
        spine: list[CoreTerm] = []
        head: CoreTerm = t
        while type(head) is App:
            spine.append(head.arg)
            head = head.fn
        spine.reverse()
        fty = infer_type(ctx, globals, head, path + ("fn",))
        env = identity_env(depth)
        for k, x in enumerate(spine):
            fty = force_top(fty)
            if type(fty) is not VPi:
                raise KernelTypeError(
                    path, "applied a term whose type is not a function type",
                    found=readback(depth, fty),
                )
            _check_against(ctx, globals, x, fty.domain, path + (f"arg{k}",))
            fty = fty.closure.apply_arg(env, globals, x)
        return fty
    if tt is Id:
        i = _infer_universe(ctx, globals, t.type, path + ("type",))
        ty_v = eval_term(identity_env(depth), globals, t.type)
        _check_against(ctx, globals, t.lhs, ty_v, path + ("lhs",))
        _check_against(ctx, globals, t.rhs, ty_v, path + ("rhs",))
        return Type(i)
    if tt is Pi:
        i = _infer_universe(ctx, globals, t.domain, path + ("domain",))
        dom_v = eval_term(identity_env(depth), globals, t.domain)
        j = _infer_universe(ctx + [dom_v], globals, t.codomain, path + ("codomain",))
        return Type(max(i, j))
    if tt is Lam:
        _infer_universe(ctx, globals, t.ann, path + ("annotation",))
        env = identity_env(depth)
        dom_v = eval_term(env, globals, t.ann)
        body_ty = infer_type(ctx + [dom_v], globals, t.body, path + ("body",))
        cod_core = readback(depth + 1, body_ty)
        return VPi(t.hint, dom_v, Closure(tuple(env), cod_core, globals), t.implicit)
    if tt is Type:
        return Type(t.level + 1)
    if tt is J:
        env = identity_env(depth)
        pty = force_top(infer_type(ctx, globals, t.path, path + ("path",)))
        if type(pty) is not VId:
            raise KernelTypeError(
                path, "J scrutinee is not an identity proof", found=readback(depth, pty)
            )
        base_pt, end_v = pty.lhs, pty.rhs
        _check_against(ctx, globals, t.endpoint, pty.type, path + ("endpoint",))
        _require_conv(depth, eval_term(env, globals, t.endpoint), end_v, path + ("endpoint",),
                      "J endpoint does not match the path's right endpoint")
        mty = force_top(infer_type(ctx, globals, t.motive, path + ("motive",)))
        if type(mty) is not VPi:
            raise KernelTypeError(path + ("motive",), "J motive must be a two-argument function")
        _require_conv(depth, mty.domain, pty.type, path + ("motive",),
                      "J motive's first argument must range over the path's type")
        x = fresh_var(depth)
        inner = force_top(mty.closure.apply(x))
        if type(inner) is not VPi:
            raise KernelTypeError(path + ("motive",), "J motive must be a two-argument function")
        _require_conv(depth + 1, inner.domain, _value((VId, pty.type, base_pt, x), pty.type, base_pt, x),
                      path + ("motive",), "J motive's second argument must be a path from the base point")
        sort = force_top(inner.closure.apply(fresh_var(depth + 1)))
        if type(sort) is not Type:
            raise KernelTypeError(path + ("motive",), "J motive must land in a universe")
        mv = eval_term(env, globals, t.motive)
        base_wanted = apply_value(apply_value(mv, base_pt), _value((VRefl, base_pt), base_pt))
        base_ty = infer_type(ctx, globals, t.base, path + ("base",))
        _require_conv(depth, base_ty, base_wanted, path + ("base",), "type mismatch")
        pv = eval_term(env, globals, t.path)
        return apply_value(apply_value(mv, end_v), pv)
    if tt is Meta:
        raise KernelTypeError(path, f"unsolved metavariable ?{t.id} reached the kernel")
    raise KernelTypeError(path, f"unrecognized term {t!r}")


def _infer_universe(
    ctx: list[Value], globals: GlobalEnv, t: CoreTerm, path: tuple[str, ...]
) -> int:
    ty = force_top(infer_type(ctx, globals, t, path))
    if type(ty) is not Type:
        raise KernelTypeError(path, "expected a type", found=readback(len(ctx), ty))
    return ty.level


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
    if type(t) is Lam and type(expected) is VPi:
        if t.implicit != expected.implicit:
            raise KernelTypeError(path, "binder plicity mismatch")
        _infer_universe(ctx, globals, t.ann, path + ("annotation",))
        ann_v = eval_term(identity_env(depth), globals, t.ann)
        _require_conv(depth, ann_v, expected.domain, path + ("annotation",),
                      "lambda annotation does not match expected domain")
        body_ty = expected.closure.apply(fresh_var(depth))
        _check_against(ctx + [expected.domain], globals, t.body, body_ty, path + ("body",))
        return
    _require_conv(depth, infer_type(ctx, globals, t, path), expected, path, "type mismatch")


def _require_conv(
    depth: int, found: Value, expected: Value, path: tuple[str, ...], message: str
) -> None:
    """Raise a KernelTypeError showing both values unless they are convertible."""
    if not conv(depth, found, expected):
        raise KernelTypeError(
            path, message, expected=readback(depth, expected), found=readback(depth, found)
        )


def check_decl(globals: GlobalEnv, d: CoreDecl) -> GlobalEnv:
    """Admit a declaration: its type must be a type and its body (if any)
    must check against it. Returns the extended environment."""
    if d.name in globals:
        raise DuplicateName(d.name)
    with _block(_budget or _Budget(DEFAULT_STEP_BUDGET)):
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
    with _block(_budget or _Budget(DEFAULT_STEP_BUDGET)):
        _infer_universe([], globals, ty, ("assert", "type"))
        ty_v = eval_term([], globals, ty)
        _check_against([], globals, l, ty_v, ("assert", "lhs"))
        _check_against([], globals, r, ty_v, ("assert", "rhs"))
        return conv(0, eval_term([], globals, l), eval_term([], globals, r))


def normalize(globals: GlobalEnv, t: CoreTerm) -> CoreTerm:
    """Full normal form of a well-typed closed term (defined globals unfolded)."""
    with _block(_budget or _Budget(DEFAULT_STEP_BUDGET)):
        return readback(0, eval_term([], globals, t), force=force_top)

