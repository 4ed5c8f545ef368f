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
(unsolved) node it reads back to. A solved `Meta` node carries its own
solution, so evaluation needs no meta store. Checking yields values: the
checker returns each term's value with its type, built from its children's
values once its own checks have passed, so no checked term is evaluated again.

A GlobalEnv is read-only once loaded; check_decl returns an extended
copy, so older environments stay valid.

A step budget (default 10**8) turns runaway evaluation of malformed input
into a BudgetExhausted error instead of a hang. It is charged once on every
closure application, once on every argument a glued global's unfolding
binds in its body's λ prefix (`VTop.force`), and once on every J
elimination, which any divergent computation must pass through; the checker
charges a J's or a β-redex's steps when it builds its value, after its checks.
`Closure.apply` never memoizes, and a glued value unfolds once, charged to
the budget active then: every occurrence sharing it reuses that unfolding
uncharged. The budget is a block's, and one block is active at a time:
`step_budget` installs a fresh one, and the driver opens one per declaration.

Values are hash-consed per block: evaluation builds its glued, neutral, path
and `refl` values (never a closure or an `EJ`) by looking each up in the
active block's intern table by class and parts, so equal values built from
the same parts are one object, and conversion, unification, readback's memo
and a shared unfolding answer by identity, which is only ever a shortcut.
`check_decl`, `assert_defeq`, `normalize` and `infer_type` empty that table
first (outside every block they open one), so the kernel reaches no value
the elaborator built but a variable or an argument-free axiom, one object in
every table. Outside every block, other code builds values plain.

Readback memoizes per top-level call: a value reached twice at the same
depth is read back once. Its output is hash-consed per block: every node is
looked up in the block's node table by class, scalar fields and children's
ids, so equal subterms of all of a block's readbacks, such as a
declaration's quotes in the elaborator, are one object, and a meta-free core
the elaborator builds from them is a DAG. Nodes built elsewhere keep their
own identity.

The checker memoizes per entry point: in a block, `_infer` of an
application, identity type or `refl` whose free variables are in scope is
computed once per node object, depth and context entries those variables
name, and each later occurrence takes the stored type and value. A hit
charges no budget steps. The memo lives in the block and is emptied by
each entry point, so it never outlives one set of globals.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

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


class _Block:
    # the step limit, the steps left, the intern table, readback's node table, the checker's memo
    __slots__ = ("limit", "remaining", "table", "nodes", "memo")

    def __init__(self, limit: int) -> None:
        self.limit = self.remaining = limit
        self.table: dict[tuple, Value] = {}
        self.nodes: dict[tuple, CoreTerm] = {}
        self.memo: dict[tuple, tuple[CoreTerm, Value, Value]] = {}


# The active block, with its step budget, tables and memo; None outside every block.
_active: _Block | None = None

# A table is emptied at this many values: a huge declaration keeps only recent ones alive.
TABLE_LIMIT = 1 << 12


@contextmanager
def step_budget(limit: int | None = None) -> Iterator[_Block]:
    """Make a block of `limit` steps, with fresh tables and memo, the active
    one for the `with` body, and yield it. The limit defaults to the
    enclosing block's, or to DEFAULT_STEP_BUDGET outside every block; steps
    taken inside are not charged to the enclosing block."""
    global _active
    outer = _active
    if limit is None:
        limit = DEFAULT_STEP_BUDGET if outer is None else outer.limit
    block = _active = _Block(limit)
    try:
        yield block
    finally:
        _active = outer


def clear_table() -> None:
    """Empty the active block's intern table, so later values are built afresh."""
    if _active is not None:
        _active.table.clear()


def _entry() -> AbstractContextManager[_Block]:
    """An entry point's block: the active one with its table and memo emptied, else a fresh one."""
    if _active is None:
        return step_budget()
    clear_table()
    _active.memo.clear()
    return nullcontext(_active)


def _tick(steps: int = 1) -> None:
    block = _active
    if block is not None:
        block.remaining -= steps
        if block.remaining < 0:
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
    block = _active
    if block is None:
        return key[0](*fields)
    table = block.table
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


_AXIOMS: dict[str, Value] = {}


def _axiom(g: Global) -> Value:
    """The neutral of an argument-free axiom, made once and shared by every table."""
    v = _AXIOMS.get(g.name)
    return v if v is not None else _AXIOMS.setdefault(g.name, VNeutral(g))


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
        return _apply_all(f, tuple(args))
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
        return _top((), entry) if entry.body_value is not None else _axiom(t)
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


def _apply_all(f: Value, args: tuple[Value, ...]) -> Value:
    """`f` applied to `args`: one glued or neutral value, or one β-step per argument."""
    if type(f) is VTop:
        return _top(f.spine + args, f.entry)
    if type(f) is VNeutral:
        return _neutral(f.head, f.spine + args)
    for x in args:
        f = apply_value(f, x)
    return f


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
    reached twice is read back once. The output is hash-consed: each node is
    looked up by its class, scalar fields (`Lam.ann` included) and children's
    ids in the active block's node table, or in a table of the call's own
    outside every block, before it is built. So equal subterms are one object
    across every readback of a block, such as all of a declaration's quotes,
    and each node built is kept for the block. An unsolved `Meta` head is
    returned as it is. The call's own tables are freed by reference count
    when it returns or raises: no reference cycle outlives it for the
    collector.
    """
    memo: dict[int, dict[Value, CoreTerm]] = {}
    nodes = {} if _active is None else _active.nodes

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
            t = node((Refl, id(p)), p)
        elif tw is VId:
            a, l, r = rb(depth, w.type), rb(depth, w.lhs), rb(depth, w.rhs)
            t = node((Id, id(a), id(l), id(r)), a, l, r)
        elif tw is VNeutral or tw is VTop:
            h = w.head if tw is VNeutral else w.entry
            th = type(h)
            if th is int:
                h = node((Var, depth - 1 - h), depth - 1 - h)
            elif th is not Meta:
                h = node((Global, h.name), h.name)
            t = spine(depth, h, w.spine)
        elif tw is VLam:
            body, ann = rb(depth + 1, w.closure.apply(fresh_var(depth))), rb(depth, w.domain)
            t = node((Lam, w.hint, id(body), id(ann), w.implicit), w.hint, body, ann, w.implicit)
        elif tw is VPi:
            cod, dom = rb(depth + 1, w.closure.apply(fresh_var(depth))), rb(depth, w.domain)
            t = node((Pi, w.hint, id(dom), id(cod), w.implicit), w.hint, dom, cod, w.implicit)
        elif tw is Type:
            t = node((Type, w.level), w.level)
        else:
            raise KernelError(f"cannot read back {w!r}")
        seen[v] = t
        return t

    def spine(depth: int, t: CoreTerm, entries: tuple[Value | EJ, ...]) -> CoreTerm:
        for e in entries:
            if type(e) is EJ:
                m, b, x = rb(depth, e.motive), rb(depth, e.base), rb(depth, e.endpoint)
                t = node((J, id(m), id(b), id(x), id(t)), m, b, x, t)
            else:
                a = rb(depth, e)
                t = node((App, id(t), id(a)), t, a)
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


def infer_type(ctx: list[Value], globals: GlobalEnv, t: CoreTerm, path: tuple[str, ...] = ()) -> Value:
    """Infer the unique-up-to-conv type of a core term.

    `ctx` holds the types of the free variables (innermost last); the term
    is evaluated in the identity environment of fresh variables for them.
    """
    with _entry():
        return _infer(ctx, globals, t, path)[0]


# The node classes `_infer` memoizes. No λ, Π or J node of the corpus recurs
# under one context, so their memo entries would never be taken.
_MEMOIZED = frozenset((App, Refl, Id))


@lru_cache(maxsize=TABLE_LIMIT)
def _reader(free: int) -> Callable[[list[Value]], object]:
    """The reader of the context entries that the free indices in the mask `free` name."""
    indices = [-1 - i for i in range(free.bit_length()) if free >> i & 1]
    return itemgetter(*indices) if indices else lambda ctx: ()


def _infer(ctx: list[Value], globals: GlobalEnv, t: CoreTerm, path: tuple[str, ...]) -> tuple[Value, Value]:
    """The type of `t` and its value, which each case builds from its checked
    children's values only once its own checks have passed.

    In a block, an application, identity type or `refl` whose free variables
    are in scope is checked once per depth and context entries those
    variables name: the block's memo keeps its type and value under that
    key, and a later occurrence takes them, charging no steps."""
    # Exact-type tests, most frequent first.
    depth = len(ctx)
    tt = type(t)
    if tt is Var:
        i = t.index
        if i >= depth:
            raise KernelTypeError(path, f"unbound variable index {i}")
        return ctx[depth - 1 - i], fresh_var(depth - 1 - i)
    if tt is Global:
        entry = globals.get(t.name)
        if entry is None:
            raise KernelTypeError(path, f"unknown global {t.name!r}")
        return entry.type_value, _top((), entry) if entry.body_value is not None else _axiom(t)
    block, key = _active, None
    if block is not None and tt in _MEMOIZED and not t.free >> depth:
        # The node by identity, kept alive by its entry; each named context entry as it is.
        key = (id(t), depth, _reader(t.free)(ctx))
        hit = block.memo.get(key)
        if hit is not None:
            return hit[1], hit[2]
    if tt is Refl:
        pt, pv = _infer(ctx, globals, t.point, path + ("point",))
        ty, v = _value((VId, pt, pv, pv), pt, pv, pv), _value((VRefl, pv), pv)
    elif tt is App:
        # Flatten the application spine: errors name the k-th argument
        # `arg{k}`, and a long application adds no recursion depth.
        spine: list[CoreTerm] = []
        head: CoreTerm = t
        while type(head) is App:
            spine.append(head.arg)
            head = head.fn
        spine.reverse()
        fty, f = _infer(ctx, globals, head, path + ("fn",))
        args = []
        for k, x in enumerate(spine):
            fty = force_top(fty)
            if type(fty) is not VPi:
                raise KernelTypeError(
                    path, "applied a term whose type is not a function type",
                    found=readback(depth, fty),
                )
            args.append(_check_against(ctx, globals, x, fty.domain, path + (f"arg{k}",)))
            fty = fty.closure.apply(args[-1])
        ty, v = fty, _apply_all(f, tuple(args))
    elif tt is Id:
        i, ty_v = _infer_universe(ctx, globals, t.type, path + ("type",))
        l = _check_against(ctx, globals, t.lhs, ty_v, path + ("lhs",))
        r = _check_against(ctx, globals, t.rhs, ty_v, path + ("rhs",))
        ty, v = Type(i), _value((VId, ty_v, l, r), ty_v, l, r)
    elif tt is Pi:
        i, dom_v = _infer_universe(ctx, globals, t.domain, path + ("domain",))
        j, _ = _infer_universe(ctx + [dom_v], globals, t.codomain, path + ("codomain",))
        env = tuple(identity_env(depth))
        ty, v = Type(max(i, j)), VPi(t.hint, dom_v, Closure(env, t.codomain, globals), t.implicit)
    elif tt is Lam:
        _, dom_v = _infer_universe(ctx, globals, t.ann, path + ("annotation",))
        body_ty, _ = _infer(ctx + [dom_v], globals, t.body, path + ("body",))
        env = tuple(identity_env(depth))
        ty = VPi(t.hint, dom_v, Closure(env, readback(depth + 1, body_ty), globals), t.implicit)
        v = VLam(t.hint, Closure(env, t.body, globals), dom_v, t.implicit)
    elif tt is Type:
        return Type(t.level + 1), t
    elif tt is J:
        pty, pv = _infer(ctx, globals, t.path, path + ("path",))
        pty = force_top(pty)
        if type(pty) is not VId:
            raise KernelTypeError(
                path, "J scrutinee is not an identity proof", found=readback(depth, pty)
            )
        base_pt, end_v = pty.lhs, pty.rhs
        xv = _check_against(ctx, globals, t.endpoint, pty.type, path + ("endpoint",))
        _require_conv(depth, xv, end_v, path + ("endpoint",),
                      "J endpoint does not match the path's right endpoint")
        mty, mv = _infer(ctx, globals, t.motive, path + ("motive",))
        mty = force_top(mty)
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
        base_wanted = apply_value(apply_value(mv, base_pt), _value((VRefl, base_pt), base_pt))
        base_ty, bv = _infer(ctx, globals, t.base, path + ("base",))
        _require_conv(depth, base_ty, base_wanted, path + ("base",), "type mismatch")
        ty, v = apply_value(apply_value(mv, end_v), pv), j_apply(mv, bv, xv, pv)
    elif tt is Meta:
        raise KernelTypeError(path, f"unsolved metavariable ?{t.id} reached the kernel")
    else:
        raise KernelTypeError(path, f"unrecognized term {t!r}")
    if key is not None:
        block.memo[key] = (t, ty, v)
    return ty, v


def _infer_universe(
    ctx: list[Value], globals: GlobalEnv, t: CoreTerm, path: tuple[str, ...]
) -> tuple[int, Value]:
    ty, v = _infer(ctx, globals, t, path)
    ty = force_top(ty)
    if type(ty) is not Type:
        raise KernelTypeError(path, "expected a type", found=readback(len(ctx), ty))
    return ty.level, v


def _check_against(
    ctx: list[Value],
    globals: GlobalEnv,
    t: CoreTerm,
    expected: Value,
    path: tuple[str, ...],
) -> Value:
    """Check t against an expected type, descending through lambdas; t's value."""
    depth = len(ctx)
    expected = force_top(expected)
    if type(t) is Lam and type(expected) is VPi:
        if t.implicit != expected.implicit:
            raise KernelTypeError(path, "binder plicity mismatch")
        _, ann_v = _infer_universe(ctx, globals, t.ann, path + ("annotation",))
        _require_conv(depth, ann_v, expected.domain, path + ("annotation",),
                      "lambda annotation does not match expected domain")
        body_ty = expected.closure.apply(fresh_var(depth))
        _check_against(ctx + [expected.domain], globals, t.body, body_ty, path + ("body",))
        return VLam(t.hint, Closure(tuple(identity_env(depth)), t.body, globals), ann_v, t.implicit)
    ty, v = _infer(ctx, globals, t, path)
    _require_conv(depth, ty, expected, path, "type mismatch")
    return v


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
    with _entry():
        _, ty_v = _infer_universe([], globals, d.type, (d.name, "type"))
        body_v = None if d.body is None else _check_against([], globals, d.body, ty_v, (d.name, "body"))
    return globals.extended(GlobalEntry(d.name, ty_v, body_v, d.type, d.body))


def assert_defeq(globals: GlobalEnv, l: CoreTerm, r: CoreTerm, ty: CoreTerm) -> bool:
    """Do l and r check against ty and evaluate to convertible values?

    Raises KernelTypeError if either side fails to check; returns the
    conversion verdict otherwise.
    """
    with _entry():
        _, ty_v = _infer_universe([], globals, ty, ("assert", "type"))
        lv = _check_against([], globals, l, ty_v, ("assert", "lhs"))
        return conv(0, lv, _check_against([], globals, r, ty_v, ("assert", "rhs")))


def normalize(globals: GlobalEnv, t: CoreTerm) -> CoreTerm:
    """Full normal form of a well-typed closed term (defined globals unfolded)."""
    with _entry():
        return readback(0, eval_term([], globals, t), force=force_top)

