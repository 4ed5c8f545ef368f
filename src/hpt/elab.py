"""Elaboration: surface declarations to meta-free core terms.

Names are resolved, implicit arguments inserted eagerly at application
heads, and holes solved by first-order unification (metas solve by direct
assignment after occurs and scope checks; higher-order constraints are
rejected). Unsolved metas are fatal per declaration. Every core term
returned to callers is meta-free and re-checks in the kernel with no
elaborator involvement.

An ElabCtx belongs to one elaboration session.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from . import kernel
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
    fresh_name,
    mentions,
    pretty,
    rebuild,
    shift,
    subterms,
)
from .kernel import (
    EJ,
    GlobalEnv,
    VId,
    VLam,
    VNeutral,
    VPi,
    VRefl,
    VTop,
    Value,
    apply_spine,
    apply_value,
    eval_term,
    force_top,
    fresh_var,
    identity_env,
)
from .surface import (
    Binder,
    Def,
    Hole,
    IdSugar,
    JSugar,
    Name,
    ReflSugar,
    SApp,
    SLam,
    SPi,
    SourceSpan,
    SurfaceDecl,
    SurfaceError,
    SurfaceTerm,
    TypeU,
)


class ElabError(SurfaceError):
    pass


class UnboundName(ElabError):
    def __init__(self, span: SourceSpan, name: str):
        super().__init__(span, f"unbound name {name!r}")


class UnsolvedMeta(ElabError):
    def __init__(self, span: SourceSpan, meta_id: int, note: str = ""):
        msg = f"unsolved metavariable ?{meta_id}"
        if note:
            msg += f" ({note})"
        super().__init__(span, msg)


class TypeMismatch(ElabError):
    def __init__(self, span: SourceSpan, expected: str, found: str, note: str = ""):
        msg = f"type mismatch\n  expected: {expected}\n  found:    {found}"
        if note:
            msg += f"\n  while {note}"
        super().__init__(span, msg)


class OccursCheck(ElabError):
    def __init__(self, span: SourceSpan, meta_id: int):
        super().__init__(span, f"occurs check failed: ?{meta_id} would be cyclic")


class UnifyFailure(ElabError):
    def __init__(self, span: SourceSpan, lhs: str, rhs: str):
        super().__init__(span, f"cannot unify\n  {lhs}\nwith\n  {rhs}")


class MetaStore:
    """The id counter and the undo log of a session's metas, each of which
    is its `Meta` node. A solution's value is evaluated afresh wherever it is
    forced; `rollback` restores `solution` and `depth`, and empties the
    kernel's intern table, whose glued values may have unfolded under them."""

    def __init__(self) -> None:
        self._next = 0
        self._log: list[tuple[Meta, CoreTerm | None, int]] = []

    def fresh(self, depth: int, span: SourceSpan) -> Meta:
        m = Meta(self._next, depth, span)
        self._next += 1
        return m

    # A log of each change's prior (solution, depth) supports speculative
    # unification: glued globals first try spine equality and roll back
    # their solutions if the spines turn out not to match.
    def checkpoint(self) -> int:
        return len(self._log)

    def rollback(self, mark: int) -> None:
        for m, solution, depth in reversed(self._log[mark:]):
            m.solution, m.depth = solution, depth
            kernel.clear_table()
        del self._log[mark:]

    def update(self, m: Meta, solution: CoreTerm | None, depth: int) -> None:
        self._log.append((m, m.solution, m.depth))
        m.solution, m.depth = solution, depth


@dataclass
class ElabCtx:
    """One elaboration session: every binder it is under, globals, and the meta store."""

    globals: GlobalEnv
    metas: MetaStore = field(default_factory=MetaStore)
    bindings: list[tuple[str, Value]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.bindings)

    def env(self) -> list[Value]:
        return identity_env(self.depth)

    def bound(self, name: str, ty: Value) -> "ElabCtx":
        return ElabCtx(self.globals, self.metas, self.bindings + [(name, ty)])

    def under(self, name: str, ty: Value, apart: bool = False) -> tuple["ElabCtx", Value]:
        """Go under a binder of type `ty`: the context that binds it, and its
        variable. With `apart`, `name` is renamed away from the names in scope."""
        if apart:
            name = fresh_name(name, {n for n, _ in self.bindings})
        return self.bound(name, ty), fresh_var(self.depth)

    def lookup(self, name: str) -> tuple[int, Value] | None:
        for i, (n, ty) in enumerate(reversed(self.bindings)):
            if n == name:
                return i, ty
        return None

    def eval(self, t: CoreTerm) -> Value:
        return eval_term(self.env(), self.globals, t)

    # -- meta machinery ------------------------------------------------------

    def fresh_meta(self, span: SourceSpan) -> tuple[Meta, Value]:
        m = self.metas.fresh(self.depth, span)
        return m, VNeutral(m)

    def force(self, v: Value) -> Value:
        while type(v) is VNeutral and type(v.head) is Meta:
            m = v.head
            if m.solution is None:
                return v
            sol = eval_term(identity_env(m.depth), self.globals, m.solution)
            v = apply_spine(sol, v.spine)
        return v

    def quote(self, v: Value) -> CoreTerm:
        """Read a value back to a term under the context's binders, resolving
        solved metas; unsolved metas stay as Meta nodes, to be zonked later."""
        return kernel.readback(self.depth, v, force=self.force)

    def show(self, v: Value) -> str:
        """Print `v` with the names of the context's binders."""
        return pretty(self.quote(v), [n for n, _ in self.bindings])


def whnf(ctx: ElabCtx, v: Value) -> Value:
    """Resolve metas and unfold glued globals to a canonical head."""
    return force_top(ctx.force(v))


# ---------------------------------------------------------------------------
# Unification


def _unify(ctx: ElabCtx, l: Value, r: Value, span: SourceSpan) -> None:
    # Exact-type tests, one branch per case; a case whose parts do not match
    # falls through to the one failure at the end.
    if l is r:
        return
    l = ctx.force(l)
    r = ctx.force(r)
    if l is r:
        return
    tl = type(l)
    tr = type(r)
    l_flex = tl is VNeutral and type(l.head) is Meta
    r_flex = tr is VNeutral and type(r.head) is Meta
    if tl is VNeutral and tr is VNeutral and l.head == r.head:
        if len(l.spine) == len(r.spine):
            return _unify_spines(ctx, l.spine, r.spine, span)
    elif l_flex or r_flex:
        # A bare meta is solved first, the left one before the right one.
        flex, other = (l, r) if l_flex else (r, l)
        if flex.spine and r_flex and not r.spine:
            flex, other = r, l
        if not flex.spine:
            return _solve(ctx, flex.head, other, span)
        # A meta heading a non-empty spine (typically a stuck elimination
        # whose scrutinee is the meta) is solved by the other side's head
        # and spine prefix; the spine's tail must then match the rest.
        to = type(other)
        cut = len(other.spine) - len(flex.spine) if to is VNeutral or to is VTop else -1

        def solve_prefix() -> None:
            prefix = other.spine[:cut]
            head = VNeutral(other.head, prefix) if to is VNeutral else VTop(prefix, other.entry)
            _solve(ctx, flex.head, head, span)
            _unify_spines(ctx, flex.spine, other.spine[cut:], span)

        if to is VNeutral and cut >= 0:
            return solve_prefix()
        if to is VTop:
            # Speculatively, before the global unfolds.
            if not (cut >= 0 and _attempt(ctx, solve_prefix)):
                _unify(ctx, flex, other.force(), span)
            return
    elif tl is VTop or tr is VTop:
        # Glued globals of one entry: try spine equality first, then unfold.
        if not (
            tl is tr
            and l.entry is r.entry
            and len(l.spine) == len(r.spine)
            and _attempt(ctx, lambda: _unify_spines(ctx, l.spine, r.spine, span))
        ):
            _unify(ctx, l.force() if tl is VTop else l, r.force() if tr is VTop else r, span)
        return
    elif tl is VLam or tr is VLam:
        if tl is tr or (tr if tl is VLam else tl) is VNeutral:
            if tl is tr:
                # Decomposing the domains solves corner metas that the body
                # alone never mentions.
                _unify(ctx, l.domain, r.domain, span)
            lam = l if tl is VLam else r
            inner, x = ctx.under(lam.hint, lam.domain, apart=True)
            return _unify(inner, apply_value(l, x), apply_value(r, x), span)
    elif tl is tr:
        if tl is VRefl:
            return _unify(ctx, l.point, r.point, span)
        if tl is VId:
            _unify(ctx, l.type, r.type, span)
            _unify(ctx, l.lhs, r.lhs, span)
            return _unify(ctx, l.rhs, r.rhs, span)
        if tl is VPi and l.implicit == r.implicit:
            _unify(ctx, l.domain, r.domain, span)
            inner, x = ctx.under(l.hint, l.domain, apart=True)
            return _unify(inner, l.closure.apply(x), r.closure.apply(x), span)
        if tl is Type and l.level == r.level:
            return
    raise UnifyFailure(span, ctx.show(l), ctx.show(r))


unify = _unify  # the public name


def _attempt(ctx: ElabCtx, thunk: Callable[[], None]) -> bool:
    """Run `thunk`; if it fails, undo the meta solutions it made and say so."""
    mark = ctx.metas.checkpoint()
    try:
        thunk()
        return True
    except ElabError:
        ctx.metas.rollback(mark)
        return False


def _unify_spines(ctx, sp1, sp2, span) -> None:
    for e1, e2 in zip(sp1, sp2):
        j1 = type(e1) is EJ
        if j1 is not (type(e2) is EJ):
            raise UnifyFailure(span, "<spine>", "<spine>")
        if j1:
            _unify(ctx, e1.motive, e2.motive, span)
            _unify(ctx, e1.base, e2.base, span)
        else:  # two arguments unify whatever their value classes
            _unify(ctx, e1, e2, span)


def _solve(ctx: ElabCtx, meta: Meta, v: Value, span: SourceSpan) -> None:
    """Solve `meta` by `v`, read back in `ctx`. The binders of `ctx` made
    after the meta lie outside its scope, so the solution may mention
    neither them nor the meta itself."""
    t = ctx.quote(v)
    outside = ctx.depth - meta.depth
    if mentions(t, 0, outside, meta.id):
        if mentions(t, 0, 0, meta.id):
            raise OccursCheck(span, meta.id)
        raise UnifyFailure(span, f"?{meta.id}", "a value escaping its scope")
    t = t if outside == 0 else shift(t, 0, -outside)
    ctx.metas.update(meta, t, meta.depth)
    _restrict(ctx.metas, t, meta.depth)


def _restrict(metas: MetaStore, t: CoreTerm, depth: int) -> None:
    """Lower to `depth` plus the binders above it the depth of each unsolved
    meta in `t`, a solution valid under `depth` binders: a meta made under
    more binders than the solution has may only be solved in its scope."""
    if not t.has_meta:
        return
    if type(t) is not Meta:
        for u, k in subterms(t):
            _restrict(metas, u, depth + k)
    elif t.solution is None and t.depth > depth:
        metas.update(t, None, depth)


# ---------------------------------------------------------------------------
# The level of the carrier of `=` (Π binders, an arrow's included, take
# theirs from `_as_type`)


def universe_of(ctx: ElabCtx, v: Value) -> int:
    """The level of the type value `v`, read off its sort. A type headed by
    an unsolved meta gets 0; the kernel re-check is the authority."""
    v = whnf(ctx, v)
    match v:
        case Type(lvl):
            return lvl + 1
        case VId(t, _, _):
            return universe_of(ctx, t)
        case VPi(hint, dom, clo, _):
            inner, x = ctx.under(hint, dom)
            return max(universe_of(ctx, dom), universe_of(inner, clo.apply(x)))
        case VNeutral(int(lvl), spine):
            ty = ctx.bindings[lvl][1]
        case VNeutral(Global(name), spine):
            ty = ctx.globals.get(name).type_value
        case _:
            return 0
    # Type the neutral: replay its spine on the type of its head.
    for k, e in enumerate(spine):
        ty = whnf(ctx, ty)
        if type(e) is EJ:
            scrutinee = VNeutral(v.head, spine[:k])
            ty = apply_value(apply_value(e.motive, e.endpoint), scrutinee)
        else:
            if not isinstance(ty, VPi):
                return 0
            ty = ty.closure.apply(e)
    ty = whnf(ctx, ty)
    return ty.level if type(ty) is Type else 0


# ---------------------------------------------------------------------------
# Bidirectional elaboration


def infer(ctx: ElabCtx, t: SurfaceTerm) -> tuple[CoreTerm, Value]:
    match t:
        case Name(name=n, span=span):
            hit = ctx.lookup(n)
            if hit is not None:
                idx, ty = hit
                return Var(idx), ty
            entry = ctx.globals.get(n)
            if entry is not None:
                return Global(n), entry.type_value
            raise UnboundName(span, n)
        case Hole(span=span):
            core, _ = ctx.fresh_meta(span)
            _, ty_v = ctx.fresh_meta(span)
            return core, ty_v
        case TypeU(level=k):
            return Type(k), Type(k + 1)
        case SPi(binders=bs, codomain=cod):
            inner, bound = _bind(ctx, bs)
            core, lvl = _as_type(inner, cod)
            return _close(bound, core)[0], Type(max([lvl, *(b_lvl for _, _, b_lvl, _ in bound)]))
        case SLam(binders=bs, body=body):
            inner, bound = _bind(ctx, bs)
            body_core, ty = infer(inner, body)
            ty_core, core = _close(bound, inner.quote(ty), body_core)
            return core, ctx.eval(ty_core)
        case IdSugar(lhs=l, rhs=r):
            l_core, l_ty = _infer_inserted(ctx, l)
            r_core = check(ctx, r, l_ty)
            ty_core = ctx.quote(l_ty)
            return Id(ty_core, l_core, r_core), Type(universe_of(ctx, l_ty))
        case ReflSugar(point=p, span=span):
            if p is None:
                _, pt_ty = ctx.fresh_meta(span)
                pt_core, pt_v = ctx.fresh_meta(span)
                return Refl(pt_core), VId(pt_ty, pt_v, pt_v)
            p_core, p_ty = _infer_inserted(ctx, p)
            # `refl q` evaluates to VRefl of q's endpoint: a chain evaluates one point
            pv = VRefl(p_ty.lhs) if isinstance(p, ReflSugar) else ctx.eval(p_core)
            return Refl(p_core), VId(p_ty, pv, pv)
        case JSugar():
            return _elab_j(ctx, t, [])
        case SApp():
            head, args = _spine(t)
            if isinstance(head, JSugar):
                return _elab_j(ctx, head, args)
            core, ty = infer(ctx, head)
            ex = isinstance(head, Name) and head.explicit_all
            return _apply_args(ctx, core, ty, args, ex)
    raise ElabError(t.span, f"cannot elaborate {t!r}")


def check(ctx: ElabCtx, t: SurfaceTerm, expected: Value) -> CoreTerm:
    expected = whnf(ctx, expected)
    if isinstance(expected, VPi) and expected.implicit:
        if not (isinstance(t, SLam) and t.binders[0].implicit):
            # implicit function expected, term is not an implicit lambda: wrap,
            # binding `_` as an arrow does, so that no source name resolves to it
            inner, x = ctx.under("_", expected.domain)
            body = check(inner, t, expected.closure.apply(x))
            return Lam(expected.hint, body, ctx.quote(expected.domain), True)
    if isinstance(t, SLam):
        return _check_lam(ctx, t, expected)
    core, ty = _infer_inserted(ctx, t)
    try:
        _unify(ctx, ty, expected, t.span)
    except UnifyFailure as e:
        raise TypeMismatch(t.span, ctx.show(expected), ctx.show(ty)) from e
    return core


def _check_lam(ctx: ElabCtx, t: SLam, expected: Value) -> CoreTerm:
    """Check the first name `t` binds; the rest go back through `check`."""
    b = t.binders[0]
    if not isinstance(expected, VPi):
        raise TypeMismatch(t.span, ctx.show(expected), "a function", note="checking a lambda")
    if b.implicit and not expected.implicit:
        raise TypeMismatch(b.span, ctx.show(expected), "an implicit binder",
                           note="checking a lambda")
    ann_core, _ = _as_type(ctx, b.annotation)
    _unify(ctx, ctx.eval(ann_core), expected.domain, b.span)
    rest = tuple(r for r in (replace(b, names=b.names[1:]), *t.binders[1:]) if r.names)
    inner, x = ctx.under(b.names[0], expected.domain)
    body = check(inner, replace(t, binders=rest) if rest else t.body, expected.closure.apply(x))
    return Lam(b.names[0], body, ann_core, b.implicit)


def _bind(ctx: ElabCtx, bs: tuple[Binder, ...]) -> tuple[ElabCtx, list]:
    """Elaborate binder types left to right. Returns the context under all of
    them and, per name, (name, type core, level, implicit)."""
    bound = []
    for b in bs:
        for name in b.names:
            core, lvl = _as_type(ctx, b.annotation)
            bound.append((name, core, lvl, b.implicit))
            ctx = ctx.bound(name, ctx.eval(core))
    return ctx, bound


def _close(bound: list, ty: CoreTerm, body: CoreTerm | None = None) -> tuple[CoreTerm, CoreTerm | None]:
    """`ty` and `body` under Π and λ binders for the names `_bind` bound."""
    for name, ann, _, implicit in reversed(bound):
        ty, body = Pi(name, ann, ty, implicit), None if body is None else Lam(name, body, ann, implicit)
    return ty, body


def _as_type(ctx: ElabCtx, t: SurfaceTerm) -> tuple[CoreTerm, int]:
    core, ty = _infer_inserted(ctx, t)
    ty = whnf(ctx, ty)  # an `@name` comes back as inferred
    if type(ty) is Type:
        return core, ty.level
    if type(ty) is VNeutral and type(ty.head) is Meta:
        _unify(ctx, ty, Type(0), t.span)
        return core, 0
    raise TypeMismatch(t.span, "a universe", ctx.show(ty), note="elaborating a type")


def _spine(t: SurfaceTerm) -> tuple[SurfaceTerm, list[SurfaceTerm]]:
    args: list[SurfaceTerm] = []
    while isinstance(t, SApp):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _infer_inserted(ctx: ElabCtx, t: SurfaceTerm) -> tuple[CoreTerm, Value]:
    """Infer `t`, then apply it to fresh metas for its leading implicit
    arguments; the type comes back in whnf. An `@name` is left as inferred."""
    core, ty = infer(ctx, t)
    if isinstance(t, Name) and t.explicit_all:
        return core, ty
    return _insert_all_implicits(ctx, core, ty, t.span)


def _insert_all_implicits(
    ctx: ElabCtx, core: CoreTerm, ty: Value, span: SourceSpan
) -> tuple[CoreTerm, Value]:
    ty = whnf(ctx, ty)
    while isinstance(ty, VPi) and ty.implicit:
        m_core, m_val = ctx.fresh_meta(span)
        core = App(core, m_core)
        ty = whnf(ctx, ty.closure.apply(m_val))
    return core, ty


def _apply_args(
    ctx: ElabCtx,
    core: CoreTerm,
    ty: Value,
    args: list[SurfaceTerm],
    explicit_all: bool,
) -> tuple[CoreTerm, Value]:
    for arg in args:
        if explicit_all:
            ty = whnf(ctx, ty)
        else:
            core, ty = _insert_all_implicits(ctx, core, ty, arg.span)
        if not isinstance(ty, VPi):
            raise TypeMismatch(arg.span, "a function type", ctx.show(ty), note="applying an argument")
        arg_core = check(ctx, arg, ty.domain)
        core = App(core, arg_core)
        ty = ty.closure.apply_arg(ctx.env(), ctx.globals, arg_core)
    return core, ty


def _elab_j(ctx: ElabCtx, head: JSugar, args: list[SurfaceTerm]) -> tuple[CoreTerm, Value]:
    if len(args) < 3:
        m = ctx.metas.fresh(ctx.depth, head.span)
        raise UnsolvedMeta(head.span, m.id, "the motive of J is underdetermined")
    motive_s, base_s, path_s = args[:3]

    path_core, path_ty = _infer_inserted(ctx, path_s)
    path_ty = whnf(ctx, path_ty)  # an `@name` comes back as inferred
    if type(path_ty) is VNeutral and type(path_ty.head) is Meta:
        _, t_v = ctx.fresh_meta(head.span)
        _, a_v = ctx.fresh_meta(head.span)
        _, b_v = ctx.fresh_meta(head.span)
        _unify(ctx, path_ty, VId(t_v, a_v, b_v), path_s.span)
        path_ty = whnf(ctx, path_ty)
    if not isinstance(path_ty, VId):
        raise TypeMismatch(path_s.span, "an identity type", ctx.show(path_ty),
                           note="elaborating the path argument of J")
    ty_v, a_v, b_v = path_ty.type, path_ty.lhs, path_ty.rhs

    motive_core, motive_ty = infer(ctx, motive_s)
    motive_ty = whnf(ctx, motive_ty)
    mspan = motive_s.span
    if isinstance(motive_ty, VPi):
        _unify(ctx, motive_ty.domain, ty_v, mspan)
        x_ctx, x = ctx.under(motive_ty.hint, motive_ty.domain, apart=True)
        inner = whnf(ctx, motive_ty.closure.apply(x))
    if not (isinstance(motive_ty, VPi) and isinstance(inner, VPi)):
        raise TypeMismatch(mspan, "a two-argument function", ctx.show(motive_ty),
                           note="elaborating the motive of J")
    _unify(x_ctx, inner.domain, VId(ty_v, a_v, x), mspan)
    # The motive must land in a universe, as in the kernel; else a path hole may solve to `Type`.
    e_ctx, e = x_ctx.under(inner.hint, inner.domain, apart=True)
    sort = whnf(ctx, inner.closure.apply(e))
    if type(sort) is not Type and not (type(sort) is VNeutral and type(sort.head) is Meta):
        raise TypeMismatch(mspan, "a universe", e_ctx.show(sort), note="elaborating the motive of J")

    motive_v = ctx.eval(motive_core)
    base_expect = apply_value(apply_value(motive_v, a_v), VRefl(a_v))
    base_core = check(ctx, base_s, base_expect)

    endpoint_core = ctx.quote(whnf(ctx, b_v))
    core: CoreTerm = J(motive_core, base_core, endpoint_core, path_core)
    result_ty = apply_value(apply_value(motive_v, b_v), ctx.eval(path_core))
    return _apply_args(ctx, core, result_ty, args[3:], False)


# ---------------------------------------------------------------------------
# Zonking and declaration elaboration


def zonk(t: CoreTerm, depth: int = 0) -> CoreTerm:
    """Replace each solved meta in `t` (under `depth` binders) by its zonked
    solution; an unsolved meta raises UnsolvedMeta. Sharing: a node is rebuilt
    only above a meta, so a meta-free subterm comes back as itself, at once."""
    if not t.has_meta:
        return t
    if type(t) is Meta:
        if t.solution is None:
            raise UnsolvedMeta(t.span, t.id)
        if depth < t.depth:
            raise ElabError(t.span, "meta solution escapes its context")
        sol = t.solution if depth == t.depth else shift(t.solution, 0, depth - t.depth)
        return zonk(sol, depth)
    return rebuild(t, zonk, depth)


def elaborate_decl(globals: GlobalEnv, d: SurfaceDecl) -> CoreDecl:
    """Elaborate a def or axiom to a meta-free CoreDecl.

    Binders are folded into Pi/Lam prefixes; the result re-checks in the
    kernel without elaborator involvement.
    """
    if not isinstance(d, Def):
        raise ValueError("only def/axiom declarations become CoreDecls")

    ctx, bound = _bind(ElabCtx(globals), d.binders)
    result_core, _ = _as_type(ctx, d.result_type)
    body_core = None if d.body is None else check(ctx, d.body, ctx.eval(result_core))
    type_core, body_core = _close(bound, result_core, body_core)

    type_core = zonk(type_core)
    if body_core is not None:
        body_core = zonk(body_core)
    return CoreDecl(d.name, type_core, body_core)


def elaborate_term(globals: GlobalEnv, t: SurfaceTerm) -> tuple[CoreTerm, CoreTerm]:
    """Elaborate a closed term; returns (term, type) as meta-free cores."""
    ctx = ElabCtx(globals)
    # No trailing implicit insertion at top level: an implicit-Pi-typed
    # result (say, a bare polymorphic global) stays as it is.
    core, ty = infer(ctx, t)
    core = zonk(core)
    ty_core = zonk(ctx.quote(ty))
    return core, ty_core
