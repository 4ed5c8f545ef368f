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
    Level,
    Meta,
    Pi,
    Refl,
    Type,
    Var,
    mentions,
    pretty,
    shift,
)
from .kernel import (
    Closure,
    EApp,
    EJ,
    GlobalEnv,
    HGlobal,
    HMeta,
    HVar,
    VId,
    VLam,
    VNeutral,
    VPi,
    VRefl,
    VTop,
    VType,
    Value,
    apply_spine,
    apply_value,
    eval_term,
    force_top,
    fresh_var,
    identity_env,
)
from .surface import (
    Axiom,
    Binder,
    Def,
    Hole,
    IdSugar,
    JSugar,
    Name,
    ReflSugar,
    SApp,
    SArrow,
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


@dataclass
class MetaVar:
    """A metavariable created at `depth` binders.

    Solutions are stored as open core terms valid under the meta's first
    `depth` binders; evaluating a solved meta under an environment means
    evaluating that term under the environment's first `depth` entries.
    This keeps solutions correct inside closures that are later applied
    to values other than the original fresh variables. Nothing caches a
    solution's value: it is evaluated afresh wherever it is forced, so
    `MetaStore.rollback` only has to clear `solution`.
    """

    id: int
    depth: int
    span: SourceSpan
    solution: CoreTerm | None = None


class MetaStore:
    def __init__(self) -> None:
        self._metas: dict[int, MetaVar] = {}
        self._next = 0
        self._log: list[int] = []

    def fresh(self, depth: int, span: SourceSpan) -> MetaVar:
        m = MetaVar(self._next, depth, span)
        self._metas[m.id] = m
        self._next += 1
        return m

    def get(self, meta_id: int) -> MetaVar:
        return self._metas[meta_id]

    def solution_entry(self, meta_id: int) -> tuple[int, CoreTerm] | None:
        """Protocol used by kernel evaluation: (depth, solution term)."""
        m = self._metas.get(meta_id)
        if m is None or m.solution is None:
            return None
        return m.depth, m.solution

    # A log of solved metas supports speculative unification: glued
    # globals first try spine equality and roll back their solutions if
    # the spines turn out not to match.
    def checkpoint(self) -> int:
        return len(self._log)

    def rollback(self, mark: int) -> None:
        for meta_id in self._log[mark:]:
            m = self._metas[meta_id]
            m.solution = None
        del self._log[mark:]

    def record_solved(self, meta_id: int) -> None:
        self._log.append(meta_id)


@dataclass
class ElabCtx:
    """One elaboration session: binders, globals, and the meta store."""

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

    def lookup(self, name: str) -> tuple[int, Value] | None:
        for i, (n, ty) in enumerate(reversed(self.bindings)):
            if n == name:
                return i, ty
        return None

    def eval(self, t: CoreTerm) -> Value:
        return eval_term(self.env(), self.globals, t, self.metas)

    # -- meta machinery ------------------------------------------------------

    def fresh_meta(self, span: SourceSpan) -> tuple[CoreTerm, Value]:
        m = self.metas.fresh(self.depth, span)
        return Meta(m.id), VNeutral(HMeta(m.id))

    def force(self, v: Value) -> Value:
        while isinstance(v, VNeutral) and isinstance(v.head, HMeta):
            meta = self.metas.get(v.head.id)
            if meta.solution is None:
                return v
            sol = eval_term(identity_env(meta.depth), self.globals, meta.solution, self.metas)
            v = apply_spine(sol, v.spine)
        return v

    def quote(self, depth: int, v: Value) -> CoreTerm:
        """Read a value back to a term, resolving solved metas; unsolved
        metas stay as Meta nodes, to be zonked later."""
        return kernel.readback(depth, v, force=self.force)

    def show(self, v: Value) -> str:
        names = [n for (n, _) in self.bindings]
        return pretty(self.quote(self.depth, v), names)


def whnf(ctx: ElabCtx, v: Value) -> Value:
    """Resolve metas and unfold glued globals to a canonical head."""
    return force_top(ctx.force(v))


# ---------------------------------------------------------------------------
# Unification


def unify(ctx: ElabCtx, l: Value, r: Value, span: SourceSpan) -> None:
    _unify(ctx, ctx.depth, l, r, span)


def _unify(ctx: ElabCtx, depth: int, l: Value, r: Value, span: SourceSpan) -> None:
    if l is r:
        return
    l = ctx.force(l)
    r = ctx.force(r)
    if l is r:
        return

    # flex cases first
    l_flex = isinstance(l, VNeutral) and isinstance(l.head, HMeta)
    r_flex = isinstance(r, VNeutral) and isinstance(r.head, HMeta)
    if l_flex and r_flex and l.head == r.head:
        if len(l.spine) == len(r.spine):
            _unify_spines(ctx, depth, l.spine, r.spine, span)
            return
        raise UnifyFailure(span, ctx.show(l), ctx.show(r))
    if l_flex and not l.spine:
        _solve(ctx, l.head.id, r, depth, span)
        return
    if r_flex and not r.spine:
        _solve(ctx, r.head.id, l, depth, span)
        return
    if l_flex or r_flex:
        # A meta heading a non-empty spine (typically a stuck elimination
        # whose scrutinee is the meta). Solve structurally by matching the
        # spine's tail against the other side's neutral spine.
        flex, other = (l, r) if l_flex else (r, l)
        if isinstance(other, VNeutral) and len(other.spine) >= len(flex.spine):
            cut = len(other.spine) - len(flex.spine)
            _solve(ctx, flex.head.id, VNeutral(other.head, other.spine[:cut]), depth, span)
            _unify_spines(ctx, depth, flex.spine, other.spine[cut:], span)
            return
        if isinstance(other, VTop):
            if len(other.spine) >= len(flex.spine):
                cut = len(other.spine) - len(flex.spine)
                mark = ctx.metas.checkpoint()
                try:
                    _solve(ctx, flex.head.id, VTop(other.name, other.spine[:cut], other.entry), depth, span)
                    _unify_spines(ctx, depth, flex.spine, other.spine[cut:], span)
                    return
                except ElabError:
                    ctx.metas.rollback(mark)
            _unify(ctx, depth, flex, other.force(), span)
            return
        raise UnifyFailure(span, ctx.show(l), ctx.show(r))

    l_top = isinstance(l, VTop)
    r_top = isinstance(r, VTop)
    if l_top or r_top:
        # Same-named glued globals: try spine equality first, rolling back
        # speculative meta solutions if the spines do not match.
        if (
            l_top
            and r_top
            and l.name == r.name
            and len(l.spine) == len(r.spine)
        ):
            mark = ctx.metas.checkpoint()
            try:
                _unify_spines(ctx, depth, l.spine, r.spine, span)
                return
            except ElabError:
                ctx.metas.rollback(mark)
        _unify(
            ctx,
            depth,
            l.force() if l_top else l,
            r.force() if r_top else r,
            span,
        )
        return

    match l, r:
        case VType(a), VType(b):
            if a != b:
                raise UnifyFailure(span, ctx.show(l), ctx.show(r))
        case VId(t1, l1, r1), VId(t2, l2, r2):
            _unify(ctx, depth, t1, t2, span)
            _unify(ctx, depth, l1, l2, span)
            _unify(ctx, depth, r1, r2, span)
        case VRefl(p1), VRefl(p2):
            _unify(ctx, depth, p1, p2, span)
        case VPi(_, d1, c1, i1), VPi(_, d2, c2, i2):
            if i1 != i2:
                raise UnifyFailure(span, ctx.show(l), ctx.show(r))
            _unify(ctx, depth, d1, d2, span)
            x = fresh_var(depth)
            _unify(ctx, depth + 1, c1.apply(x), c2.apply(x), span)
        case VLam(), VLam():
            # Decomposing the domains solves corner metas that the body
            # alone never mentions.
            _unify(ctx, depth, l.domain, r.domain, span)
            x = fresh_var(depth)
            _unify(ctx, depth + 1, l.closure.apply(x), r.closure.apply(x), span)
        case (VLam(), _) | (_, VLam()):
            other = r if isinstance(l, VLam) else l
            if not isinstance(other, (VLam, VNeutral)):
                raise UnifyFailure(span, ctx.show(l), ctx.show(r))
            x = fresh_var(depth)
            _unify(ctx, depth + 1, apply_value(l, x), apply_value(r, x), span)
        case VNeutral(h1, sp1), VNeutral(h2, sp2):
            if h1 != h2 or len(sp1) != len(sp2):
                raise UnifyFailure(span, ctx.show(l), ctx.show(r))
            _unify_spines(ctx, depth, sp1, sp2, span)
        case _:
            raise UnifyFailure(span, ctx.show(l), ctx.show(r))


def _unify_spines(ctx, depth, sp1, sp2, span) -> None:
    for e1, e2 in zip(sp1, sp2):
        match e1, e2:
            case EApp(x1), EApp(x2):
                _unify(ctx, depth, x1, x2, span)
            case EJ(m1, b1, _), EJ(m2, b2, _):
                _unify(ctx, depth, m1, m2, span)
                _unify(ctx, depth, b1, b2, span)
            case _:
                raise UnifyFailure(span, "<spine>", "<spine>")


def _solve(ctx: ElabCtx, meta_id: int, v: Value, depth: int, span: SourceSpan) -> None:
    # Every free variable of `v` has a level below the unification depth, so
    # the variables readback makes for binders (levels >= depth) capture none.
    meta = ctx.metas.get(meta_id)
    t = ctx.quote(depth, v)
    # The free indices below depth - meta.depth name levels >= meta.depth,
    # which lie outside the meta's scope.
    outside = depth - meta.depth
    if mentions(t, 0, outside, meta_id):
        if mentions(t, 0, 0, meta_id):
            raise OccursCheck(span, meta_id)
        raise UnifyFailure(span, f"?{meta_id}", "a value escaping its scope")
    meta.solution = t if outside == 0 else shift(t, 0, -outside)
    ctx.metas.record_solved(meta_id)


# ---------------------------------------------------------------------------
# The level of the carrier of `=` (arrows and Pi binders take theirs from
# `_as_type`)


def universe_of(ctx: ElabCtx, v: Value) -> int:
    """The level of the type value `v`, read off its sort. A type headed by
    an unsolved meta gets 0; the kernel re-check is the authority."""
    v = whnf(ctx, v)
    match v:
        case VType(lvl):
            return lvl.index + 1
        case VId(t, _, _):
            return universe_of(ctx, t)
        case VPi(hint, dom, clo, _):
            cod = clo.apply(fresh_var(ctx.depth))
            return max(universe_of(ctx, dom), universe_of(ctx.bound(hint, dom), cod))
        case VNeutral(HVar(lvl), spine):
            ty = ctx.bindings[lvl][1]
        case VNeutral(HGlobal(name), spine):
            ty = ctx.globals.get(name).type_value
        case _:
            return 0
    # Type the neutral: replay its spine on the type of its head.
    for k, elim in enumerate(spine):
        ty = whnf(ctx, ty)
        if type(elim) is EApp:
            if not isinstance(ty, VPi):
                return 0
            ty = ty.closure.apply(elim.arg)
        else:
            scrutinee = VNeutral(v.head, spine[:k])
            ty = apply_value(apply_value(elim.motive, elim.endpoint), scrutinee)
    ty = whnf(ctx, ty)
    return ty.level.index if isinstance(ty, VType) else 0


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
            return Type(Level(k)), VType(Level(k + 1))
        case SArrow(domain=d, codomain=c):
            d_core, d_lvl = _as_type(ctx, d)
            c_core, c_lvl = _as_type(ctx, c)
            return Pi("_", d_core, shift(c_core, 0, 1), False), VType(Level(max(d_lvl, c_lvl)))
        case SPi(binders=bs, codomain=cod):
            inner, bound = _bind(ctx, bs)
            core, lvl = _as_type(inner, cod)
            for name, ann_core, _, ann_lvl, implicit in reversed(bound):
                core = Pi(name, ann_core, core, implicit)
                lvl = max(lvl, ann_lvl)
            return core, VType(Level(lvl))
        case SLam(binders=bs, body=body):
            inner, bound = _bind(ctx, bs)
            core, ty = infer(inner, body)
            depth = inner.depth
            for name, ann_core, ann_v, _, implicit in reversed(bound):
                cod_core = inner.quote(depth, ty)
                depth -= 1
                clo = Closure(tuple(identity_env(depth)), cod_core, ctx.globals, ctx.metas)
                core, ty = Lam(name, core, ann_core, implicit), VPi(name, ann_v, clo, implicit)
            return core, ty
        case IdSugar(lhs=l, rhs=r):
            l_core, l_ty = _infer_inserted(ctx, l)
            r_core = check(ctx, r, l_ty)
            ty_core = ctx.quote(ctx.depth, l_ty)
            return Id(ty_core, l_core, r_core), VType(Level(universe_of(ctx, l_ty)))
        case ReflSugar(point=p, span=span):
            if p is None:
                _, pt_ty = ctx.fresh_meta(span)
                pt_core, pt_v = ctx.fresh_meta(span)
                return Refl(pt_core), VId(pt_ty, pt_v, pt_v)
            p_core, p_ty = _infer_inserted(ctx, p)
            pv = ctx.eval(p_core)
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
            # implicit function expected, term is not an implicit lambda: wrap
            inner_ctx = ctx.bound(expected.hint, expected.domain)
            body = check(inner_ctx, t, expected.closure.apply(fresh_var(ctx.depth)))
            return Lam(expected.hint, body, ctx.quote(ctx.depth, expected.domain), True)
    if isinstance(t, SLam):
        return _check_lam(ctx, t, expected)
    core, ty = _infer_inserted(ctx, t)
    try:
        unify(ctx, ty, expected, t.span)
    except UnifyFailure as e:
        raise TypeMismatch(t.span, ctx.show(expected), ctx.show(ty)) from e
    return core


def _check_lam(ctx: ElabCtx, t: SLam, expected: Value) -> CoreTerm:
    """Check the first name `t` binds; the rest go back through `check`."""
    b = t.binders[0]
    if not isinstance(expected, VPi):
        raise TypeMismatch(t.span, ctx.show(expected), "a function", note="checking a lambda")
    if b.implicit and not expected.implicit:
        raise TypeMismatch(
            b.span, ctx.show(expected), "an implicit binder", note="checking a lambda"
        )
    ann_core, _ = _as_type(ctx, b.annotation)
    unify(ctx, ctx.eval(ann_core), expected.domain, b.span)
    rest = tuple(r for r in (replace(b, names=b.names[1:]), *t.binders[1:]) if r.names)
    body = check(
        ctx.bound(b.names[0], expected.domain),
        replace(t, binders=rest) if rest else t.body,
        expected.closure.apply(fresh_var(ctx.depth)),
    )
    return Lam(b.names[0], body, ann_core, b.implicit)


def _bind(ctx: ElabCtx, bs: tuple[Binder, ...]) -> tuple[ElabCtx, list]:
    """Elaborate binder types left to right. Returns the context under all of
    them and, per name, (name, type core, type value, level, implicit)."""
    bound = []
    for b in bs:
        for name in b.names:
            core, lvl = _as_type(ctx, b.annotation)
            v = ctx.eval(core)
            bound.append((name, core, v, lvl, b.implicit))
            ctx = ctx.bound(name, v)
    return ctx, bound


def _as_type(ctx: ElabCtx, t: SurfaceTerm) -> tuple[CoreTerm, int]:
    core, ty = _infer_inserted(ctx, t)
    ty = whnf(ctx, ty)  # an `@name` comes back as inferred
    if isinstance(ty, VType):
        return core, ty.level.index
    if isinstance(ty, VNeutral) and isinstance(ty.head, HMeta):
        unify(ctx, ty, VType(Level(0)), t.span)
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
            raise TypeMismatch(
                arg.span,
                "a function type",
                ctx.show(ty),
                note="applying an argument",
            )
        arg_core = check(ctx, arg, ty.domain)
        core = App(core, arg_core)
        ty = ty.closure.apply(ctx.eval(arg_core))
    return core, ty


def _elab_j(ctx: ElabCtx, head: JSugar, extra: list[SurfaceTerm]) -> tuple[CoreTerm, Value]:
    parts = [p for p in (head.motive, head.base, head.path) if p is not None]
    args = parts + extra
    if len(args) < 3:
        m = ctx.metas.fresh(ctx.depth, head.span)
        raise UnsolvedMeta(head.span, m.id, "the motive of J is underdetermined")
    motive_s, base_s, path_s = args[0], args[1], args[2]
    rest = args[3:]

    path_core, path_ty = _infer_inserted(ctx, path_s)
    path_ty = whnf(ctx, path_ty)  # an `@name` comes back as inferred
    if isinstance(path_ty, VNeutral) and isinstance(path_ty.head, HMeta):
        _, t_v = ctx.fresh_meta(head.span)
        _, a_v = ctx.fresh_meta(head.span)
        _, b_v = ctx.fresh_meta(head.span)
        unify(ctx, path_ty, VId(t_v, a_v, b_v), path_s.span)
        path_ty = whnf(ctx, path_ty)
    if not isinstance(path_ty, VId):
        raise TypeMismatch(
            path_s.span,
            "an identity type",
            ctx.show(path_ty),
            note="elaborating the path argument of J",
        )
    ty_v, a_v, b_v = path_ty.type, path_ty.lhs, path_ty.rhs

    motive_core, motive_ty = infer(ctx, motive_s)
    motive_ty = whnf(ctx, motive_ty)
    mspan = motive_s.span
    if not isinstance(motive_ty, VPi):
        raise TypeMismatch(mspan, "a two-argument function", ctx.show(motive_ty),
                           note="elaborating the motive of J")
    unify(ctx, motive_ty.domain, ty_v, mspan)
    x = fresh_var(ctx.depth)
    inner = whnf(ctx, motive_ty.closure.apply(x))
    if not isinstance(inner, VPi):
        raise TypeMismatch(mspan, "a two-argument function", ctx.show(motive_ty),
                           note="elaborating the motive of J")
    _unify(ctx, ctx.depth + 1, inner.domain, VId(ty_v, a_v, x), mspan)

    motive_v = ctx.eval(motive_core)
    base_expect = apply_value(apply_value(motive_v, a_v), VRefl(a_v))
    base_core = check(ctx, base_s, base_expect)

    endpoint_core = ctx.quote(ctx.depth, whnf(ctx, b_v))
    core: CoreTerm = J(motive_core, base_core, endpoint_core, path_core)
    result_ty = apply_value(apply_value(motive_v, b_v), ctx.eval(path_core))
    return _apply_args(ctx, core, result_ty, rest, False)


# ---------------------------------------------------------------------------
# Zonking and declaration elaboration


def zonk(ctx: ElabCtx, t: CoreTerm, depth: int = 0) -> CoreTerm:
    """Replace each solved meta in `t` (under `depth` binders) by its zonked
    solution; an unsolved meta raises UnsolvedMeta. Sharing: a node is rebuilt
    only when a child changed, so a meta-free subterm comes back as itself."""
    tt = type(t)  # exact-type tests, most frequent first
    if tt is Var or tt is Global or tt is Type:
        return t
    if tt is App:
        f, x = zonk(ctx, t.fn, depth), zonk(ctx, t.arg, depth)
        return t if f is t.fn and x is t.arg else App(f, x)
    if tt is Refl:
        p = zonk(ctx, t.point, depth)
        return t if p is t.point else Refl(p)
    if tt is Meta:
        m = ctx.metas.get(t.id)
        if m.solution is None:
            raise UnsolvedMeta(m.span, t.id)
        if depth < m.depth:
            raise ElabError(m.span, "meta solution escapes its context")
        sol = m.solution if depth == m.depth else shift(m.solution, 0, depth - m.depth)
        return zonk(ctx, sol, depth)
    if tt is Id:
        ty, l, r = zonk(ctx, t.type, depth), zonk(ctx, t.lhs, depth), zonk(ctx, t.rhs, depth)
        return t if ty is t.type and l is t.lhs and r is t.rhs else Id(ty, l, r)
    if tt is Lam:
        ann, body = zonk(ctx, t.ann, depth), zonk(ctx, t.body, depth + 1)
        return t if body is t.body and ann is t.ann else Lam(t.hint, body, ann, t.implicit)
    if tt is Pi:
        dom, cod = zonk(ctx, t.domain, depth), zonk(ctx, t.codomain, depth + 1)
        return t if dom is t.domain and cod is t.codomain else Pi(t.hint, dom, cod, t.implicit)
    if tt is J:
        m, b = zonk(ctx, t.motive, depth), zonk(ctx, t.base, depth)
        e, p = zonk(ctx, t.endpoint, depth), zonk(ctx, t.path, depth)
        same = m is t.motive and b is t.base and e is t.endpoint and p is t.path
        return t if same else J(m, b, e, p)
    raise AssertionError(f"cannot zonk {t!r}")


def elaborate_decl(globals: GlobalEnv, d: SurfaceDecl) -> CoreDecl:
    """Elaborate a def or axiom to a meta-free CoreDecl.

    Binders are folded into Pi/Lam prefixes; the result re-checks in the
    kernel without elaborator involvement.
    """
    if not isinstance(d, (Def, Axiom)):
        raise ValueError("only def/axiom declarations become CoreDecls")

    ctx, bound = _bind(ElabCtx(globals), d.binders)
    result_core, _ = _as_type(ctx, d.result_type)
    body_core = check(ctx, d.body, ctx.eval(result_core)) if isinstance(d, Def) else None
    type_core = result_core
    for name, ann_core, _, _, implicit in reversed(bound):
        type_core = Pi(name, ann_core, type_core, implicit)
        if body_core is not None:
            body_core = Lam(name, body_core, ann_core, implicit)

    base_ctx = ElabCtx(globals, ctx.metas)
    type_core = zonk(base_ctx, type_core)
    if body_core is not None:
        body_core = zonk(base_ctx, body_core)
    return CoreDecl(d.name, type_core, body_core)


def elaborate_term(globals: GlobalEnv, t: SurfaceTerm) -> tuple[CoreTerm, CoreTerm]:
    """Elaborate a closed term; returns (term, type) as meta-free cores."""
    ctx = ElabCtx(globals)
    # No trailing implicit insertion at top level: an implicit-Pi-typed
    # result (say, a bare polymorphic global) stays as it is.
    core, ty = infer(ctx, t)
    core = zonk(ctx, core)
    ty_core = zonk(ctx, ctx.quote(0, ty))
    return core, ty_core
