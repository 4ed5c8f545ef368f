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

from dataclasses import dataclass, field

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
    apply_value,
    eval_term,
    force_top,
    fresh_var,
    identity_env,
    j_apply,
)
from .surface import (
    AssertDefeq,
    Axiom,
    Binder,
    CheckDirective,
    Def,
    EvalDirective,
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
        self.name = name


class UnsolvedMeta(ElabError):
    def __init__(self, span: SourceSpan, meta_id: int, note: str = ""):
        msg = f"unsolved metavariable ?{meta_id}"
        if note:
            msg += f" ({note})"
        super().__init__(span, msg)
        self.meta_id = meta_id


class TypeMismatch(ElabError):
    def __init__(self, span: SourceSpan, expected: str, found: str, note: str = ""):
        msg = f"type mismatch\n  expected: {expected}\n  found:    {found}"
        if note:
            msg += f"\n  while {note}"
        super().__init__(span, msg)
        self.expected = expected
        self.found = found


class OccursCheck(ElabError):
    def __init__(self, span: SourceSpan, meta_id: int):
        super().__init__(span, f"occurs check failed: ?{meta_id} would be cyclic")
        self.meta_id = meta_id


class UnifyFailure(ElabError):
    def __init__(self, span: SourceSpan, lhs: str, rhs: str):
        super().__init__(span, f"cannot unify\n  {lhs}\nwith\n  {rhs}")
        self.lhs = lhs
        self.rhs = rhs


@dataclass
class MetaVar:
    """A metavariable created at `depth` binders.

    Solutions are stored as open core terms valid under the meta's first
    `depth` binders; evaluating a solved meta under an environment means
    evaluating that term under the environment's first `depth` entries.
    This keeps solutions correct inside closures that are later applied
    to values other than the original fresh variables.
    """

    id: int
    depth: int
    expected_type: Value | None
    span: SourceSpan
    solution: CoreTerm | None = None
    # solution evaluated in the identity environment of `depth`, for reuse
    # while forcing values during the same elaboration session
    cached_value: Value | None = None


class MetaStore:
    def __init__(self) -> None:
        self._metas: dict[int, MetaVar] = {}
        self._next = 0
        self._log: list[int] = []

    def fresh(self, depth: int, expected_type: Value | None, span: SourceSpan) -> MetaVar:
        m = MetaVar(self._next, depth, expected_type, span)
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

    def unsolved(self) -> list[MetaVar]:
        return [m for m in self._metas.values() if m.solution is None]

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
        # Cached values computed during the speculation may embed the
        # rolled-back solutions, so all caches are dropped.
        for m in self._metas.values():
            m.cached_value = None

    def record_solved(self, meta_id: int) -> None:
        self._log.append(meta_id)


@dataclass
class ElabCtx:
    """One elaboration session: binders, globals, and the meta store."""

    globals: GlobalEnv
    metas: MetaStore = field(default_factory=MetaStore)
    bindings: list[tuple[str, Value, bool]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.bindings)

    def env(self) -> list[Value]:
        return identity_env(self.depth)

    def bound(self, name: str, ty: Value, implicit: bool) -> "ElabCtx":
        return ElabCtx(self.globals, self.metas, self.bindings + [(name, ty, implicit)])

    def lookup(self, name: str) -> tuple[int, Value] | None:
        for i, (n, ty, _) in enumerate(reversed(self.bindings)):
            if n == name:
                return i, ty
        return None

    def eval(self, t: CoreTerm) -> Value:
        return eval_term(self.env(), self.globals, t, self.metas)

    # -- meta machinery ------------------------------------------------------

    def fresh_meta(self, expected_type: Value | None, span: SourceSpan) -> tuple[CoreTerm, Value]:
        m = self.metas.fresh(self.depth, expected_type, span)
        return Meta(m.id), VNeutral(HMeta(m.id))

    def force(self, v: Value) -> Value:
        while isinstance(v, VNeutral) and isinstance(v.head, HMeta):
            meta = self.metas.get(v.head.id)
            if meta.solution is None:
                return v
            sol = meta.cached_value
            if sol is None:
                sol = eval_term(identity_env(meta.depth), self.globals, meta.solution, self.metas)
                meta.cached_value = sol
            for elim in v.spine:
                match elim:
                    case EApp(arg):
                        sol = apply_value(sol, arg)
                    case EJ(m, b, e):
                        sol = j_apply(m, b, e, sol)
            v = sol
        return v

    def quote(self, depth: int, v: Value) -> CoreTerm:
        """Read a value back to a term, resolving solved metas; unsolved
        metas stay as Meta nodes, to be zonked later."""
        return kernel.readback(depth, v, force=self.force)

    def show(self, v: Value) -> str:
        names = [n for (n, _, _) in self.bindings]
        return pretty(self.quote(self.depth, v), names)


_NOSPAN = SourceSpan("<internal>", 1, 1, 1, 1)


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
            # Domain annotations are carried on lambda values; decomposing
            # them solves corner metas that the body alone never mentions.
            if l.domain is not None and r.domain is not None:
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
# Universe estimation for inferred Id/Pi formation


def universe_of(ctx: ElabCtx, v: Value, depth: int | None = None) -> int:
    """Universe index of a type value. Flexible types default to 0; the
    kernel re-check is the authority."""
    v = force_top(ctx.force(v))
    d = ctx.depth if depth is None else depth
    match v:
        case VType(lvl):
            return lvl.index + 1
        case VId(t, _, _):
            return universe_of(ctx, t, d)
        case VPi(_, dom, clo, _):
            a = universe_of(ctx, dom, d)
            b = universe_of(ctx, clo.apply(fresh_var(d)), d + 1)
            return max(a, b)
        case VNeutral(head, _):
            match head:
                case HGlobal(name):
                    entry = ctx.globals.get(name)
                    if entry is not None and isinstance(entry.type_value, VType):
                        return entry.type_value.level.index
                    return 0
                case HVar(lvl):
                    if lvl < len(ctx.bindings):
                        ty = ctx.force(ctx.bindings[lvl][1])
                        if isinstance(ty, VType):
                            return ty.level.index
                    return 0
                case _:
                    return 0
    return 0


# ---------------------------------------------------------------------------
# Bidirectional elaboration


def infer(ctx: ElabCtx, t: SurfaceTerm) -> tuple[CoreTerm, Value]:
    match t:
        case Name(name=n, span=span, explicit_all=ex):
            hit = ctx.lookup(n)
            if hit is not None:
                idx, ty = hit
                return Var(idx), ty
            entry = ctx.globals.get(n)
            if entry is not None:
                return Global(n), entry.type_value
            raise UnboundName(span, n)
        case Hole(span=span):
            _, ty_v = ctx.fresh_meta(None, span)
            core, _ = ctx.fresh_meta(ty_v, span)
            return core, ty_v
        case TypeU(level=k):
            return Type(Level(k)), VType(Level(k + 1))
        case SArrow(domain=d, codomain=c, span=span):
            d_core, _ = _as_type(ctx, d)
            c_core, _ = _as_type(ctx, c)
            dom_v = ctx.eval(d_core)
            lvl = max(universe_of(ctx, dom_v), universe_of(ctx, ctx.eval(c_core)))
            return Pi("_", d_core, shift(c_core, 0, 1), False), VType(Level(lvl))
        case SPi(binders=bs, codomain=cod, span=span):
            return _elab_pi(ctx, list(_each_binder(bs)), cod)
        case SLam(binders=bs, body=body, span=span):
            return _infer_lam(ctx, list(_each_binder(bs)), body)
        case IdSugar(lhs=l, rhs=r, span=span):
            l_core, l_ty = infer(ctx, l)
            l_core, l_ty = _insert_all_implicits(ctx, l_core, l_ty, l)
            r_core = check(ctx, r, l_ty)
            ty_core = ctx.quote(ctx.depth, l_ty)
            return Id(ty_core, l_core, r_core), VType(Level(universe_of(ctx, l_ty)))
        case ReflSugar(point=p, span=span):
            if p is None:
                pt_ty_core, pt_ty = ctx.fresh_meta(None, span)
                pt_core, pt_v = ctx.fresh_meta(pt_ty, span)
                return Refl(pt_core), VId(pt_ty, pt_v, pt_v)
            p_core, p_ty = infer(ctx, p)
            p_core, p_ty = _insert_all_implicits(ctx, p_core, p_ty, p)
            pv = ctx.eval(p_core)
            return Refl(p_core), VId(p_ty, pv, pv)
        case JSugar(span=span):
            return _elab_j(ctx, t, [])
        case SApp():
            head, args = _spine(t)
            if isinstance(head, JSugar):
                return _elab_j(ctx, head, args)
            if isinstance(head, ReflSugar) and head.point is None and args:
                inner = ReflSugar(args[0], head.span)
                core, ty = infer(ctx, inner)
                return _apply_args(ctx, core, ty, args[1:], False, t.span)
            core, ty = infer(ctx, head)
            ex = isinstance(head, Name) and head.explicit_all
            return _apply_args(ctx, core, ty, args, ex, t.span)
    raise ElabError(getattr(t, "span", _NOSPAN), f"cannot elaborate {t!r}")


def check(ctx: ElabCtx, t: SurfaceTerm, expected: Value) -> CoreTerm:
    expected = whnf(ctx, expected)
    span = getattr(t, "span", _NOSPAN)

    match t:
        case Hole(span=hspan):
            core, _ = ctx.fresh_meta(expected, hspan)
            return core
        case ReflSugar(point=None, span=rspan) if isinstance(expected, VId):
            unify(ctx, expected.lhs, expected.rhs, rspan)
            return Refl(ctx.quote(ctx.depth, expected.lhs))
        case SLam(binders=bs, body=body):
            return _check_lam(ctx, list(_each_binder(bs)), body, expected, span)
        case _:
            pass

    # implicit function expected, term is not an implicit lambda: wrap
    if isinstance(expected, VPi) and expected.implicit:
        inner_ctx = ctx.bound(expected.hint, expected.domain, True)
        body = check(inner_ctx, t, expected.closure.apply(fresh_var(ctx.depth)))
        ann = ctx.quote(ctx.depth, expected.domain)
        return Lam(expected.hint, body, ann, True)

    core, ty = infer(ctx, t)
    ex = isinstance(t, Name) and t.explicit_all
    if not ex:
        core, ty = _insert_all_implicits(ctx, core, ty, t)
    try:
        unify(ctx, ty, expected, span)
    except (UnifyFailure, OccursCheck) as e:
        if isinstance(e, OccursCheck):
            raise
        raise TypeMismatch(span, ctx.show(expected), ctx.show(ty)) from e
    return core


def _each_binder(bs: tuple[Binder, ...]):
    for b in bs:
        for name in b.names:
            yield name, b.annotation, b.implicit, b.span


def _elab_binder_annotation(
    ctx: ElabCtx, ann: SurfaceTerm | None, span: SourceSpan
) -> tuple[CoreTerm, Value]:
    if ann is None or isinstance(ann, Hole):
        core, v = ctx.fresh_meta(None, span if ann is None else ann.span)
        return core, v
    core, _ = _as_type(ctx, ann)
    return core, ctx.eval(core)


def _as_type(ctx: ElabCtx, t: SurfaceTerm) -> tuple[CoreTerm, int]:
    span = getattr(t, "span", _NOSPAN)
    if isinstance(t, Hole):
        core, _ = ctx.fresh_meta(None, span)
        return core, 0
    core, ty = infer(ctx, t)
    core, ty = _insert_all_implicits(ctx, core, ty, t)
    ty = whnf(ctx, ty)
    if isinstance(ty, VType):
        return core, ty.level.index
    if isinstance(ty, VNeutral) and isinstance(ty.head, HMeta):
        unify(ctx, ty, VType(Level(0)), span)
        return core, 0
    raise TypeMismatch(span, "a universe", ctx.show(ty), note="elaborating a type")


def _elab_pi(ctx: ElabCtx, binders: list, cod: SurfaceTerm) -> tuple[CoreTerm, Value]:
    if not binders:
        core, lvl = _as_type(ctx, cod)
        return core, VType(Level(lvl))
    name, ann, implicit, span = binders[0]
    ann_core, ann_v = _elab_binder_annotation(ctx, ann, span)
    inner = ctx.bound(name, ann_v, implicit)
    cod_core, cod_ty = _elab_pi(inner, binders[1:], cod)
    lvl = max(universe_of(ctx, ann_v), cod_ty.level.index if isinstance(cod_ty, VType) else 0)
    return Pi(name, ann_core, cod_core, implicit), VType(Level(lvl))


def _infer_lam(ctx: ElabCtx, binders: list, body: SurfaceTerm) -> tuple[CoreTerm, Value]:
    if not binders:
        return infer(ctx, body)
    name, ann, implicit, span = binders[0]
    ann_core, ann_v = _elab_binder_annotation(ctx, ann, span)
    inner = ctx.bound(name, ann_v, implicit)
    body_core, body_ty = _infer_lam(inner, binders[1:], body)
    cod_core = inner.quote(inner.depth, body_ty)
    pi_v = VPi(name, ann_v, Closure(tuple(ctx.env()), cod_core, ctx.globals, ctx.metas), implicit)
    return Lam(name, body_core, ann_core, implicit), pi_v


def _check_lam(
    ctx: ElabCtx, binders: list, body: SurfaceTerm, expected: Value, span: SourceSpan
) -> CoreTerm:
    if not binders:
        return check(ctx, body, expected)
    expected = whnf(ctx, expected)
    name, ann, implicit, bspan = binders[0]
    if not isinstance(expected, VPi):
        raise TypeMismatch(
            span, ctx.show(expected), "a function", note="checking a lambda"
        )
    if expected.implicit and not implicit:
        # insert an implicit lambda and retry the same binders
        inner_ctx = ctx.bound(expected.hint, expected.domain, True)
        inner = _check_lam(
            inner_ctx, binders, body, expected.closure.apply(fresh_var(ctx.depth)), span
        )
        return Lam(expected.hint, inner, ctx.quote(ctx.depth, expected.domain), True)
    if implicit and not expected.implicit:
        raise TypeMismatch(
            bspan, ctx.show(expected), "an implicit binder", note="checking a lambda"
        )
    if ann is not None and not isinstance(ann, Hole):
        ann_core, _ = _as_type(ctx, ann)
        ann_v = ctx.eval(ann_core)
        unify(ctx, ann_v, expected.domain, bspan)
    else:
        ann_core = ctx.quote(ctx.depth, expected.domain)
    inner_ctx = ctx.bound(name, expected.domain, implicit)
    body_core = _check_lam(
        inner_ctx, binders[1:], body, expected.closure.apply(fresh_var(ctx.depth)), span
    )
    return Lam(name, body_core, ann_core, implicit)


def _spine(t: SurfaceTerm) -> tuple[SurfaceTerm, list[SurfaceTerm]]:
    args: list[SurfaceTerm] = []
    while isinstance(t, SApp):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _insert_all_implicits(
    ctx: ElabCtx, core: CoreTerm, ty: Value, t: SurfaceTerm
) -> tuple[CoreTerm, Value]:
    if isinstance(t, Name) and t.explicit_all:
        return core, ty
    span = getattr(t, "span", _NOSPAN)
    ty = whnf(ctx, ty)
    while isinstance(ty, VPi) and ty.implicit:
        m_core, m_val = ctx.fresh_meta(ty.domain, span)
        core = App(core, m_core)
        ty = whnf(ctx, ty.closure.apply(m_val))
    return core, ty


def _apply_args(
    ctx: ElabCtx,
    core: CoreTerm,
    ty: Value,
    args: list[SurfaceTerm],
    explicit_all: bool,
    span: SourceSpan,
) -> tuple[CoreTerm, Value]:
    for arg in args:
        if not explicit_all:
            ty = whnf(ctx, ty)
            while isinstance(ty, VPi) and ty.implicit:
                m_core, m_val = ctx.fresh_meta(ty.domain, getattr(arg, "span", span))
                core = App(core, m_core)
                ty = whnf(ctx, ty.closure.apply(m_val))
        ty = whnf(ctx, ty)
        if not isinstance(ty, VPi):
            raise TypeMismatch(
                getattr(arg, "span", span),
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
        m = ctx.metas.fresh(ctx.depth, None, head.span)
        raise UnsolvedMeta(head.span, m.id, "the motive of J is underdetermined")
    motive_s, base_s, path_s = args[0], args[1], args[2]
    rest = args[3:]

    path_core, path_ty = infer(ctx, path_s)
    path_core, path_ty = _insert_all_implicits(ctx, path_core, path_ty, path_s)
    path_ty = whnf(ctx, path_ty)
    if isinstance(path_ty, VNeutral) and isinstance(path_ty.head, HMeta):
        t_core, t_v = ctx.fresh_meta(None, head.span)
        a_core, a_v = ctx.fresh_meta(t_v, head.span)
        b_core, b_v = ctx.fresh_meta(t_v, head.span)
        unify(ctx, path_ty, VId(t_v, a_v, b_v), getattr(path_s, "span", head.span))
        path_ty = whnf(ctx, path_ty)
    if not isinstance(path_ty, VId):
        raise TypeMismatch(
            getattr(path_s, "span", head.span),
            "an identity type",
            ctx.show(path_ty),
            note="elaborating the path argument of J",
        )
    ty_v, a_v, b_v = path_ty.type, path_ty.lhs, path_ty.rhs

    motive_core, motive_ty = infer(ctx, motive_s)
    motive_ty = whnf(ctx, motive_ty)
    mspan = getattr(motive_s, "span", head.span)
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
    return _apply_args(ctx, core, result_ty, rest, False, head.span)


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
        ann = zonk(ctx, t.ann, depth) if t.ann is not None else None
        body = zonk(ctx, t.body, depth + 1)
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

    ctx = ElabCtx(globals)
    binder_info: list[tuple[str, CoreTerm, bool]] = []
    for name, ann, implicit, bspan in _each_binder(d.binders):
        ann_core, ann_v = _elab_binder_annotation(ctx, ann, bspan)
        binder_info.append((name, ann_core, implicit))
        ctx = ctx.bound(name, ann_v, implicit)

    result_core, _ = _as_type(ctx, d.result_type)

    body_core: CoreTerm | None = None
    if isinstance(d, Def):
        expected = ctx.eval(result_core)
        body_core = check(ctx, d.body, expected)

    type_core = result_core
    for name, ann_core, implicit in reversed(binder_info):
        type_core = Pi(name, ann_core, type_core, implicit)
    if body_core is not None:
        for name, ann_core, implicit in reversed(binder_info):
            body_core = Lam(name, body_core, ann_core, implicit)

    base_ctx = ElabCtx(globals, ctx.metas)
    type_core = zonk(base_ctx, type_core)
    if body_core is not None:
        body_core = zonk(base_ctx, body_core)
    return CoreDecl(d.name, type_core, body_core)


def elaborate_term(
    globals: GlobalEnv, t: SurfaceTerm, expected: Value | None = None
) -> tuple[CoreTerm, CoreTerm]:
    """Elaborate a closed term; returns (term, type) as meta-free cores."""
    ctx = ElabCtx(globals)
    if expected is None:
        # No trailing implicit insertion at top level: an implicit-Pi-typed
        # result (say, a bare polymorphic global) stays as it is.
        core, ty = infer(ctx, t)
    else:
        core = check(ctx, t, expected)
        ty = expected
    core = zonk(ctx, core)
    ty_core = zonk(ctx, ctx.quote(0, ty))
    return core, ty_core
