"""Kernel term language: nameless (de Bruijn) syntax and structural utilities.

Terms are immutable after construction and nothing here mutates its input,
so terms can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Level:
    """Universe index, 0-based. The corpus only ever uses 0 and 1."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("universe index must be non-negative")


class CoreTerm:
    """Base class for kernel terms. Variables are de Bruijn indices."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(CoreTerm):
    index: int


@dataclass(frozen=True, slots=True)
class Global(CoreTerm):
    name: str


@dataclass(frozen=True, slots=True)
class Lam(CoreTerm):
    # `hint` is display-only and never affects equality or evaluation.
    # `ann` is an optional domain annotation; the elaborator always fills it
    # so that bare lambdas remain inferable. It is ignored by alpha_eq.
    hint: str
    body: CoreTerm
    ann: CoreTerm | None = field(default=None, compare=False)
    implicit: bool = False


@dataclass(frozen=True, slots=True)
class App(CoreTerm):
    fn: CoreTerm
    arg: CoreTerm


@dataclass(frozen=True, slots=True)
class Pi(CoreTerm):
    hint: str
    domain: CoreTerm
    codomain: CoreTerm
    implicit: bool = False


@dataclass(frozen=True, slots=True)
class Type(CoreTerm):
    level: Level


@dataclass(frozen=True, slots=True)
class Id(CoreTerm):
    type: CoreTerm
    lhs: CoreTerm
    rhs: CoreTerm


@dataclass(frozen=True, slots=True)
class Refl(CoreTerm):
    point: CoreTerm


@dataclass(frozen=True, slots=True)
class J(CoreTerm):
    """Based path induction.

    `motive` binds the free endpoint and the path; `base` is the value at
    refl; `endpoint` is retained for display and re-checking but the
    evaluator recomputes nothing from it.
    """

    motive: CoreTerm
    base: CoreTerm
    endpoint: CoreTerm
    path: CoreTerm


@dataclass(frozen=True, slots=True)
class Meta(CoreTerm):
    """Elaboration-time placeholder. Never present in checked declarations."""

    id: int


@dataclass(frozen=True)
class CoreDecl:
    name: str
    type: CoreTerm
    body: CoreTerm | None  # None for axioms


def alpha_eq(a: CoreTerm, b: CoreTerm) -> bool:
    """Structural equality ignoring binder-name hints and lambda annotations."""
    match a, b:
        case Var(i), Var(j):
            return i == j
        case Global(n), Global(m):
            return n == m
        case Lam(_, body1, _, i1), Lam(_, body2, _, i2):
            return i1 == i2 and alpha_eq(body1, body2)
        case App(f1, x1), App(f2, x2):
            return alpha_eq(f1, f2) and alpha_eq(x1, x2)
        case Pi(_, d1, c1, i1), Pi(_, d2, c2, i2):
            return i1 == i2 and alpha_eq(d1, d2) and alpha_eq(c1, c2)
        case Type(l1), Type(l2):
            return l1 == l2
        case Id(t1, l1, r1), Id(t2, l2, r2):
            return alpha_eq(t1, t2) and alpha_eq(l1, l2) and alpha_eq(r1, r2)
        case Refl(p1), Refl(p2):
            return alpha_eq(p1, p2)
        case J(m1, b1, e1, p1), J(m2, b2, e2, p2):
            return (
                alpha_eq(m1, m2)
                and alpha_eq(b1, b2)
                and alpha_eq(e1, e2)
                and alpha_eq(p1, p2)
            )
        case Meta(i), Meta(j):
            return i == j
        case _:
            return False


def shift(t: CoreTerm, cutoff: int, amount: int) -> CoreTerm:
    """Add `amount` to every free index >= cutoff. Bound indices untouched;
    a subterm with no free index >= cutoff comes back as the same object."""
    match t:
        case Var(i):
            return Var(i + amount) if i >= cutoff else t
        case Global() | Type() | Meta():
            return t
        case Lam(h, body, ann, imp):
            body2 = shift(body, cutoff + 1, amount)
            ann2 = None if ann is None else shift(ann, cutoff, amount)
            return t if body2 is body and ann2 is ann else Lam(h, body2, ann2, imp)
        case App(f, x):
            f2, x2 = shift(f, cutoff, amount), shift(x, cutoff, amount)
            return t if f2 is f and x2 is x else App(f2, x2)
        case Pi(h, dom, cod, imp):
            dom2, cod2 = shift(dom, cutoff, amount), shift(cod, cutoff + 1, amount)
            return t if dom2 is dom and cod2 is cod else Pi(h, dom2, cod2, imp)
        case Id(ty, l, r):
            ty2, l2 = shift(ty, cutoff, amount), shift(l, cutoff, amount)
            r2 = shift(r, cutoff, amount)
            return t if ty2 is ty and l2 is l and r2 is r else Id(ty2, l2, r2)
        case Refl(p):
            p2 = shift(p, cutoff, amount)
            return t if p2 is p else Refl(p2)
        case J(m, b, e, p):
            m2, b2 = shift(m, cutoff, amount), shift(b, cutoff, amount)
            e2, p2 = shift(e, cutoff, amount), shift(p, cutoff, amount)
            return t if m2 is m and b2 is b and e2 is e and p2 is p else J(m2, b2, e2, p2)
    raise TypeError(f"not a core term: {t!r}")


def children(t: CoreTerm) -> tuple[CoreTerm, ...]:
    match t:
        case Var() | Global() | Type() | Meta():
            return ()
        case Lam(_, body, ann):
            return (body,) if ann is None else (ann, body)
        case App(f, x):
            return (f, x)
        case Pi(_, dom, cod, _):
            return (dom, cod)
        case Id(ty, l, r):
            return (ty, l, r)
        case Refl(p):
            return (p,)
        case J(m, b, e, p):
            return (m, b, e, p)
    raise TypeError(f"not a core term: {t!r}")


def replace_at(t: CoreTerm, pos: int, new: CoreTerm) -> CoreTerm:
    """Replace the subterm at preorder position `pos` (0 = root) with `new`."""
    counter = [0]

    def go(node: CoreTerm) -> CoreTerm:
        if counter[0] == pos:
            counter[0] += 1
            return new
        counter[0] += 1
        match node:
            case Var() | Global() | Type() | Meta():
                return node
            case Lam(h, body, ann, imp):
                ann2 = None if ann is None else go(ann)
                return Lam(h, go(body), ann2, imp)
            case App(f, x):
                return App(go(f), go(x))
            case Pi(h, dom, cod, imp):
                return Pi(h, go(dom), go(cod), imp)
            case Id(ty, l, r):
                return Id(go(ty), go(l), go(r))
            case Refl(p):
                return Refl(go(p))
            case J(m, b, e, p):
                return J(go(m), go(b), go(e), go(p))
        raise TypeError(f"not a core term: {node!r}")

    return go(t)


def term_size(t: CoreTerm) -> int:
    return 1 + sum(term_size(c) for c in children(t))


# ---------------------------------------------------------------------------
# Pretty-printing back to surface syntax.
#
# Precedence levels (loosest to tightest):
#   0  fun / (x : T) -> ...
#   1  =        (non-associative)
#   2  *        (left)
#   3  **       (left)
#   4  application
#   5  atoms

_PREC_ARROW = 0
_PREC_ID = 1
_PREC_CONCAT = 2
_PREC_PAR = 3
_PREC_APP = 4
_PREC_ATOM = 5


def _fresh_name(hint: str, used: set[str]) -> str:
    base = hint if hint and hint != "_" else "x"
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def pretty(t: CoreTerm, names: list[str] | None = None) -> str:
    """Render a core term as surface syntax.

    `names` supplies binder names outermost-first for the term's free
    variables; it must be at least as deep as the term's context.
    """
    names = list(names or [])
    return _pp(t, names, _PREC_ARROW)


def _pp(t: CoreTerm, names: list[str], prec: int) -> str:
    match t:
        case Var(i):
            if 0 <= i < len(names):
                return names[len(names) - 1 - i]
            return f"!{i}"
        case Global(n):
            return n
        case Meta(i):
            return f"?{i}"
        case Type(Level(0)):
            return "Type"
        case Type(Level(k)):
            return _parens(f"Type {k}", prec, _PREC_APP)
        case Refl(p):
            return _parens(f"refl {_pp(p, names, _PREC_ATOM)}", prec, _PREC_APP)
        case Id(_, l, r):
            s = f"{_pp(l, names, _PREC_CONCAT)} = {_pp(r, names, _PREC_CONCAT)}"
            return _parens(s, prec, _PREC_ID)
        case J(m, b, _, p):
            parts = [
                "J",
                _pp(m, names, _PREC_ATOM),
                _pp(b, names, _PREC_ATOM),
                _pp(p, names, _PREC_ATOM),
            ]
            return _parens(" ".join(parts), prec, _PREC_APP)
        case App(f, x):
            # Fully applied concatenation operators print as their sugar.
            spine = [x]
            head = f
            while isinstance(head, App):
                spine.append(head.arg)
                head = head.fn
            spine.reverse()
            if isinstance(head, Global):
                if head.name == "concat" and len(spine) == 6:
                    s = f"{_pp(spine[4], names, _PREC_CONCAT)} * {_pp(spine[5], names, _PREC_PAR)}"
                    return _parens(s, prec, _PREC_CONCAT)
                if head.name == "par-concat" and len(spine) == 10:
                    s = f"{_pp(spine[8], names, _PREC_PAR)} ** {_pp(spine[9], names, _PREC_APP)}"
                    return _parens(s, prec, _PREC_PAR)
            s = f"{_pp(f, names, _PREC_APP)} {_pp(x, names, _PREC_ATOM)}"
            return _parens(s, prec, _PREC_APP)
        case Lam(h, body, ann, imp):
            used = set(names)
            n = _fresh_name(h, used)
            ann_s = _pp(ann, names, _PREC_ARROW) if ann is not None else "_"
            body_s = _pp(body, names + [n], _PREC_ARROW)
            open_b, close_b = ("{", "}") if imp else ("(", ")")
            return _parens(f"fun {open_b}{n} : {ann_s}{close_b} => {body_s}", prec, _PREC_ARROW)
        case Pi(h, dom, cod, imp):
            dom_s = _pp(dom, names, _PREC_ARROW)
            if not imp and not mentions(cod, 0, 1):
                # non-dependent: print as an arrow; the domain is term1, so
                # equations and nested arrows need parentheses
                dom_head = _pp(dom, names, _PREC_CONCAT)
                cod_s = _pp(cod, names + ["_"], _PREC_ARROW)
                return _parens(f"{dom_head} -> {cod_s}", prec, _PREC_ARROW)
            used = set(names)
            n = _fresh_name(h, used)
            cod_s = _pp(cod, names + [n], _PREC_ARROW)
            open_b, close_b = ("{", "}") if imp else ("(", ")")
            return _parens(f"{open_b}{n} : {dom_s}{close_b} -> {cod_s}", prec, _PREC_ARROW)
    raise TypeError(f"not a core term: {t!r}")


def _parens(s: str, outer: int, inner: int) -> str:
    return f"({s})" if inner < outer else s


def mentions(t: CoreTerm, lo: int, n: int, meta: int | None = None) -> bool:
    """Does `t` use a free index in [lo, lo + n) (counted at `t`'s root), or
    contain Meta(meta)?"""
    match t:
        case Var(i):
            return lo <= i < lo + n
        case Meta(i):
            return i == meta
        case Global() | Type():
            return False
        case Lam(_, body, ann):
            if ann is not None and mentions(ann, lo, n, meta):
                return True
            return mentions(body, lo + 1, n, meta)
        case App(f, x):
            return mentions(f, lo, n, meta) or mentions(x, lo, n, meta)
        case Pi(_, dom, cod, _):
            return mentions(dom, lo, n, meta) or mentions(cod, lo + 1, n, meta)
        case Id(ty, l, r):
            return any(mentions(u, lo, n, meta) for u in (ty, l, r))
        case Refl(p):
            return mentions(p, lo, n, meta)
        case J(m, b, e, p):
            return any(mentions(u, lo, n, meta) for u in (m, b, e, p))
    raise TypeError(f"not a core term: {t!r}")
