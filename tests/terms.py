"""Structural helpers over core terms that only the tests use: alpha
equivalence, subterm replacement by preorder position, and tree size."""

from __future__ import annotations

from hpt.core import App, CoreTerm, Global, Id, J, Lam, Meta, Pi, Refl, Type, Var


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
    """Tree size: a subterm shared by several parents counts once for each.
    Each node object is walked once per call, so a DAG costs its DAG size."""
    sizes: dict[int, int] = {}

    def go(u: CoreTerm) -> int:
        n = sizes.get(id(u))
        if n is None:
            n = sizes[id(u)] = 1 + sum(go(c) for c in children(u))
        return n

    return go(t)
