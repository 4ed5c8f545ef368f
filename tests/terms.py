"""Helpers that only the tests use: over core terms, alpha equivalence,
subterm replacement by preorder position, free indices, and tree and DAG
size; over surface terms, a printer whose output parses back to the same
term."""

from __future__ import annotations

from hpt.core import (
    App, CoreTerm, Global, Id, J, Lam, Meta, Pi, Refl, SUBTERMS, Type, Var, rebuild, subterms,
)
from hpt.surface import (
    Binder,
    Hole,
    IdSugar,
    JSugar,
    Name,
    ReflSugar,
    SApp,
    SLam,
    SPi,
    SurfaceTerm,
    TypeU,
)


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
    return tuple(u for u, _ in subterms(t))


def replace_at(t: CoreTerm, pos: int, new: CoreTerm) -> CoreTerm:
    """Replace the subterm at preorder position `pos` (0 = root) with `new`.
    Preorder visits each node's children in `core.SUBTERMS` order."""
    counter = [0]

    def go(node: CoreTerm, _depth: int = 0) -> CoreTerm:
        counter[0] += 1
        return new if counter[0] == pos + 1 else rebuild(node, go, 0)

    return go(t)


def free_indices(t: CoreTerm, cache: dict | None = None) -> frozenset[int]:
    """The free de Bruijn indices of `t`, by a plain walk of the subterm table:
    the oracle for `CoreTerm.free`. A meta counts as closed and a negative
    index as no index. `cache`, keyed by identity, makes a DAG cost its DAG
    size; it keeps each term alive."""
    cache = {} if cache is None else cache
    if id(t) not in cache:
        cache[id(t)] = t, frozenset([t.index] if type(t) is Var and t.index >= 0 else [
            i - k for n, k in SUBTERMS[type(t)] for i in free_indices(getattr(t, n), cache) if i >= k])
    return cache[id(t)][1]


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


def dag_size(t: CoreTerm) -> int:
    """DAG size: the number of structurally distinct subterms, where the
    non-term fields (hints, flags, indices, levels) and `Lam.ann` count."""
    keys: dict[int, int] = {}
    table: dict[tuple, int] = {}

    def go(u: CoreTerm) -> int:
        k = keys.get(id(u))
        if k is None:
            fields = tuple(getattr(u, n) for n in u.__match_args__)
            leaves = tuple(f for f in fields if not isinstance(f, CoreTerm))
            shape = (type(u), leaves, tuple(go(c) for c in children(u)))
            k = keys[id(u)] = table.setdefault(shape, len(table))
        return k

    go(t)
    return len(table)


# ---------------------------------------------------------------------------
# Printing surface terms

_PREC_LOW = 0  # fun, ->
_PREC_ID = 1
_PREC_CONCAT = 2
_PREC_PAR = 3
_PREC_APP = 4
_PREC_ATOM = 5


def print_surface(t: SurfaceTerm) -> str:
    return _print(t, _PREC_LOW)


def _print_binder(b: Binder) -> str:
    open_b, close_b = ("{", "}") if b.implicit else ("(", ")")
    ann = _print(b.annotation, _PREC_LOW)
    return f"{open_b}{' '.join(b.names)} : {ann}{close_b}"


def _print(t: SurfaceTerm, prec: int) -> str:
    match t:
        case Name(name=n, explicit_all=ex):
            return f"@{n}" if ex else n
        case Hole():
            return "_"
        case TypeU(level=0):
            return "Type"
        case TypeU(level=k):
            return _wrap(f"Type {k}", prec, _PREC_APP)
        case SLam(binders=bs, body=body):
            head = " ".join(_print_binder(b) for b in bs)
            return _wrap(f"fun {head} => {_print(body, _PREC_LOW)}", prec, _PREC_LOW)
        case SPi(binders=bs, codomain=cod):
            s = _print(cod, _PREC_LOW)
            for b in reversed(bs):
                # an anonymous binder prints as an arrow, whose domain is term1:
                # equations and nested arrows need parens
                dom = _print(b.annotation, _PREC_CONCAT) if b.names == ("_",) else _print_binder(b)
                s = f"{dom} -> {s}"
            return _wrap(s, prec, _PREC_LOW)
        case IdSugar(lhs=l, rhs=r):
            return _wrap(f"{_print(l, _PREC_CONCAT)} = {_print(r, _PREC_CONCAT)}", prec, _PREC_ID)
        case SApp(fn=SApp(fn=Name(name="concat", explicit_all=False), arg=l), arg=r):
            return _wrap(f"{_print(l, _PREC_CONCAT)} * {_print(r, _PREC_PAR)}", prec, _PREC_CONCAT)
        case SApp(fn=SApp(fn=Name(name="par-concat", explicit_all=False), arg=l), arg=r):
            return _wrap(f"{_print(l, _PREC_PAR)} ** {_print(r, _PREC_APP)}", prec, _PREC_PAR)
        case SApp(fn=f, arg=x):
            return _wrap(f"{_print(f, _PREC_APP)} {_print(x, _PREC_ATOM)}", prec, _PREC_APP)
        case ReflSugar(point=None):
            return "refl"
        case ReflSugar(point=p):
            return _wrap(f"refl {_print(p, _PREC_ATOM)}", prec, _PREC_APP)
        case JSugar():
            return "J"
    raise TypeError(f"not a surface term: {t!r}")


def _wrap(s: str, outer: int, inner: int) -> str:
    return f"({s})" if inner < outer else s
