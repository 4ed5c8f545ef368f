"""Kernel term language: nameless (de Bruijn) syntax and structural utilities.

Terms are immutable by convention, as `kernel.Closure` is, and are shared
freely; the one exception is `Meta`, the metavariable itself, whose scope and
solution `elab.MetaStore` updates in place. `has_meta` says whether a `Meta`
lies in the tree: a node sets it from its children when built, and a leaf
class fixes it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass


def _meta(t: object) -> bool:
    return getattr(t, "has_meta", False)  # a non-term child holds no meta


class CoreTerm:
    """Base class for kernel terms. Variables are de Bruijn indices.

    `__match_args__` names the fields in order; `repr`, `==` and `hash` use
    them as a frozen dataclass's would (`Lam` leaves `ann` out of the last two).
    """

    __slots__ = ()
    has_meta = False

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Var(CoreTerm):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


class Global(CoreTerm):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Lam(CoreTerm):
    # `hint` is display-only and never affects evaluation or conversion,
    # though `==` compares it. `ann` is the domain, which every lambda
    # carries so that it infers; `==` and `hash` ignore it.
    __match_args__ = ("hint", "body", "ann", "implicit")
    __slots__ = __match_args__ + ("has_meta",)

    def __init__(self, hint: str, body: CoreTerm, ann: CoreTerm, implicit: bool = False) -> None:
        self.hint, self.body, self.ann, self.implicit = hint, body, ann, implicit
        self.has_meta = _meta(body) or _meta(ann)

    def _key(self) -> tuple:
        return (self.hint, self.body, self.implicit)


class App(CoreTerm):
    __match_args__ = ("fn", "arg")
    __slots__ = __match_args__ + ("has_meta",)

    def __init__(self, fn: CoreTerm, arg: CoreTerm) -> None:
        self.fn, self.arg, self.has_meta = fn, arg, _meta(fn) or _meta(arg)


class Pi(CoreTerm):
    __match_args__ = ("hint", "domain", "codomain", "implicit")
    __slots__ = __match_args__ + ("has_meta",)

    def __init__(self, hint: str, domain: CoreTerm, codomain: CoreTerm, implicit: bool = False) -> None:
        self.hint, self.domain, self.codomain, self.implicit = hint, domain, codomain, implicit
        self.has_meta = _meta(domain) or _meta(codomain)


class Type(CoreTerm):
    """The universe at `level`, an `int` >= 0. It is its own value: the
    kernel evaluates it to this node and reads it back as it is."""

    __slots__ = __match_args__ = ("level",)

    def __init__(self, level: int) -> None:
        self.level = level


class Id(CoreTerm):
    __match_args__ = ("type", "lhs", "rhs")
    __slots__ = __match_args__ + ("has_meta",)

    def __init__(self, type: CoreTerm, lhs: CoreTerm, rhs: CoreTerm) -> None:
        self.type, self.lhs, self.rhs = type, lhs, rhs
        self.has_meta = _meta(type) or _meta(lhs) or _meta(rhs)


class Refl(CoreTerm):
    __match_args__ = ("point",)
    __slots__ = __match_args__ + ("has_meta",)

    def __init__(self, point: CoreTerm) -> None:
        self.point, self.has_meta = point, _meta(point)


class J(CoreTerm):
    """Based path induction.

    `motive` binds the free endpoint and the path; `base` is the value at
    refl; `endpoint`, the right endpoint of the path's type, is checked
    against it by the kernel, carried into `kernel.EJ` by evaluation, read
    back and read by `elab.universe_of`; `pretty` never prints it.
    """

    __match_args__ = ("motive", "base", "endpoint", "path")
    __slots__ = __match_args__ + ("has_meta",)

    def __init__(self, motive: CoreTerm, base: CoreTerm, endpoint: CoreTerm, path: CoreTerm) -> None:
        self.motive, self.base, self.endpoint, self.path = motive, base, endpoint, path
        self.has_meta = _meta(motive) or _meta(base) or _meta(endpoint) or _meta(path)


class Meta(CoreTerm):
    """A metavariable of elaboration, made under `depth` binders at `span`.
    Never present in checked declarations.

    `solution`, once set, is an open term over the meta's first `depth`
    binders. Only `elab.MetaStore` writes `solution` and `depth`; `==`,
    `hash` and `repr` use `id` alone.
    """

    __match_args__ = ("id",)
    __slots__ = ("id", "depth", "span", "solution")
    has_meta = True

    def __init__(self, id: int, depth: int = 0, span: object = None) -> None:
        self.id, self.depth, self.span = id, depth, span
        self.solution: CoreTerm | None = None


@dataclass(frozen=True)
class CoreDecl:
    name: str
    type: CoreTerm
    body: CoreTerm | None  # None for axioms


# Each node class's subterm fields in visit order, with the binders each lies
# under; a leaf has none. `subterms`, `rebuild` and `mentions` read it, and
# `shift`, `elab.zonk` and `elab._restrict` walk terms through the first two.
SUBTERMS: dict[type, tuple[tuple[str, int], ...]] = {
    Var: (), Global: (), Type: (), Meta: (),
    App: (("fn", 0), ("arg", 0)),
    Lam: (("ann", 0), ("body", 1)),
    Pi: (("domain", 0), ("codomain", 1)),
    Id: (("type", 0), ("lhs", 0), ("rhs", 0)),
    Refl: (("point", 0),),
    J: (("motive", 0), ("base", 0), ("endpoint", 0), ("path", 0)),
}


def _fields(t: CoreTerm) -> tuple[tuple[str, int], ...]:
    if type(t) not in SUBTERMS:
        raise TypeError(f"not a core term: {t!r}")
    return SUBTERMS[type(t)]


def subterms(t: CoreTerm) -> list[tuple[CoreTerm, int]]:
    """The (child, binders above it) pairs of `t`, in visit order."""
    return [(getattr(t, n), k) for n, k in _fields(t)]


def rebuild(t: CoreTerm, f: Callable[[CoreTerm, int], CoreTerm], depth: int) -> CoreTerm:
    """`t` with each child `u` replaced by `f(u, depth + binders)`, or `t`
    itself when every replacement is the child it replaces."""
    new, same = {}, True
    for n, k in _fields(t):
        u = new[n] = f(getattr(t, n), depth + k)
        same = same and u is getattr(t, n)
    return t if same else type(t)(*[new.get(n, getattr(t, n)) for n in t.__match_args__])


def shift(t: CoreTerm, cutoff: int, amount: int) -> CoreTerm:
    """Add `amount` to every free index >= cutoff. Bound indices untouched;
    a subterm with no free index >= cutoff comes back as the same object."""
    if type(t) is Var:
        return Var(t.index + amount) if t.index >= cutoff else t
    return rebuild(t, lambda u, c: shift(u, c, amount), cutoff)


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


def fresh_name(hint: str, used: set[str]) -> str:
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
        case Type(0):
            return "Type"
        case Type(k):
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
            n = fresh_name(h, used)
            ann_s = _pp(ann, names, _PREC_ARROW)
            body_s = _pp(body, names + [n], _PREC_ARROW)
            open_b, close_b = ("{", "}") if imp else ("(", ")")
            return _parens(f"fun {open_b}{n} : {ann_s}{close_b} => {body_s}", prec, _PREC_ARROW)
        case Pi(h, dom, cod, imp):
            if not imp and not mentions(cod, 0, 1):
                # non-dependent: print as an arrow; the domain is term1, so
                # equations and nested arrows need parentheses
                dom_s = _pp(dom, names, _PREC_CONCAT)
                cod_s = _pp(cod, names + ["_"], _PREC_ARROW)
                return _parens(f"{dom_s} -> {cod_s}", prec, _PREC_ARROW)
            n = fresh_name(h, set(names))
            dom_s = _pp(dom, names, _PREC_ARROW)
            cod_s = _pp(cod, names + [n], _PREC_ARROW)
            open_b, close_b = ("{", "}") if imp else ("(", ")")
            return _parens(f"{open_b}{n} : {dom_s}{close_b} -> {cod_s}", prec, _PREC_ARROW)
    raise TypeError(f"not a core term: {t!r}")


def _parens(s: str, outer: int, inner: int) -> str:
    return f"({s})" if inner < outer else s


def mentions(t: CoreTerm, lo: int, n: int, meta: int | None = None) -> bool:
    """Does `t` use a free index in [lo, lo + n) (counted at `t`'s root), or
    contain Meta(meta)?"""
    if not n and not t.has_meta:
        return False
    if type(t) is Var:
        return lo <= t.index < lo + n
    if type(t) is Meta:
        return t.id == meta
    for name, k in _fields(t):
        if mentions(getattr(t, name), lo + k, n, meta):
            return True
    return False
