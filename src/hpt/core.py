"""Kernel term language: nameless (de Bruijn) syntax and structural utilities.

Terms are immutable by convention, as `kernel.Closure` is, and are shared
freely; the one exception is `Meta`, the metavariable itself, whose scope and
solution `elab.MetaStore` updates in place. Two summaries of the tree are set
when a node is built, from its children, and a leaf class fixes them:
`has_meta` says whether a `Meta` lies in the tree, and `free` is the set of
the tree's free de Bruijn indices as a bitmask (bit i set when index i is
free). `Var(i)` sets bit i, a child under k binders contributes its `free`
shifted right by k, and a `Meta` counts as closed, as `shift` and `mentions`
ignore its solution.
"""

from __future__ import annotations

from collections.abc import Callable, Container
from dataclasses import dataclass


def _meta(t: object) -> bool:
    return getattr(t, "has_meta", False)  # a non-term child holds no meta


def _free(t: object) -> int:
    return getattr(t, "free", 0)  # a non-term child has no free index


class CoreTerm:
    """Base class for kernel terms. Variables are de Bruijn indices.

    `__match_args__` names the fields in order; `repr`, `==` and `hash` use
    them as a frozen dataclass's would (`Lam` leaves `ann` out of the last two).
    `has_meta` and `free` are not fields.
    """

    __slots__ = ()
    has_meta = False
    free = 0

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
    __match_args__ = ("index",)
    __slots__ = __match_args__ + ("free",)

    def __init__(self, index: int) -> None:
        self.index = index
        self.free = 1 << index if index >= 0 else 0


class Global(CoreTerm):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Lam(CoreTerm):
    # `hint` is display-only and never affects evaluation or conversion,
    # though `==` compares it. `ann` is the domain, which every lambda
    # carries so that it infers; `==` and `hash` ignore it.
    __match_args__ = ("hint", "body", "ann", "implicit")
    __slots__ = __match_args__ + ("has_meta", "free")

    def __init__(self, hint: str, body: CoreTerm, ann: CoreTerm, implicit: bool = False) -> None:
        self.hint, self.body, self.ann, self.implicit = hint, body, ann, implicit
        self.has_meta = _meta(body) or _meta(ann)
        self.free = _free(ann) | _free(body) >> 1

    def _key(self) -> tuple:
        return (self.hint, self.body, self.implicit)


class App(CoreTerm):
    __match_args__ = ("fn", "arg")
    __slots__ = __match_args__ + ("has_meta", "free")

    def __init__(self, fn: CoreTerm, arg: CoreTerm) -> None:
        self.fn, self.arg, self.has_meta = fn, arg, _meta(fn) or _meta(arg)
        self.free = _free(fn) | _free(arg)


class Pi(CoreTerm):
    __match_args__ = ("hint", "domain", "codomain", "implicit")
    __slots__ = __match_args__ + ("has_meta", "free")

    def __init__(self, hint: str, domain: CoreTerm, codomain: CoreTerm, implicit: bool = False) -> None:
        self.hint, self.domain, self.codomain, self.implicit = hint, domain, codomain, implicit
        self.has_meta = _meta(domain) or _meta(codomain)
        self.free = _free(domain) | _free(codomain) >> 1


class Type(CoreTerm):
    """The universe at `level`, an `int` >= 0. It is its own value: the
    kernel evaluates it to this node and reads it back as it is."""

    __slots__ = __match_args__ = ("level",)

    def __init__(self, level: int) -> None:
        self.level = level


class Id(CoreTerm):
    __match_args__ = ("type", "lhs", "rhs")
    __slots__ = __match_args__ + ("has_meta", "free")

    def __init__(self, type: CoreTerm, lhs: CoreTerm, rhs: CoreTerm) -> None:
        self.type, self.lhs, self.rhs = type, lhs, rhs
        self.has_meta = _meta(type) or _meta(lhs) or _meta(rhs)
        self.free = _free(type) | _free(lhs) | _free(rhs)


class Refl(CoreTerm):
    __match_args__ = ("point",)
    __slots__ = __match_args__ + ("has_meta", "free")

    def __init__(self, point: CoreTerm) -> None:
        self.point, self.has_meta, self.free = point, _meta(point), _free(point)


class J(CoreTerm):
    """Based path induction.

    `motive` binds the free endpoint and the path; `base` is the value at
    refl; `endpoint`, the right endpoint of the path's type, is checked
    against it by the kernel, carried into `kernel.EJ` by evaluation, read
    back and read by `elab.universe_of`; `pretty` never prints it.
    """

    __match_args__ = ("motive", "base", "endpoint", "path")
    __slots__ = __match_args__ + ("has_meta", "free")

    def __init__(self, motive: CoreTerm, base: CoreTerm, endpoint: CoreTerm, path: CoreTerm) -> None:
        self.motive, self.base, self.endpoint, self.path = motive, base, endpoint, path
        self.has_meta = _meta(motive) or _meta(base) or _meta(endpoint) or _meta(path)
        self.free = _free(motive) | _free(base) | _free(endpoint) | _free(path)


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
# under; a leaf has none. `subterms` and `rebuild` read it, and `shift`,
# `elab.zonk`, `elab._restrict` and `mentions`' search for a meta walk terms
# through them. The constructors read the same fields to set `free`.
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
    a subterm with no free index >= cutoff comes back as the same object, at
    once."""
    if not t.free >> cutoff and type(t) in SUBTERMS:  # a non-term fails in `rebuild`
        return t
    if type(t) is Var:
        return Var(t.index + amount)
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

# A concatenation operator applied to its arity of arguments prints as infix
# sugar, the last two being the operands; further arguments apply to it.
_INFIX = {"concat": (6, "*", _PREC_CONCAT), "par-concat": (10, "**", _PREC_PAR)}


def fresh_name(hint: str, used: Container[str], more: Container[str] = ()) -> str:
    """`hint`, or `x` when it is empty or `_`, numbered from 1 until the
    name is in neither `used` nor `more`."""
    base = hint if hint and hint != "_" else "x"
    name, i = base, 0
    while name in used or name in more:
        i += 1
        name = f"{base}{i}"
    return name


def pretty(t: CoreTerm, names: list[str] | None = None) -> str:
    """Render a core term as surface syntax.

    `names` supplies binder names outermost-first for the term's free
    variables; it must be at least as deep as the term's context. A binder's
    name avoids them and the name of every global in `t`, which it would capture.
    """
    return _pp(t, list(names or []), _PREC_ARROW, [t])


def _pp(t: CoreTerm, names: list[str], prec: int, taken: list) -> str:
    # Exact-type tests, most frequent first, as in `kernel.eval_term`; each
    # case parenthesizes itself when `prec` is tighter than its own level.
    # `taken` holds the root until the first binder replaces it by the set of
    # the names of the globals in the term, so a term without one costs no walk.
    tt = type(t)
    if tt is Var:
        i = t.index
        return names[-1 - i] if 0 <= i < len(names) else f"!{i}"
    if tt is App:
        return _pp_spine(t, names, prec, taken)
    if tt is Global:
        return t.name
    if tt is Refl:
        s = f"refl {_pp(t.point, names, _PREC_ATOM, taken)}"
        return f"({s})" if prec > _PREC_APP else s
    if tt is Id:
        s = f"{_pp(t.lhs, names, _PREC_CONCAT, taken)} = {_pp(t.rhs, names, _PREC_CONCAT, taken)}"
        return f"({s})" if prec > _PREC_ID else s
    if tt is Lam or tt is Pi and (t.implicit or t.codomain.free & 1):
        if type(taken[0]) is not set:  # each shared node is visited once
            seen, stack = {}, [taken[0]]
            while stack:
                u = stack.pop()
                if id(u) not in seen:
                    seen[id(u)] = u
                    for name, _ in _fields(u):
                        stack.append(getattr(u, name))
            taken[0] = {u.name for u in seen.values() if type(u) is Global}
        n = fresh_name(t.hint, taken[0], names)
        dom, cod = (t.ann, t.body) if tt is Lam else (t.domain, t.codomain)
        dom_s, cod_s = _pp(dom, names, _PREC_ARROW, taken), _pp(cod, names + [n], _PREC_ARROW, taken)
        binder = f"{{{n} : {dom_s}}}" if t.implicit else f"({n} : {dom_s})"
        s = f"fun {binder} => {cod_s}" if tt is Lam else f"{binder} -> {cod_s}"
        return f"({s})" if prec > _PREC_ARROW else s
    if tt is Pi:
        # non-dependent: print as an arrow; the domain is term1, so
        # equations and nested arrows need parentheses
        dom_s = _pp(t.domain, names, _PREC_CONCAT, taken)
        s = f"{dom_s} -> {_pp(t.codomain, names + ['_'], _PREC_ARROW, taken)}"
        return f"({s})" if prec > _PREC_ARROW else s
    if tt is J:
        s = (f"J {_pp(t.motive, names, _PREC_ATOM, taken)} {_pp(t.base, names, _PREC_ATOM, taken)} "
             f"{_pp(t.path, names, _PREC_ATOM, taken)}")
        return f"({s})" if prec > _PREC_APP else s
    if tt is Type:
        return "Type" if t.level == 0 else f"(Type {t.level})" if prec > _PREC_APP else f"Type {t.level}"
    if tt is Meta:
        return f"?{t.id}"
    raise TypeError(f"not a core term: {t!r}")


def _pp_spine(t: App, names: list[str], prec: int, taken: list) -> str:
    """An application, its spine walked once from the top `App`. Kept out of
    `_pp`, whose far more frequent other cases then run in a smaller frame."""
    args = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    args.reverse()
    infix = _INFIX.get(t.name) if type(t) is Global else None
    if infix and len(args) >= infix[0]:
        k, op, p = infix
        s = f"{_pp(args[k - 2], names, p, taken)} {op} {_pp(args[k - 1], names, p + 1, taken)}"
        args = args[k:]
    else:
        s, p = _pp(t, names, _PREC_APP, taken), _PREC_APP
    if not args:
        return f"({s})" if prec > p else s
    s = " ".join([f"({s})" if p < _PREC_APP else s, *[_pp(a, names, _PREC_ATOM, taken) for a in args]])
    return f"({s})" if prec > _PREC_APP else s


def mentions(t: CoreTerm, lo: int, n: int, meta: int | None = None) -> bool:
    """Does `t` use a free index in [lo, lo + n) (counted at `t`'s root), or
    contain Meta(meta)? A negative index is never free."""
    if not t.has_meta:
        lo, n = max(lo, 0), n + min(lo, 0)
        return n > 0 and bool(t.free >> lo & (1 << n) - 1)
    if type(t) is Meta:
        return t.id == meta
    for name, k in _fields(t):
        if mentions(getattr(t, name), lo + k, n, meta):
            return True
    return False
