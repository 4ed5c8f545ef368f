"""Instrumentation of hpt's modules from outside, for the traced run.

Nothing here edits hpt's source. A wrapper replaces a public function
everywhere it is bound: in its own module, and in every hpt module that
imported it by name (``hpt.elab`` binds ``eval_term`` and friends with
``from .kernel import ...``). Methods are replaced on their class.

Layers are hpt's modules. ``hpt.driver``, ``hpt.corpus`` and ``hpt.cli``
together form the front-end layer, named ``cli``.

``Spans`` records one span per call that crosses into a layer from
another layer, plus named sub-spans for the phases the benchmark reports
inside a layer (zonk and quote in the elaborator; declaration checking
and normalization in the kernel). A call that stays inside the innermost
open span's layer and phase passes straight through, so recursion adds
one cheap check per call and no span.

``Counts`` counts calls in a separate session, so that its wrappers on
recursive functions do not inflate the span times.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

LAYERS = ("surface", "elab", "kernel", "core", "cli")

# (module, function or Class.method, layer, phase name or None, own).
# A phase name opens a sub-span even when called from its own layer.
# The kernel's hot recursive functions are wrapped only where other modules
# bound them by name (own=False), so that their recursion runs unwrapped;
# calls through the module attribute (``kernel.eval_term`` in hpt.driver)
# then go unseen. Methods are wrapped on their class for every caller.
SPAN_POINTS = (
    ("cli", "main", "cli", "cli.main", True),
    ("driver", "check_source", "cli", None, True),
    ("corpus", "load_corpus", "cli", None, True),
    ("corpus", "run_required_assertions", "cli", None, True),
    ("surface", "parse_file", "surface", "surface.parse", True),
    ("surface", "parse_term", "surface", "surface.parse", True),
    ("elab", "elaborate_decl", "elab", None, True),
    ("elab", "elaborate_term", "elab", None, True),
    ("elab", "check", "elab", None, True),
    ("elab", "zonk", "elab", "elab.zonk", True),
    ("elab", "ElabCtx.quote", "elab", "elab.quote", True),
    ("kernel", "check_decl", "kernel", "kernel.check", True),
    ("kernel", "assert_defeq", "kernel", "kernel.check", True),
    ("kernel", "normalize", "kernel", "kernel.normalize", True),
    ("kernel", "eval_term", "kernel", None, False),
    ("kernel", "apply_value", "kernel", None, False),
    ("kernel", "j_apply", "kernel", None, False),
    ("kernel", "force_top", "kernel", None, False),
    ("kernel", "Closure.apply", "kernel", None, True),
    ("kernel", "VTop.force", "kernel", None, True),
    ("core", "pretty", "core", "core.pretty", True),
)
PHASES = ("elab.elaborate",) + tuple(dict.fromkeys(p for *_, p, _ in SPAN_POINTS if p))

COUNTS = ("surface.tokens", "elab.unify_calls", "kernel.eval_calls", "kernel.readback_calls",
          "kernel.conv_calls", "kernel.force_calls", "kernel.apply_calls", "kernel.memo_hits",
          "core.pretty_chars")


def replace(hpt, module: str, attr: str, make, own: bool = True):
    """Replace `module.attr` by `make(original)` wherever hpt binds it;
    with own=False, everywhere but in `module` itself."""
    mod = getattr(hpt, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = getattr(cls, meth)
        setattr(cls, meth, make(original))
        return
    original = getattr(mod, attr)
    wrapper = make(original)
    for m in hpt.modules:
        if m is mod and not own:
            continue
        for name, value in list(vars(m).items()):
            if value is original:
                setattr(m, name, wrapper)


class Spans:
    """Spans (name, layer, start, end, parent, item) kept in memory."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.records: list[list] = []
        self._stack: list[tuple] = [(None, None, -1)]

    def install(self, hpt) -> None:
        for module, attr, layer, phase, own in SPAN_POINTS:
            replace(hpt, module, attr, lambda fn, l=layer, p=phase: self._wrap(fn, l, p), own)

    def _wrap(self, fn, layer: str, phase: str | None):
        stack = self._stack
        records = self.records
        recorder = self.recorder
        clock = time.perf_counter
        name = phase or layer

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer and (phase is None or top[1] == phase):
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, top[2], recorder.item]
            stack.append((layer, phase, len(records)))
            records.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> dict[str, float]:
        """Self time per layer and inclusive time per phase, in seconds.

        A span's self time is its duration minus its direct children's.
        ``elab.elaborate`` is the inclusive time of every entry into the
        elaborator from another layer.
        """
        child = [0.0] * len(self.records)
        for name, layer, start, end, parent, _ in self.records:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{name}_s": 0.0 for name in PHASES}
        out.update((f"{layer}.self_s", 0.0) for layer in LAYERS)
        for i, (name, layer, start, end, parent, _) in enumerate(self.records):
            dur = end - start
            out[f"{layer}.self_s"] += dur - child[i]
            if name != layer:
                out[f"{name}_s"] += dur
            if layer == "elab" and (parent < 0 or self.records[parent][1] != "elab"):
                out["elab.elaborate_s"] += dur
        return out


class Counts:
    """Call counts, tokens lexed and characters printed."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def install(self, hpt) -> None:
        counts = self.counts

        def counted(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def summed(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    counts[key] += len(result)
                    return result
                return wrapper
            return make

        def apply(fn):
            # A memo hit is an application that evaluates nothing.
            def wrapper(clo, v):
                counts["kernel.apply_calls"] += 1
                before = counts["kernel.eval_calls"]
                result = fn(clo, v)
                if counts["kernel.eval_calls"] == before:
                    counts["kernel.memo_hits"] += 1
                return result
            return wrapper

        replace(hpt, "surface", "lex", summed("surface.tokens"))
        replace(hpt, "elab", "_unify", counted("elab.unify_calls"))
        replace(hpt, "kernel", "eval_term", counted("kernel.eval_calls"))
        replace(hpt, "kernel", "readback", counted("kernel.readback_calls"))
        replace(hpt, "kernel", "conv", counted("kernel.conv_calls"))
        replace(hpt, "kernel", "VTop.force", counted("kernel.force_calls"))
        replace(hpt, "kernel", "Closure.apply", apply)
        replace(hpt, "core", "pretty", summed("core.pretty_chars"))

    def summary(self) -> dict[str, float]:
        out = {k: self.counts[k] for k in COUNTS}
        apply_calls = out["kernel.apply_calls"]
        out["kernel.memo_hit_ratio"] = out["kernel.memo_hits"] / apply_calls if apply_calls else 0.0
        return out


def term_sizes(t, core) -> tuple[int, int]:
    """Tree nodes and DAG nodes (structurally distinct subterms) of a core term.

    A node's children are its attributes that are core terms; its other
    attributes (names, indices, levels, flags) are part of its identity.
    """
    tree: dict[int, int] = {}
    dag: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in dag:
            continue
        kids, leaves = _split(node, core.CoreTerm)
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in dag)
            continue
        tree[key] = 1 + sum(tree[id(c)] for c in kids)
        shape = (type(node), leaves, tuple(dag[id(c)] for c in kids))
        dag[key] = table.setdefault(shape, len(table))
    return tree[id(t)], len(table)


def tree_nodes(t, core) -> int:
    """Tree nodes of a core term; cheaper than term_sizes."""
    term_type = core.CoreTerm
    count = 0
    stack = [t]
    push = stack.append
    while stack:
        node = stack.pop()
        count += 1
        for name in _fields(type(node)):
            v = getattr(node, name)
            if isinstance(v, term_type):
                push(v)
    return count


_FIELDS: dict[type, tuple[str, ...]] = {}


def _fields(cls) -> tuple[str, ...]:
    names = _FIELDS.get(cls)
    if names is None:
        if dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
        else:
            names = tuple(n for k in reversed(cls.__mro__) for n in getattr(k, "__slots__", ()))
        _FIELDS[cls] = names
    return names


def _split(node, term_type) -> tuple[tuple, tuple]:
    values = [getattr(node, n) for n in _fields(type(node))]
    kids = tuple(v for v in values if isinstance(v, term_type))
    leaves = tuple(v for v in values if not isinstance(v, term_type))
    return kids, leaves
