"""Benchmark for hpt: time to a verdict, normalization, and deep elaboration.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads (README.md in this directory says why each was chosen):

  corpus     ``hpt corpus`` in-process through ``hpt.cli.main``.
  normalize  ``kernel.normalize`` and ``core.pretty`` on 12 corpus bodies.
  tower      ``driver.check_source`` on ``#check refl (... (refl star))``
             at depths 100, 200, 300 and 400.

One process, no threads, closed loop: each item starts when the previous
verdict returns. The seed fixes the order of the items; the corpus input is
fixed, so there the seed is recorded and unused.

With ``--trace 0`` the run reports the end-to-end metrics: median pass
time, median set-up time, percentiles over the items of each item's median
latency, and peak RSS, each pass in a fresh import of hpt. These times are
read from a clock corrected for the host's speed (SpeedClock), which a
SIGPROF handler recalibrates every 50 ms of CPU time by timing a fixed
loop. With ``--trace 1`` it runs four sessions of one set-up and one pass
each (plain, with spans, with call counters, under tracemalloc) and
reports the per-layer metrics. Every output is checked
against an oracle; a mismatch counts as a failed item.

The second-to-last line of stdout is the full record: provenance (machine,
Python, commit, command, seed), sample counts and spreads. The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
import types
from collections import deque
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "surface.parse_s": "s",
    "surface.tokens": "count",
    "elab.elaborate_s": "s",
    "elab.zonk_s": "s",
    "elab.quote_s": "s",
    "elab.unify_calls": "count",
    "kernel.check_s": "s",
    "kernel.conv_calls": "count",
    "kernel.force_calls": "count",
    "kernel.normalize_s": "s",
    "kernel.eval_calls": "count",
    "kernel.readback_calls": "count",
    "kernel.apply_calls": "count",
    "kernel.memo_hits": "count",
    "kernel.memo_hit_ratio": "ratio",
    "elab.core_tree_nodes": "count",
    "elab.core_dag_nodes": "count",
    "kernel.nf_tree_nodes": "count",
    "kernel.nf_dag_nodes": "count",
    "core.pretty_s": "s",
    "core.pretty_chars": "count",
    "surface.self_s": "s",
    "elab.self_s": "s",
    "kernel.self_s": "s",
    "core.self_s": "s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.peak_alloc_mb": "MB",
    "trace.tracemalloc_slowdown": "ratio",
}

# Every pass runs in a session of its own, as one CLI call would: a fresh
# import of hpt and the workload's set-up, then one pass. A run makes such
# rounds until --seconds have elapsed, and at least MIN_ROUNDS of them;
# setup_s and pass_s are medians over the rounds.
MIN_ROUNDS = 3

# The speed-corrected clock of the untraced run: every TICK_S of CPU time a
# SIGPROF handler times REF_ITERATIONS of a fixed loop, and the clock runs
# at REF_NOMINAL_S divided by the median of the last REF_WINDOW of those
# times. See SpeedClock.
TICK_S, REF_ITERATIONS, REF_NOMINAL_S, REF_WINDOW = 0.05, 6000, 0.001, 5

NORMALIZE_BODIES = (
    "EH", "EH-1-L", "EH-1-R", "EH-L-nat", "EH-R-nat", "EH-L-nat-refl",
    "EH-R-nat-refl", "EH-L-nat-refl-gen", "EH-R-nat-refl-gen",
    "syllepsis-triangle", "syllepsis-triangle-core", "syllepsis-hexagon",
)
TOWER_DEPTHS = (100, 200, 300, 400)
TOWER_PRELUDE = "axiom A : Type\naxiom star : A\n"


class SetupError(Exception):
    """The workload's input could not be prepared."""


def import_hpt() -> types.SimpleNamespace:
    """Import hpt afresh from this checkout's ``src`` directory."""
    for name in [m for m in sys.modules if m == "hpt" or m.startswith("hpt.")]:
        del sys.modules[name]
    names = ("surface", "core", "kernel", "elab", "driver", "corpus", "cli")
    mods = {n: importlib.import_module(f"hpt.{n}") for n in names}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "hpt":
        raise SetupError(f"imported hpt from {mods['cli'].__file__}, not from {SRC}")
    return types.SimpleNamespace(**mods, modules=list(mods.values()))


def reference_loop() -> int:
    """The fixed work SpeedClock times. Never change it: the corrected times
    of two commits compare only if both ran the same loop."""
    s = 0
    d = {}
    for i in range(REF_ITERATIONS):
        s += i * i
        d[i & 4095] = s
    return s


class SpeedClock:
    """Seconds as they would read on a host where ``reference_loop`` takes
    REF_NOMINAL_S: a clock corrected for the host's speed.

    A shared host's speed drifts by 20-40% within a minute as other guests
    come and go, and it moves hpt and the reference loop nearly alike (on
    `tower` exactly; on `corpus` hpt slows about 1.3 times as much, in
    logarithm). So, every
    TICK_S of CPU time (ITIMER_PROF), the SIGPROF handler times the loop;
    the clock then runs at REF_NOMINAL_S / (median of the last REF_WINDOW
    loop times) of real time, and stands still while the loop runs. The
    handler runs in the main thread between bytecodes, so the loop samples
    the host while hpt runs, without a second thread or process.
    """

    def __init__(self) -> None:
        self.refs: deque[float] = deque(maxlen=REF_WINDOW)
        self.samples: list[float] = []
        for _ in range(REF_WINDOW):
            self._sample()
        now = time.perf_counter()
        # (corrected reading at `anchor`, anchor, rate); replaced in one step
        self.state = (0.0, now, self._rate())

    def _rate(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.refs)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        ref = time.perf_counter() - t0
        self.refs.append(ref)
        self.samples.append(ref)

    def _tick(self, signum, frame) -> None:
        reading = self()
        self._sample()
        self.state = (reading, time.perf_counter(), self._rate())

    def __call__(self) -> float:
        now = time.perf_counter()
        reading, anchor, rate = self.state
        # A tick between the two lines above moves `anchor` past `now`.
        return reading + max(0.0, now - anchor) * rate

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


class Recorder:
    """Latencies per item over the run's passes, and the current pass's
    verdicts, timed by ``clock``. ``item`` numbers the item in progress
    across the run (-1 during set-up); the span recorder tags spans with
    it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.latencies: dict[object, list[float]] = {}
        self.verdicts: list[bool] = []
        self.item = -1
        self.last = 0.0

    def begin_pass(self) -> float:
        self.verdicts = []
        self.item = max(self.item, 0)
        self.last = self.clock()
        return self.last

    def add(self, key, latency: float, ok: bool) -> None:
        self.latencies.setdefault(key, []).append(latency)
        self.verdicts.append(ok)
        self.item += 1

    def verdict(self, ok: bool) -> None:
        """The next item of the pass ends now; it began at the previous verdict."""
        t = self.clock()
        self.add(len(self.verdicts), t - self.last, ok)
        self.last = t


def add_sizes(sizes: dict, prefix: str, terms, hpt) -> None:
    for t in terms:
        tree, dag = layers.term_sizes(t, hpt.core)
        sizes[f"{prefix}_tree_nodes"] += tree
        sizes[f"{prefix}_dag_nodes"] += dag


# ---------------------------------------------------------------------------
# Workloads. Each prepares its input in __init__ (part of set-up) and runs
# one pass in run_pass, returning (seconds on the recorder's clock, items
# attempted, items failed). With `sizes`, a pass also adds the sizes of the
# elaborated core and of the normal forms it produced, outside its timed
# region. Where the
# benchmark drives the items itself, each starts from a collected heap, as
# one CLI call would, so that its time does not depend on the item order.


class Corpus:
    """``hpt corpus``: 52 declarations, 11 in-source assertions, 8 pinned ones.

    An item is one declaration or directive of the sources (one
    ``driver.process_decl``) or one pinned assertion (one
    ``kernel.assert_defeq`` made outside a declaration).
    """

    ITEMS = 52 + 11 + 8
    ASSERTIONS = 11 + 8

    def __init__(self, hpt, rng: random.Random, rec: Recorder) -> None:
        self.rec = rec
        self.expected = (EXPECTED / "corpus.txt").read_bytes()
        self.env = None
        self.asserts_ok = 0
        inside = [False]

        def process_decl(fn):
            def wrapper(globals, d):
                inside[0] = True
                try:
                    globals, event = fn(globals, d)
                except BaseException:
                    rec.verdict(False)
                    raise
                finally:
                    inside[0] = False
                self.env = globals
                self.asserts_ok += event.kind == "assert" and event.ok
                rec.verdict(event.ok)
                return globals, event
            return wrapper

        def assert_defeq(fn):
            def wrapper(*args):
                if inside[0]:
                    return fn(*args)
                try:
                    ok = fn(*args)
                except BaseException:
                    rec.verdict(False)
                    raise
                self.asserts_ok += ok is True
                rec.verdict(ok is True)
                return ok
            return wrapper

        layers.replace(hpt, "driver", "process_decl", process_decl)
        layers.replace(hpt, "kernel", "assert_defeq", assert_defeq)

    def run_pass(self, hpt, sizes: dict | None) -> tuple[float, int, int]:
        rec = self.rec
        self.asserts_ok = 0
        out = io.StringIO()
        t0 = rec.begin_pass()
        try:
            rc = hpt.cli.main(["corpus"], out=out)
        except Exception:
            traceback.print_exc()
            rc = None
        wall = rec.clock() - t0
        verdicts = rec.verdicts
        attempted = max(self.ITEMS, len(verdicts))
        bad = verdicts.count(False) + (attempted - len(verdicts))
        bad += corpus_mismatches(rc, out.getvalue().encode("utf-8"), self.expected,
                                 self.asserts_ok, self.ASSERTIONS)
        if sizes is not None and self.env is not None:
            add_sizes(sizes, "elab.core", [e.body_core for e in self.env
                                           if e.body_core is not None], hpt)
        return wall, attempted, min(attempted, bad)


def corpus_mismatches(rc, out: bytes, expected: bytes, asserts_ok: int, asserts: int) -> int:
    """Mismatches of one corpus pass against its oracle: the exit code, each
    line of the committed transcript, and the number of assertions passed."""
    lines = sum(a != b for a, b in zip_longest(out.splitlines(), expected.splitlines()))
    return (rc != 0) + lines + (asserts_ok != asserts)


class Normalize:
    """Full normal forms of 12 mid-weight corpus bodies, printed."""

    def __init__(self, hpt, rng: random.Random, rec: Recorder) -> None:
        self.rec = rec
        self.expected = json.loads((EXPECTED / "normalize.json").read_text())
        self.env, _ = hpt.corpus.load_corpus()
        names = list(NORMALIZE_BODIES)
        rng.shuffle(names)
        self.items = [(n, self.env.get(n).body_core) for n in names]

    def run_pass(self, hpt, sizes: dict | None) -> tuple[float, int, int]:
        wall, failed = 0.0, 0
        self.rec.begin_pass()
        for name, body in self.items:
            gc.collect()
            t0 = self.rec.clock()
            try:
                nf = hpt.kernel.normalize(self.env, body)
                text = hpt.core.pretty(nf)
            except Exception:
                traceback.print_exc()
                nf = text = None
            latency = self.rec.clock() - t0
            ok = nf is not None and normal_form_ok(
                self.expected[name], text, layers.tree_nodes(nf, hpt.core))
            self.rec.add(name, latency, ok)
            wall += latency
            failed += not ok
            if sizes is not None and nf is not None:
                add_sizes(sizes, "elab.core", [body], hpt)
                add_sizes(sizes, "kernel.nf", [nf], hpt)
            del nf, text
        return wall, len(self.items), failed


def normal_form_ok(expected: dict, text: str, tree_nodes: int) -> bool:
    """The printed normal form has the committed digest and tree size."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest == expected["sha256"] and tree_nodes == expected["tree_nodes"]


def refl_chain(n: int) -> str:
    """``refl (refl (... (refl star)))`` with n refls, as hpt prints it."""
    return "refl " * min(n, 1) + "(refl " * max(n - 1, 0) + "star" + ")" * max(n - 1, 0)


def tower_line(n: int) -> str:
    """The expected ``#check`` output at depth n, built without hpt."""
    return f"{refl_chain(n)} : {refl_chain(n - 1)} = {refl_chain(n - 1)}"


class Tower:
    """``#check`` of nested refl chains: quadratic core trees, linear DAGs."""

    def __init__(self, hpt, rng: random.Random, rec: Recorder) -> None:
        self.rec = rec
        self.env, result = hpt.driver.check_source(
            hpt.kernel.GlobalEnv(), TOWER_PRELUDE, "tower-prelude.hpt")
        if result.error is not None:
            raise SetupError(f"tower prelude: {result.error}")
        depths = list(TOWER_DEPTHS)
        rng.shuffle(depths)
        self.items = [(n, f"#check {refl_chain(n)}\n", tower_line(n)) for n in depths]
        self.cores: list = []

        def elaborate_term(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.cores[:] = result
                return result
            return wrapper

        layers.replace(hpt, "elab", "elaborate_term", elaborate_term)

    def run_pass(self, hpt, sizes: dict | None) -> tuple[float, int, int]:
        wall, failed = 0.0, 0
        self.rec.begin_pass()
        for n, source, expected in self.items:
            gc.collect()
            t0 = self.rec.clock()
            try:
                _, result = hpt.driver.check_source(self.env, source, f"tower-{n}.hpt")
            except Exception:
                traceback.print_exc()
                result = None
            latency = self.rec.clock() - t0
            ok = result is not None and tower_ok(result, expected)
            self.rec.add(n, latency, ok)
            wall += latency
            failed += not ok
            if sizes is not None:
                add_sizes(sizes, "elab.core", self.cores, hpt)
            self.cores.clear()
        return wall, len(self.items), failed


def tower_ok(result, expected: str) -> bool:
    """One ``#check`` event, no error, and the expected printed line."""
    events = [(e.kind, e.text) for e in result.events]
    return result.error is None and events == [("check", expected)]


WORKLOADS = {"corpus": Corpus, "normalize": Normalize, "tower": Tower}


# ---------------------------------------------------------------------------
# Sessions


class Session:
    """A fresh import of hpt, optional instrumentation, and the workload's
    set-up. ``setup_s`` spans import and set-up; ``prep_s`` the set-up."""

    def __init__(self, workload: str, seed: int, instrument=None, rec=None) -> None:
        self.rec = rec or Recorder()
        clock = self.rec.clock
        t0 = clock()
        self.hpt = import_hpt()
        t1 = clock()
        if instrument is not None:
            instrument.install(self.hpt)
        self.workload = WORKLOADS[workload](self.hpt, random.Random(seed), self.rec)
        t2 = clock()
        self.setup_s, self.prep_s = t2 - t0, t2 - t1
        self.attempted = self.failed = 0

    def run_pass(self, sizes: dict | None = None) -> float:
        wall, attempted, failed = self.workload.run_pass(self.hpt, sizes)
        self.attempted += attempted
        self.failed += failed
        return wall


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced run: rounds of a fresh session and one pass, all timed by a
    SpeedClock, for `seconds`. A fresh session per pass keeps the passes
    alike: state hpt keeps between calls (the closure memo grows the heap
    by half its size on every `normalize` pass) starts empty in each."""
    setups: list[float] = []
    passes: list[float] = []
    elapsed: list[float] = []
    attempted = failed = 0
    with SpeedClock() as clock:
        rec = Recorder(clock)
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_ROUNDS or time.perf_counter() < deadline:
            session = None  # free the previous round before the next one
            gc.collect()
            session = Session(workload, seed, rec=rec)
            setups.append(session.setup_s)
            gc.collect()
            t0 = time.perf_counter()
            passes.append(session.run_pass())
            elapsed.append(time.perf_counter() - t0)
            attempted += session.attempted
            failed += session.failed
            # Peak RSS after the first round, whatever the number of rounds.
            if len(passes) == 1:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # An item's latency is its median over the passes; the percentiles are
    # taken over the items, so that few distinct items give steady values.
    latencies = rec.latencies.values()
    items = sorted(statistics.median(v) * 1000 for v in latencies)
    p90 = statistics.quantiles(items, n=10, method="inclusive")[8] if len(items) > 1 else items[0]
    metrics = {
        "pass_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "item_p50_ms": statistics.median(items),
        "item_p90_ms": p90,
        "peak_rss_mb": rss_mb,
    }
    details = {
        "rounds": len(passes),
        "pass_s_quartiles": quartiles(passes),
        "elapsed_s_quartiles": quartiles(elapsed),
        "setup_s_quartiles": quartiles(setups),
        "items": len(items),
        "item_samples": sum(len(v) for v in latencies),
        "items_beyond_p90": sum(lat > p90 for lat in items),
        "item_ms": {str(k): statistics.median(v) * 1000
                    for k, v in rec.latencies.items()},
        "reference_samples": len(clock.samples),
        "reference_ms_quartiles": [q * 1000 for q in quartiles(clock.samples)],
        "failed_frac": failed / attempted,
    }
    return metrics, details, attempted, failed


def traced(workload: str, seed: int) -> tuple[dict, dict, int, int]:
    """Traced run: four sessions of one set-up and one pass each."""
    attempted = failed = 0

    def one(instrument=None, rec=None, sizes=None) -> tuple[float, float]:
        """One session; returns (set-up after import, pass wall)."""
        nonlocal attempted, failed
        gc.collect()
        session = Session(workload, seed, instrument, rec)
        wall = session.run_pass(sizes)
        attempted += session.attempted
        failed += session.failed
        return session.prep_s, wall

    sizes = dict.fromkeys(("elab.core_tree_nodes", "elab.core_dag_nodes",
                           "kernel.nf_tree_nodes", "kernel.nf_dag_nodes"), 0)
    plain_prep, plain_pass = one(sizes=sizes)
    plain_wall = plain_prep + plain_pass

    rec = Recorder()
    spans = layers.Spans(rec)
    span_wall = sum(one(spans, rec))
    timing = spans.summary()

    counts = layers.Counts()
    one(counts)

    # Under tracemalloc only the pass runs: its slowdown is large, and the
    # peak of interest is what a pass allocates on top of its input.
    gc.collect()
    session = Session(workload, seed)
    tracemalloc.start()
    try:
        alloc_pass = session.run_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    attempted += session.attempted
    failed += session.failed
    del session

    self_s = sum(timing[f"{layer}.self_s"] for layer in layers.LAYERS)
    metrics = {
        **{k: timing[k] for k in PER_LAYER if k in timing},
        **counts.summary(),
        **sizes,
        "trace.unattributed_s": span_wall - self_s,
        "trace.wall_s": span_wall,
        "trace.overhead": span_wall / plain_wall,
        "trace.peak_alloc_mb": peak / 2**20,
        "trace.tracemalloc_slowdown": alloc_pass / plain_pass,
    }
    details = {
        "sessions": "plain, spans, counts, tracemalloc; each one set-up and one pass",
        "plain_wall_s": plain_wall,
        "plain_pass_s": plain_pass,
        "tracemalloc_pass_s": alloc_pass,
        "spans": len(spans.records),
        "inclusive_s": {k: v for k, v in timing.items() if k not in PER_LAYER},
    }
    return metrics, details, attempted, failed


# ---------------------------------------------------------------------------
# Provenance


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "command": sys.orig_argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hpt" / "__init__.py").is_file():
        print(f"error: no hpt sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            metrics, details, attempted, failed = traced(args.workload, args.seed)
        else:
            metrics, details, attempted, failed = measure(args.workload, args.seed, args.seconds)
    except (SetupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"provenance": provenance(args), "details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
