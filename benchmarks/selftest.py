"""Self-test of the benchmark: each oracle rejects a corrupted expectation,
counts and IR sizes repeat exactly, the speed-corrected clock ticks and
never runs backwards, and BENCHMARK.json names the metrics that run.py
prints.

    python3 benchmarks/selftest.py

Prints one line per check and exits with code 1 if any fails.
"""

from __future__ import annotations

import json
import sys
import time

import run
from layers import Counts

failures = 0


def check(ok: bool, label: str) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {label}")


def failed_items(session: run.Session) -> int:
    before = session.failed
    session.run_pass()
    return session.failed - before


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key} matches run.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")


def corpus_oracle() -> None:
    session = run.Session("corpus", 0)
    check(failed_items(session) == 0, "corpus: pass with the committed transcript")
    good = session.workload.expected
    session.workload.expected = good.replace(b"19 assertion(s)", b"18 assertion(s)")
    check(failed_items(session) > 0, "corpus: corrupted transcript is rejected")
    session.workload.expected = good
    check(run.corpus_mismatches(1, good, good, 19, 19) > 0, "corpus: exit code 1 is rejected")
    check(run.corpus_mismatches(0, good, good, 18, 19) > 0,
          "corpus: 18 of 19 assertions is rejected")


def normalize_oracle() -> None:
    session = run.Session("normalize", 0)
    w = session.workload
    w.items = [item for item in w.items if item[0] in ("EH", "syllepsis-hexagon")]
    check(failed_items(session) == 0, "normalize: pass with the committed digests")
    w.expected["EH"] = dict(w.expected["EH"], sha256="0" * 64)
    w.expected["syllepsis-hexagon"] = dict(w.expected["syllepsis-hexagon"], tree_nodes=5999)
    check(failed_items(session) == 2, "normalize: corrupted digest and tree count are rejected")


def tower_oracle() -> None:
    check(run.tower_line(2) == "refl (refl star) : refl star = refl star",
          "tower: expected line at depth 2")
    session = run.Session("tower", 0)
    w = session.workload
    w.items = [(n, f"#check {run.refl_chain(n)}\n", run.tower_line(n)) for n in (1, 5)]
    check(failed_items(session) == 0, "tower: pass with built expectations")
    w.items = [(n, src, run.tower_line(n + 1)) for n, src, _ in w.items]
    check(failed_items(session) == 2, "tower: corrupted expectations are rejected")


def speed_clock() -> None:
    readings = []
    with run.SpeedClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            readings.append(clock())
    check(len(clock.samples) > run.REF_WINDOW, "clock: the reference loop is timed on ticks")
    check(all(a <= b for a, b in zip(readings, readings[1:])), "clock: readings never decrease")
    raw = time.perf_counter() - t0
    check(0.2 * raw < readings[-1] - readings[0] < 5 * raw,
          "clock: corrected time is within a factor of 5 of real time")


def counts_repeat(workload: str) -> dict:
    results = []
    for _ in range(2):
        counts = Counts()
        sizes = dict.fromkeys(("elab.core_tree_nodes", "elab.core_dag_nodes",
                               "kernel.nf_tree_nodes", "kernel.nf_dag_nodes"), 0)
        run.Session(workload, 0, counts).run_pass(sizes)
        results.append({**counts.summary(), **sizes})
    check(results[0] == results[1], f"{workload}: counts and IR sizes repeat exactly")
    return results[0]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    benchmark_json()
    speed_clock()
    corpus_oracle()
    normalize_oracle()
    tower_oracle()
    corpus = counts_repeat("corpus")
    check((corpus["elab.core_tree_nodes"], corpus["elab.core_dag_nodes"]) == (49_626, 7_047),
          "corpus: elaborated bodies have 49,626 tree and 7,047 DAG nodes")
    normalize = counts_repeat("normalize")
    check(normalize["kernel.nf_tree_nodes"] == 347_731,
          "normalize: the normal forms have 347,731 tree nodes")
    tower = counts_repeat("tower")
    check(tower["elab.core_dag_nodes"] < tower["elab.core_tree_nodes"] / 50,
          "tower: core DAG is far smaller than the tree")
    print(f"{failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
