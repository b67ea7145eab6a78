"""Side-by-side verification timer: two source trees of projconn in one process.

    python3 tests/verify_ab.py A_SRC B_SRC [--rounds 30] [--warmup 3] [--seed 1]

A_SRC and B_SRC are the ``src`` directories of two checkouts (say, a parent
commit and a change), each imported under a name of its own
(``query_ab.load``), so both run in the same process, on the same heap and
at the same clock speed.

The charts are every workload's charts of ``bench/workloads``: the warped
chart of ``--seed`` and the catalog charts, each with the benchmark's 200
samples drawn at the sample seed the benchmark derives from ``--seed``.
Each side loads its own specs and builds their tables before the first
round.  A round runs ``theorems.run_checks`` once on every chart; both
sides run every round, one after the other, and the side that goes first
alternates from round to round.  Each verification is timed in thread CPU
time, so other processes on the machine do not count.

Prints, per chart, each side's median milliseconds, the median over rounds
of the ratio of B's time to A's, the number of rounds in which B's was the
lower, the ``tracemalloc`` peak of one more verification per side (traced
after the timed rounds, since tracing slows allocation), whether the two
sides' verdicts (check id, skipped, passed) are equal, the largest
|residual_max| difference between their reports, and whether the reports
serialise to the same bytes.  Exits 1 when some chart's verdicts differ, so
a change that moves residuals by rounding alone can be timed and checked in
one run.  Not a pytest module: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc

from query_ab import BENCH, load


def charts(pc, names, seed: int, count: int) -> list:
    """(name, spec, samples) per chart, as the benchmark's worker sets up."""
    from workloads import WARPED, sample_seed, warped_document

    out = []
    for name in names:
        text = warped_document(seed) if name == WARPED else pc.catalog.entry_document(name)
        spec = pc.geometry.load_spec(text)
        for table in ("g", "pi"):
            for order in range(4):
                spec.tables.table(table, order)
        out.append((name, spec, pc.geometry.sample(spec, count, sample_seed(seed))))
    return out


def reports(pc, spec, samples) -> list[dict]:
    """The report dicts of one verification, as ``projconn verify --json``
    prints them."""
    return [r.to_dict() for r in pc.theorems.run_checks(spec, samples=samples)]


def document(dicts) -> str:
    """The bytes ``projconn verify --json`` prints for these reports."""
    return json.dumps(dicts, indent=2) + "\n"


def verdicts(dicts) -> list[tuple]:
    return [(d["check_id"], d["skipped"], d["pass"]) for d in dicts]


def largest_gap(a, b) -> float:
    """The largest |residual_max| difference over the checks both sides ran."""
    return max((abs(x["residual_max"] - y["residual_max"]) for x, y in zip(a, b)
                if x["residual_max"] is not None and y["residual_max"] is not None),
               default=0.0)


def traced_peak(pc, spec, samples) -> float:
    """MiB at the ``tracemalloc`` peak of one verification."""
    tracemalloc.start()
    try:
        pc.theorems.run_checks(spec, samples=samples)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--warmup", type=int, default=3, help="untimed rounds first")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples", type=int, default=200)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    names = list(dict.fromkeys(name for group in WORKLOADS.values() for name in group))
    sides = {"A": load(args.a_src, "projconn_a"), "B": load(args.b_src, "projconn_b")}
    sets = {key: charts(pc, names, args.seed, args.samples) for key, pc in sides.items()}
    times = {key: {name: [] for name in names} for key in sides}
    clock = time.thread_time
    for r in range(args.warmup + args.rounds):
        for key in ("A", "B") if r % 2 == 0 else ("B", "A"):
            pc = sides[key]
            for name, spec, samples in sets[key]:
                t0 = clock()
                pc.theorems.run_checks(spec, samples=samples)
                if r >= args.warmup:
                    times[key][name].append(clock() - t0)

    differing = []
    print(f"A: {args.a_src}\nB: {args.b_src}")
    for k, name in enumerate(names):
        (_, spec_a, samples_a), (_, spec_b, samples_b) = sets["A"][k], sets["B"][k]
        a, b = times["A"][name], times["B"][name]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        wins = sum(y < x for x, y in zip(a, b))
        peak_a = traced_peak(sides["A"], spec_a, samples_a)
        peak_b = traced_peak(sides["B"], spec_b, samples_b)
        dicts_a = reports(sides["A"], spec_a, samples_a)
        dicts_b = reports(sides["B"], spec_b, samples_b)
        agree = verdicts(dicts_a) == verdicts(dicts_b)
        if not agree:
            differing.append(name)
        same = document(dicts_a) == document(dicts_b)
        print(f"{name:15s} A {statistics.median(a) * 1e3:8.2f} ms"
              f"  B {statistics.median(b) * 1e3:8.2f} ms"
              f"  B/A {ratio:.3f} (B lower in {wins} of {args.rounds})"
              f"  peak A {peak_a:.3f} MiB  B {peak_b:.3f} MiB"
              f"  verdicts {'equal' if agree else 'DIFFER'}"
              f"  max |d residual_max| {largest_gap(dicts_a, dicts_b):.1e}"
              f"  bytes {'identical' if same else 'differ'}")
    if differing:
        print(f"verdicts differ on {', '.join(differing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
