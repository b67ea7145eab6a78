"""Side-by-side point-query timer: two source trees of projconn in one process.

    python3 tests/query_ab.py A_SRC B_SRC [--rounds 150] [--warmup 5] [--seed 7]

A_SRC and B_SRC are the ``src`` directories of two checkouts (say, a parent
commit and a change).  Each tree's ``projconn`` package is imported under a
name of its own, ``projconn_a`` and ``projconn_b``, so both run in the same
process, on the same heap and at the same clock speed.

A round is the benchmark's round of point queries (``bench/worker.Queries``):
every tensor id of ``cli.TENSOR_IDS`` on each chart of
``bench/workloads.QUERY_CHARTS``, each chart at a point drawn from the
seed's query stream, each query loading a fresh spec from the chart's text
and evaluating it through ``cli._eval_tensor``.  Both sides run every round
at the same points, one after the other, and the side that goes first
alternates from round to round.  Each query is timed in thread CPU time, so
other processes on the machine do not count.

Prints, for each side, the p50 and p90 of its query latencies and the
median of its round totals; then the median over rounds of the ratio of
B's round total to A's, and the number of rounds in which B's total was
the lower.  Not a pytest module: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(src: str, name: str):
    """The projconn package of the tree ``src``, imported as ``name``."""
    package = Path(src).resolve() / "projconn"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def chart_texts(pc, seed: int) -> list[str]:
    """The query charts' documents, as the benchmark's worker reads them."""
    from workloads import QUERY_CHARTS, WARPED, warped_document

    return [warped_document(seed) if name == WARPED else pc.catalog.entry_document(name)
            for name in QUERY_CHARTS]


def one_round(pc, texts, points) -> list[float]:
    """Thread CPU seconds of each query of one round."""
    clock = time.thread_time
    times = []
    for text, point in zip(texts, points):
        for tensor in pc.cli.TENSOR_IDS:
            t0 = clock()
            spec = pc.geometry.load_spec(text)
            pc.cli._eval_tensor(spec, tensor, point)
            times.append(clock() - t0)
    return times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--rounds", type=int, default=150)
    parser.add_argument("--warmup", type=int, default=5, help="untimed rounds first")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import query_rng

    sides = {"A": load(args.a_src, "projconn_a"), "B": load(args.b_src, "projconn_b")}
    texts = {key: chart_texts(pc, args.seed) for key, pc in sides.items()}
    boxes = [sides["A"].geometry.load_spec(text).box for text in texts["A"]]
    rng = query_rng(args.seed)
    latencies = {key: [] for key in sides}
    totals = {key: [] for key in sides}
    for r in range(args.warmup + args.rounds):
        points = [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for box in boxes]
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        for key in order:
            times = one_round(sides[key], texts[key], points)
            if r >= args.warmup:
                latencies[key] += times
                totals[key].append(sum(times))

    for key in sides:
        ms = [t * 1e3 for t in latencies[key]]
        print(f"{key}: p50 {percentile(ms, 50):.3f} ms  p90 {percentile(ms, 90):.3f} ms  "
              f"round {statistics.median(totals[key]) * 1e3:.2f} ms  ({args.a_src if key == 'A' else args.b_src})")
    ratios = [b / a for a, b in zip(totals["A"], totals["B"])]
    wins = sum(b < a for a, b in zip(totals["A"], totals["B"]))
    print(f"B/A round total: median {statistics.median(ratios):.3f}, "
          f"B lower in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
