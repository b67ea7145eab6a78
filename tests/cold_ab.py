"""Side-by-side cold-start timer: ``projconn verify --json`` processes of two
source trees, one after the other.

    python3 tests/cold_ab.py A_SRC B_SRC [--rounds 20] [--seed 1] [--charts C ...]

A_SRC and B_SRC are the ``src`` directories of two checkouts (say, a parent
commit and a change).  A round starts one cold process per chart and side,
each through the benchmark's CLI entry (``bench/run.CLI_ENTRY``: the speed
probe, then ``projconn.cli.main``), with ``PYTHONDONTWRITEBYTECODE=1`` and
one BLAS thread.  The charts default to every workload's charts; the
warped chart and the sample seed come from ``--seed`` as the benchmark
derives them (``bench/workloads``), at the benchmark's 200 samples.  For
each chart the side that goes first alternates from round to round.

A process is timed in child CPU time (user plus system, from
``RUSAGE_CHILDREN``), so other processes on the machine count only through
the caches they share, and on the wall clock.  Prints, per chart and for
the sum over charts, each side's median CPU and wall milliseconds, the
median over rounds of the ratio of B's CPU time to A's and the number of
rounds in which B's was the lower.  Every process must exit as its
counterpart does and print the same bytes on stdout as every other process
of its chart; otherwise the script says so and exits 1.  Not a pytest
module: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from run import CLI_ENTRY
    from workloads import SAMPLES, WARPED, WORKLOADS, sample_seed, warped_document

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's run seed")
    parser.add_argument("--charts", nargs="+", default=[c for cs in WORKLOADS.values() for c in cs])
    args = parser.parse_args(argv)

    sides = {"A": args.a_src, "B": args.b_src}
    envs = {
        key: dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1",
                  OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        for key, src in sides.items()
    }
    cpu = {(key, chart): [] for key in sides for chart in args.charts}
    wall = {(key, chart): [] for key in sides for chart in args.charts}
    stdout, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        sources = {}
        for chart in args.charts:
            if chart == WARPED:
                path = Path(tmp) / f"{WARPED}-{args.seed}.manifold"
                path.write_text(warped_document(args.seed), encoding="utf-8")
                sources[chart] = ["--file", str(path)]
            else:
                sources[chart] = ["--manifold", chart]
        for r in range(args.rounds):
            for chart in args.charts:
                argv = [
                    sys.executable, "-c", CLI_ENTRY, str(BENCH), "verify", *sources[chart],
                    "--json", "--samples", str(SAMPLES), "--seed", str(sample_seed(args.seed)),
                ]
                codes = {}
                for key in ("A", "B") if r % 2 == 0 else ("B", "A"):
                    c0, t0 = child_cpu(), time.monotonic()
                    proc = subprocess.run(argv, env=envs[key], capture_output=True, timeout=120)
                    wall[key, chart].append(time.monotonic() - t0)
                    cpu[key, chart].append(child_cpu() - c0)
                    codes[key] = proc.returncode
                    if stdout.setdefault(chart, proc.stdout) != proc.stdout:
                        problems.append(f"{chart}: round {r}, side {key}: stdout differs")
                if codes["A"] != codes["B"]:
                    problems.append(f"{chart}: round {r}: A exited {codes['A']}, B {codes['B']}")

    def line(label: str, a_cpu, b_cpu, a_wall, b_wall) -> str:
        ratios = [b / a for a, b in zip(a_cpu, b_cpu)]
        wins = sum(b < a for a, b in zip(a_cpu, b_cpu))
        ms = lambda v: statistics.median(v) * 1e3  # noqa: E731
        return (f"{label:<16} cpu A {ms(a_cpu):7.1f} B {ms(b_cpu):7.1f} ms  "
                f"wall A {ms(a_wall):7.1f} B {ms(b_wall):7.1f} ms  "
                f"B/A cpu {statistics.median(ratios):.3f}, B lower in {wins} of {len(ratios)}")

    for chart in args.charts:
        print(line(chart, cpu["A", chart], cpu["B", chart], wall["A", chart], wall["B", chart]))
    total = {(key, kind): [sum(v) for v in zip(*(table[key, c] for c in args.charts))]
             for key in sides for kind, table in (("cpu", cpu), ("wall", wall))}
    print(line("all charts", total["A", "cpu"], total["B", "cpu"],
               total["A", "wall"], total["B", "wall"]))
    print(f"A: {args.a_src}\nB: {args.b_src}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
