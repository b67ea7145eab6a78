"""projconn benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One single-threaded caller drives
projconn in a closed loop: every child process below runs alone, and each
request starts after the previous one returned.

Untraced (``--trace 0``), one run is:

1. set-up probes, two before and two after the rest: fresh processes that
   import projconn, load the workload's charts, build the g and pi tables
   to order 3 and draw the samples; with the work process's own set-up
   they give ``setup_s``;
2. cold ``projconn verify --json`` rounds, one process per chart, one round
   before the work process and more after it while they fit in 0.35 of
   ``--seconds`` (``cli_verify_s``);
3. the work process: set-up, then ``theorems.run_checks`` over all of the
   workload's charts, repeated for about half of ``--seconds``
   (``verify_s``), with point queries for a quarter of it in between
   (``eval_p50_ms``, ``eval_p90_ms``); its peak RSS is ``peak_rss_mb``.

Times are wall times normalised to a reference CPU speed by a probe that
runs in each measured process (``speed.py``); the summary lines print the
wall-clock medians beside them.

Traced (``--trace 1``), one process times the package import, verifies once
untraced, then sets up and verifies again with spans at every module
boundary (``tracer.py``) and prints the per-layer numbers.

Every check report is gated: its verdict must match the table recorded in
``verdicts.json`` for the chart, a report that ran must meet its tolerance,
the CLI must exit 0, and every document of one configuration (each repeat,
the CLI's stdout, the traced run) must be byte-identical.  Failed reports
and failed point queries over all attempted give ``checks_failed_frac``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from workloads import SAMPLES, WARPED, WORKLOADS, sample_seed, warped_document  # noqa: E402

SETUP_PROBES = 4  # plus the work process's own set-up
VERIFY_SHARE = 0.5
EVAL_SHARE = 0.25
CLI_SHARE = 0.35
DEADLINE_S = 170.0  # every child is killed past this, so a run ends within 180 s

END_TO_END_UNITS = {
    "verify_s": "s",
    "cli_verify_s": "s",
    "setup_s": "s",
    "eval_p50_ms": "ms",
    "eval_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "expr.table_build_s": "s",
    "expr.table_nodes": "count",
    "expr.values_calls_per_point": "count",
    "expr.values_self_s": "s",
    "geometry.metric_at_calls_per_point": "count",
    "geometry.metric_at_self_s": "s",
    "geometry.sample_s": "s",
    "connections.connection_at_calls_per_point": "count",
    "connections.lc_pieces_calls_per_point": "count",
    "connections.self_s": "s",
    "connections.check_parallel_unit_xi_s": "s",
    "curvature.riemann_calls_per_point": "count",
    "curvature.self_s": "s",
    "curvature.derivation_all_frames_s": "s",
    "theorems.curvature.self_s": "s",
    "theorems.ricci.self_s": "s",
    "theorems.projective.self_s": "s",
    "theorems.semisymmetry.self_s": "s",
    "theorems.rp.self_s": "s",
    "theorems.self_s": "s",
    "numpy.einsum_calls_per_point": "count",
    "numpy.einsum_s": "s",
    "numpy.einsum_flops_per_point": "flop",
    "catalog.load_s": "s",
    "cli.import_s": "s",
    "report.serialise_s": "s",
    "trace.overhead_s": "s",
}

# ``projconn verify`` through ``projconn.cli.main`` (``python -m projconn.cli``
# has no ``__main__`` guard), with a speed probe reporting on stderr at exit.
CLI_ENTRY = (
    "import atexit, sys; sys.path.insert(0, sys.argv.pop(1)); import speed; "
    "probe = speed.SpeedProbe(); probe.start(); atexit.register(probe.report); "
    "from projconn.cli import main; sys.exit(main(sys.argv[1:]))"
)


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Spawns every child with one thread per process and a shared deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update(
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
        )

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("out of time before starting a child process")
        try:
            # subprocess.run kills and reaps the child on timeout.
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as err:
            raise HarnessError(f"child timed out: {argv[:4]}") from err

    def worker(self, mode: str, args, *extra: str) -> dict:
        argv = [
            sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--samples", str(args.samples), *extra,
        ]
        proc = self.run(argv)
        if proc.returncode != 0:
            raise HarnessError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# correctness gate


def verdict(report: dict) -> str:
    if report["skipped"]:
        return "skip"
    return "pass" if report["pass"] else "fail"


class Gate:
    """Counts attempted and failed operations of one run."""

    def __init__(self, verdicts: dict):
        self.verdicts = verdicts
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}
        self.problems: list[str] = []

    def fail(self, count: int, message: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def document(self, chart: str, text: str, source: str, exit_code: int = 0):
        """Gate one ``verify --json`` document for a chart."""
        expected = self.verdicts[chart]
        reference = self.reference.setdefault(chart, text)
        try:
            reports = json.loads(text)
        except json.JSONDecodeError:
            self.attempted += len(expected)
            self.fail(len(expected), f"{chart} {source}: output is not JSON")
            return
        seen = [r.get("check_id") for r in reports]
        missing = [cid for cid in expected if cid not in seen]
        self.attempted += len(reports) + len(missing)
        if missing:
            self.fail(len(missing), f"{chart} {source}: missing reports {missing}")
        if exit_code != 0:
            self.fail(len(reports), f"{chart} {source}: exit code {exit_code}")
            return
        if text != reference:
            self.fail(len(reports), f"{chart} {source}: not byte-identical to the first run")
            return
        for report in reports:
            cid = report["check_id"]
            got = verdict(report)
            if cid not in expected or got != expected[cid] or got == "fail":
                self.fail(1, f"{chart} {source}: {cid} is {got}, recorded {expected.get(cid)}")
            elif got == "pass" and not report["residual_max"] <= report["tolerance"]:
                self.fail(1, f"{chart} {source}: {cid} residual above tolerance")

    def queries(self, count: int, errors: list[str]):
        self.attempted += count
        if errors:
            self.fail(len(errors), f"{len(errors)} point queries failed: {errors[0]}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


# ---------------------------------------------------------------------------
# runs


def cli_round(runner: Runner, args, names, gate: Gate) -> tuple[float, float]:
    """One cold ``projconn verify --json`` process per chart: the summed
    spawn-to-exit time, at the reference speed and on the wall clock."""
    normalised = wall = 0.0
    for name in names:
        if name == WARPED:
            path = OUT / f"{WARPED}-{args.seed}.manifold"
            path.write_text(warped_document(args.seed), encoding="utf-8")
            source = ["--file", str(path)]
        else:
            source = ["--manifold", name]
        argv = [
            sys.executable, "-c", CLI_ENTRY, str(HERE), "verify", *source, "--json",
            "--samples", str(args.samples), "--seed", str(sample_seed(args.seed)),
        ]
        t0 = time.monotonic()
        proc = runner.run(argv)
        t1 = time.monotonic()
        gate.document(name, proc.stdout, "cli", proc.returncode)
        try:
            probe = SpeedProbe.from_report(proc.stderr.splitlines()[-1])
        except (IndexError, ValueError) as err:
            raise HarnessError(f"no speed report from the CLI:\n{proc.stderr}") from err
        normalised += probe.normalised(t0, t1)
        wall += t1 - t0
    return normalised, wall


def untraced(args, names, gate: Gate):
    runner = Runner()
    setup, setup_wall, cli, cli_wall = [], [], [], []

    def setup_probe():
        result = runner.worker("setup", args, "--t0", repr(time.monotonic()))
        setup.append(result["setup_s"])
        setup_wall.append(result["setup_wall_s"])

    def cli_verify():
        normalised, wall = cli_round(runner, args, names, gate)
        cli.append(normalised)
        cli_wall.append(wall)

    # Probes and CLI rounds sit on both sides of the work process, so that
    # each metric samples the whole run and not one stretch of it.
    for _ in range(SETUP_PROBES // 2):
        setup_probe()
    cli_verify()
    work = runner.worker(
        "work", args,
        "--t0", repr(time.monotonic()),
        "--verify-seconds", repr(VERIFY_SHARE * args.seconds),
        "--eval-seconds", repr(EVAL_SHARE * args.seconds),
    )
    setup.append(work["setup_s"])
    setup_wall.append(work["setup_wall_s"])
    for repeat, docs in enumerate(work["docs"]):
        for name, text in zip(names, docs):
            gate.document(name, text, f"in-process repeat {repeat}")
    gate.queries(len(work["eval_ms"]), work["eval_errors"])
    while sum(cli_wall) + statistics.fmean(cli_wall) <= CLI_SHARE * args.seconds:
        cli_verify()
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        setup_probe()

    eval_ms, eval_wall = work["eval_ms"], work["eval_wall_ms"]
    p90 = lambda v: statistics.quantiles(v, n=10, method="inclusive")[8]  # noqa: E731
    values = {
        "verify_s": (work["verify_s"], work["verify_wall_s"], statistics.median),
        "cli_verify_s": (cli, cli_wall, statistics.median),
        "setup_s": (setup, setup_wall, statistics.median),
        "eval_p50_ms": (eval_ms, eval_wall, statistics.median),
        "eval_p90_ms": (eval_ms, eval_wall, p90),
        "peak_rss_mb": ([work["peak_rss_mb"]], [work["peak_rss_mb"]], statistics.median),
    }
    return {
        name: (stat(normalised), len(normalised), stat(wall))
        for name, (normalised, wall, stat) in values.items()
    }, END_TO_END_UNITS


def traced(args, names, gate: Gate):
    spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
    result = Runner().worker("trace", args, "--spans", str(spans))
    for label, docs in zip(("untraced", "traced"), result["docs"]):
        for name, text in zip(names, docs):
            gate.document(name, text, label)
    print(f"# {result['spans']} spans written to {spans.relative_to(ROOT)}")
    return {k: (v, 1, v) for k, v in result["layers"].items()}, PER_LAYER_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark projconn end to end (--trace 0) or per layer (--trace 1)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--samples", type=int, default=SAMPLES,
        help="sample points per chart (the self-test lowers it)",
    )
    parser.add_argument(
        "--verdicts", type=Path, default=HERE / "verdicts.json",
        help="recorded pass/skip verdict per chart and check id",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "projconn" / "__init__.py").is_file():
        print(f"error: no projconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS[args.workload]
    gate = Gate(json.loads(args.verdicts.read_text(encoding="utf-8")))
    try:
        values, units = (traced if args.trace else untraced)(args, names, gate)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    for name, (value, count, wall) in values.items():
        raw = f", wall-clock {wall:.6g}" if value != wall else ""
        print(f"# {args.workload} {name} = {value:.6g} {units[name]} (n={count}{raw})")
    print(
        f"# {args.workload} checks_failed_frac = {gate.failed_frac:.6g} "
        f"({gate.failed} of {gate.attempted} reports and point queries)"
    )
    for problem in gate.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _, _) in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
