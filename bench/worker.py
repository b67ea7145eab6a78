"""Child process of the benchmark: one single-threaded caller driving
projconn in a closed loop.  Prints one JSON object on stdout.

Modes:

* ``setup``  -- set up the workload once and report the time from process
  start (``--t0``, the harness's monotonic clock at spawn) until the first
  point can be evaluated.
* ``work``   -- set up, then repeat ``run_checks`` over the workload's charts
  for about ``--verify-seconds``, with point queries for about
  ``--eval-seconds`` in between.
* ``trace``  -- time the package import, run one untraced verification,
  then set up and verify again with spans recorded at every module
  boundary, and report the per-layer numbers.

All three time with the speed normalisation of ``speed.py``.

Only the standard library is imported before projconn, so the import that
``trace`` times is cold.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_QUERIES = 120  # at least ten beyond p90 in every run


def load_chart(pc, name: str, seed: int):
    from workloads import WARPED, warped_document

    if name == WARPED:
        return pc.geometry.load_spec(warped_document(seed))
    return pc.catalog.builtin(name).spec


def chart_text(pc, name: str, seed: int) -> str:
    from workloads import WARPED, warped_document

    if name == WARPED:
        return warped_document(seed)
    return pc.catalog.entry_document(name)


def set_up(pc, names, seed: int, samples: int, load=load_chart):
    """Spec load, symbolic g and pi tables to order 3, and the sample set:
    everything before the first point can be evaluated."""
    from workloads import sample_seed

    charts = []
    for name in names:
        spec = load(pc, name, seed)
        for table in ("g", "pi"):
            for order in range(4):
                spec.tables.table(table, order)
        charts.append((spec, pc.geometry.sample(spec, samples, sample_seed(seed))))
    return charts


def verify(pc, charts):
    return [pc.theorems.run_checks(spec, samples=s) for spec, s in charts]


def serialise(reports) -> str:
    """The exact bytes ``projconn verify --json`` prints."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Queries:
    """Point queries, each loading a fresh spec from text and evaluating one
    tensor through the functions behind ``projconn eval``.  A round asks
    every tensor id once per query chart, each chart at a fresh seeded
    point.  Query windows are kept on the monotonic clock for the speed
    normalisation."""

    def __init__(self, pc, seed: int):
        from workloads import QUERY_CHARTS, query_rng

        self.pc = pc
        self.texts = [chart_text(pc, name, seed) for name in QUERY_CHARTS]
        self.boxes = [pc.geometry.load_spec(text).box for text in self.texts]
        self.rng = query_rng(seed)
        self.windows: list[tuple[float, float]] = []
        self.errors: list[str] = []

    def run(self, seconds: float, at_least: int = 0):
        """Whole rounds until ``seconds`` have passed and the total reaches
        ``at_least`` queries."""
        import numpy as np

        pc = self.pc
        start = time.monotonic()
        while len(self.windows) < at_least or time.monotonic() - start < seconds:
            for text, box in zip(self.texts, self.boxes):
                point = tuple(float(self.rng.uniform(lo, hi)) for lo, hi in box)
                for tensor in pc.cli.TENSOR_IDS:
                    t0 = time.monotonic()
                    try:
                        spec = pc.geometry.load_spec(text)
                        array = pc.cli._eval_tensor(spec, tensor, point)[0]
                    except Exception as err:  # a failed query is counted, not fatal
                        self.windows.append((t0, time.monotonic()))
                        self.errors.append(f"{tensor} at {point}: {err!r}")
                        continue
                    self.windows.append((t0, time.monotonic()))
                    if not np.all(np.isfinite(array)):
                        self.errors.append(f"{tensor} at {point}: non-finite result")

    def latencies_ms(self, probe) -> list[float]:
        """Each query's latency at the reference speed, the speed measured
        over the samples around it."""
        from speed import INTERVAL_S

        return [probe.normalised(t0, t1, 1.5 * INTERVAL_S) * 1e3 for t0, t1 in self.windows]


def workload_charts(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload]


def mode_setup(args):
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    import projconn as pc

    set_up(pc, workload_charts(args), args.seed, args.samples)
    ready = time.monotonic()
    probe.stop()
    return {"setup_s": probe.normalised(args.t0, ready), "setup_wall_s": ready - args.t0}


def mode_work(args):
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    import projconn as pc

    names = workload_charts(args)
    charts = set_up(pc, names, args.seed, args.samples)
    ready = time.monotonic()
    import projconn.cli  # noqa: F401  (queries go through the CLI's functions)

    queries = Queries(pc, args.seed)
    # Half the queries come first and the rest after every verification, in
    # proportion to its time, so that both metrics sample the whole run even
    # when it holds a single verification.
    queries.run(args.eval_seconds / 2)
    eval_ratio = args.eval_seconds / 2 / args.verify_seconds
    windows = []
    docs = []
    while True:
        t0 = time.monotonic()
        reports = verify(pc, charts)
        windows.append((t0, time.monotonic()))
        docs.append([serialise(r) for r in reports])
        spent = [b - a for a, b in windows]
        queries.run(eval_ratio * spent[-1])
        if sum(spent) + statistics.fmean(spent) > args.verify_seconds:
            break
        charts = set_up(pc, names, args.seed, args.samples)
    queries.run(0.0, at_least=MIN_QUERIES)
    probe.stop()
    return {
        "setup_s": probe.normalised(args.t0, ready),
        "setup_wall_s": ready - args.t0,
        "verify_s": [probe.normalised(a, b) for a, b in windows],
        "verify_wall_s": [b - a for a, b in windows],
        "docs": docs,
        "eval_ms": queries.latencies_ms(probe),
        "eval_wall_ms": [(b - a) * 1e3 for a, b in queries.windows],
        "eval_errors": queries.errors,
        "peak_rss_mb": peak_rss_mb(),
    }


def count_nodes(tree) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(
            child for child in vars(node).values() if hasattr(child, "__dataclass_fields__")
        )
    return count


def mode_trace(args):
    t0 = time.monotonic()
    import projconn.cli  # noqa: F401
    imported = time.monotonic()
    import projconn as pc
    from speed import SpeedProbe
    from tracer import Tracer

    probe = SpeedProbe()
    probe.start()
    names = workload_charts(args)
    # Warm the code paths on a throwaway two-point set so that neither timed
    # verification below pays first-call costs.
    verify(pc, set_up(pc, names, args.seed, 2))
    charts = set_up(pc, names, args.seed, args.samples)
    table_nodes = sum(
        count_nodes(tree)
        for spec, _ in charts
        for table in ("g", "pi")
        for order in range(4)
        for tree in spec.tables.table(table, order).reshape(-1)
    )
    untraced = [time.monotonic()]
    reports = verify(pc, charts)
    untraced.append(time.monotonic())
    docs = [[serialise(r) for r in reports]]

    tracer = Tracer()
    tracer.install(pc)
    try:
        setup = [time.monotonic()]
        charts = set_up(pc, names, args.seed, args.samples, load=tracer.wrap("catalog.load", load_chart))
        setup.append(time.monotonic())
        tracer.phase = "verify"
        reports = []
        traced = [time.monotonic()]
        for spec, samples in charts:
            tracer.request += 1
            reports.append(pc.theorems.run_checks(spec, samples=samples))
        traced.append(time.monotonic())
        tracer.phase = "serialise"
        serialised = [time.monotonic()]
        docs.append([tracer.wrap("report.serialise", serialise)(r) for r in reports])
        serialised.append(time.monotonic())
    finally:
        tracer.uninstall()
        probe.stop()
    if args.spans:
        tracer.write(args.spans)

    # Span times are wall times; each is scaled by the speed measured over
    # its phase (see speed.py).  Counts are exact.
    at_setup, at_verify = probe.speed(*setup), probe.speed(*traced)
    points = sum(s.count for _, s in charts)
    v = "verify"
    layers = {
        "expr.table_build_s": tracer.self_time("setup", "expr.table") * at_setup,
        "expr.table_nodes": table_nodes,
        "expr.values_calls_per_point": tracer.calls(v, "expr.values") / points,
        "expr.values_self_s": tracer.self_time(v, "expr.values") * at_verify,
        "geometry.metric_at_calls_per_point": tracer.calls(v, "geometry.metric_at") / points,
        "geometry.metric_at_self_s": tracer.self_time(v, "geometry.metric_at") * at_verify,
        "geometry.sample_s": tracer.total("setup", "geometry.sample") * at_setup,
        "connections.connection_at_calls_per_point":
            tracer.calls(v, "connections.connection_at") / points,
        "connections.lc_pieces_calls_per_point":
            tracer.calls(v, "connections._lc_pieces") / points,
        "connections.self_s": tracer.layer_self(v, "connections") * at_verify,
        "connections.check_parallel_unit_xi_s":
            tracer.total(v, "connections.check_parallel_unit_xi") * at_verify,
        "curvature.riemann_calls_per_point":
            tracer.calls(v, "curvature._riemann_components") / points,
        "curvature.self_s": tracer.layer_self(v, "curvature") * at_verify,
        "curvature.derivation_all_frames_s":
            tracer.total(v, "curvature.derivation_all_frames") * at_verify,
    }
    for family in ("curvature", "ricci", "projective", "semisymmetry", "rp"):
        layers[f"theorems.{family}.self_s"] = tracer.family_self[(v, family)] * at_verify
    layers.update({
        "theorems.self_s": tracer.layer_self(v, "theorems") * at_verify,
        "numpy.einsum_calls_per_point": tracer.calls(v, "numpy.einsum") / points,
        "numpy.einsum_s": tracer.total(v, "numpy.einsum") * at_verify,
        "numpy.einsum_flops_per_point": tracer.flops[v] / points,
        "catalog.load_s": tracer.total("setup", "catalog.load") * at_setup,
        "cli.import_s": probe.normalised(t0, imported),
        "report.serialise_s": probe.normalised(*serialised),
        "trace.overhead_s": probe.normalised(*traced) - probe.normalised(*untraced),
    })
    return {"layers": layers, "docs": docs, "spans": len(tracer.start)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "work", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--t0", type=float, default=math.nan)
    parser.add_argument("--verify-seconds", type=float, default=0.0)
    parser.add_argument("--eval-seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    mode = {"setup": mode_setup, "work": mode_work, "trace": mode_trace}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
