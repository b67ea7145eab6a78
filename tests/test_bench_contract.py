"""The benchmark under bench/ drives projconn through names it looks up at
run time: the tracer wraps module-level functions, the family runners and
``ChartTables.values`` / ``ChartTables.table``; the worker counts the
nodes of the chart tables, reads per-family self time under the keys of
``theorems._FAMILY_RUNNERS``, and runs its point queries and verifications
through ``cli._eval_tensor``, ``cli.TENSOR_IDS``, ``load_spec`` and
``run_checks``.  A change to those names would only show when the benchmark
runs (as a per-layer metric reading 0, or as failed operations); these
tests show it here, and pin the size of the workloads' expression trees."""

import ast
import importlib
import importlib.util
import json
import re
import types
from pathlib import Path

import projconn
import projconn.cli
from projconn import theorems
from projconn.expr import CompiledTable
from projconn.geometry import ChartTables
from projconn.catalog import builtin
from projconn.theorems import run_checks

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_verification():
    tracer = _bench_module("tracer").Tracer()
    spec = builtin("cylinder_s2xr").spec
    tracer.install(projconn)
    try:
        reports = run_checks(spec, count=2, seed=1)
    finally:
        tracer.uninstall()
    assert all(r.passed or r.skipped for r in reports)
    for name in ("expr.values", "expr.table", "numpy.einsum", "curvature.jet",
                 "connections.check_parallel_unit_xi"):
        assert tracer.calls("setup", name) > 0, name
    assert tracer.flops["setup"] > 0


def test_worker_counts_table_nodes():
    count_nodes = _bench_module("worker").count_nodes
    spec = builtin("cylinder_s2xr").spec
    table = spec.tables.table("g", 3)
    assert table.shape == (3,) * 5
    assert sum(count_nodes(tree) for tree in table.reshape(-1)) >= table.size
    assert count_nodes(projconn.parse("x*sin(y)+1")) == 6


# Spans the tracer or the worker wrap themselves, outside the package's functions.
WORKER_SPANS = {"numpy.einsum", "catalog.load", "report.serialise"}


def test_worker_reads_only_spans_that_exist():
    source = (BENCH / "worker.py").read_text(encoding="utf-8")
    names = set(
        re.findall(r"tracer\.(?:calls|total|self_time)\([^,()]+,\s*\"([^\"]+)\"", source)
    )
    assert len(names) >= 11, sorted(names)
    for name in sorted(names - WORKER_SPANS):
        module_name, attr = name.split(".", 1)
        if module_name == "expr":
            # ChartTables.values / ChartTables.table, wrapped as the expr layer
            assert isinstance(getattr(ChartTables, attr, None), types.FunctionType), name
            continue
        module = importlib.import_module(f"projconn.{module_name}")
        func = getattr(module, attr, None)
        assert isinstance(func, types.FunctionType), name
        assert func.__module__ == module.__name__, name


def test_worker_reads_only_families_that_run():
    # a renamed family would read 0 in tracer.family_self, with no error
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
             and "tracer.family_self" in ast.unparse(node)]
    families = {name for loop in loops for name in ast.literal_eval(loop.iter)}
    assert len(families) >= 5, sorted(families)
    assert families <= set(theorems._FAMILY_RUNNERS), sorted(families - set(theorems._FAMILY_RUNNERS))


def _bench_on_path(monkeypatch):
    """The worker, with bench/ importable as the worker's own imports need."""
    monkeypatch.syspath_prepend(str(BENCH))
    return _bench_module("worker")


# expression nodes of the g and pi tables of orders 0-3 over each workload's
# charts, at seed 101; the expr layer must keep the trees it builds
WORKLOAD_TABLE_NODES = {"small_curved": 6330, "flat_highdim": 42120, "warped_transcendental": 8790}


def test_workload_tables_keep_their_trees(monkeypatch):
    worker = _bench_on_path(monkeypatch)
    from workloads import WARPED, WORKLOADS

    for workload, nodes in WORKLOAD_TABLE_NODES.items():
        specs = [worker.load_chart(projconn, name, 101) for name in WORKLOADS[workload]]
        total = sum(
            worker.count_nodes(tree)
            for spec in specs
            for table in ("g", "pi")
            for order in range(4)
            for tree in spec.tables.table(table, order).reshape(-1)
        )
        assert total == nodes, workload
    warped = worker.load_chart(projconn, WARPED, 101)
    programs = [CompiledTable(warped.tables.table("g", k), warped.coords) for k in range(4)]
    assert [p.operations for p in programs] == [37, 78, 165, 329]


def test_worker_queries_and_verifies(monkeypatch):
    worker = _bench_on_path(monkeypatch)
    from workloads import QUERY_CHARTS, WORKLOADS

    queries = worker.Queries(projconn, 101)
    queries.run(0.0, at_least=1)  # one round: every tensor id on every query chart
    assert len(queries.windows) == len(QUERY_CHARTS) * len(projconn.cli.TENSOR_IDS)
    assert queries.errors == []  # a query that raised or gave a non-finite array
    names = [name for charts in WORKLOADS.values() for name in charts]
    charts = worker.set_up(projconn, names, 101, 2)
    for reports in worker.verify(projconn, charts):
        assert reports and all(r.passed or r.skipped for r in reports)
        assert len(json.loads(worker.serialise(reports))) == len(reports)
