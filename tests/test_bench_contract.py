"""The benchmark under bench/ drives projconn through names it looks up at
run time: the tracer wraps module-level functions, the family runners and
``ChartTables.values`` / ``ChartTables.table``, and the worker counts the
nodes of the order-3 g table.  A change to those names would only show when
the benchmark runs; these tests show it here."""

import importlib.util
from pathlib import Path

import projconn
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
