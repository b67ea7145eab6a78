"""The sample-set jet: a point query builds only what it reads, chunking and
sample order leave every report unchanged, and its tensors agree with an
independent SymPy derivation from the chart strings."""

import functools
import itertools
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from projconn import catalog, cli, connections, curvature, geometry, theorems
from projconn import expr as ex
from projconn.catalog import builtin, catalog_names
from projconn.curvature import jet
from projconn.geometry import SampleSet, sample
from projconn.theorems import run_checks
from mutants import mutant
from test_bench_contract import _bench_module


def test_chunk_sizes_follow_the_byte_budget():
    sizes = {}
    for n in (3, 4, 5, 8):
        samples = sample(builtin(f"euclidean{n}").spec, 200, seed=1)
        chunks = samples.chunks()
        assert chunks[0][0] == 0 and chunks[-1][1] == 200
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        sizes[n] = [hi - lo for lo, hi in chunks]
        # balanced: the fewest chunks of at most the budget's length, all of
        # one length but the last, which is shorter by less than one chunk
        most = max(1, geometry.CHUNK_BYTES // (8 * n**6))
        assert len(chunks) == -(-200 // most)
        assert set(sizes[n][:-1]) <= {sizes[n][0]} and 0 < sizes[n][-1] <= sizes[n][0]
    assert sizes == {3: [100, 100], 4: [29] * 6 + [26], 5: [8] * 25, 8: [1] * 200}
    assert [hi - lo for lo, hi in sample(builtin("euclidean4").spec, 37, seed=1).chunks()] == [
        19, 18]
    assert [hi - lo for lo, hi in sample(builtin("euclidean4").spec, 1, seed=1).chunks()] == [1]


def test_no_covariant_output_exceeds_the_byte_budget(monkeypatch):
    # at n = 8 a chunk is one sample, and the 28 curvature-derivation frames
    # of R~ . R~ and R~ . P~ take 0.9 MB, one block within the budget
    act = connections.covariant
    sizes = []

    def recording(*args):
        out = act(*args)
        sizes.append(out.nbytes)
        return out

    for module in (connections, curvature, theorems):
        monkeypatch.setattr(module, "covariant", recording)
    reports = run_checks(builtin("euclidean8").spec, count=2, seed=42)
    assert any(r.check_id == "def4_1_flat" and r.passed for r in reports)
    assert sizes and max(sizes) <= geometry.CHUNK_BYTES


def _jets_released_in_turn(monkeypatch, module) -> list:
    """Weak references to every jet ``module.jet`` builds; each call first
    asserts that every jet built before it is already gone."""
    built = []
    make = module.jet

    def tracked(*args):
        alive = [k for k, ref in enumerate(built) if ref() is not None]
        assert not alive, f"jet {len(built)} built while jets {alive} are alive"
        j = make(*args)
        built.append(weakref.ref(j))
        return j

    monkeypatch.setattr(module, "jet", tracked)
    return built


@pytest.mark.parametrize("name", ["cylinder_s2xr", "warped_r3xr"])
def test_run_checks_lets_each_chunk_jet_go_before_the_next(monkeypatch, name):
    built = _jets_released_in_turn(monkeypatch, theorems)
    spec = builtin(name).spec
    samples = sample(spec, 200, seed=42)
    run_checks(spec, samples=samples)
    assert len(built) == len(samples.chunks()) > 1


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_nullity_fit_is_exact_in_any_chunks(n):
    # the fit reads the jet its caller built: one jet of every sample, or
    # one per chunk of the walk
    spec = builtin(f"euclidean{n}").spec
    samples = sample(spec, 200, seed=42)
    jets = [jet(spec, samples.points, 2)]
    jets += [jet(spec, samples.points[lo:hi], 2) for lo, hi in samples.chunks()]
    for j in jets:
        fit = curvature.nullity_fit(spec, j, connections.PROJECTIVE)
        assert abs(fit.k - curvature.lam_scale(n)) <= 1e-15 and fit.residual <= 1e-15


def test_complete_releases_d2gamma_and_dr_and_never_reads_none():
    spec = builtin("warped_r3xr").spec
    points = sample(spec, 5, seed=3).points
    done, fresh = jet(spec, points, 3).complete(), jet(spec, points, 3)
    for kind in ("lc", "pr"):
        cj, ref = getattr(done, kind), getattr(fresh, kind)
        for field in ("d2Gamma", "dR"):
            with pytest.raises(AttributeError, match=f"^{field} was released"):
                getattr(cj, field)
        # what the checks read of them was built from the same arrays
        assert _same_bits(cj.nabla_R, ref.nabla_R)
        assert _same_bits(cj.dS, curvature.ricci_contraction(ref.dR))
        assert _same_bits(cj.dGamma, ref.dGamma) and _same_bits(cj.R, ref.R)
        with pytest.raises(AttributeError, match="no attribute 'dT'"):
            cj.dT
    # below order 3 nothing is released: the fields beyond the order are None
    low = jet(spec, points, 2).complete()
    for cj in (low.lc, low.pr):
        assert (cj.d2Gamma, cj.dR, cj.dS, cj.nabla_R) == (None,) * 4


# A chart that is flat by detection at some samples only: |R| runs from
# 1.2e-12 to 3.0e-10, and 33 of 100 samples at seed 42 are within
# FLAT_DETECTION_TOL.  Walked one sample per chunk, its chunks disagree about
# flatness.
PARTLY_FLAT = "\n".join(
    ["name = partly_flat", "dim = 3", "coords = x, y, z"]
    + [f"g[{i}][{j}] = {'(1 + 0.000000001*x^3)^2' if (i, j) == (1, 1) else int(i == j)}"
       for i in range(3) for j in range(i, 3)]
    + ["xi[0] = 0", "xi[1] = 0", "xi[2] = 1",
       "box[0] = 0, 0.05", "box[1] = -1, 1", "box[2] = -1, 1"]
) + "\n"

# the checks whose premise is flatness
FLAT_PREMISED = [cid for cid, shape in theorems._SHAPES.items() if shape[0] == "flat"]


def _chart(name: str) -> geometry.ManifoldSpec:
    return geometry.load_spec(PARTLY_FLAT) if name == "partly_flat" else builtin(name).spec


# polar_r2xr2 is the flat n = 4 chart: euclidean4 reads no coordinate, so it
# walks one sample whatever the chunking
@pytest.mark.parametrize(
    "name", ["cylinder_s2xr", "gssf_c1", "sphere3_bad_xi", "polar_r2xr2", "partly_flat"]
)
def test_reports_do_not_depend_on_chunking(name, monkeypatch):
    spec = _chart(name)
    samples = sample(spec, 100, seed=42)
    default = run_checks(spec, samples=samples)
    reversed_samples = SampleSet(samples.seed, samples.points[::-1])
    runs = [run_checks(spec, samples=reversed_samples)]
    monkeypatch.setattr(geometry, "CHUNK_BYTES", 1)
    assert len(samples.chunks()) == 100
    runs.append(run_checks(spec, samples=samples))
    for run in runs:
        assert [r.check_id for r in run] == [r.check_id for r in default]
        for a, b in zip(default, run):
            assert (a.passed, a.skipped, a.gate_status) == (b.passed, b.skipped, b.gate_status)
            if a.residual_max is not None:
                # relative to their own size: most residuals here are below
                # 1e-14, so an absolute bound could not tell samples apart
                assert abs(a.residual_max - b.residual_max) <= 1e-12 * a.residual_max, a.check_id
                assert abs(a.residual_mean - b.residual_mean) <= 1e-12 * a.residual_mean, a.check_id
            assert set(a.extras) == set(b.extras)
            for key in a.extras:
                assert abs(a.extras[key] - b.extras[key]) <= 1e-14 * max(1.0, abs(a.extras[key]))
            if name == "partly_flat" and a.check_id in FLAT_PREMISED:
                # skipped, though the flat chunks computed their columns
                assert a.skipped and a.to_dict() == b.to_dict(), a.check_id


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: the space-form detector accepts a nearly flat chart of "
    "non-constant curvature at its fit tolerance 1e-8 (1 + |K|), and "
    "thm3_3_p_flat then FAILs at 1.48e-10 against its own 1e-10"))
def test_partly_flat_chart_skips_the_space_form_check():
    # the partly-flat chart's curvature is not constant, so the space-form
    # premise should refute it
    report, = (r for r in run_checks(_chart("partly_flat"), count=100, seed=42)
               if r.check_id == "thm3_3_p_flat")
    assert report.skipped, report.to_dict()


def _counting(monkeypatch, owner, name: str) -> list:
    """The argument tuples of every call of ``owner.name``, which still runs."""
    calls = []
    rule = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


G_TABLES = [("g", 0), ("g", 1), ("g", 2)]


@pytest.mark.parametrize("tensor, tables, shifts", [
    ("gamma", G_TABLES[:2], 0),
    ("riemann", G_TABLES, 0),
    ("ricci", G_TABLES, 0),
    ("projective", G_TABLES, 0),
    ("gamma_tilde", G_TABLES[:2] + [("xi", 0)], 1),
])
def test_point_query_builds_only_what_it_reads(monkeypatch, tensor, tables, shifts):
    # only the tilde tensor reads xi and builds the projective connection,
    # and its order-1 query needs no partial of pi
    reads = _counting(monkeypatch, geometry.ChartTables, "values")
    shifted = _counting(monkeypatch, connections, "_projective_shift")
    array, _, _ = cli._eval_tensor(builtin("warped_r3xr").spec, tensor, (0.1, -0.2, 0.3, 0.0))
    assert np.all(np.isfinite(array))
    assert [(name, k) for _, name, k, _ in reads] == tables
    assert len(shifted) == shifts


# the tensors whose jet reads a partial of pi: the others take pi = G xi
# from the numbers alone
READS_DPI = {"riemann_tilde", "ricci_tilde", "theta", "beta", "projective_tilde"}


@pytest.mark.parametrize("tensor", cli.TENSOR_IDS)
def test_point_query_builds_pi_only_when_it_reads_it(monkeypatch, tensor):
    # the pi table is built on its first read, once, whatever order of it
    # a query reads first
    built = int(tensor in READS_DPI)
    pi_built = _counting(monkeypatch, geometry.ChartTables, "_pi")
    spec = geometry.load_spec(catalog.entry_document("warped_r3xr"))
    array, _, _ = cli._eval_tensor(spec, tensor, (0.1, -0.2, 0.3, 0.0))
    assert np.all(np.isfinite(array))
    assert len(pi_built) == built
    for order in range(3, -1, -1):
        spec.tables.table("pi", order)
    assert len(pi_built) == 1


@pytest.mark.parametrize("name", ["warped_r3xr", "cylinder_s2xr", "gssf_c1", "polar_r2xr2"])
def test_reports_do_not_depend_on_when_pi_is_built(name):
    # a verification of a freshly loaded chart builds pi after g's tables;
    # reading pi first builds the tables in the order they were once built
    # in, when pi was built with the spec's tables, and gives the same bytes
    document = catalog.entry_document(name)
    fresh, pi_first = geometry.load_spec(document), geometry.load_spec(document)
    for order in range(4):
        pi_first.tables.table("pi", order)
    fresh_doc, pi_first_doc = (
        json.dumps([r.to_dict() for r in run_checks(spec, count=37, seed=7)], indent=2)
        for spec in (fresh, pi_first)
    )
    assert fresh_doc == pi_first_doc


def test_run_checks_reads_each_table_once_per_block(monkeypatch):
    reads = _counting(monkeypatch, geometry.ChartTables, "values")
    riemann = _counting(monkeypatch, curvature, "_riemann_components")
    spec = builtin("cylinder_s2xr").spec
    samples = sample(spec, 200, seed=42)
    run_checks(spec, samples=samples)
    chunks = len(samples.chunks())
    assert chunks == 2
    assert len(riemann) == 2 * chunks  # R and R~, once per chunk
    # at n = 3 every table's block is the whole sample set: the gate reads g,
    # dg, xi and dpi, and the walk reads them again from the store and adds
    # d2g, d3g and d2pi
    assert [(name, k, len(points)) for _, name, k, points in reads] == [
        ("g", 0, 200), ("g", 1, 200), ("xi", 0, 200), ("pi", 1, 200),
        ("g", 2, 200), ("g", 3, 200), ("pi", 2, 200),
    ]


@pytest.mark.parametrize("name, chunks, per_chunk", [
    ("cylinder_s2xr", 2, 1),
    ("polar_r2xr2", 7, 2),
])
def test_curved_chunks_compute_no_flat_premise_column(monkeypatch, name, chunks, per_chunk):
    # the bracket is eq11d's in every chunk and eq20's in a flat one: the
    # cylinder's chunks refute flatness, the flat polar chart's do not
    bracket = _counting(monkeypatch, theorems, "_pi_in_lower_slots")
    spec = builtin(name).spec
    samples = sample(spec, 200, seed=42)
    run_checks(spec, samples=samples)
    assert len(samples.chunks()) == chunks
    assert len(bracket) == chunks * per_chunk


# per family, the columns its reports read whether or not the chart is flat:
# every column of _MAXIMA and _observed, and those of the checks without the
# flat premise
SHARED_COLUMNS = {
    "curvature": {"eq9_two_path", "thm2_1_i", "thm2_1_ii", "thm2_1_iii", "thm2_1_iv",
                  "thm2_1_v", "eq11d", "eq12", "lem2_4", "part_i", "part_ii", "part_iii"},
    "ricci": {"eq10", "eq11", "eq15", "lem2_6"},
    "projective": {"max_R", "Rlow", "pattern", "fit_num", "fit_den", "eq17", "thm3_3_p_flat"},
    "semisymmetry": {"max_R", "def4_1_flat"},
    "rp": {"part_i", "part_ii", "eq5_3", "max_R", "max_RP", "max_S"},
}


@pytest.mark.parametrize("name, flat", [("cylinder_s2xr", False), ("polar_r2xr2", True)])
def test_walk_keeps_every_column_a_report_reads(monkeypatch, name, flat):
    joined = {}
    reports = theorems._reports

    def recording(family, spec, samples, cols, tolerances, gate_report):
        joined[family] = set(cols)
        return reports(family, spec, samples, cols, tolerances, gate_report)

    monkeypatch.setattr(theorems, "_reports", recording)
    run_checks(builtin(name).spec, count=200, seed=42)
    flat_only = {"eq10b", "eq20", "eq21", "cor4_3", "thm5_1_flat"}
    assert flat_only == theorems._FLAT_ONLY
    assert joined == {
        family: shared | ({cid for cid in flat_only if theorems.REGISTRY[cid][1] == family}
                          if flat else set())
        for family, shared in SHARED_COLUMNS.items()
    }


def test_failed_gate_builds_no_projective_connection(monkeypatch):
    # behind the failed gate only thm3_3_p_flat runs, with its space-form
    # fit: every column it reads is of the Levi-Civita connection
    shifted = _counting(monkeypatch, connections, "_projective_shift")
    riemann = _counting(monkeypatch, curvature, "_riemann_components")
    reports = run_checks(builtin("sphere3_bad_xi").spec, count=200, seed=42)
    assert [r.check_id for r in reports if not r.skipped] == ["thm3_3_p_flat"]
    assert shifted == [] and len(riemann) == 2  # the Levi-Civita R of 2 chunks


def test_failed_gate_builds_the_projective_connection_a_column_reads(monkeypatch):
    # gssf_star4 is ungated and reads R~ through the nullity defect: behind a
    # failed gate its chunk builds the projective connection on that read,
    # to the same report
    spec = builtin("gssf_c1").spec
    passed = {r.check_id: r.to_dict() for r in run_checks(spec, count=30, seed=7)}
    monkeypatch.setattr(theorems, "check_parallel_unit_xi",
                        lambda spec, samples, store: (np.ones(samples.count),
                                                      np.zeros(samples.count)))
    shifted = _counting(monkeypatch, connections, "_projective_shift")
    failed = {r.check_id: r.to_dict() for r in run_checks(spec, count=30, seed=7)}
    assert failed["parallel_unit_xi"]["gate_status"] == "failed"
    assert {cid for cid, report in failed.items() if not report["skipped"]} == {
        "parallel_unit_xi", "gssf_star1", "gssf_star2", "gssf_star3", "gssf_star4"}
    ungated = {cid for cid, meta in theorems.REGISTRY.items() if not meta[2]}
    assert all(failed[cid] == passed[cid] for cid in ungated - {"parallel_unit_xi"})
    assert len(shifted) == 1  # one chunk of 30 samples


def test_spread_repeats_one_walked_sample_only():
    assert theorems._spread(np.array([2.0]), 3).tolist() == [2.0, 2.0, 2.0]
    with pytest.raises(ValueError, match="2 samples cannot stand for 3"):
        theorems._spread(np.array([1.0, 2.0]), 3)


def test_coordinate_free_chart_walks_one_sample(monkeypatch):
    reads = _counting(monkeypatch, geometry.ChartTables, "values")
    passes = _counting(monkeypatch, connections, "metric_jet")
    riemann = _counting(monkeypatch, curvature, "_riemann_components")
    spec = builtin("euclidean8").spec
    assert spec.coordinate_free
    reports = run_checks(spec, count=200, seed=42)
    assert {r.samples for r in reports} == {200}
    assert len(riemann) == 2  # R and R~, of one jet
    assert [len(points) for _, points, *_ in passes] == [1]  # the gate's one pass
    assert reads and {len(points) for *_, points in reads} == {1}


def test_chart_that_reads_a_coordinate_walks_every_chunk(monkeypatch):
    riemann = _counting(monkeypatch, curvature, "_riemann_components")
    spec = builtin("polar_r2xr2").spec
    samples = sample(spec, 200, seed=42)
    assert not spec.coordinate_free
    run_checks(spec, samples=samples)
    assert len(riemann) == 2 * len(samples.chunks()) == 14


def test_coordinate_free_reads_every_entry():
    # constants spelled as expressions are coordinate-free; a coordinate in
    # any g, xi, phi or f entry is not, and a replaced spec answers for its
    # own entries
    spec = builtin("euclidean3").spec
    one, x = ex.parse("-(-1)"), ex.parse("1 + 0*x")
    zeros = tuple((ex.const(0.0),) * 3 for _ in range(3))
    structured = replace(spec, phi=zeros, f1=ex.parse("sin(1)"), f2=one, f3=one)
    assert spec.coordinate_free and structured.coordinate_free
    assert replace(spec, g=((one, *spec.g[0][1:]), *spec.g[1:])).coordinate_free
    assert not replace(spec, g=((x, *spec.g[0][1:]), *spec.g[1:])).coordinate_free
    assert not replace(spec, xi=(x, *spec.xi[1:])).coordinate_free
    assert not replace(structured, phi=((x, *zeros[0][1:]), *zeros[1:])).coordinate_free
    assert not replace(structured, f3=x).coordinate_free
    assert not builtin("polar_r2xr2").spec.coordinate_free


def _twin(name: str) -> geometry.ManifoldSpec:
    """The catalog chart with g[0][0] = 1 written as 1 + 0*(first
    coordinate): the same values at every point, bit for bit, but a chart
    that reads a coordinate, so it takes the walk over every sample."""
    spec = builtin(name).spec
    twin = geometry.load_spec(catalog.entry_document(name).replace(
        "g[0][0] = 1\n", f"g[0][0] = 1 + 0*{spec.coords[0]}\n"))
    assert spec.coordinate_free and not twin.coordinate_free
    return twin


@pytest.mark.parametrize("name, counts", [
    ("euclidean3", (1, 37, 200)),
    ("euclidean4", (1, 37, 200)),
    ("euclidean5", (1, 37, 200)),
    ("euclidean8", (1, 3)),
], ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value)))
def test_one_jet_reports_match_the_walk_of_every_sample(name, counts):
    spec, twin = builtin(name).spec, _twin(name)
    for count in counts:
        documents = [
            json.dumps([r.to_dict() for r in run_checks(chart, count=count, seed=42)], indent=2)
            for chart in (spec, twin)
        ]
        assert documents[0] == documents[1], count


def test_run_checks_reads_phi_and_f_through_the_store(monkeypatch):
    # gssf_c1 is n = 3: every table is one block, evaluated once, phi and f
    # as well, though the gssf family reads them in each of the 2 chunks
    reads = _counting(monkeypatch, geometry.ChartTables, "values")
    spec = builtin("gssf_c1").spec
    samples = sample(spec, 200, seed=42)
    run_checks(spec, samples=samples)
    assert len(samples.chunks()) == 2
    assert [(name, k, len(points)) for _, name, k, points in reads] == [
        ("g", 0, 200), ("g", 1, 200), ("xi", 0, 200), ("pi", 1, 200),
        ("g", 2, 200), ("g", 3, 200), ("pi", 2, 200), ("phi", 0, 200), ("f", 0, 200),
    ]


def test_gate_steps_through_the_chunks_and_reads_each_block_once(monkeypatch):
    # at n = 8 a chunk is one sample: the gate takes the walk's 300 steps,
    # and each block of g, dg, xi and dpi, 256 samples long for dg, is
    # evaluated once, in the gate's read order
    reads = _counting(monkeypatch, geometry.ChartTables, "values")
    passes = _counting(monkeypatch, connections, "metric_jet")
    spec = builtin("euclidean8").spec
    samples = sample(spec, 300, seed=42)
    store = geometry.TableStore(spec, samples)
    nabla, unit = connections.check_parallel_unit_xi(spec, samples, store)
    assert nabla.shape == unit.shape == (300,)
    assert len(passes) == len(samples.chunks()) == 300
    assert [(name, k, len(points)) for _, name, k, points in reads] == [
        ("g", 0, 300), ("g", 1, 256), ("xi", 0, 300), ("pi", 1, 300), ("g", 1, 44),
    ]


def _whole_set(store, name, order):
    return len(store.points)


def _one_chunk(store, name, order):
    return store.chunk


@pytest.mark.parametrize("name", ["cylinder_s2xr", "sphere3_bad_xi", "warped_r3xr"])
def test_reports_do_not_depend_on_table_blocks(name, monkeypatch):
    spec = builtin(name).spec
    samples = sample(spec, 200, seed=42)
    reads = _counting(monkeypatch, geometry.ChartTables, "values")
    documents, evaluations = [], []
    for span in (geometry.TableStore.span, _one_chunk, _whole_set):
        monkeypatch.setattr(geometry.TableStore, "span", span)
        reads.clear()
        reports = run_checks(spec, samples=samples)
        documents.append(json.dumps([r.to_dict() for r in reports], indent=2))
        evaluations.append(len(reads))
    assert documents[1] == documents[0] and documents[2] == documents[0]
    # The gate reads 4 tables; the walk reads 7 at order 3, or 5 at order 2
    # when the gate fails and only the ungated projective check runs.  With
    # one chunk per block, the layout before blocks, the walk evaluates the
    # gate's tables again.
    chunks = len(samples.chunks())
    walk = 5 if name == "sphere3_bad_xi" else 7
    assert evaluations[1:] == [(4 + walk) * chunks, walk]
    # g's order-3 block is 116 samples at n = 4, four of the 29-sample chunks
    assert evaluations[0] == (walk + 1 if name == "warped_r3xr" else walk)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", catalog_names())
def test_one_point_jet_is_its_row_of_a_batch(name):
    # a single point is walked and a batch runs the compiled program; the
    # two share one arithmetic, so a sample's jet does not depend on the
    # batch it comes in
    spec = builtin(name).spec
    points = sample(spec, 12, seed=5).points
    batch = jet(spec, points, 3)
    for k in range(len(points)):
        one = jet(spec, points[k:k + 1], 3)
        pairs = [(field, getattr(one, field), getattr(batch, field))
                 for field in ("G", "dG", "d2G", "d3G", "dpi", "d2pi")]
        for kind in ("lc", "pr"):
            pairs += [(f"{kind}.{field}", getattr(getattr(one, kind), field),
                       getattr(getattr(batch, kind), field))
                      for field in ("Gamma", "dGamma", "d2Gamma", "R", "S", "dR", "nabla_R")]
        for field, alone, rows in pairs:
            assert _same_bits(alone[0], rows[k]), (field, k)


def _every_table(spec) -> list[tuple[str, int]]:
    """g and pi at orders 0-3, xi, and phi and f where the chart has them."""
    tables = [(name, k) for name in ("g", "pi") for k in range(4)] + [("xi", 0)]
    if spec.phi is not None:
        tables.append(("phi", 0))
    if spec.f1 is not None:
        tables.append(("f", 0))
    return tables


@pytest.mark.parametrize("name", [*catalog_names(), "bench_warped_5"])
def test_one_point_table_is_row_0_of_a_batch(name):
    # a fresh table walks its entries at one point and runs its compiled
    # program on two: row 0 of the pair is the point alone, bit for bit
    if name == "bench_warped_5":
        spec = geometry.load_spec(_bench_module("workloads").warped_document(5))
    else:
        spec = builtin(name).spec
    for seed in (0, 1):
        p, q = sample(spec, 2, seed=seed).points
        for table, k in _every_table(spec):
            compiled = ex.CompiledTable(spec.tables.table(table, k), spec.coords)
            alone = compiled.values([p])
            assert alone.shape == (1,) + compiled.shape
            assert _same_bits(alone[0], compiled.values([p, q])[0]), (table, k, seed)


def test_one_point_read_builds_no_batch_machinery(monkeypatch):
    compiles = _counting(monkeypatch, ex, "_compile")
    splits = _counting(monkeypatch, ex.CompiledTable, "_batched")
    spec = builtin(WARPED).spec
    point, other = sample(spec, 2, seed=3).points
    compiled = ex.CompiledTable(spec.tables.table("g", 2), spec.coords)
    compiled.values([point])
    assert (len(compiles), len(splits)) == (0, 0)
    compiled.values([point, other])
    compiled.values([other, point])
    assert (len(compiles), len(splits)) == (1, 2)  # built once, on the first batch


def test_one_sample_reports_do_not_depend_on_call_history():
    # the second run on a chart reads the tables its first run evaluated; a
    # table evaluated again at one point gives the bits of its first
    # evaluation
    for seed in range(20):
        spec = builtin("warped_r3xr").spec
        first, second = (
            json.dumps([r.to_dict() for r in run_checks(spec, count=1, seed=seed)], indent=2)
            for _ in range(2)
        )
        assert first == second, seed
    for point in sample(spec, 40, seed=3).points:
        table = ex.CompiledTable(spec.tables.table("g", 3), spec.coords)
        first = table.values([point])
        assert _same_bits(table.values([point]), first)


def _sympy_tensors(spec):
    """G_inv, Gamma, R and nabla R of both connections as functions of the
    point, derived with sympy.diff from the chart's expression strings."""
    n = spec.n
    x = sp.symbols(spec.coords)
    names = dict(zip(spec.coords, x))

    def parse(tree):
        return sp.sympify(ex.to_text(tree).replace("^", "**"), locals=names)

    g = sp.Matrix(n, n, lambda i, j: parse(spec.g[i][j]))
    g_inv = g.inv()
    xi = [parse(e) for e in spec.xi]
    pi = [sum(g[i, j] * xi[j] for j in range(n)) for i in range(n)]
    r = range(n)
    lc = [[[sum(g_inv[k, l] * (sp.diff(g[j, l], x[i]) + sp.diff(g[i, l], x[j])
                               - sp.diff(g[i, j], x[l])) for l in r) / 2
            for j in r] for i in r] for k in r]
    delta = sp.eye(n)
    pr = [[[lc[k][i][j] + sp.Rational(n, n + 1) * pi[j] * delta[k, i]
            - sp.Rational(1, n + 1) * pi[i] * delta[k, j]
            for j in r] for i in r] for k in r]
    out = {"G_inv": g_inv.tolist()}
    for label, G in (("lc", lc), ("pr", pr)):
        R = [[[[sp.diff(G[l][j][k], x[i]) - sp.diff(G[l][i][k], x[j])
                + sum(G[l][i][m] * G[m][j][k] - G[l][j][m] * G[m][i][k] for m in r)
                for k in r] for j in r] for i in r] for l in r]
        nabla = [[[[[sp.diff(R[l][i][j][k], x[m])
                     + sum(G[l][m][p] * R[p][i][j][k] - G[p][m][i] * R[l][p][j][k]
                           - G[p][m][j] * R[l][i][p][k] - G[p][m][k] * R[l][i][j][p]
                           for p in r)
                     for k in r] for j in r] for i in r] for l in r] for m in r]
        out.update({f"{label}.Gamma": G, f"{label}.R": R, f"{label}.nabla_R": nabla})
    return {key: sp.lambdify(x, value, "math") for key, value in out.items()}


@pytest.mark.parametrize("name", ["cylinder_s2xr", "gssf_c1"])
def test_jet_matches_sympy_oracle(name):
    spec = builtin(name).spec
    oracle = _sympy_tensors(spec)
    points = sample(spec, 3, seed=2024).points
    j = jet(spec, points, 3)
    engine = {"G_inv": j.G_inv}
    for label in ("lc", "pr"):
        cj = getattr(j, label)
        engine.update({f"{label}.Gamma": cj.Gamma, f"{label}.R": cj.R,
                       f"{label}.nabla_R": cj.nabla_R})
    for key, values in engine.items():
        for s, point in enumerate(points):
            expected = np.array(oracle[key](*point.tolist()), dtype=float)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(values[s] - expected)) <= 1e-12 * scale, (key, s)


# The catalog's curved chart of dimension 4: (x, y, z) x t with g_tt = 1 and
# xi = d_t, the 3x3 block mixing exp, cosh, sinh, sqrt, log and sin with
# off-diagonal terms.
WARPED = "warped_r3xr"


# The catalog's other curved charts have metrics of one coordinate, on which
# d_p d_m Gamma comes out symmetric in (p, m) whatever the order of its mixed
# terms; this chart's metric depends on x, y and z.
def _warped_failures():
    reports = run_checks(builtin(WARPED).spec, count=10, seed=42)
    return reports, {r.check_id for r in reports if not (r.passed or r.skipped)}


def test_warped_chart_passes_every_check():
    reports, failed = _warped_failures()
    assert not failed
    ran = {r.check_id for r in reports if not r.skipped}
    assert {"thm2_1_v", "eq11d", "lem2_6"} <= ran


def test_warped_chart_catches_mixed_d2gamma_order(monkeypatch):
    # the two mixed terms d_m G d_p Gamma and d_p G d_m Gamma taken in one order
    wrong = mutant(connections._lc_pieces,
                   "- mixed - mixed.transpose(0, 2, 1, 3, 4)", "- mixed - mixed")
    monkeypatch.setattr(connections, "_lc_pieces", wrong)
    assert "thm2_1_v" in _warped_failures()[1]


@functools.cache
def _warped_table_oracle():
    """The g and pi tables of orders 0-3 of the warped chart as functions of
    the point, derived with sympy.derive_by_array from the chart strings."""
    spec = builtin(WARPED).spec
    n = spec.n
    x = sp.symbols(spec.coords)
    names = dict(zip(spec.coords, x))

    def parse(tree):
        return sp.sympify(ex.to_text(tree).replace("^", "**"), locals=names)

    g = [[parse(e) for e in row] for row in spec.g]
    xi = [parse(e) for e in spec.xi]
    pi = [sum(g[i][j] * xi[j] for j in range(n)) for i in range(n)]
    oracle = {}
    for name, table in (("g", sp.Array(g)), ("pi", sp.Array(pi))):
        for order in range(4):
            if order:
                table = sp.derive_by_array(table, x)  # derivative axis first
            oracle[name, order] = sp.lambdify(x, table.tolist(), "math")
    return oracle


def warped_table_mismatches():
    """(name, order, sample) of every g or pi table of a freshly loaded
    warped chart that differs from the SymPy oracle by more than 1e-12
    relative, at three seeded points."""
    spec = builtin(WARPED).spec
    points = sample(spec, 3, seed=2024).points
    bad = []
    for (name, order), oracle in _warped_table_oracle().items():
        got = spec.tables.values(name, order, points)
        for s, point in enumerate(points):
            expected = np.array(oracle(*point.tolist()), dtype=float)
            scale = max(1.0, float(np.max(np.abs(expected))))
            if not np.max(np.abs(got[s] - expected)) <= 1e-12 * scale:
                bad.append((name, order, s))
    return bad


def test_transcendental_tables_match_sympy():
    assert warped_table_mismatches() == []


@pytest.mark.parametrize("name", ["warped", "gssf_c1"])
def test_derivative_tables_are_symmetric(name):
    # each mixed partial is taken once: every permutation of a derivative
    # multi-index holds the same trees, so the jet's arrays are exactly
    # symmetric in their derivative axes
    spec = builtin(WARPED if name == "warped" else name).spec
    n = spec.n
    for table_name in ("g", "pi"):
        for order in (2, 3):
            table = spec.tables.table(table_name, order)
            for index in np.ndindex((n,) * order):
                for perm in itertools.permutations(index):
                    same = all(
                        a is b or (isinstance(a, ex.Const) and a == b)
                        for a, b in zip(table[index].reshape(-1), table[perm].reshape(-1))
                    )
                    assert same, (table_name, index, perm)
    j = geometry.metric_jet(spec, sample(spec, 5, seed=3).points, 3)
    for array, axes in ((j.d2G, 2), (j.d3G, 3), (j.d2pi, 2)):
        rest = tuple(range(axes + 1, array.ndim))
        for perm in itertools.permutations(range(1, axes + 1)):
            assert np.array_equal(array, array.transpose((0,) + perm + rest)), perm
