import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from projconn import expr as ex
from projconn import geometry
from projconn.catalog import builtin, catalog_names, entry_document
from projconn.geometry import (
    NotSPDError,
    SpecError,
    load_spec,
    metric_at,
    metric_jet,
    sample,
)

FLAT_2D = """
name = plane
dim = 2
coords = u, v
g[0][0] = 1
g[0][1] = 0
g[1][1] = 1
xi[0] = 1
xi[1] = 0
box[0] = -1, 1
box[1] = -1, 1
"""


FLAT_2D_JSON = json.dumps({
    "name": "plane",
    "dim": 2,
    "coords": ["u", "v"],
    "g": [["1", "0"], ["0", "1"]],
    "xi": ["1", "0"],
    "box": [[-1, 1], [-1, 1]],
})


def test_load_kv_document():
    spec = load_spec(FLAT_2D)
    assert spec.n == 2
    assert spec.coords == ("u", "v")
    assert spec.parallel_xi_expected is True


def test_load_three_coordinate_document(cylinder):
    assert cylinder.n == 3
    assert cylinder.coords == ("theta", "phi", "t")


def test_load_json_document_equals_kv():
    assert load_spec(FLAT_2D_JSON) == load_spec(FLAT_2D)


def test_dimension_mismatch_rejected():
    bad = FLAT_2D.replace("dim = 2", "dim = 3").replace("coords = u, v", "coords = u, v, w")
    with pytest.raises(SpecError, match="g\\[0\\]\\[2\\]|xi"):
        load_spec(bad)


def test_missing_metric_entry_rejected():
    bad = FLAT_2D.replace("g[0][1] = 0\n", "")
    with pytest.raises(SpecError, match="missing metric entry"):
        load_spec(bad)


def test_unknown_key_rejected():
    with pytest.raises(SpecError, match="unknown key"):
        load_spec(FLAT_2D + "bogus = 1\n")


@pytest.mark.parametrize("key", ["g[٠][٠]", "xi[١]", "phi[٠][١]"])
def test_key_index_outside_ascii_is_unknown(key):
    with pytest.raises(SpecError, match=re.escape(f"unknown key {key!r}")):
        load_spec(FLAT_2D + f"{key} = 1\n")


@pytest.mark.parametrize("coords", ["θ, v", "u, v²", "1u, v"])
def test_coordinate_name_outside_ascii_rejected(coords):
    with pytest.raises(SpecError, match="invalid coordinate name"):
        load_spec(FLAT_2D.replace("coords = u, v", f"coords = {coords}"))


@pytest.mark.parametrize("extra, key", [
    ("g[1][1] = 2\n", "g[1][1]"),
    ("xi[0] = 0\n", "xi[0]"),
    ("box[1] = 0, 1\n", "box[1]"),
    ("phi[0][1] = 0\nphi[0][1] = 1\n", "phi[0][1]"),
    ("dim = 2\n", "dim"),
    ('"g": [["2", "0"], ["0", "1"]]', "g"),
    ('"xi": ["0", "1"]', "xi"),
    ('"box": [[0, 1], [0, 1]]', "box"),
    ('"dim": 2', "dim"),
], ids=["g", "xi", "box", "phi", "dim", "json-g", "json-xi", "json-box", "json-dim"])
def test_duplicate_key_rejected(extra, key):
    if extra.startswith('"'):
        # a second member of the JSON object, which json.loads alone would
        # keep in place of the first
        document = FLAT_2D_JSON[:-1] + ", " + extra + "}"
        message = f"duplicate JSON key {key!r}"
    else:
        document = FLAT_2D + extra
        message = f"line {FLAT_2D.count(chr(10)) + extra.count(chr(10))}: duplicate key {key!r}"
    with pytest.raises(SpecError, match=re.escape(message)):
        load_spec(document)


def test_unknown_coordinate_in_expression_rejected():
    bad = FLAT_2D.replace("g[0][0] = 1", "g[0][0] = 1+w")
    with pytest.raises(SpecError, match="unknown coordinate"):
        load_spec(bad)


def test_catalog_document_loads_equal_to_builtin():
    spec = load_spec(entry_document("cylinder_s2xr"))
    assert spec == builtin("cylinder_s2xr").spec


def test_replaced_spec_reads_its_own_tables():
    # the table cache is no field of the chart: a spec replaced after the
    # original built its tables evaluates its own entries
    spec = builtin("euclidean3").spec
    assert spec.tables.table("g", 0)[0, 0] == ex.const(1.0)
    g = [list(row) for row in spec.g]
    g[0][0] = ex.parse("1 + x*x")
    replaced = dataclasses.replace(spec, g=tuple(tuple(row) for row in g))
    assert replaced.tables.values("g", 0, [(2.0, 0.0, 0.0)])[0, 0, 0] == 5.0
    assert spec.tables.values("g", 0, [(2.0, 0.0, 0.0)])[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="_tables"):
        dataclasses.replace(spec, _tables=None)


def test_euclidean_metric_is_identity(euclidean3):
    mv = metric_at(euclidean3, (0.2, -0.4, 0.9))
    np.testing.assert_allclose(mv.G, np.eye(3))
    np.testing.assert_allclose(mv.dG, 0.0)


def test_cylinder_metric_values(cylinder):
    # hand evaluation of the sphere factor: sin^2(pi/2) = 1, sin^2(pi/3) = 3/4
    mv = metric_at(cylinder, (math.pi / 2, 1.0, 0.0))
    np.testing.assert_allclose(mv.G, np.diag([1.0, 1.0, 1.0]), atol=1e-15)
    mv = metric_at(cylinder, (math.pi / 3, 1.0, 0.0))
    np.testing.assert_allclose(mv.G, np.diag([1.0, 0.75, 1.0]), atol=1e-15)


def test_not_spd_detected():
    bad = FLAT_2D.replace("g[0][0] = 1", "g[0][0] = -1")
    spec = load_spec(bad)
    with pytest.raises(NotSPDError):
        metric_at(spec, (0.0, 0.0))


def _unit_residual(mj) -> float:
    """|pi(xi) - 1| at the jet's one sample."""
    return abs(float(mj.pi[0] @ mj.xi[0]) - 1.0)


def test_pi_lowering_euclidean(euclidean3):
    mj = metric_jet(euclidean3, [(0.0, 0.0, 0.0)], order=0)
    np.testing.assert_allclose(mj.pi[0], [1.0, 0.0, 0.0])
    assert _unit_residual(mj) <= 1e-15


def test_pi_lowering_cylinder(cylinder):
    pi = metric_jet(cylinder, [(1.0, 2.0, 0.5)], order=0).pi[0]
    np.testing.assert_allclose(pi, [0.0, 0.0, 1.0], atol=1e-15)


def test_non_unit_field_reports_residual():
    # negative control: g(xi, xi) = 4 gives |pi.xi - 1| = 3
    doubled = FLAT_2D.replace("xi[0] = 1", "xi[0] = 2")
    residual = _unit_residual(metric_jet(load_spec(doubled), [(0.0, 0.0)], order=0))
    assert residual > 0.1
    assert residual == pytest.approx(3.0)


def test_sampling_is_deterministic(cylinder):
    a = sample(cylinder, 100, seed=7)
    b = sample(cylinder, 100, seed=7)
    assert np.array_equal(a.points, b.points)
    c = sample(cylinder, 100, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_sampling_respects_box(cylinder):
    s = sample(cylinder, 500, seed=3)
    theta = s.points[:, 0]
    assert theta.min() >= 0.3
    assert theta.max() <= math.pi - 0.3


def test_sampling_count_zero_rejected(cylinder):
    with pytest.raises(ValueError):
        sample(cylinder, 0, seed=1)


# The ten charts of the catalog when the digest was taken, by name, so that
# a chart added to the catalog leaves the digest alone.
_DIGEST_CHARTS = (
    "euclidean3", "euclidean4", "euclidean5", "euclidean8", "cylinder_s2xr",
    "gssf_c1", "gssf_c4", "polar_r2xr2", "warped_r3xr", "sphere3_bad_xi",
)


def test_sample_digest_is_the_counter_streams():
    # ten charts at 43 seeds and three counts; a change of the stream or of
    # its scaling changes every report's bytes, and this digest
    digest = hashlib.sha256()
    for name in _DIGEST_CHARTS:
        spec = builtin(name).spec
        for seed in range(0, 295, 7):
            for count in (1, 37, 200):
                digest.update(sample(spec, count, seed).points.tobytes())
    assert digest.hexdigest() == "146e790e4ce2b2ab07afb5ac37786956a263bc83857e1185c36c97bd9410b2d4"


def test_sample_prefix_is_the_smaller_set(cylinder):
    # each double is a function of its counter, so a set is a prefix of any
    # larger set of the same seed
    for k, m in ((1, 2), (37, 200), (199, 200)):
        small, large = sample(cylinder, k, 11), sample(cylinder, m, 11)
        assert small.points.tobytes() == large.points[:k].tobytes()


def test_seeds_past_64_bits_give_new_points(cylinder):
    assert not np.array_equal(sample(cylinder, 5, 3).points, sample(cylinder, 5, 2**64 + 3).points)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**200 + 7])
def test_sampling_large_seeds_wrap_without_warning(cylinder, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = sample(cylinder, 50, seed).points
    assert np.all(np.isfinite(points))


def test_sampling_seed_is_a_non_negative_integer(cylinder):
    with pytest.raises(ValueError, match="non-negative"):
        sample(cylinder, 5, seed=-1)
    for seed in (None, 1.0, "42", (4, 2)):
        with pytest.raises(TypeError):
            sample(cylinder, 5, seed=seed)
    same = sample(cylinder, 5, seed=np.int64(42))
    assert same.points.tobytes() == sample(cylinder, 5, seed=42).points.tobytes()


def test_sampling_count_beyond_memory_fails_before_drawing(cylinder):
    # 2.4e14 bytes of counters: more than the 128 TiB a process addresses with
    # 48-bit virtual addresses, so the allocation fails without touching memory
    with pytest.raises(MemoryError):
        sample(cylinder, 10**13, seed=1)


def test_sampling_empty_box_rejected():
    empty = FLAT_2D.replace("box[0] = -1, 1", "box[0] = 1, 1")
    with pytest.raises(ValueError, match="empty sampling box"):
        sample(load_spec(empty), 5, seed=1)


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_metric_invariants(name):
    spec = builtin(name).spec
    s = sample(spec, 100, seed=17)
    for point in s.points:
        mv = metric_at(spec, point)
        assert np.max(np.abs(mv.G - mv.G.T)) <= 1e-14
        assert np.max(np.abs(mv.G @ mv.G_inv - np.eye(spec.n))) <= 1e-11
        assert _unit_residual(metric_jet(spec, [point], order=0)) <= 1e-10


def test_environment_rejects_wrong_point_length(euclidean3):
    with pytest.raises(SpecError):
        metric_at(euclidean3, (0.0, 0.0))
