import json
import math
import re

import numpy as np
import pytest

from projconn.catalog import builtin, catalog_names, entry_document
from projconn.geometry import (
    NotSPDError,
    SpecError,
    load_spec,
    metric_at,
    pi_at,
    sample,
    spec_to_text,
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


def test_load_kv_document():
    spec = load_spec(FLAT_2D)
    assert spec.n == 2
    assert spec.coords == ("u", "v")
    assert spec.parallel_xi_expected is True


def test_load_three_coordinate_document(cylinder):
    assert cylinder.n == 3
    assert cylinder.coords == ("theta", "phi", "t")


def test_load_json_document_equals_kv():
    doc = {
        "name": "plane",
        "dim": 2,
        "coords": ["u", "v"],
        "g": [["1", "0"], ["0", "1"]],
        "xi": ["1", "0"],
        "box": [[-1, 1], [-1, 1]],
    }
    assert load_spec(json.dumps(doc)) == load_spec(FLAT_2D)


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


@pytest.mark.parametrize("extra, key", [
    ("g[1][1] = 2\n", "g[1][1]"),
    ("xi[0] = 0\n", "xi[0]"),
    ("box[1] = 0, 1\n", "box[1]"),
    ("phi[0][1] = 0\nphi[0][1] = 1\n", "phi[0][1]"),
    ("dim = 2\n", "dim"),
], ids=["g", "xi", "box", "phi", "dim"])
def test_duplicate_key_rejected(extra, key):
    lineno = FLAT_2D.count("\n") + extra.count("\n")
    with pytest.raises(SpecError, match=re.escape(f"line {lineno}: duplicate key {key!r}")):
        load_spec(FLAT_2D + extra)


def test_unknown_coordinate_in_expression_rejected():
    bad = FLAT_2D.replace("g[0][0] = 1", "g[0][0] = 1+w")
    with pytest.raises(SpecError, match="unknown coordinate"):
        load_spec(bad)


def test_catalog_document_loads_equal_to_builtin():
    spec = load_spec(entry_document("cylinder_s2xr"))
    assert spec == builtin("cylinder_s2xr").spec


def test_spec_text_round_trip(cylinder):
    assert load_spec(spec_to_text(cylinder)) == cylinder


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


def test_pi_lowering_euclidean(euclidean3):
    cov = pi_at(euclidean3, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(cov.components, [1.0, 0.0, 0.0])
    assert cov.unit_residual <= 1e-15


def test_pi_lowering_cylinder(cylinder):
    cov = pi_at(cylinder, (1.0, 2.0, 0.5))
    np.testing.assert_allclose(cov.components, [0.0, 0.0, 1.0], atol=1e-15)


def test_non_unit_field_reports_residual():
    # negative control: g(xi, xi) = 4 gives |pi.xi - 1| = 3
    doubled = FLAT_2D.replace("xi[0] = 1", "xi[0] = 2")
    cov = pi_at(load_spec(doubled), (0.0, 0.0))
    assert cov.unit_residual > 0.1
    assert cov.unit_residual == pytest.approx(3.0)


def test_sampling_is_deterministic(cylinder):
    a = sample(cylinder, 100, seed=7)
    b = sample(cylinder, 100, seed=7)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.frames, b.frames)
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


def test_sampling_empty_box_rejected():
    empty = FLAT_2D.replace("box[0] = -1, 1", "box[0] = 1, 1")
    with pytest.raises(ValueError, match="empty sampling box"):
        sample(load_spec(empty), 5, seed=1)


def test_frames_have_minimum_norm(euclidean3):
    s = sample(euclidean3, 200, seed=11)
    norms = np.linalg.norm(s.frames, axis=2)
    assert norms.min() >= 1e-3


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_metric_invariants(name):
    spec = builtin(name).spec
    s = sample(spec, 100, seed=17)
    for point in s.points:
        mv = metric_at(spec, point)
        assert np.max(np.abs(mv.G - mv.G.T)) <= 1e-14
        assert np.max(np.abs(mv.G @ mv.G_inv - np.eye(spec.n))) <= 1e-11
        cov = pi_at(spec, point)
        assert cov.unit_residual <= 1e-10


def test_environment_rejects_wrong_point_length(euclidean3):
    with pytest.raises(SpecError):
        metric_at(euclidean3, (0.0, 0.0))
