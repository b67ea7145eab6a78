import dataclasses
import hashlib
import json
import math
import re

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


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**200 + 7])
def test_stream_is_numpy_default_rng(seed):
    # lengths on both sides of the powers of two, and a draw continuing the last
    for k in (1, 2, 3, 1023, 1024, 1025, 9001):
        got = geometry.PCG64Stream(seed).random(k)
        assert got.tobytes() == np.random.default_rng(seed).random(k).tobytes()
    stream, rng = geometry.PCG64Stream(seed), np.random.default_rng(seed)
    for shape in ((200, 5, 3), (1, 3), (1, 3), (37, 5, 8), (1, 8)):
        assert stream.random(shape).tobytes() == rng.random(shape).tobytes()


def test_sample_digest_is_the_numpy_streams():
    # every catalog chart at 43 seeds and three counts; the digest was taken
    # when sampling drew from np.random.default_rng(seed)
    digest = hashlib.sha256()
    for name in catalog_names():
        spec = builtin(name).spec
        for seed in range(0, 295, 7):
            for count in (1, 37, 200):
                s = sample(spec, count, seed)
                digest.update(s.points.tobytes())
                digest.update(s.frames.tobytes())
    assert digest.hexdigest() == "2b96f73af534683b697ad5beaff7a6ff9e08575611b3672a7ff1f1af0b02ec29"


def test_sampling_seed_is_a_non_negative_integer(cylinder):
    with pytest.raises(ValueError, match="non-negative"):
        sample(cylinder, 5, seed=-1)
    for seed in (None, 1.0, "42", (4, 2)):
        with pytest.raises(TypeError):
            sample(cylinder, 5, seed=seed)
    same = sample(cylinder, 5, seed=np.int64(42))
    assert same.points.tobytes() == sample(cylinder, 5, seed=42).points.tobytes()


def test_sampling_count_beyond_memory_fails_before_drawing(cylinder):
    # 1.2e15 bytes of rows: more than a 48-bit virtual address space holds,
    # so the allocation fails without touching memory
    with pytest.raises(MemoryError):
        sample(cylinder, 10**13, seed=1)


def test_sampling_empty_box_rejected():
    empty = FLAT_2D.replace("box[0] = -1, 1", "box[0] = 1, 1")
    with pytest.raises(ValueError, match="empty sampling box"):
        sample(load_spec(empty), 5, seed=1)


def test_frames_have_minimum_norm(euclidean3):
    s = sample(euclidean3, 200, seed=11)
    norms = np.linalg.norm(s.frames, axis=2)
    assert norms.min() >= 1e-3


class _Stream:
    """A stand-in for ``geometry.PCG64Stream(seed)``: its doubles come from
    a given list, in order, however many a call asks for."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self, size):
        count = int(np.prod(size))
        assert self.used + count <= len(self.values), "stream exhausted"
        self.used += count
        return np.array(self.values[self.used - count:self.used]).reshape(size)


def _sequential_sample(lows, highs, count, values):
    """The draw rule one vector at a time: a point, then four vectors, each
    drawn again while its norm is below 1e-3; and the doubles it used."""
    stream = iter(values)
    used = 0

    def draw(lo, hi):
        nonlocal used
        used += len(lows)
        return lo + (hi - lo) * np.array([next(stream) for _ in lows])

    points, frames = [], []
    for _ in range(count):
        points.append(draw(lows, highs))
        for _ in range(4):
            vec = draw(-1.0, 1.0)
            while float(np.linalg.norm(vec)) < 1e-3:
                vec = draw(-1.0, 1.0)
            frames.append(vec)
    return np.array(points), np.array(frames).reshape(count, 4, len(lows)), used


def test_short_vectors_are_redrawn_as_one_vector_at_a_time(cylinder, monkeypatch):
    n, count = cylinder.n, 6
    values = np.random.default_rng(5).random(5 * count * n + 3 * n).tolist()
    short = [0.5] * n  # the zero vector once scaled to [-1, 1]
    # sample 1's second vector is short, and so is the row drawn in its place;
    # the last sample's last vector is short, so one more row is drawn at the end
    for row in (7, 8, 5 * count - 1 + 2):
        values[row * n:(row + 1) * n] = short
    stream = _Stream(values)
    monkeypatch.setattr(geometry, "PCG64Stream", lambda seed: stream)
    got = sample(cylinder, count, seed=0)
    lows, highs = (np.array(bounds) for bounds in zip(*cylinder.box))
    points, frames, used = _sequential_sample(lows, highs, count, values)
    assert used == stream.used == 5 * count * n + 3 * n
    assert np.array_equal(got.points, points)
    assert np.array_equal(got.frames, frames)


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
