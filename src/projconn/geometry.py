"""Manifold charts: metric data with exact symbolic partials, the lowered
1-form of the unit field, and deterministic point/frame sampling.

Index conventions used package-wide:

* metric components ``g[i][j]`` carry two lower indices,
* the distinguished field ``xi`` carries an upper index,
* every derivative axis is prepended, so ``dG[m, i, j] = d_m g_ij`` and
  ``d2G[p, m, i, j] = d_p d_m g_ij``.

The 1-form is always derived by lowering (``pi_i = g_ij xi^j``); it is never
independent input, which keeps chart files consistent by construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex

__all__ = [
    "SpecError",
    "NotSPDError",
    "GateError",
    "DimensionError",
    "ManifoldSpec",
    "MetricValue",
    "MetricJet",
    "SampleSet",
    "load_spec",
    "metric_jet",
    "metric_at",
    "sample",
    "in_box",
]


class SpecError(Exception):
    """A manifold document is malformed or inconsistent."""


class NotSPDError(Exception):
    """The metric failed the positive-definiteness factorization at a point."""


class GateError(Exception):
    """An operation requiring a parallel unit field was invoked on a chart
    that declares the field non-parallel."""


class DimensionError(Exception):
    """An operation requiring dimension > 2 was invoked on a planar chart."""


# Samples are walked in chunks: the largest run of samples at n^6 float64
# values each that fits this many bytes, and at least one sample.  The jet's
# dR and nabla R and the smlijk contractions of the curvature family hold n^5
# values per sample; the largest per-sample array is the a < b derivation
# stack, n^4 n(n-1)/2 values (0.9 MiB at n = 8).
CHUNK_BYTES = 512 * 1024


# ---------------------------------------------------------------------------
# spec + symbolic derivative tables


class ChartTables:
    """Per-spec cache of symbolically differentiated component tables.

    Tables are object arrays of Expr; the table of order k has shape
    (n,)*k + base_shape with derivative axes first.  Building is idempotent,
    so concurrent lazy fills at worst recompute.  ``values`` evaluates a
    table on a batch of points through its compiled program.
    """

    def __init__(self, spec: "ManifoldSpec"):
        self.coords = spec.coords
        n = len(spec.coords)
        g = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                g[i, j] = spec.g[i][j]
        xi = np.empty((n,), dtype=object)
        for i in range(n):
            xi[i] = spec.xi[i]
        pi = np.empty((n,), dtype=object)
        for i in range(n):
            acc = ex.const(0.0)
            for j in range(n):
                acc = ex.add(acc, ex.mul(g[i, j], xi[j]))
            pi[i] = acc
        self._base = {"g": g, "xi": xi, "pi": pi}
        if spec.phi is not None:
            phi = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(n):
                    phi[i, j] = spec.phi[i][j]
            self._base["phi"] = phi
        if None not in (spec.f1, spec.f2, spec.f3):
            self._base["f"] = np.array([spec.f1, spec.f2, spec.f3], dtype=object)
        self._cache: dict[tuple[str, int], np.ndarray] = {}
        # Shared by every table, so a subtree common to several entries or
        # orders (pi shares g's entries) is differentiated once.
        self._diff_memo: dict = {}
        self._compiled: dict[tuple[str, int], ex.CompiledTable] = {}

    def table(self, name: str, order: int) -> np.ndarray:
        if order == 0:
            return self._base[name]
        key = (name, order)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self._cache[key] = ex.partials(
            self.table(name, order - 1), self.coords, self._diff_memo
        )
        return out

    def values(self, name: str, order: int, points) -> np.ndarray:
        """The table at each of a batch of points, with a leading sample
        axis.  Each table is compiled once (``expr.CompiledTable``); an
        evaluation error names the first point the scalar walk fails at."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != len(self.coords):
            raise SpecError(
                f"point has {points.shape[1]} coordinates, chart has {len(self.coords)}"
            )
        key = (name, order)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._compiled[key] = ex.CompiledTable(self.table(name, order), self.coords)
        return compiled.values(points)


@dataclass
class ManifoldSpec:
    """A coordinate chart: metric, distinguished field, sampling box.

    ``phi`` is an optional (1,1) tensor with ``phi[i][j]`` the i-th component
    of the image of the j-th coordinate field; f1, f2, f3 are the optional
    curvature coefficient functions that accompany it.
    """

    name: str
    coords: tuple[str, ...]
    g: tuple[tuple[ex.Expr, ...], ...]
    xi: tuple[ex.Expr, ...]
    box: tuple[tuple[float, float], ...]
    parallel_xi_expected: bool = True
    phi: tuple[tuple[ex.Expr, ...], ...] | None = None
    f1: ex.Expr | None = None
    f2: ex.Expr | None = None
    f3: ex.Expr | None = None
    _tables: ChartTables | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def tables(self) -> ChartTables:
        if self._tables is None:
            self._tables = ChartTables(self)
        return self._tables

    def require_dimension_above_two(self):
        if self.n <= 2:
            raise DimensionError(
                f"operation requires dimension > 2, chart {self.name!r} has n={self.n}"
            )


@dataclass
class MetricValue:
    """Metric data at a point; derivative arrays present up to the order asked."""

    point: tuple[float, ...]
    G: np.ndarray
    G_inv: np.ndarray
    dG: np.ndarray | None = None
    d2G: np.ndarray | None = None
    d3G: np.ndarray | None = None


@dataclass
class MetricJet:
    """Metric data at a batch of points, every array with a leading sample
    axis.  The metric's partials are present up to the order asked, the
    first partials of pi from order 1 and its second partials from order 3
    (what the connection coefficients one order below need)."""

    points: np.ndarray  # (S, n)
    G: np.ndarray  # (S, n, n)
    G_inv: np.ndarray
    xi: np.ndarray  # (S, n)
    pi: np.ndarray  # (S, n), pi = G xi
    dG: np.ndarray | None = None  # (S, n, n, n)
    d2G: np.ndarray | None = None
    d3G: np.ndarray | None = None
    dpi: np.ndarray | None = None  # (S, n, n), dpi[s, m, i] = d_m pi_i
    d2pi: np.ndarray | None = None


@dataclass
class SampleSet:
    """Deterministic points and tangent frames; same seed, same bits."""

    seed: int
    points: np.ndarray  # (count, n)
    frames: np.ndarray  # (count, 4, n)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def chunks(self) -> list[tuple[int, int]]:
        """(start, stop) ranges walking the samples in order, each as long
        as CHUNK_BYTES allows at n^6 float64 values per sample: n times the
        n^5 values of dR, nabla R and the smlijk contractions."""
        n = self.points.shape[1]
        size = max(1, CHUNK_BYTES // (8 * n**6))
        return [(lo, min(lo + size, self.count)) for lo in range(0, self.count, size)]


# ---------------------------------------------------------------------------
# loading


_INDEXED_2 = re.compile(r"^(g|phi)\[(\d+)\]\[(\d+)\]$")
_INDEXED_1 = re.compile(r"^(xi|box)\[(\d+)\]$")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _parse_expr(text: str, context: str) -> ex.Expr:
    try:
        return ex.parse(text)
    except ex.ParseError as err:
        raise SpecError(f"{context}: {err}") from err


def _parse_kv_document(text: str) -> dict:
    doc: dict = {"g": {}, "xi": {}, "phi": {}, "box": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        m2 = _INDEXED_2.match(key)
        m1 = _INDEXED_1.match(key)
        if m2:
            slot, index = doc[m2.group(1)], (int(m2.group(2)), int(m2.group(3)))
        elif m1:
            slot, index = doc[m1.group(1)], int(m1.group(2))
        elif key in ("dim", "coords", "name", "parallel_xi_expected", "f1", "f2", "f3"):
            slot, index = doc, key
        else:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        if index in slot:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        slot[index] = value
    return doc


def _unique_members(pairs: list) -> dict:
    """A JSON object's members as a dict, rejecting a repeated key (which
    ``json.loads`` would resolve silently to the last value)."""
    members: dict = {}
    for key, value in pairs:
        if key in members:
            raise SpecError(f"duplicate JSON key {key!r}")
        members[key] = value
    return members


def _parse_json_document(text: str) -> dict:
    try:
        data = json.loads(text, object_pairs_hook=_unique_members)
    except json.JSONDecodeError as err:
        raise SpecError(f"invalid JSON document: {err}") from err
    except RecursionError:
        raise SpecError("invalid JSON document: nested too deeply") from None
    if not isinstance(data, dict):
        raise SpecError("JSON document must be an object")
    doc: dict = {"g": {}, "xi": {}, "phi": {}, "box": {}}
    for key in ("dim", "name", "parallel_xi_expected", "f1", "f2", "f3", "coords"):
        if key in data:
            doc[key] = data[key]
    if not isinstance(data.get("coords", []), (list, str)):
        raise SpecError("JSON key 'coords' must be a list of names")

    def rows(key: str) -> list:
        value = data.get(key, [])
        if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
            raise SpecError(f"JSON key {key!r} must be a list of lists")
        return value

    for i, row in enumerate(rows("g")):
        for j, entry in enumerate(row):
            if entry is not None:
                doc["g"][(i, j)] = str(entry)
    for i, row in enumerate(rows("phi")):
        for j, entry in enumerate(row):
            doc["phi"][(i, j)] = str(entry)
    xi = data.get("xi", [])
    if not isinstance(xi, list):
        raise SpecError("JSON key 'xi' must be a list")
    for i, entry in enumerate(xi):
        doc["xi"][i] = str(entry)
    for i, pair in enumerate(rows("box")):
        if len(pair) != 2:
            raise SpecError(f"box[{i}] must be a pair [lo, hi]")
        doc["box"][i] = f"{pair[0]}, {pair[1]}"
    return doc


def _build_spec(doc: dict) -> ManifoldSpec:
    if "dim" not in doc:
        raise SpecError("missing required key 'dim'")
    if "coords" not in doc:
        raise SpecError("missing required key 'coords'")
    try:
        n = int(doc["dim"])
        if n != float(doc["dim"]):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise SpecError("'dim' must be an integer") from None
    if n < 2:
        raise SpecError("'dim' must be at least 2")

    coords_raw = doc["coords"]
    if isinstance(coords_raw, str):
        coords = tuple(c.strip() for c in coords_raw.split(","))
    else:
        coords = tuple(str(c) for c in coords_raw)
    if len(coords) != n:
        raise SpecError(f"dim={n} but coords lists {len(coords)} names")
    for c in coords:
        if not _IDENT.match(c):
            raise SpecError(f"invalid coordinate name {c!r}")
        if c in ex.FUNCTIONS:
            raise SpecError(f"coordinate name {c!r} shadows a function")
    if len(set(coords)) != n:
        raise SpecError("duplicate coordinate names")

    def check_vars(tree: ex.Expr, context: str):
        unknown = ex.variables(tree) - set(coords)
        if unknown:
            raise SpecError(
                f"{context} uses unknown coordinate(s) {sorted(unknown)}"
            )
        return tree

    g_entries = doc.get("g", {})
    for (i, j) in g_entries:
        if not (0 <= i < n and 0 <= j < n):
            raise SpecError(f"metric index g[{i}][{j}] outside dimension {n}")
    g_rows: list[list[ex.Expr | None]] = [[None] * n for _ in range(n)]
    for (i, j), text in g_entries.items():
        g_rows[i][j] = check_vars(_parse_expr(text, f"g[{i}][{j}]"), f"g[{i}][{j}]")
    for i in range(n):
        for j in range(i, n):
            upper, lower = g_rows[i][j], g_rows[j][i]
            if upper is None and lower is None:
                raise SpecError(f"missing metric entry g[{i}][{j}]")
            if upper is None:
                g_rows[i][j] = lower
            elif lower is None:
                g_rows[j][i] = upper
            elif upper != lower:
                raise SpecError(
                    f"g[{i}][{j}] and g[{j}][{i}] are structurally different"
                )
    g = tuple(tuple(row) for row in g_rows)

    xi_entries = doc.get("xi", {})
    if set(xi_entries) != set(range(n)):
        raise SpecError(f"xi must provide exactly indices 0..{n - 1}")
    xi = tuple(
        check_vars(_parse_expr(xi_entries[i], f"xi[{i}]"), f"xi[{i}]")
        for i in range(n)
    )

    box_entries = doc.get("box", {})
    if set(box_entries) != set(range(n)):
        raise SpecError(f"box must provide exactly indices 0..{n - 1}")
    box = []
    for i in range(n):
        parts = [p.strip() for p in str(box_entries[i]).split(",")]
        if len(parts) != 2:
            raise SpecError(f"box[{i}] must be 'lo, hi'")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise SpecError(f"box[{i}] bounds must be numbers") from None
        if not np.isfinite(hi - lo):
            raise SpecError(f"box[{i}] bounds and their difference must be finite")
        box.append((lo, hi))

    phi_entries = doc.get("phi", {})
    phi = None
    if phi_entries:
        if set(phi_entries) != {(i, j) for i in range(n) for j in range(n)}:
            raise SpecError("phi must provide all n*n entries when present")
        phi = tuple(
            tuple(
                check_vars(
                    _parse_expr(phi_entries[(i, j)], f"phi[{i}][{j}]"),
                    f"phi[{i}][{j}]",
                )
                for j in range(n)
            )
            for i in range(n)
        )

    fs = {}
    for key in ("f1", "f2", "f3"):
        if doc.get(key) is not None:
            fs[key] = check_vars(_parse_expr(str(doc[key]), key), key)
        else:
            fs[key] = None

    parallel = doc.get("parallel_xi_expected", True)
    if isinstance(parallel, str) and parallel.lower() in ("true", "false"):
        parallel = parallel.lower() == "true"
    if not isinstance(parallel, bool):
        raise SpecError("parallel_xi_expected must be true or false")

    return ManifoldSpec(
        name=str(doc.get("name", "unnamed")),
        coords=coords,
        g=g,
        xi=xi,
        box=tuple(box),
        parallel_xi_expected=parallel,
        phi=phi,
        f1=fs["f1"],
        f2=fs["f2"],
        f3=fs["f3"],
    )


def load_spec(document: str | Path) -> ManifoldSpec:
    """Load a manifold document: a ``Path`` names a file, a ``str`` is the
    document text itself (key/value or JSON form)."""
    text = document.read_text(encoding="utf-8") if isinstance(document, Path) else document
    if text.lstrip().startswith("{"):
        return _build_spec(_parse_json_document(text))
    return _build_spec(_parse_kv_document(text))


# ---------------------------------------------------------------------------
# evaluation at points


def _is_spd(G: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _require_spd(G: np.ndarray, points: np.ndarray) -> None:
    """Raise for the first sample whose metric is asymmetric beyond rounding
    or not positive definite (certified by a Cholesky factorization)."""
    if np.array_equal(G, G.swapaxes(1, 2)) and _is_spd(G):
        return
    for point, g in zip(points, G):
        asym = float(np.max(np.abs(g - g.T)))
        if asym > 1e-12 * (1.0 + float(np.max(np.abs(g)))):
            raise SpecError(f"metric is not symmetric at {ex.point_text(point)} (defect {asym:.3e})")
        if not _is_spd(g):
            raise NotSPDError(f"metric is not positive definite at {ex.point_text(point)}")


def metric_jet(spec: ManifoldSpec, points, order: int = 1) -> MetricJet:
    """The metric stage of the sample-set jet: every table the order needs,
    evaluated once on the whole batch, with a leading sample axis.

    Symbolic partials make the derivative arrays exact up to rounding in the
    final arithmetic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def table(name: str, k: int, needed: bool = True):
        return spec.tables.values(name, k, points) if needed else None

    G = table("g", 0)
    _require_spd(G, points)
    xi = table("xi", 0)
    return MetricJet(
        points=points,
        G=G,
        G_inv=np.linalg.inv(G),
        xi=xi,
        pi=np.einsum("sij,sj->si", G, xi),
        dG=table("g", 1, order >= 1),
        d2G=table("g", 2, order >= 2),
        d3G=table("g", 3, order >= 3),
        dpi=table("pi", 1, order >= 1),
        d2pi=table("pi", 2, order >= 3),
    )


def metric_at(spec: ManifoldSpec, point, order: int = 1) -> MetricValue:
    """Metric and its first `order` coordinate derivative arrays at a point:
    the one-sample metric jet."""
    mj = metric_jet(spec, [point], order)
    return MetricValue(
        tuple(mj.points[0].tolist()), mj.G[0], mj.G_inv[0],
        *(None if a is None else a[0] for a in (mj.dG, mj.d2G, mj.d3G)),
    )


def in_box(spec: ManifoldSpec, point) -> bool:
    """Whether the point lies in the sampling box, up to 1e-12 per coordinate."""
    if len(point) != spec.n:
        return False
    return all(
        lo - 1e-12 <= float(x) <= hi + 1e-12
        for x, (lo, hi) in zip(point, spec.box)
    )


def sample(spec: ManifoldSpec, count: int, seed: int) -> SampleSet:
    """Uniform points in the box with 4 tangent vectors per point.

    Vector components are uniform in [-1, 1]; a vector is redrawn while its
    Euclidean norm is below 1e-3.  The draw order is fixed (point, then its
    four vectors), so a seed reproduces the set bit-for-bit.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    for i, (lo, hi) in enumerate(spec.box):
        if not lo < hi:
            raise ValueError(f"empty sampling box for coordinate {spec.coords[i]!r}")
    rng = np.random.default_rng(seed)
    n = spec.n
    lows = np.array([lo for lo, _ in spec.box])
    highs = np.array([hi for _, hi in spec.box])
    points = np.empty((count, n))
    frames = np.empty((count, 4, n))
    for s in range(count):
        points[s] = rng.uniform(lows, highs)
        for v in range(4):
            vec = rng.uniform(-1.0, 1.0, size=n)
            while float(np.linalg.norm(vec)) < 1e-3:
                vec = rng.uniform(-1.0, 1.0, size=n)
            frames[s, v] = vec
    return SampleSet(seed=seed, points=points, frames=frames)
