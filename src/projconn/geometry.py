"""Manifold charts: metric data with exact symbolic partials, the lowered
1-form of the unit field, and deterministic point sampling.

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
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
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
    "TableStore",
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


# Samples are walked in chunks: the fewest runs of samples at n^6 float64
# values each that fit this many bytes, balanced so that only the last may be
# shorter, and at least one sample each; at 200 samples, 100 at n = 3, 29 at
# n = 4, 8 at n = 5 and 1 at n = 8.  A chunk's jet keeps n^5 values per sample
# in each connection's nabla R, once it has released dR and d2Gamma
# (``curvature.Jet.complete``), and the curvature family's smlijk contractions
# hold n^5 values per sample each.  At 1.25 MiB the n = 3 charts would walk
# one chunk, and the traced peak of a 200-sample ``run_checks`` would rise
# 30-70% on every curved catalog chart (3.8 to 4.9 MiB on warped_r3xr).  The
# a < b curvature-derivation frames, n^4 n(n-1)/2 values per sample, are built
# in blocks of frames of at most this many bytes, one walk over them giving
# both R~.R~ and R~.P~ (``curvature.derivation_all_frames``).  A
# verification's chart tables are evaluated in blocks of whole chunks of at
# most this many bytes per table, and at least one chunk (``TableStore``):
# every table is one block at n = 3, the order-3 metric partials are 116
# samples at n = 4 and 4 at n = 8.  The gate's pass steps through the blocks
# of the four tables it reads (``TableStore.walk``), 256 samples at a time at
# n = 8.
CHUNK_BYTES = 1024 * 1024


# ---------------------------------------------------------------------------
# spec + symbolic derivative tables


class ChartTables:
    """Per-spec cache of symbolically differentiated component tables.

    Tables are object arrays of Expr; the table of order k has shape
    (n,)*k + base_shape with derivative axes first, and every permutation of
    its derivative axes holds the same trees (``expr.partials``, which takes
    each mixed partial once).  The pi table is built on its first read too,
    so a query that reads no partial of pi builds none of it.  Building is
    idempotent, so concurrent lazy fills at worst recompute.  ``values``
    evaluates a table on a batch of points (``expr.CompiledTable``).
    """

    def __init__(self, spec: "ManifoldSpec"):
        self.coords = spec.coords
        self._base = {"g": np.array(spec.g, dtype=object), "xi": np.array(spec.xi, dtype=object)}
        if spec.phi is not None:
            self._base["phi"] = np.array(spec.phi, dtype=object)
        if None not in (spec.f1, spec.f2, spec.f3):
            self._base["f"] = np.array([spec.f1, spec.f2, spec.f3], dtype=object)
        self._cache: dict[tuple[str, int], np.ndarray] = {}
        # Shared by every table, so a subtree common to several entries or
        # orders (pi shares g's entries) is differentiated once.
        self._diff_memo: dict = {}
        self._compiled: dict[tuple[str, int], ex.CompiledTable] = {}

    def table(self, name: str, order: int) -> np.ndarray:
        if order == 0:
            if name == "pi" and "pi" not in self._base:
                self._base["pi"] = self._pi()
            return self._base[name]
        key = (name, order)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = self._cache[key] = ex.partials(
            self.table(name, order - 1), self.coords, self._diff_memo, order - 1
        )
        return out

    def _pi(self) -> np.ndarray:
        """pi_i = sum_j g_ij xi^j, its products over g's and xi's own nodes."""
        g, xi = self._base["g"], self._base["xi"]
        n = len(self.coords)
        pi = np.empty((n,), dtype=object)
        for i in range(n):
            acc = ex.const(0.0)
            for j in range(n):
                acc = ex.add(acc, ex.mul(g[i, j], xi[j]))
            pi[i] = acc
        return pi

    def values(self, name: str, order: int, points) -> np.ndarray:
        """The table at each of a batch of points, with a leading sample
        axis, through one ``expr.CompiledTable`` per table: one point is
        walked, and a batch runs the program compiled on the first batch.
        An evaluation error names the first point the scalar walk fails at."""
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
        init=False, default=None, compare=False, repr=False
    )

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def tables(self) -> ChartTables:
        if self._tables is None:
            self._tables = ChartTables(self)
        return self._tables

    @property
    def coordinate_free(self) -> bool:
        """Whether no g, xi, phi or f entry reads a coordinate, so that every
        table of the chart has the same values at every point.  Read from the
        entries each time, so a spec made by ``dataclasses.replace`` answers
        for its own entries; nothing is differentiated."""
        entries = [*self.xi, self.f1, self.f2, self.f3]
        for rows in (self.g, self.phi or ()):
            entries += [e for row in rows for e in row]
        return not any(ex.variables(e) for e in entries if e is not None)

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
class SampleSet:
    """Deterministic points; same seed, same bits."""

    seed: int
    points: np.ndarray  # (count, n)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def chunks(self) -> list[tuple[int, int]]:
        """(start, stop) ranges walking the samples in order: the fewest
        runs that CHUNK_BYTES allows at n^6 float64 values per sample, all
        of one length but the last, which may be shorter.  n^6 is n times the
        n^5 values of nabla R and of each smlijk contraction, which bounds
        the n^5 tensors alive per sample.  No frame tensor is sized here:
        the derivation frames are blocked to CHUNK_BYTES on their own."""
        n = self.points.shape[1]
        most = max(1, CHUNK_BYTES // (8 * n**6))
        runs = max(1, -(-self.count // most))  # the fewest chunks of at most `most`
        size = max(1, -(-self.count // runs))  # balanced: only the last may be shorter
        return [(lo, min(lo + size, self.count)) for lo in range(0, self.count, size)]


class TableStore:
    """The chart tables of one verification on its sample set, evaluated a
    block of whole chunks at a time and read a chunk at a time, so that the
    gate's pass and the chunk walk share one evaluation of each block.

    A table's block holds as many whole chunks (``SampleSet.chunks``) as
    keep it within CHUNK_BYTES, and at least one.  Only the latest block of
    each table is kept, so a store holds at most one block per table at any
    n.  Blocks are evaluated by ``ChartTables.values``, which names the
    first point of the block that its scalar walk fails at.
    """

    def __init__(self, spec: ManifoldSpec, samples: SampleSet):
        self.tables = spec.tables
        self.points = samples.points
        self.chunk = samples.chunks()[0][1]
        self._blocks: dict[tuple[str, int], tuple[int, np.ndarray]] = {}

    def span(self, name: str, order: int) -> int:
        """Samples per block of the table (name, order)."""
        per_chunk = 8 * self.tables.table(name, order).size * self.chunk
        return self.chunk * max(1, CHUNK_BYTES // per_chunk)

    def walk(self, tables) -> list[tuple[int, int]]:
        """(start, stop) ranges walking the samples in order, each inside
        one block of every table (name, order) of ``tables``: the longest
        steps a pass that reads only those tables can take."""
        count = len(self.points)
        spans = [self.span(name, order) for name, order in tables]
        ranges, lo = [], 0
        while lo < count:
            hi = min(count, *(lo - lo % span + span for span in spans))
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def rows(self, lo: int, hi: int):
        """The reader of the chunk lo..hi: (name, order) -> a view of the
        table's rows for those samples, from the block that holds them."""

        def read(name: str, order: int) -> np.ndarray:
            key = (name, order)
            start, block = self._blocks.get(key, (0, None))
            if block is None or not start <= lo < start + len(block):
                self._blocks.pop(key, None)  # freed before its successor is made
                span = self.span(name, order)
                start = lo - lo % span  # chunks start at multiples of the chunk size
                block = self.tables.values(name, order, self.points[start:start + span])
                self._blocks[key] = (start, block)
            return block[lo - start:hi - start]

        return read


# ---------------------------------------------------------------------------
# loading


# A key index is ASCII digits, the digits of the expression grammar.
_INDEX = rf"\[([{ex.DIGITS}]+)\]"
_INDEXED_2 = re.compile(rf"(g|phi){_INDEX}{_INDEX}")
_INDEXED_1 = re.compile(rf"(xi|box){_INDEX}")


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
        m2 = _INDEXED_2.fullmatch(key)
        m1 = _INDEXED_1.fullmatch(key)
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
        n = ex.read_number(str(doc["dim"]))
    except ValueError:
        n = None
    if n is None or not n.is_integer():
        raise SpecError(f"'dim' must be an integer, got {doc['dim']!r}")
    n = int(n)
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
        if not ex.is_name(c):
            raise SpecError(f"invalid coordinate name {c!r}")
        if c in ex.FUNCTIONS:
            raise SpecError(f"coordinate name {c!r} shadows a function")
    names = set(coords)
    if len(names) != n:
        raise SpecError("duplicate coordinate names")

    def entry(text: str, context: str) -> ex.Expr:
        """A g, xi, phi or f entry: parsed, and in the chart's coordinates
        (a constant reads none)."""
        try:
            tree = ex.parse(text)
        except ex.ParseError as err:
            raise SpecError(f"{context}: {err}") from err
        if type(tree) is not ex.Const:
            unknown = ex.variables(tree) - names
            if unknown:
                raise SpecError(f"{context} uses unknown coordinate(s) {sorted(unknown)}")
        return tree

    g_entries = doc.get("g", {})
    for (i, j) in g_entries:
        if not (0 <= i < n and 0 <= j < n):
            raise SpecError(f"metric index g[{i}][{j}] outside dimension {n}")
    g_rows: list[list[ex.Expr | None]] = [[None] * n for _ in range(n)]
    for (i, j), text in g_entries.items():
        g_rows[i][j] = entry(text, f"g[{i}][{j}]")
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
    xi = tuple(entry(xi_entries[i], f"xi[{i}]") for i in range(n))

    box_entries = doc.get("box", {})
    if set(box_entries) != set(range(n)):
        raise SpecError(f"box must provide exactly indices 0..{n - 1}")
    box = []
    for i in range(n):
        parts = [p.strip() for p in str(box_entries[i]).split(",")]
        if len(parts) != 2:
            raise SpecError(f"box[{i}] must be 'lo, hi'")
        try:
            lo, hi = ex.read_number(parts[0]), ex.read_number(parts[1])
        except ValueError:
            raise SpecError(f"box[{i}] bounds must be numbers, got {box_entries[i]!r}") from None
        if not np.isfinite(hi - lo):
            raise SpecError(f"box[{i}] bounds and their difference must be finite")
        box.append((lo, hi))

    phi_entries = doc.get("phi", {})
    phi = None
    if phi_entries:
        if set(phi_entries) != {(i, j) for i in range(n) for j in range(n)}:
            raise SpecError("phi must provide all n*n entries when present")
        phi = tuple(
            tuple(entry(phi_entries[(i, j)], f"phi[{i}][{j}]") for j in range(n))
            for i in range(n)
        )

    fs = {key: None if doc.get(key) is None else entry(str(doc[key]), key)
          for key in ("f1", "f2", "f3")}

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
        **fs,
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


def _table_field(name: str, order: int, lowest: int) -> cached_property:
    """A ``MetricJet`` field: the chart table (name, order) on the jet's
    points, read on first access and kept; None below the jet order
    ``lowest``."""

    def read(self):
        return self._rows(name, order) if self.order >= lowest else None

    return cached_property(read)


class MetricJet:
    """Metric data at a batch of points, every array with a leading sample
    axis.  The metric's partials are present up to the order asked, the
    first partials of pi from order 1 and its second partials from order 3
    (what the connection coefficients one order below need); a field
    beyond the order is None.

    G is read, and certified symmetric positive definite, when the jet is
    made.  Every other field is built on its first read and kept, so a
    caller reads only the tables it needs, each once on the whole batch.
    ``rows`` reads a table's rows for the batch: by default each table is
    evaluated on the jet's points (``ChartTables.values``); a chunk of a
    verification reads views of its ``TableStore``'s blocks instead.
    Symbolic partials make the derivative arrays exact up to rounding in the
    final arithmetic.
    """

    def __init__(self, spec: ManifoldSpec, points, order: int, rows=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))  # (S, n)
        self.order = order
        if rows is None:
            tables, points = spec.tables, self.points  # no reference back to the jet

            def rows(name: str, k: int) -> np.ndarray:
                return tables.values(name, k, points)

        self._rows = rows
        self.G = rows("g", 0)  # (S, n, n)
        _require_spd(self.G, self.points)

    xi = _table_field("xi", 0, 0)  # (S, n)
    dG = _table_field("g", 1, 1)  # (S, n, n, n)
    d2G = _table_field("g", 2, 2)
    d3G = _table_field("g", 3, 3)
    dpi = _table_field("pi", 1, 1)  # (S, n, n), dpi[s, m, i] = d_m pi_i
    d2pi = _table_field("pi", 2, 3)
    phi = _table_field("phi", 0, 0)  # (S, n, n)
    f = _table_field("f", 0, 0)  # (S, 3): f1, f2, f3

    @cached_property
    def G_inv(self) -> np.ndarray:
        """G^-1, finite at every sample: a metric whose inverse overflows
        (a subnormal diagonal entry, say) is an input error naming the
        first such point, not NaN connection coefficients."""
        G_inv = np.linalg.inv(self.G)
        bad = np.flatnonzero(~np.isfinite(G_inv).all(axis=(1, 2)))
        if bad.size:
            raise SpecError(f"metric inverse is not finite at {ex.point_text(self.points[bad[0]])}")
        return G_inv

    @cached_property
    def pi(self) -> np.ndarray:
        """(S, n), pi = G xi."""
        return np.einsum("sij,sj->si", self.G, self.xi)


def metric_jet(spec: ManifoldSpec, points, order: int = 1, rows=None) -> MetricJet:
    """The metric stage of the sample-set jet at a batch of points, its
    tables read as they are needed (``MetricJet``)."""
    return MetricJet(spec, points, order, rows)


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


# ---------------------------------------------------------------------------
# sampling: a stateless counter stream

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment, odd: 2**64 / golden ratio


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """One SplitMix64 step from each uint64 state of ``z``, in place: the
    state advanced by gamma, then mixed (Steele, Lea and Flood, OOPSLA
    2014).  uint64 array arithmetic wraps without a warning; scalars warn."""
    z += _GAMMA
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def sample(spec: ManifoldSpec, count: int, seed: int) -> SampleSet:
    """Uniform points in the box, from a stateless counter stream.

    Coordinate c of sample i is double k = i n + c of the seed's stream,
    (splitmix64(key + k gamma) >> 11) * 2**-53, scaled as lo + (hi - lo) u.
    The key folds in the seed's 64-bit words, least significant first, one
    SplitMix64 step each; the step is a bijection, so seeds below 2**64
    get distinct keys.  A seed reproduces the set bit-for-bit, and a set of
    k samples is the first k of any larger set.  The seed is a non-negative
    integer of any size.  A count whose samples do not fit in memory
    raises MemoryError before any draw.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    for i, (lo, hi) in enumerate(spec.box):
        if not lo < hi:
            raise ValueError(f"empty sampling box for coordinate {spec.coords[i]!r}")
    seed = operator.index(seed)  # TypeError for None, floats, strings
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(1, seed.bit_length()), 64):
        key = _splitmix64(key ^ ((seed >> shift) & 0xFFFFFFFFFFFFFFFF))
    try:
        z = np.arange(count * spec.n, dtype=np.uint64)
    except ValueError:  # past numpy's array size limit
        raise MemoryError(f"{count} samples do not fit in memory") from None
    z *= _GAMMA
    z += key
    u = (_splitmix64(z) >> 11) * 2.0**-53
    lows, highs = np.array(spec.box).T
    return SampleSet(seed=seed, points=lows + (highs - lows) * u.reshape(count, spec.n))
