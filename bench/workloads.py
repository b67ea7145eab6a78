"""Workload definitions and seeded input generation.

Every input the benchmark hands to projconn is derived here from the run's
seed: the sample seed passed to ``run_checks`` / ``projconn verify --seed``,
the coefficients of the generated warped chart, and the point-query points.
Nothing here imports projconn, so the harness process can build the inputs
without paying the package import.
"""

from __future__ import annotations

import numpy as np

SAMPLES = 200  # the CLI default of ``projconn verify --samples``

# Chart names per workload.  ``warped`` is generated from the seed; the
# others are catalog entries, loaded the way ``--manifold NAME`` loads them.
WORKLOADS = {
    # n = 3 arrays are tiny, so Python overhead and import dominate; the
    # gate-failing control keeps the skip path (where eager precomputation
    # would be pure cost) in the timed work.
    "small_curved": ("cylinder_s2xr", "gssf_c1", "sphere3_bad_xi"),
    # Constant metric tables leave expr idle; the time goes to the
    # Levi-Civita derivative chain and the n^6 derivation contraction.
    "flat_highdim": ("euclidean8",),
    # Order-3 tables of transcendental entries make expression evaluation
    # the hot layer.
    "warped_transcendental": ("warped",),
}

WARPED = "warped"

# Point queries run on these charts in every workload: the expression-heavy
# warped chart and two cheap curved n = 3 ones.  Queries on one chart split
# into cost classes (connection-level ids cost a third of curvature-level
# ones), and a percentile that falls on the gap between two classes swings
# between them from run to run.  With these three charts, in rounds of one
# query per tensor id and chart, the median lies inside the n = 3 queries
# and the 90th percentile inside the warped chart's projective and Riemann
# queries.
QUERY_CHARTS = (WARPED, "cylinder_s2xr", "gssf_c1")

# Independent random streams drawn from the run seed.
_STREAM_SAMPLES = 0
_STREAM_WARPED = 1
_STREAM_QUERIES = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def sample_seed(seed: int) -> int:
    """The ``--seed`` given to ``run_checks`` and to ``projconn verify``."""
    return int(_rng(seed, _STREAM_SAMPLES).integers(1, 2**31 - 1))


def warped_document(seed: int) -> str:
    """An n = 4 product chart (x, y, z) x t with g_tt = 1, g_it = 0 and
    xi = d_t.

    The 3x3 block mixes exp, cosh, sinh, sqrt, log and sin, off-diagonal
    entries included.  xi is parallel and unit by construction (nothing
    depends on t and g_tt = 1).  On the box [-1/2, 1/2]^4 every diagonal
    entry exceeds 0.88 while the off-diagonal entries of a row sum to less
    than 0.43 in magnitude, so the block is diagonally dominant and the
    metric SPD; the log and sqrt arguments stay at or above 1.
    """
    rng = _rng(seed, _STREAM_WARPED)

    def coef(lo: float, hi: float) -> str:
        return repr(round(float(rng.uniform(lo, hi)), 6))

    p = [coef(0.5, 1.5) for _ in range(6)]
    d = [coef(3.0, 4.0) for _ in range(3)]
    e = [coef(0.1, 0.3) for _ in range(3)]
    block = {
        (0, 0): f"{d[0]} + exp({p[0]}*x)*sqrt(1 + y^2)/cosh({p[1]}*z)",
        (1, 1): f"{d[1]} + cosh({p[2]}*y)*log(2 + x*z)",
        (2, 2): f"{d[2]} + sin({p[3]}*x + y)*exp(-{p[4]}*z)",
        (0, 1): f"{e[0]}*sinh({p[5]}*x*y)",
        (0, 2): f"{e[1]}*sin(x*z)*exp(y)",
        (1, 2): f"{e[2]}*cos(x + y*z)",
    }
    lines = [
        f"name = {WARPED}",
        "dim = 4",
        "coords = x, y, z, t",
        "parallel_xi_expected = true",
    ]
    for i in range(4):
        for j in range(i, 4):
            entry = block.get((i, j), "1" if i == j else "0")
            lines.append(f"g[{i}][{j}] = {entry}")
    lines += [f"xi[{i}] = {1 if i == 3 else 0}" for i in range(4)]
    lines += [f"box[{i}] = -0.5, 0.5" for i in range(4)]
    return "\n".join(lines) + "\n"


def query_rng(seed: int) -> np.random.Generator:
    """Stream for the point-query points."""
    return _rng(seed, _STREAM_QUERIES)
