"""Connection coefficients: the metric (Levi-Civita) connection and the
projective semi-symmetric connection built from it, plus torsion,
non-metricity and covariant derivatives, batched and of the chart tables.

Slot convention, fixed once and used by every downstream tensor: in
``Gamma[k, i, j]`` the index i is the direction of differentiation and j the
argument, i.e. the covariant derivative of the j-th coordinate field along
the i-th has k-th component ``Gamma[k, i, j]``.  The torsionful connection
makes this choice observable; it is validated by the two-path curvature
check in the verification suite.  ``covariant`` is the one function that
applies it, for covariant derivatives and for the curvature derivation.

The combined coefficient of the projective semi-symmetric connection is

    Gamma~[k,i,j] = Gamma[k,i,j] + n/(n+1) pi_j delta^k_i
                                 - 1/(n+1) pi_i delta^k_j

equivalently built from the 1-form pair phi = pi/2 and
psi = (n-1)/(2(n+1)) pi.  All coefficient derivatives come from symbolic
partials of the metric and of pi, never from numeric differencing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldSpec, MetricJet, metric_jet
from .report import CheckReport

__all__ = [
    "LEVI_CIVITA",
    "PROJECTIVE",
    "ConnectionCoeffs",
    "connection_at",
    "coefficient_jets",
    "torsion_components",
    "nonmetricity_components",
    "covariant",
    "covariant_derivative",
    "parallel_unit_xi_residuals",
    "check_parallel_unit_xi",
]

LEVI_CIVITA = "levi_civita"
PROJECTIVE = "projective_semi_symmetric"


@dataclass
class ConnectionCoeffs:
    """Point values of a connection; derivative arrays filled up to the order
    requested, with derivative axes first (dGamma[m,k,i,j] = d_m Gamma[k,i,j])."""

    kind: str
    point: tuple[float, ...]
    Gamma: np.ndarray
    dGamma: np.ndarray | None = None
    d2Gamma: np.ndarray | None = None


# ---------------------------------------------------------------------------
# coefficient construction


def _lc_pieces(mj: MetricJet, order: int):
    """Christoffel data from metric jets, batched over the leading sample axis.

    C[l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij)/2, Gamma = G_inv @ C, and the
    exact derivative chain using d(G_inv) = -G_inv dG G_inv.  Every product
    contracts over l as one stacked matrix product, with C and its partials
    viewed as [.., l, i*j].  The two mixed terms of d_p d_m Gamma are one
    product W[m,p] = d_p G_inv d_m C, taken in both (p, m) orders.
    """
    G_inv, dG = mj.G_inv, mj.dG
    s, n = G_inv.shape[:2]
    C = 0.5 * (dG.transpose(0, 3, 1, 2) + dG.transpose(0, 3, 2, 1) - dG)
    C_flat = C.reshape(s, n, n * n)
    Gamma = (G_inv @ C_flat).reshape((s,) + (n,) * 3)
    if order < 1:
        return Gamma, None, None
    d2G = mj.d2G
    Gi = G_inv[:, None]  # broadcast over the derivative axis
    Gi_dG = Gi @ dG
    dGinv = -(Gi_dG @ Gi)
    dC = 0.5 * (d2G.transpose(0, 1, 4, 2, 3) + d2G.transpose(0, 1, 4, 3, 2) - d2G)
    dC_flat = dC.reshape(s, n, n, n * n)  # [s, m, l, i*j]
    dGamma = (dGinv.reshape(s, n * n, n) @ C_flat).reshape((s,) + (n,) * 4)
    dGamma += (Gi @ dC_flat).reshape(dGamma.shape)
    if order < 2:
        return Gamma, dGamma, None
    d3G = mj.d3G
    d2Ginv = -(
        dGinv[:, :, None] @ (dG @ Gi)[:, None]
        + G_inv[:, None, None] @ d2G @ G_inv[:, None, None]
        + Gi_dG[:, None] @ dGinv[:, :, None]
    )
    d2C = 0.5 * (
        d3G.transpose(0, 1, 2, 5, 3, 4) + d3G.transpose(0, 1, 2, 5, 4, 3) - d3G
    )
    W = (dGinv[:, None] @ dC_flat[:, :, None]).reshape((s,) + (n,) * 5)
    d2Gamma = (d2Ginv.reshape(s, n**3, n) @ C_flat).reshape(W.shape)
    d2Gamma += (Gi @ d2C.reshape(s, n * n, n, n * n)).reshape(W.shape)
    d2Gamma += W
    d2Gamma += W.transpose(0, 2, 1, 3, 4, 5)
    return Gamma, dGamma, d2Gamma


def _projective_shift(mj: MetricJet, lc):
    """Add n/(n+1) pi_j d^k_i - 1/(n+1) pi_i d^k_j, and its partials from
    the symbolic partials of pi, to the Levi-Civita pieces."""
    n = mj.G.shape[1]
    a = n / (n + 1.0)
    b = -1.0 / (n + 1.0)
    eye = np.eye(n)

    def shift(p):
        return a * np.einsum("ki,...j->...kij", eye, p) + b * np.einsum(
            "kj,...i->...kij", eye, p
        )

    return tuple(
        None if piece is None else piece + shift(p)
        for piece, p in zip(lc, (mj.pi, mj.dpi, mj.d2pi))
    )


def coefficient_jets(mj: MetricJet, order: int) -> dict[str, tuple]:
    """(Gamma, dGamma, d2Gamma) of both connections, batched like the metric
    jet, with derivative arrays up to `order` (the metric jet needs order + 1)."""
    lc = _lc_pieces(mj, order)
    return {LEVI_CIVITA: lc, PROJECTIVE: _projective_shift(mj, lc)}


def connection_at(spec: ManifoldSpec, kind: str, point, order: int = 1) -> ConnectionCoeffs:
    """Coefficients of one connection at a point, with derivative arrays up
    to `order`: the one-sample coefficient jet."""
    if kind not in (LEVI_CIVITA, PROJECTIVE):
        raise ValueError(f"unknown connection kind {kind!r}")
    mj = metric_jet(spec, [point], order + 1)
    pieces = coefficient_jets(mj, order)[kind]
    return ConnectionCoeffs(
        kind, tuple(mj.points[0].tolist()),
        *(None if a is None else a[0] for a in pieces),
    )


# ---------------------------------------------------------------------------
# torsion and non-metricity


def torsion_components(spec: ManifoldSpec, point) -> np.ndarray:
    """Torsion of the projective connection as the (1,2) array
    T[k,i,j] = pi_j delta^k_i - pi_i delta^k_j."""
    pi = metric_jet(spec, [point], order=0).pi[0]
    eye = np.eye(spec.n)
    return np.einsum("ki,j->kij", eye, pi) - np.einsum("kj,i->kij", eye, pi)


def nonmetricity_components(spec: ManifoldSpec, point):
    """(0,3) arrays Q[i,j,k] of the metric's covariant derivative under the
    projective connection: the closed form and the direct differentiation."""
    mj = metric_jet(spec, [point], order=1)
    G, dG, pi = mj.G[0], mj.dG[0], mj.pi[0]
    Gamma = coefficient_jets(mj, 0)[PROJECTIVE][0][0]
    n = spec.n
    closed = (
        2.0 * np.einsum("i,jk->ijk", pi, G)
        - n * np.einsum("j,ik->ijk", pi, G)
        - n * np.einsum("k,ij->ijk", pi, G)
    ) / (n + 1.0)
    direct = (
        dG
        - np.einsum("mij,mk->ijk", Gamma, G)
        - np.einsum("mik,jm->ijk", Gamma, G)
    )
    return closed, direct


# ---------------------------------------------------------------------------
# covariant derivatives


def covariant(Gamma: np.ndarray, T: np.ndarray, dT: np.ndarray | None, variance) -> np.ndarray:
    """A stack of endomorphisms acting on each slot of a tensor, at a batch
    of points: the package's one copy of the covariant derivative and of the
    curvature derivation.

    ``Gamma[s,c,m,p]`` is, for each m of a stack of any length, the map
    p -> c: a connection's coefficients along m, or curvature frames.
    ``T[s,...]`` is the tensor, ``dT[s,m,...]`` its partials or None for the
    bare action, and ``variance`` marks each slot 'u' or 'l'.  The result is
    ``out[s,m,...] = dT[s,m,...]`` plus Gamma[c,m,p] T[..p..] per upper slot
    and minus Gamma[p,m,c] T[..p..] per lower slot.  Each slot's term is one
    stacked matrix product: Gamma as [s, m*c, p] times T for a first upper
    slot, else T with that slot last times Gamma as [s, m, p, c], negated for
    a lower slot.
    """
    s, n, k = Gamma.shape[:3]
    out = None
    for slot, v in enumerate(variance, start=1):
        if slot == 1 and v == "u":
            A = Gamma.transpose(0, 2, 1, 3).reshape(s, k * n, n)  # [s, (m, c), p]
            term = (A @ T.reshape(s, n, -1)).reshape((s, k) + T.shape[1:])
        else:
            # [s, m, p, c] = Gamma[s,c,m,p] or -Gamma[s,p,m,c]
            stack = Gamma.transpose(0, 2, 3, 1) if v == "u" else -Gamma.transpose(0, 2, 1, 3)
            T_p = np.moveaxis(T, slot, -1)  # [s, ..., p]
            term = (T_p.reshape(s, 1, -1, n) @ stack).reshape((s, k) + T_p.shape[1:])
            term = np.moveaxis(term, -1, slot + 1)  # [s, m, ..., c, ...]
        if out is None:
            out = term if dT is None else dT + term
        else:
            out += term
        del term  # so the next slot's product can reuse its memory
    return out


# chart table -> the variance of its slots
_VARIANCE = {"g": "ll", "xi": "u", "pi": "l", "phi": "ul"}


def covariant_derivative(spec: ManifoldSpec, name: str, conn_kind: str, point) -> np.ndarray:
    """Covariant derivative of the chart table ``name`` ("g", "xi", "pi" or
    "phi") at a point: ``covariant`` at one sample, on the table's exact
    partials.  The result has one extra lower index, prepended: out[m, ...]
    is the derivative along the m-th coordinate."""
    if name not in _VARIANCE or (name == "phi" and spec.phi is None):
        raise ValueError(f"chart {spec.name!r} has no table {name!r} to differentiate")
    Gamma = connection_at(spec, conn_kind, point, order=0).Gamma
    T, dT = (spec.tables.values(name, k, [point]) for k in (0, 1))
    return covariant(Gamma[None], T, dT, _VARIANCE[name])[0]


# ---------------------------------------------------------------------------
# the parallel-unit-field gate


def parallel_unit_xi_residuals(spec: ManifoldSpec, samples) -> tuple[float, float]:
    """Max over samples of the componentwise |grad pi| (Levi-Civita) and of
    |g(xi,xi) - 1|."""
    nabla_max = 0.0
    unit_max = 0.0
    for lo, hi in samples.chunks():
        mj = metric_jet(spec, samples.points[lo:hi], order=1)
        nabla_pi = covariant(_lc_pieces(mj, 0)[0], mj.pi, mj.dpi, "l")
        unit = np.einsum("si,si->s", mj.pi, mj.xi) - 1.0
        nabla_max = max(nabla_max, float(np.max(np.abs(nabla_pi))))
        unit_max = max(unit_max, float(np.max(np.abs(unit))))
    return nabla_max, unit_max


def check_parallel_unit_xi(
    spec: ManifoldSpec, samples, tolerance: float = 1e-8
) -> CheckReport:
    """Gate check: xi must be a unit field parallel under Levi-Civita.

    The report also verifies the chart's declared flag: a declared negative
    control that indeed fails the gate is marked skipped (so suite exit codes
    stay clean), while a chart that declares parallel xi and fails is a
    genuine failure.
    """
    nabla_max, unit_max = parallel_unit_xi_residuals(spec, samples)
    residual = max(nabla_max, unit_max)
    measured_parallel = residual <= tolerance
    if measured_parallel:
        passed = spec.parallel_xi_expected
        skipped = False
        if passed:
            notes = f"max |grad pi| = {nabla_max:.2e}, max |g(xi,xi)-1| = {unit_max:.2e}"
        else:
            notes = (
                "declared parallel_xi_expected=false but the field measures "
                f"parallel (residual {residual:.2e})"
            )
    elif not spec.parallel_xi_expected:
        passed = False
        skipped = True
        notes = (
            f"gate residual {residual:.2e} exceeds {tolerance:.0e}; consistent "
            "with the declared negative control, gated checks are skipped"
        )
    else:
        passed = False
        skipped = False
        notes = (
            f"declared parallel unit field fails the gate: max |grad pi| = "
            f"{nabla_max:.2e}, max |g(xi,xi)-1| = {unit_max:.2e}"
        )
    return CheckReport(
        check_id="parallel_unit_xi",
        manifold=spec.name,
        samples=samples.count,
        seed=samples.seed,
        residual_max=residual,
        residual_mean=residual,
        tolerance=tolerance,
        passed=passed,
        gate_status="passed" if measured_parallel else "failed",
        skipped=skipped,
        notes=notes,
    )
