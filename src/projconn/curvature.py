"""Curvature tensors for both connections and everything derived from them:
Ricci data, the theta/beta difference tensors, projective curvature, the
curvature-as-derivation action, quasi-Einstein decomposition and nullity
fitting.

``jet`` builds all of it for a batch of points at once, as arrays with a
leading sample axis; a point query is the one-sample call ``jet(spec,
[point], order)``.

Sign conventions (fixed here, validated by the flat-space two-path check):

* ``R(X, Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z``, so in coordinates

      R[l,i,j,k] = d_i Gamma[l,j,k] - d_j Gamma[l,i,k]
                   + Gamma[l,i,m] Gamma[m,j,k] - Gamma[l,j,m] Gamma[m,i,k]

  which is valid for the torsionful connection as well since coordinate
  fields commute.
* lowered form ``Rlow[i,j,k,l] = g[l,m] R[m,i,j,k]``,
* Ricci contraction on the first slot: ``S[j,k] = R[i,i,j,k]``,
* the scale of the projective connection's curvature shift is
  ``lam = -n^2/(n+1)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import GateError, ManifoldSpec, MetricJet, metric_jet
from .connections import LEVI_CIVITA, PROJECTIVE, coefficient_jets, covariant

__all__ = [
    "ConnectionJet",
    "Jet",
    "QuasiEinsteinFit",
    "NullityFit",
    "lam_scale",
    "jet",
    "rtilde_closed_form",
    "theta_beta",
    "ricci_shifts",
    "ricci_contraction",
    "projective_tensor",
    "derivation_all_frames",
    "quasi_einstein_fit",
    "nullity_fit",
]


def lam_scale(n: int) -> float:
    """The nullity scale of the projective connection, -n^2/(n+1)^2."""
    return -(n * n) / float((n + 1) * (n + 1))


@dataclass
class ConnectionJet:
    """One connection at a batch of points, every array with a leading
    sample axis; arrays beyond the jet's order are None."""

    Gamma: np.ndarray  # Gamma[s,k,i,j]
    dGamma: np.ndarray | None = None  # dGamma[s,m,k,i,j]
    d2Gamma: np.ndarray | None = None  # d2Gamma[s,p,m,k,i,j]
    R: np.ndarray | None = None  # R[s,l,i,j,k]
    Rlow: np.ndarray | None = None  # Rlow[s,i,j,k,l] = g[l,m] R[s,m,i,j,k]
    S: np.ndarray | None = None  # S[s,j,k] = R[s,i,i,j,k]
    dR: np.ndarray | None = None  # dR[s,m,l,i,j,k] = d_m R[l,i,j,k]
    nabla_R: np.ndarray | None = None  # nabla_R[s,m,l,i,j,k] = (D_m R)[l,i,j,k]

    @cached_property
    def P(self) -> np.ndarray:
        """The Weyl projective curvature P[s,l,i,j,k] of R and S, built on
        first use and kept, so every family that reads it shares one copy."""
        return projective_tensor(self.R, self.S)


@dataclass
class Jet(MetricJet):
    """The metric jet of a batch of points plus both connections (from
    order 1): everything the identity checks contract."""

    lc: ConnectionJet | None = None
    pr: ConnectionJet | None = None

    def connection(self, kind: str) -> ConnectionJet:
        if kind not in (LEVI_CIVITA, PROJECTIVE):
            raise ValueError(f"unknown connection kind {kind!r}")
        return self.lc if kind == LEVI_CIVITA else self.pr


@dataclass
class QuasiEinsteinFit:
    a: float
    b: float
    eigenvalues: np.ndarray
    residual: float
    multiplicity_ok: bool
    is_quasi_einstein: bool


@dataclass
class NullityFit:
    k: float
    residual: float
    residual_mean: float


# ---------------------------------------------------------------------------
# the sample-set jet


def _antisymmetrised(D: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """X - X^T for X = D + Q, ^T swapping the (i, j) slots of [..., l, i, j, k]:
    one rule for R and for dR.  It is summed as (D - D^T + Q) - Q^T, the
    order of the coordinate formula's four terms, so R keeps its rounding."""
    out = D - D.swapaxes(-3, -2)
    out += Q
    out -= Q.swapaxes(-3, -2)
    return out


def _riemann_components(Gamma: np.ndarray, dGamma: np.ndarray) -> np.ndarray:
    """R[s,l,i,j,k] = X[l,i,j,k] - X[l,j,i,k] with X[l,i,j,k] =
    d_i Gamma[l,j,k] + Gamma[l,i,p] Gamma[p,j,k], the product one stacked
    matrix product over p."""
    s, n = Gamma.shape[:2]
    quad = Gamma.reshape(s, n * n, n) @ Gamma.reshape(s, n, n * n)
    return _antisymmetrised(dGamma.transpose(0, 2, 1, 3, 4), quad.reshape((s,) + (n,) * 4))


def _riemann_partials(
    Gamma: np.ndarray, dGamma: np.ndarray, d2Gamma: np.ndarray
) -> np.ndarray:
    """dR[s,m,l,i,j,k] by differentiating the coordinate formula exactly:
    d_m X[l,i,j,k] - d_m X[l,j,i,k] with d_m X[l,i,j,k] = d_m d_i Gamma[l,j,k]
    + d_m Gamma[l,i,p] Gamma[p,j,k] + Gamma[l,i,p] d_m Gamma[p,j,k], each
    product one stacked matrix product over p."""
    s, n = Gamma.shape[:2]
    quad = (dGamma.reshape(s, n**3, n) @ Gamma.reshape(s, n, n * n)).reshape((s,) + (n,) * 5)
    quad += (Gamma.reshape(s, 1, n * n, n) @ dGamma.reshape(s, n, n, n * n)).reshape(quad.shape)
    return _antisymmetrised(d2Gamma.transpose(0, 1, 3, 2, 4, 5), quad)


def _connection_jet(G, Gamma, dGamma, d2Gamma) -> ConnectionJet:
    cj = ConnectionJet(Gamma, dGamma, d2Gamma)
    if dGamma is not None:
        cj.R = _riemann_components(Gamma, dGamma)
        cj.Rlow = np.einsum("slm,smijk->sijkl", G, cj.R)
        cj.S = ricci_contraction(cj.R)
    if d2Gamma is not None:
        cj.dR = _riemann_partials(Gamma, dGamma, d2Gamma)
        cj.nabla_R = covariant(Gamma, cj.R, cj.dR, "ulll")
    return cj


def jet(spec: ManifoldSpec, points, order: int) -> Jet:
    """Everything the identities contract, at a batch of points, as arrays
    with a leading sample axis.

    `order` counts metric derivatives: 0 gives G, G_inv, xi and pi; 1 adds
    both connections' Gamma; 2 adds dGamma, R, Rlow and the Ricci tensor S;
    3 adds d2Gamma, dR and nabla_R.  Every chart table is evaluated once per
    sample.
    """
    mj = metric_jet(spec, points, order)
    if order < 1:
        return Jet(**vars(mj))
    coeffs = coefficient_jets(mj, order - 1)
    return Jet(
        **vars(mj),
        lc=_connection_jet(mj.G, *coeffs[LEVI_CIVITA]),
        pr=_connection_jet(mj.G, *coeffs[PROJECTIVE]),
    )


def ricci_shifts(j: Jet):
    """Per sample: the scalar curvatures r and r~ of both connections and
    the residuals of the shift identities S~ = S - lam (n-1) pi x pi and
    r~ = r - lam (n-1)."""
    n = j.G.shape[1]
    c = lam_scale(n) * (n - 1)
    r = np.einsum("sjk,sjk->s", j.G_inv, j.lc.S)
    r_tilde = np.einsum("sjk,sjk->s", j.G_inv, j.pr.S)
    shift = j.lc.S - c * np.einsum("sj,sk->sjk", j.pi, j.pi)
    ricci_residual = np.max(np.abs(j.pr.S - shift), axis=(1, 2))
    return r, r_tilde, ricci_residual, np.abs(r_tilde - (r - c))


def theta_beta(j: Jet) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the (0,2) tensors through which the two curvatures differ:

        R~(X,Y)Z = R(X,Y)Z + beta(X,Y) Z + theta(X,Z) Y - theta(Y,Z) X

    with theta(X,Y) = (grad_X a)(Y) - a(X)a(Y) for the symmetric-part form
    a = phi + psi = n/(n+1) pi, and beta the antisymmetrized gradient of the
    torsion-part form psi - phi = -1/(n+1) pi.  (The antisymmetric piece must
    be built from psi - phi for the reconstruction above to hold; with a
    parallel unit field both forms are parallel and beta vanishes.)  Needs a
    jet of order 1.
    """
    nabla_pi = covariant(j.lc.Gamma, j.pi, j.dpi, "l")
    n = j.G.shape[1]
    a_coef = n / (n + 1.0)
    b_coef = -1.0 / (n + 1.0)
    theta = a_coef * nabla_pi - (a_coef**2) * np.einsum("si,sj->sij", j.pi, j.pi)
    grad_b = b_coef * nabla_pi
    return theta, grad_b - grad_b.swapaxes(1, 2)


def ricci_contraction(R: np.ndarray) -> np.ndarray:
    """The first-slot contraction S[..., j, k] = R[..., i, i, j, k] over any
    leading axes: the Ricci tensor from R, its partials d_m S from dR."""
    return np.einsum("...iijk->...jk", R)


def projective_tensor(R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Weyl projective curvature P[l,i,j,k] = R[l,i,j,k] -
    (S[j,k] d^l_i - S[i,k] d^l_j)/(n-1), over any leading axes."""
    n = R.shape[-1]
    eye = np.eye(n)
    return R - (
        np.einsum("...jk,li->...lijk", S, eye) - np.einsum("...ik,lj->...lijk", S, eye)
    ) / (n - 1.0)


def derivation_all_frames(R_acting: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The curvature acting as a derivation on a (1,3) tensor, for every
    coordinate frame a < b: out[s,p,l,z,u,v] = (R(e_a, e_b) . T)[l,z,u,v]
    for the p-th pair of ``np.triu_indices(n, 1)``, with R(e_a, e_b)[l,m] =
    R[s,l,a,b,m].  This is ``covariant`` with no partials and the frames as
    its stack.  Since R(e_b, e_a) = -R(e_a, e_b), these n(n-1)/2 frames carry
    every value of the n^2 up to sign."""
    a, b = np.triu_indices(T.shape[-1], 1)
    return covariant(R_acting[:, :, a, b, :], T, None, "ulll")


# ---------------------------------------------------------------------------
# at one point: the closed-form reference


def rtilde_closed_form(spec: ManifoldSpec, point, X, Y, Z) -> np.ndarray:
    """Independent route to the projective connection's curvature on a
    parallel-unit-field chart: R(X,Y)Z + lam {pi(X)pi(Z) Y - pi(Y)pi(Z) X}."""
    if not spec.parallel_xi_expected:
        raise GateError(
            f"chart {spec.name!r} declares a non-parallel field; the closed "
            "form requires the parallel-unit-field hypothesis"
        )
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    j = jet(spec, [point], 2)
    pi = j.pi[0]
    lam = lam_scale(spec.n)
    base = np.einsum("lijk,i,j,k->l", j.lc.R[0], X, Y, Z)
    px, py, pz = float(pi @ X), float(pi @ Y), float(pi @ Z)
    return base + lam * (px * pz * Y - py * pz * X)


# ---------------------------------------------------------------------------
# fits


def quasi_einstein_fit(S: np.ndarray, G: np.ndarray, pi: np.ndarray) -> QuasiEinsteinFit:
    """Least-squares (a, b) with S ~ a g + b pi x pi over the independent
    (upper triangle) components, plus the eigenvalue picture of the Ricci
    operator: one eigenvalue of multiplicity n-1 and a simple one shifted by
    b |pi|^2 (the norm taken with the metric, 1 for a unit generator)."""
    pi = np.asarray(pi, dtype=float)
    if float(np.max(np.abs(pi))) == 0.0:
        raise ValueError("the 1-form must be nonzero for a quasi-Einstein fit")
    n = G.shape[0]
    rows = []
    targets = []
    for i in range(n):
        for j in range(i, n):
            rows.append([G[i, j], pi[i] * pi[j]])
            targets.append(S[i, j])
    coeffs, _, _, _ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    a, b = float(coeffs[0]), float(coeffs[1])
    model = a * G + b * np.einsum("i,j->ij", pi, pi)
    residual = float(np.max(np.abs(S - model)))
    # Eigenvalues of the pencil (S, G): whiten with the Cholesky factor of G.
    L_inv = np.linalg.inv(np.linalg.cholesky(G))
    eigenvalues = np.linalg.eigvalsh(L_inv @ S @ L_inv.T)
    pi_norm2 = float(pi @ np.linalg.solve(G, pi))
    expected_simple = a + b * pi_norm2
    scale = 1.0 + max(abs(a), abs(expected_simple))
    near_a = np.abs(eigenvalues - a) <= 1e-6 * scale
    near_s = np.abs(eigenvalues - expected_simple) <= 1e-6 * scale
    if abs(b) * pi_norm2 <= 1e-6 * scale:
        multiplicity_ok = bool(np.all(near_a))
    else:
        multiplicity_ok = int(np.sum(near_a)) == n - 1 and int(np.sum(near_s)) == 1
    is_quasi_einstein = abs(b) > 1e-8 and residual <= 1e-8 * (1.0 + float(np.max(np.abs(S))))
    return QuasiEinsteinFit(a, b, eigenvalues, residual, multiplicity_ok, is_quasi_einstein)


def nullity_fit(spec: ManifoldSpec, conn_kind: str, samples) -> NullityFit:
    """Scalar least squares for the nullity constant of the distinguished
    field: R(X,Y)xi ~ k {pi(X) Y - pi(Y) X} over all sampled frame pairs.

    The comparison pattern is oriented so that, for the projective connection
    on a parallel-unit-field chart, the fitted constant equals
    lam = -n^2/(n+1)^2.
    """
    if conn_kind == PROJECTIVE and not spec.parallel_xi_expected:
        raise GateError(
            "nullity fit for the projective connection needs the "
            "parallel-unit-field hypothesis"
        )
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    first, second = zip(*pairs)
    vs, ws = [], []
    for lo, hi in samples.chunks():
        j = jet(spec, samples.points[lo:hi], 2)
        lhs_all = np.einsum("slijk,sk->slij", j.connection(conn_kind).R, j.xi)
        X = samples.frames[lo:hi, first]  # (S, pair, n)
        Y = samples.frames[lo:hi, second]
        vs.append(np.einsum("slij,spi,spj->spl", lhs_all, X, Y))
        pi_x = np.einsum("si,spi->sp", j.pi, X)[..., None]
        pi_y = np.einsum("si,spi->sp", j.pi, Y)[..., None]
        ws.append(pi_x * Y - pi_y * X)
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    den = float(np.sum(w * w))
    k = float(np.sum(v * w)) / den if den > 0.0 else 0.0
    residuals = np.max(np.abs(v - k * w), axis=2)
    return NullityFit(
        k=k,
        residual=float(np.max(residuals)),
        residual_mean=float(np.mean(residuals)),
    )
