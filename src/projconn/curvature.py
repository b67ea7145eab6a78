"""Curvature tensors for both connections and everything derived from them:
Ricci data, the theta/beta difference tensors, projective curvature, the
curvature acting as a derivation (the frame maxima of R~.R~ and R~.P~, from
one walk over the frames), quasi-Einstein decomposition and nullity
fitting.

``jet`` gives all of it for a batch of points at once, as arrays with a
leading sample axis, each built on its first read; a point query is the
one-sample call ``jet(spec, [point], order)`` and builds only what it reads.

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

from . import connections, geometry
from .geometry import GateError, ManifoldSpec, MetricJet
from .connections import LEVI_CIVITA, PROJECTIVE, covariant, wedge

__all__ = [
    "ConnectionJet",
    "Jet",
    "QuasiEinsteinFit",
    "NullityFit",
    "lam_scale",
    "jet",
    "rtilde_closed_form",
    "theta_beta",
    "scalar_curvature",
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
    sample axis: its coefficients, and the curvature data built from them
    on first read and kept, so every family that reads one shares one copy.
    Arrays beyond the jet's order are None.  ``release`` lets go of d2Gamma
    and dR; a later read of either raises AttributeError."""

    G: np.ndarray  # the metric, which lowers R
    Gamma: np.ndarray  # Gamma[s,k,i,j]
    dGamma: np.ndarray | None  # dGamma[s,m,k,i,j]
    d2Gamma: np.ndarray | None  # d2Gamma[s,p,m,k,i,j]

    @cached_property
    def R(self) -> np.ndarray | None:
        """R[s,l,i,j,k]."""
        return None if self.dGamma is None else _riemann_components(self.Gamma, self.dGamma)

    @cached_property
    def Rlow(self) -> np.ndarray | None:
        """Rlow[s,i,j,k,l] = g[l,m] R[s,m,i,j,k]."""
        return None if self.R is None else np.einsum("slm,smijk->sijkl", self.G, self.R)

    @cached_property
    def S(self) -> np.ndarray | None:
        """S[s,j,k] = R[s,i,i,j,k]."""
        return None if self.R is None else ricci_contraction(self.R)

    @cached_property
    def dR(self) -> np.ndarray | None:
        """dR[s,m,l,i,j,k] = d_m R[l,i,j,k]."""
        if self.d2Gamma is None:
            return None
        return _riemann_partials(self.Gamma, self.dGamma, self.d2Gamma)

    @cached_property
    def dS(self) -> np.ndarray | None:
        """dS[s,m,j,k] = d_m S[j,k], the first-slot contraction of dR."""
        return None if self.dR is None else ricci_contraction(self.dR)

    @cached_property
    def nabla_R(self) -> np.ndarray | None:
        """nabla_R[s,m,l,i,j,k] = (D_m R)[l,i,j,k]."""
        return None if self.dR is None else covariant(self.Gamma, self.R, self.dR, "ulll")

    @cached_property
    def P(self) -> np.ndarray:
        """The Weyl projective curvature P[s,l,i,j,k] of R and S."""
        return projective_tensor(self.R, self.S)

    def release(self) -> None:
        """Build nabla_R and dS, then let go of d2Gamma and dR: n^5 values
        per sample each, which the identity checks read only through those
        two.  A connection below order 3 has neither and keeps its Nones."""
        if self.d2Gamma is None:
            return
        self.nabla_R, self.dS
        del self.d2Gamma, self.dR

    def __getattr__(self, name: str):
        # reached for d2Gamma and dR only once ``release`` has deleted them
        if name in ("d2Gamma", "dR"):
            raise AttributeError(
                f"{name} was released once nabla_R and dS were built; "
                "a new jet of the points builds it again"
            )
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


class Jet(MetricJet):
    """The metric jet of a batch of points plus both connections (from
    order 1): everything the identity checks contract.  Like the metric's
    fields, each connection and each tensor below is built on first read
    and kept, so a point query builds only what it reads and a chunk of
    ``run_checks`` builds each tensor once."""

    @cached_property
    def lc(self) -> ConnectionJet | None:
        """The Levi-Civita connection, from ``connections._lc_pieces``."""
        if self.order < 1:
            return None
        return ConnectionJet(self.G, *connections._lc_pieces(self))

    @cached_property
    def pr(self) -> ConnectionJet | None:
        """The projective connection: the Levi-Civita coefficients shifted
        by ``connections._projective_shift``."""
        if self.order < 1:
            return None
        lc = self.lc
        return ConnectionJet(
            self.G, *connections._projective_shift(self, (lc.Gamma, lc.dGamma, lc.d2Gamma))
        )

    def complete(self, projective: bool = True) -> Jet:
        """Build the metric's fields, then each connection's coefficients,
        R, Rlow, S, nabla_R and dS, now, let go of its d2Gamma and dR
        (``ConnectionJet.release``), and return the jet; the shared tensors
        below stay lazy.  ``run_checks`` reads them all.  The projective
        coefficients are shifted copies of the Levi-Civita ones, so both
        are built before either connection releases, and the Levi-Civita dR
        goes before the projective one is built.  Of the six n^5 arrays per
        sample the two connections build, a completed jet keeps two, the
        nabla_R of each.  It is built before the checks' temporaries rather
        than among them: a jet built lazily among them took 4-5 times the
        page faults.

        With ``projective`` False the Levi-Civita connection completes
        alone, for a verification whose gate failed; the projective one
        stays lazy, and above order 2, where the Levi-Civita d2Gamma it
        shifts is released, it can no longer be built."""
        for name in ("xi", "G_inv", "pi", "dG", "d2G", "d3G", "dpi", "d2pi"):
            getattr(self, name)
        for cj in (self.lc, self.pr) if projective else (self.lc,):
            for name in ("R", "Rlow", "S"):
                getattr(cj, name)
            cj.release()
        return self

    def connection(self, kind: str) -> ConnectionJet:
        if kind not in (LEVI_CIVITA, PROJECTIVE):
            raise ValueError(f"unknown connection kind {kind!r}")
        return self.lc if kind == LEVI_CIVITA else self.pr

    @cached_property
    def shift(self) -> np.ndarray:
        """pi_i pi_k d^l_j - pi_j pi_k d^l_i, the curvature shift per unit lam."""
        return -wedge(self.pi[:, :, None] * self.pi[:, None])

    @cached_property
    def nullity_defect(self) -> np.ndarray:
        """R~(X,Y)xi - lam {pi(X) Y - pi(Y) X} in components."""
        lam = lam_scale(self.G.shape[1])
        return np.einsum("slijk,sk->slij", self.pr.R, self.xi) + lam * wedge(self.pi)

    @cached_property
    def xi_Rt(self) -> np.ndarray:
        """R~(xi, e_j) as [s,l,j,k] = R~[s,l,i,j,k] xi^i."""
        return np.einsum("slijk,si->sljk", self.pr.R, self.xi)

    @cached_property
    def derivation_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """Per sample, max |R~.R~| and max |R~.P~| over the curvature
        frames, from one walk over them (``derivation_all_frames``)."""
        return derivation_all_frames(self.pr.R, self.pr.R, self.pr.S)

    @cached_property
    def pi_shift(self) -> np.ndarray:
        """pi_m times the curvature shift, as [s,m,l,i,j,k]."""
        return np.einsum("sm,slijk->smlijk", self.pi, self.shift)


@dataclass
class QuasiEinsteinFit:
    """The result of ``quasi_einstein_fit``: S ~ a g + b pi x pi."""

    a: float
    b: float
    eigenvalues: np.ndarray
    residual: float
    multiplicity_ok: bool
    is_quasi_einstein: bool


@dataclass
class NullityFit:
    """The result of ``nullity_fit``: the fitted nullity constant k and the
    largest and mean residual of the fit over the coordinate pairs at every
    sample."""

    k: float
    residual: float
    residual_mean: float


# ---------------------------------------------------------------------------
# the sample-set jet


def _antisymmetrised(D: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """X - X^T for X = D + Q, ^T swapping the (i, j) slots of [..., l, i, j, k]:
    one rule for R and for dR.  X is summed into Q, which the caller owns,
    so the only transposed view read is X^T, once, and the result is
    exactly antisymmetric in (i, j)."""
    Q += D
    return Q - Q.swapaxes(-3, -2)


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


def jet(spec: ManifoldSpec, points, order: int, rows=None) -> Jet:
    """Everything the identities contract, at a batch of points, as arrays
    with a leading sample axis, each built on its first read (``Jet``).

    `order` counts metric derivatives: 0 gives G, G_inv, xi and pi; 1 adds
    both connections' Gamma; 2 adds dGamma, R, Rlow and the Ricci tensor S;
    3 adds d2Gamma, dR and nabla_R.  Every chart table read is evaluated
    once per sample: on the points, or, when ``rows`` is a
    ``TableStore.rows`` reader, by that store.
    """
    return Jet(spec, points, order, rows)


def scalar_curvature(G_inv: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Per sample, the scalar curvature g^jk S_jk of a Ricci tensor."""
    return np.einsum("sjk,sjk->s", G_inv, S)


def ricci_shifts(j: Jet):
    """Per sample: the scalar curvatures r and r~ of both connections and
    the defects S~ - (S - c pi x pi) and r~ - (r - c) of the shift
    identities, with c = lam (n-1)."""
    n = j.G.shape[1]
    c = lam_scale(n) * (n - 1)
    r = scalar_curvature(j.G_inv, j.lc.S)
    r_tilde = scalar_curvature(j.G_inv, j.pr.S)
    shifted = j.lc.S - c * np.einsum("sj,sk->sjk", j.pi, j.pi)
    return r, r_tilde, j.pr.S - shifted, r_tilde - (r - c)


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
    (S[j,k] d^l_i - S[i,k] d^l_j)/(n-1), batched over a leading sample axis."""
    return R - wedge(S) / (R.shape[-1] - 1.0)


def derivation_all_frames(
    R_acting: np.ndarray, T: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the largest |(R(e_a, e_b) . T)[l,z,u,v]| and the largest
    |(R(e_a, e_b) . P)[l,z,u,v]| for P = T - W(S)/(n-1), of the curvature
    acting as a derivation on a (1,3) tensor T and on a (0,2) tensor S, over
    every coordinate frame a < b, with R(e_a, e_b)[l,m] = R[s,l,a,b,m].  With
    T = R~ and S = S~ these are the maxima of R~.R~ and R~.P~.  Since
    R(e_b, e_a) = -R(e_a, e_b), these n(n-1)/2 frames carry every value of
    the n^2 up to sign.

    The frames are ``covariant`` with no partials and a block of them as its
    stack, each block's output at most ``geometry.CHUNK_BYTES``.  A
    derivation annihilates delta, so D.W(S) = W(D.S): each block of D.T
    becomes D.P in place, D.S (a two-slot ``covariant``) over n-1 taken off
    its (l = z) diagonal and put on its (l = u) diagonal.  Both maxima are
    folded in block by block, so the frames are built once."""
    n = T.shape[-1]
    a, b = np.triu_indices(n, 1)
    block = max(1, geometry.CHUNK_BYTES // T.nbytes)
    worst_T = worst_P = None
    for lo in range(0, len(a), block):
        frames_at = R_acting[:, :, a[lo:lo + block], b[lo:lo + block]]
        frames = covariant(frames_at, T, None, "ulll")  # [s, frame, l, z, u, v]
        axes = tuple(range(1, frames.ndim))  # the frames need not be C-ordered
        # max |D.T| with no copy, since D.P needs the signs; the abs makes a
        # maximum of -0.0 read 0.0, as the abs of the frames would
        top_T = np.abs(np.maximum(frames.max(axis=axes), -frames.min(axis=axes)))
        ds = covariant(frames_at, S, None, "ll") / (n - 1.0)  # [s, frame, u, v]
        on_z = np.einsum("skiiuv->skiuv", frames)  # frames[s, k, i, i, u, v]
        on_z -= ds[:, :, None]
        on_u = np.einsum("skiziv->skziv", frames)  # frames[s, k, i, z, i, v]
        on_u += ds[:, :, :, None]
        np.abs(frames, out=frames)
        top_P = frames.max(axis=axes)
        if worst_T is None:
            worst_T, worst_P = top_T, top_P
        else:
            np.maximum(worst_T, top_T, out=worst_T)
            np.maximum(worst_P, top_P, out=worst_P)
    return worst_T, worst_P


# ---------------------------------------------------------------------------
# the closed-form reference


def rtilde_closed_form(spec: ManifoldSpec, j: Jet, X, Y, Z) -> np.ndarray:
    """Independent route to the projective connection's curvature on a
    parallel-unit-field chart: R(X,Y)Z + lam {pi(X)pi(Z) Y - pi(Y)pi(Z) X}
    at each sample of a jet of order 2 or more, with X, Y and Z of shape
    (S, n), one vector per sample."""
    if not spec.parallel_xi_expected:
        raise GateError(
            f"chart {spec.name!r} declares a non-parallel field; the closed "
            "form requires the parallel-unit-field hypothesis"
        )
    base = np.einsum("slijk,si,sj,sk->sl", j.lc.R, X, Y, Z)
    px, py, pz = (np.einsum("si,si->s", j.pi, V)[:, None] for V in (X, Y, Z))
    return base + lam_scale(spec.n) * (px * pz * Y - py * pz * X)


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
    field: R(X,Y)xi ~ k {pi(X) Y - pi(Y) X} over the coordinate pairs
    (X, Y) = (e_a, e_b), a < b, at every sample.  Both sides are tensorial,
    so the coordinate pairs certify the relation for every pair of vectors;
    the pattern pi_a e_b - pi_b e_a is -W(pi)[:, :, a, b] (``wedge``).

    The comparison pattern is oriented so that, for the projective connection
    on a parallel-unit-field chart, the fitted constant equals
    lam = -n^2/(n+1)^2.
    """
    if conn_kind == PROJECTIVE and not spec.parallel_xi_expected:
        raise GateError(
            "nullity fit for the projective connection needs the "
            "parallel-unit-field hypothesis"
        )
    a, b = np.triu_indices(spec.n, 1)
    vs, ws = [], []
    for lo, hi in samples.chunks():
        j = jet(spec, samples.points[lo:hi], 2)
        vs.append(np.einsum("slijk,sk->slij", j.connection(conn_kind).R, j.xi)[..., a, b])
        ws.append(-wedge(j.pi)[..., a, b])  # (S, n, pair)
        del j  # this chunk's jet goes before the next one is built
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    den = float(np.sum(w * w))
    k = float(np.sum(v * w)) / den if den > 0.0 else 0.0
    residuals = np.max(np.abs(v - k * w), axis=1)
    return NullityFit(
        k=k,
        residual=float(np.max(residuals)),
        residual_mean=float(np.mean(residuals)),
    )
