"""Connection coefficients: the metric (Levi-Civita) connection and the
projective semi-symmetric connection built from it, plus torsion,
non-metricity, covariant derivatives and the parallel-unit-field gate's
measurement, all batched over sample sets.

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
psi = (n-1)/(2(n+1)) pi.  The Levi-Civita Gamma solves G Gamma = C, C the
first-kind symbol; every derivative comes from symbolic partials of the
metric and of pi, never from numeric differencing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldSpec, MetricJet, TableStore, metric_jet

__all__ = [
    "LEVI_CIVITA",
    "PROJECTIVE",
    "ConnectionCoeffs",
    "connection_at",
    "wedge",
    "torsion_components",
    "nonmetricity_components",
    "covariant",
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


def _first_kind(D: np.ndarray) -> np.ndarray:
    """The first-kind Christoffel rule over the last three axes of a table of
    metric partials, C[.., l, i, j] = (D[.., i, j, l] + D[.., j, i, l] -
    D[.., l, i, j])/2: C from dG, and its partials from d2G and d3G."""
    M = D.swapaxes(-1, -2).swapaxes(-2, -3)  # M[.., l, i, j] = D[.., i, j, l]
    return 0.5 * (M + M.swapaxes(-1, -2) - D)


def _lc_pieces(mj: MetricJet):
    """Christoffel data from metric jets, batched over the leading sample axis,
    with as many partials as the jet carries metric partials beyond the first.

    Gamma solves G Gamma = C, and its partials solve that equation
    differentiated, so no partial of G_inv is taken:

        d_m Gamma = G_inv (d_m C - d_m G Gamma),
        d_p d_m Gamma = G_inv (d_p d_m C - d_p d_m G Gamma
                               - d_m G d_p Gamma - d_p G d_m Gamma).

    Every product is a stacked matrix product on [.., l, i*j] views.  The
    two mixed terms are one product, mixed[p, m], and its (p, m) transpose.
    """
    G_inv, dG, d2G, d3G = mj.G_inv, mj.dG, mj.d2G, mj.d3G
    s, n = G_inv.shape[:2]
    Gamma = G_inv @ _first_kind(dG).reshape(s, n, n * n)
    dGamma = d2Gamma = None
    if d2G is not None:
        rhs = _first_kind(d2G).reshape(s, n, n, n * n) - dG @ Gamma[:, None]
        dGamma = G_inv[:, None] @ rhs
    if d3G is not None:
        mixed = dG[:, None] @ dGamma[:, :, None]  # [s, p, m, l, i*j]
        rhs = _first_kind(d3G).reshape(s, n, n, n, n * n) - d2G @ Gamma[:, None, None]
        d2Gamma = G_inv[:, None, None] @ (rhs - mixed - mixed.transpose(0, 2, 1, 3, 4))
    pieces = (Gamma, dGamma, d2Gamma)
    return tuple(None if a is None else a.reshape(a.shape[:-1] + (n, n)) for a in pieces)


def _projective_shift(mj: MetricJet, lc):
    """Add n/(n+1) pi_j d^k_i - 1/(n+1) pi_i d^k_j, and its partials from
    the symbolic partials of pi, to the Levi-Civita pieces; a partial of pi
    is read only where its piece is present.

    The shift lives on the (k = i) and (k = j) diagonals of [.., k, i, j],
    so a copy of each piece takes it through writable diagonal views: the
    copy is C-ordered, so (k = i) and (k = i = j) are strided slices of
    reshapes of it.  Where the two meet (k = i = j) the piece gets a p_k +
    b p_k summed first, so every entry is rounded as the dense sum of the
    two terms would be."""
    n = mj.G.shape[1]
    a = n / (n + 1.0)
    b = -1.0 / (n + 1.0)

    def shifted(piece, p):
        ap, bp = a * p, b * p
        out = piece.copy()
        lead = out.shape[:-3]
        kkj = out.reshape(lead + (n * n, n))[..., :: n + 1, :]  # out[.., k, k, j]
        kkk = out.reshape(lead + (n**3,))[..., :: n * n + n + 1]  # out[.., k, k, k]
        both = kkk + (ap + bp)
        kkj += ap[..., None, :]
        kik = np.einsum("...kik->...ki", out)  # out[.., k, i, k]
        kik += bp[..., None, :]
        kkk[...] = both
        return out

    return tuple(
        None if piece is None else shifted(piece, getattr(mj, p))
        for piece, p in zip(lc, ("pi", "dpi", "d2pi"))
    )


def connection_at(spec: ManifoldSpec, kind: str, point, order: int = 1) -> ConnectionCoeffs:
    """Coefficients of one connection at a point, with derivative arrays up
    to `order`: the one-sample coefficient jet."""
    if kind not in (LEVI_CIVITA, PROJECTIVE):
        raise ValueError(f"unknown connection kind {kind!r}")
    mj = metric_jet(spec, [point], order + 1)
    pieces = _lc_pieces(mj)
    if kind == PROJECTIVE:
        pieces = _projective_shift(mj, pieces)
    return ConnectionCoeffs(
        kind, tuple(mj.points[0].tolist()),
        *(None if a is None else a[0] for a in pieces),
    )


# ---------------------------------------------------------------------------
# torsion and non-metricity


def wedge(A: np.ndarray) -> np.ndarray:
    """W(A)[s,l,i,j,...] = delta^l_i A[s,j,...] - delta^l_j A[s,i,...], for A
    with a leading sample axis: the torsion is W(pi), the Ricci term of the
    projective tensor W(S), the curvature shift -W(pi pi), the nullity
    fit's pattern -W(pi)."""
    eye = np.eye(A.shape[1])
    return np.einsum("li,sj...->slij...", eye, A) - np.einsum("lj,si...->slij...", eye, A)


def torsion_components(j) -> np.ndarray:
    """Torsion of the projective connection at each sample of a jet, as the
    (1,2) arrays T[s,k,i,j] = pi_j delta^k_i - pi_i delta^k_j."""
    return wedge(j.pi)


def nonmetricity_components(j):
    """(0,3) arrays Q[s,i,j,k] of the metric's covariant derivative under the
    projective connection, at each sample of a jet of order 1 or more
    (``curvature.jet``): the closed form and the direct differentiation."""
    G, pi, Gamma = j.G, j.pi, j.pr.Gamma
    n = G.shape[1]
    closed = (
        2.0 * np.einsum("si,sjk->sijk", pi, G)
        - n * np.einsum("sj,sik->sijk", pi, G)
        - n * np.einsum("sk,sij->sijk", pi, G)
    ) / (n + 1.0)
    direct = (
        j.dG
        - np.einsum("smij,smk->sijk", Gamma, G)
        - np.einsum("smik,sjm->sijk", Gamma, G)
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
    stacked matrix product that lands in output order, so the slots add
    contiguously: with T viewed as [s, 1, before, p, after], the term is
    [s, m, 1, c, p] @ T, the stack Gamma[c,m,p] or -Gamma[p,m,c].  The last
    slot of a tensor of rank 2 or more is T as [s, 1, before, p] times the
    stack as [s, m, p, c] instead, one product per m rather than a column
    per (m, before).
    """
    s, n, k = Gamma.shape[:3]
    rank = len(variance)
    out = None
    for slot, v in enumerate(variance):
        if slot == rank - 1 and rank > 1:
            # [s, m, p, c] = Gamma[s,c,m,p] or -Gamma[s,p,m,c]
            stack = Gamma.transpose(0, 2, 3, 1) if v == "u" else -Gamma.transpose(0, 2, 1, 3)
            term = T.reshape(s, 1, -1, n) @ stack
        else:
            # [s, m, 1, c, p] = Gamma[s,c,m,p] or -Gamma[s,p,m,c]
            stack = Gamma.transpose(0, 2, 1, 3) if v == "u" else -Gamma.transpose(0, 2, 3, 1)
            term = stack[:, :, None] @ T.reshape(s, 1, n**slot, n, -1)
        term = term.reshape((s, k) + T.shape[1:])
        if out is None:
            out = term if dT is None else dT + term
        else:
            out += term
        del term  # so the next slot's product can reuse its memory
    return out


# ---------------------------------------------------------------------------
# the parallel-unit-field gate


# the tables an order-1 metric jet reads for Gamma and grad pi, in read order
_GATE_TABLES = (("g", 0), ("g", 1), ("xi", 0), ("pi", 1))


def check_parallel_unit_xi(
    spec: ManifoldSpec, samples, store: TableStore | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The gate's measurement, from an order-1 pass of its own over the
    samples: per sample, the largest componentwise |grad pi| under
    Levi-Civita and |g(xi,xi) - 1|.  ``theorems`` judges and reports it.
    The tables are read from ``store``, which a verification shares with
    its chunk walk, or from a store of the gate's own.  The pass reads
    only g, dg, xi and dpi, so it steps through the store's blocks of
    those four (``TableStore.walk``), not through the n^6-sized chunks."""
    if store is None:
        store = TableStore(spec, samples)
    nabla, unit = [], []
    for lo, hi in store.walk(_GATE_TABLES):
        mj = metric_jet(spec, samples.points[lo:hi], 1, store.rows(lo, hi))
        nabla_pi = covariant(_lc_pieces(mj)[0], mj.pi, mj.dpi, "l")
        nabla.append(np.max(np.abs(nabla_pi), axis=(1, 2)))
        unit.append(np.abs(np.einsum("si,si->s", mj.pi, mj.xi) - 1.0))
    return np.concatenate(nabla), np.concatenate(unit)
