import math

import numpy as np
import pytest

from projconn.connections import LEVI_CIVITA, PROJECTIVE, covariant
from projconn import cli, connections, curvature, theorems
from projconn.catalog import builtin, catalog_names
from projconn.curvature import (
    derivation_all_frames,
    jet,
    lam_scale,
    nullity_fit,
    quasi_einstein_fit,
    ricci_shifts,
    rtilde_closed_form,
    theta_beta,
)
from projconn.geometry import DimensionError, GateError, load_spec, metric_at, sample
from mutants import mutant
from test_jet import WARPED_CHART

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
ORIGIN = (0.0, 0.0, 0.0)


def test_euclidean_metric_curvature_vanishes(euclidean3):
    R = jet(euclidean3, [(0.4, -0.1, 0.2)], 2).lc.R[0]
    np.testing.assert_allclose(R, 0.0)


def test_flat_projective_curvature_matches_scale(euclidean3):
    # R~(e1, e2) e1 = lam e2 with lam = -9/16 for n = 3
    Rt = jet(euclidean3, [ORIGIN], 2).pr.R[0]
    vector = np.einsum("lijk,i,j,k->l", Rt, E1, E2, E1)
    np.testing.assert_allclose(vector, lam_scale(3) * E2, atol=1e-15)
    assert Rt[1, 0, 1, 0] == pytest.approx(-9.0 / 16.0)


def test_cylinder_lowered_curvature_hand_values(cylinder):
    # hand computation on the unit sphere factor (our lowering puts the
    # metric on the last slot): 'R[theta,phi,theta,phi] = -sin^2,
    # 'R[theta,phi,phi,theta] = +sin^2, so the sectional curvature is +1
    for theta in (0.6, 1.2):
        Rlow = jet(cylinder, [(theta, 1.0, 0.0)], 2).lc.Rlow[0]
        s2 = math.sin(theta) ** 2
        assert Rlow[0, 1, 0, 1] == pytest.approx(-s2, abs=1e-13)
        assert Rlow[0, 1, 1, 0] == pytest.approx(s2, abs=1e-13)
        mv = metric_at(cylinder, (theta, 1.0, 0.0), order=0)
        sectional = Rlow[0, 1, 1, 0] / (mv.G[0, 0] * mv.G[1, 1])
        assert sectional == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(Rlow[2], 0.0, atol=1e-14)


def test_closed_form_orthogonal_arguments_reduce_to_metric_curvature(cylinder):
    point = (1.1, 2.0, 0.3)
    # all arguments orthogonal to the distinguished field
    value = rtilde_closed_form(cylinder, point, E1, E2, E1)
    base = np.einsum(
        "lijk,i,j,k->l", jet(cylinder, [point], 2).lc.R[0], E1, E2, E1
    )
    np.testing.assert_allclose(value, base, atol=1e-15)


def test_closed_form_flat_substitution(euclidean3):
    value = rtilde_closed_form(euclidean3, ORIGIN, E1, E2, E1)
    np.testing.assert_allclose(value, lam_scale(3) * E2, atol=1e-15)


def test_closed_form_two_path_oracle(cylinder):
    s = sample(cylinder, 100, seed=97)
    worst = 0.0
    for idx in range(s.count):
        point = s.points[idx]
        Rt = jet(cylinder, [point], 2).pr.R[0]
        X, Y, Z = s.frames[idx, 0], s.frames[idx, 1], s.frames[idx, 2]
        direct = np.einsum("lijk,i,j,k->l", Rt, X, Y, Z)
        closed = rtilde_closed_form(cylinder, point, X, Y, Z)
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    assert worst <= 1e-9


def test_closed_form_gate(sphere):
    with pytest.raises(GateError):
        rtilde_closed_form(sphere, (0.7, 1.0, 2.0), E1, E2, E3)


def test_theta_beta_flat_values(euclidean3):
    theta, beta = theta_beta(jet(euclidean3, [ORIGIN], 1))
    np.testing.assert_allclose(beta[0], 0.0, atol=1e-15)
    expected = np.zeros((3, 3))
    expected[0, 0] = lam_scale(3)
    np.testing.assert_allclose(theta[0], expected, atol=1e-15)


def test_theta_symmetric_on_parallel_charts(euclidean3, cylinder):
    for spec in (euclidean3, cylinder):
        s = sample(spec, 25, seed=101)
        for point in s.points:
            theta, beta = (t[0] for t in theta_beta(jet(spec, [point], 1)))
            assert np.max(np.abs(theta - theta.T)) <= 1e-11
            assert np.max(np.abs(beta)) <= 1e-12


@pytest.mark.parametrize("name", ["euclidean3", "cylinder_s2xr", "sphere3_bad_xi"])
def test_difference_tensor_reconstruction(name):
    # two-path oracle: coordinate curvature of the shifted connection equals
    # the metric curvature plus the theta/beta terms, on every chart
    # (including the non-parallel control, where beta is nonzero)
    from projconn.catalog import builtin

    spec = builtin(name).spec
    s = sample(spec, 25, seed=103)
    eye = np.eye(spec.n)
    worst = 0.0
    for point in s.points:
        j = jet(spec, [point], 2)
        R, Rt = j.lc.R[0], j.pr.R[0]
        theta, beta = (t[0] for t in theta_beta(j))
        recon = (
            R
            + np.einsum("ij,lk->lijk", beta, eye)
            + np.einsum("ik,lj->lijk", theta, eye)
            - np.einsum("jk,li->lijk", theta, eye)
        )
        worst = max(worst, float(np.max(np.abs(Rt - recon))))
    assert worst <= 1e-9


def test_ricci_cylinder_hand_values(cylinder):
    theta = 1.0
    j = jet(cylinder, [(theta, 2.0, 0.1)], 2)
    r, r_tilde, ricci_shift_residual, scalar_shift_residual = ricci_shifts(j)
    np.testing.assert_allclose(
        j.lc.S[0], np.diag([1.0, math.sin(theta) ** 2, 0.0]), atol=1e-13
    )
    assert r[0] == pytest.approx(2.0, abs=1e-12)
    assert j.pr.S[0, 2, 2] == pytest.approx(9.0 / 8.0, abs=1e-13)
    assert r_tilde[0] == pytest.approx(25.0 / 8.0, abs=1e-12)
    assert lam_scale(cylinder.n) == pytest.approx(-9.0 / 16.0)
    assert ricci_shift_residual[0] <= 1e-13
    assert scalar_shift_residual[0] <= 1e-13


def test_ricci_euclidean_projective_shift(euclidean3):
    j = jet(euclidean3, [ORIGIN], 2)
    np.testing.assert_allclose(j.lc.S[0], 0.0)
    expected = np.zeros((3, 3))
    expected[0, 0] = -2.0 * lam_scale(3)  # 9/8
    np.testing.assert_allclose(j.pr.S[0], expected, atol=1e-15)
    assert j.pr.S[0, 0, 0] == pytest.approx(9.0 / 8.0)


def test_projective_tensor_vanishes_on_space_form(sphere):
    s = sample(sphere, 30, seed=107)
    worst = max(
        float(np.max(np.abs(jet(sphere, [point], 2).lc.P[0])))
        for point in s.points
    )
    assert worst <= 1e-10


def test_projective_coincidence_cylinder(cylinder):
    s = sample(cylinder, 50, seed=109)
    worst = 0.0
    for point in s.points:
        j = jet(cylinder, [point], 2)
        P, Pt = j.lc.P[0], j.pr.P[0]
        worst = max(worst, float(np.max(np.abs(Pt - P))))
    assert worst <= 1e-9


def test_projective_flat_values(euclidean3):
    # On a flat chart both projective tensors vanish and coincide with the
    # metric curvature; the shifted curvature itself stays nonzero, with the
    # gap exactly the Ricci correction of magnitude |lam|.
    j = jet(euclidean3, [ORIGIN], 2)
    P, Pt, R, Rt = j.lc.P[0], j.pr.P[0], j.lc.R[0], j.pr.R[0]
    np.testing.assert_allclose(P, 0.0, atol=1e-15)
    np.testing.assert_allclose(Pt, 0.0, atol=1e-15)
    np.testing.assert_allclose(Pt, R, atol=1e-15)
    assert np.max(np.abs(Pt - Rt)) == pytest.approx(9.0 / 16.0, abs=1e-14)


def test_projective_dimension_gate():
    plane = load_spec(
        """
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
    )
    with pytest.raises(DimensionError):
        cli._eval_tensor(plane, "projective", (0.0, 0.0))


def _endomorphism(spec, point, X, Y, conn):
    """R(X, Y) at the point, from the one-sample jet: A[l,m] = R[l,a,b,m] X^a Y^b."""
    R = jet(spec, [point], 2).connection(conn).R[0]
    return np.einsum("labm,a,b->lm", R, X, Y)


def _act(A, T):
    """A . T at one point: ``covariant`` with no partials and a stack of one."""
    return covariant(A[None, :, None, :], T[None], None, "ulll")[0, 0]


def test_derivation_annihilates_when_curvature_zero(euclidean3):
    T = np.random.default_rng(3).normal(size=(3, 3, 3, 3))
    out = _act(_endomorphism(euclidean3, ORIGIN, E1, E2, LEVI_CIVITA), T)
    np.testing.assert_allclose(out, 0.0)


def test_derivation_matches_field_closed_form_flat(euclidean3):
    # (R~(xi, X) . R~) = -lam {pi(Y) R~(X,Z)U + pi(Z) R~(Y,X)U + pi(U) R~(Y,Z)X}
    #                    + 2 lam^2 {pi(Y) Z - pi(Z) Y} pi(X) pi(U)
    lam = lam_scale(3)
    s = sample(euclidean3, 50, seed=113)
    eye = np.eye(3)
    worst = 0.0
    for idx in range(s.count):
        point = s.points[idx]
        Rt = jet(euclidean3, [point], 2).pr.R[0]
        pi = np.array([1.0, 0.0, 0.0])
        X = s.frames[idx, 0]
        applied = _act(_endomorphism(euclidean3, point, E1, X, PROJECTIVE), Rt)
        rhs = -lam * (
            np.einsum("z,lbuv,b->lzuv", pi, Rt, X)
            + np.einsum("u,lzbv,b->lzuv", pi, Rt, X)
            + np.einsum("v,lzub,b->lzuv", pi, Rt, X)
        ) + 2.0 * lam * lam * float(pi @ X) * (
            np.einsum("z,lu,v->lzuv", pi, eye, pi)
            - np.einsum("u,lz,v->lzuv", pi, eye, pi)
        )
        worst = max(worst, float(np.max(np.abs(applied - rhs))))
    assert worst <= 1e-9


def test_derivation_self_annihilation_flat(euclidean3):
    s = sample(euclidean3, 30, seed=127)
    worst = 0.0
    for point in s.points:
        Rt = jet(euclidean3, [point], 2).pr.R
        worst = max(worst, float(np.max(np.abs(derivation_all_frames(Rt, Rt)))))
    assert worst <= 1e-9


def _curved5_document() -> str:
    """A non-diagonal n = 5 chart with no special structure in its curvature."""
    g = {(0, 0): "1", (1, 1): "exp(a)", (2, 2): "1 + a^2 + b^2", (3, 3): "2 + sin(c)",
         (4, 4): "1 + d^2", (0, 1): "0.1*c", (2, 4): "0.2*sin(e)", (1, 3): "0.1*a*d"}
    lines = ["name = curved5", "dim = 5", "coords = a, b, c, d, e",
             "parallel_xi_expected = false"]
    lines += [f"g[{i}][{j}] = {g.get((i, j), '0')}" for i in range(5) for j in range(i, 5)]
    lines += [f"xi[{i}] = {int(i == 0)}" for i in range(5)]
    lines += [f"box[{i}] = 0.1, 0.6" for i in range(5)]
    return "\n".join(lines) + "\n"


def _derivation_definition(A, T):
    """A . T for endomorphisms A[..., l, m] and a (1,3) tensor T[l, z, u, v]:
    A acts on the output slot and is subtracted from each input slot."""
    return (np.einsum("...lm,mzuv->...lzuv", A, T)
            - np.einsum("lmuv,...mz->...lzuv", T, A)
            - np.einsum("lzmv,...mu->...lzuv", T, A)
            - np.einsum("lzum,...mv->...lzuv", T, A))


def _all_frames_definition(R, T):
    """(R(e_a, e_b) . T) for every ordered pair (a, b), by the definition."""
    return _derivation_definition(np.einsum("labm->ablm", R), T)


@pytest.mark.parametrize("n", [3, 5])
def test_derivation_all_frames_matches_definition(n):
    rng = np.random.default_rng(100 + n)
    R = rng.normal(size=(2,) + (n,) * 4)  # two samples on a leading axis
    T = rng.normal(size=(2,) + (n,) * 4)
    a, b = np.triu_indices(n, 1)
    expected = np.stack([_all_frames_definition(r, t)[a, b] for r, t in zip(R, T)])
    np.testing.assert_allclose(derivation_all_frames(R, T), expected, rtol=0, atol=1e-12)


def _chart_curvatures(n):
    """Both connections' R at two sample points of cylinder_s2xr (n = 3) or
    curved5 (n = 5), with the jet they come from."""
    spec = load_spec(_curved5_document()) if n == 5 else builtin("cylinder_s2xr").spec
    return spec, jet(spec, sample(spec, 2, seed=n).points, 3)


@pytest.mark.parametrize("conn", [LEVI_CIVITA, PROJECTIVE])
@pytest.mark.parametrize("n", [3, 5])
def test_derivation_pairs_keep_the_maximum_of_all_frames(n, conn):
    # R(e_b, e_a) = -R(e_a, e_b), so the a < b frames lose no maximum; the
    # action is on a random T, since on the cylinder R annihilates R and R~
    _, j = _chart_curvatures(n)
    T = np.random.default_rng(300 + n).normal(size=(n,) * 4)
    for R in j.connection(conn).R:
        everything = np.max(np.abs(_all_frames_definition(R, T)))
        assert everything > 0.1
        frames = derivation_all_frames(R[None], T[None])
        assert np.max(np.abs(frames)) == pytest.approx(everything, rel=1e-14)


@pytest.mark.parametrize("n", [3, 5])
def test_eq20_field_action_matches_definition(monkeypatch, n):
    # eq20 acts with R~(xi, e_b) alone; that must be the xi-contraction of
    # the full frames R~(e_a, e_b) . R~
    spec, j = _chart_curvatures(n)
    actions = []

    def recording(A, T, dT, variance):
        out = covariant(A, T, dT, variance)
        actions.append((T, dT, variance, out))
        return out

    monkeypatch.setattr(theorems, "covariant", recording)
    theorems._semisymmetry_columns(spec, j)
    [(T, dT, variance, applied)] = actions
    Rt = j.pr.R
    assert T is Rt and dT is None and variance == "ulll"
    expected = np.stack([
        np.einsum("ablzuv,a->blzuv", _all_frames_definition(r, r), x) for r, x in zip(Rt, j.xi)
    ])
    assert np.max(np.abs(expected)) > 0.1
    np.testing.assert_allclose(applied, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("conn", [LEVI_CIVITA, PROJECTIVE])
@pytest.mark.parametrize("n", [3, 5])
def test_derivation_apply_matches_definition(cylinder, n, conn):
    spec = cylinder if n == 3 else load_spec(_curved5_document())
    rng = np.random.default_rng(200 + n)
    point = sample(spec, 1, seed=n).points[0]
    T, X, Y = rng.normal(size=(n,) * 4), rng.normal(size=n), rng.normal(size=n)
    A = _endomorphism(spec, point, X, Y, conn)
    assert np.max(np.abs(A)) > 0.1
    np.testing.assert_allclose(_act(A, T), _derivation_definition(A, T), rtol=0, atol=1e-12)


RICCI_CHARTS = list(catalog_names()) + ["warped_fixed"]


def ricci_identity_gap(name: str, conn: str) -> tuple[float, float]:
    """Worst residual of the Ricci identity for a constant (1,3) field C,

        D_a D_b C - D_b D_a C + T^p_ab D_p C = R(e_a, e_b) . C,

    with T^p_ab = Gamma[p,a,b] - Gamma[p,b,a], over seeded samples of a chart
    of ``RICCI_CHARTS``; and the largest |R . C| it is measured against.  Both
    sides are ``covariant``: D with the connection, R . C with the frames
    R(e_a, e_b) as its stack and no partials.  So one identity pins its one
    slot mapping, its slot signs, the torsion sign and the (i, j) order of R."""
    spec = load_spec(WARPED_CHART) if name == "warped_fixed" else builtin(name).spec
    n = spec.n
    points = sample(spec, 1 if n > 5 else 8, seed=n).points
    s = len(points)
    cj = jet(spec, points, 2).connection(conn)
    Gamma, dGamma = cj.Gamma, cj.dGamma
    # looked up on the module, where tests/test_mutation.py patches its mutant
    act = connections.covariant
    # no slot symmetry, and constant: its partials vanish
    C = np.random.default_rng(500 + n).normal(size=(n,) * 4)
    C = np.broadcast_to(C, (s,) + C.shape)
    DC = act(Gamma, C, None, "ulll")
    dDC = np.stack([act(dGamma[:, a], C, None, "ulll") for a in range(n)], axis=1)
    DDC = act(Gamma, DC, dDC, "lulll")
    torsion = Gamma - Gamma.swapaxes(2, 3)
    lhs = DDC - DDC.swapaxes(1, 2) + np.einsum("spab,splzuv->sablzuv", torsion, DC)
    rhs = act(cj.R.reshape(s, n, n * n, n), C, None, "ulll").reshape(lhs.shape)
    return float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(rhs)))


@pytest.mark.parametrize("conn", [LEVI_CIVITA, PROJECTIVE])
@pytest.mark.parametrize("name", RICCI_CHARTS)
def test_ricci_identity_holds_on_every_chart(name, conn):
    gap, scale = ricci_identity_gap(name, conn)
    assert gap <= 1e-12 * (1.0 + scale)


def _riemann_reference(Gamma, dGamma):
    """R[s,l,i,j,k] as the coordinate formula's four terms, the products
    two-operand einsums."""
    term_a = dGamma.transpose(0, 2, 1, 3, 4)  # d_i Gamma[l,j,k]
    term_b = dGamma.transpose(0, 2, 3, 1, 4)  # d_j Gamma[l,i,k]
    quad_a = np.einsum("slim,smjk->slijk", Gamma, Gamma)
    quad_b = np.einsum("sljm,smik->slijk", Gamma, Gamma)
    return term_a - term_b + quad_a - quad_b


def _riemann_partials_reference(Gamma, dGamma, d2Gamma):
    """dR[s,m,l,i,j,k], the coordinate formula differentiated term by term."""
    term_a = d2Gamma.transpose(0, 1, 3, 2, 4, 5)  # d_m d_i Gamma[l,j,k]
    term_b = d2Gamma.transpose(0, 1, 3, 4, 2, 5)  # d_m d_j Gamma[l,i,k]
    quad = (
        np.einsum("smlip,spjk->smlijk", dGamma, Gamma)
        + np.einsum("slip,smpjk->smlijk", Gamma, dGamma)
        - np.einsum("smljp,spik->smlijk", dGamma, Gamma)
        - np.einsum("sljp,smpik->smlijk", Gamma, dGamma)
    )
    return term_a - term_b + quad


def _riemann_gaps(n):
    """The largest differences of the engine's R and dR from the references,
    on random Gamma, dGamma and d2Gamma at two samples.  Like the projective
    connection's, the Gamma here is not symmetric in (i, j)."""
    rng = np.random.default_rng(500 + n)
    Gamma, dGamma, d2Gamma = (rng.normal(size=(2,) + (n,) * rank) for rank in (3, 4, 5))
    assert np.max(np.abs(Gamma - Gamma.transpose(0, 1, 3, 2))) > 0.1
    R = curvature._riemann_components(Gamma, dGamma)
    dR = curvature._riemann_partials(Gamma, dGamma, d2Gamma)
    return (float(np.max(np.abs(R - _riemann_reference(Gamma, dGamma)))),
            float(np.max(np.abs(dR - _riemann_partials_reference(Gamma, dGamma, d2Gamma)))))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_riemann_rules_match_reference(n):
    assert max(_riemann_gaps(n)) <= 1e-12


# slot-swap mutants: the antisymmetrisation over (j, k) instead of (i, j) on
# the products, and Gamma[l,p,i] for Gamma[l,i,p] in each rule's product
RIEMANN_MUTANTS = {
    "antisymmetrised": ("_antisymmetrised", "out -= Q.swapaxes(-3, -2)", "out -= Q.swapaxes(-2, -1)"),
    "components": ("_riemann_components", "Gamma.reshape(s, n * n, n) @",
                   "Gamma.swapaxes(-1, -2).reshape(s, n * n, n) @"),
    "partials": ("_riemann_partials", "(Gamma.reshape(s, 1, n * n, n)",
                 "(Gamma.swapaxes(-1, -2).reshape(s, 1, n * n, n)"),
}


@pytest.mark.parametrize("name", RIEMANN_MUTANTS)
def test_riemann_reference_catches_slot_swaps(monkeypatch, name):
    rule, old, new = RIEMANN_MUTANTS[name]
    monkeypatch.setattr(curvature, rule, mutant(getattr(curvature, rule), old, new))
    assert max(_riemann_gaps(5)) > 1e-3


def test_quasi_einstein_exact_member():
    G = np.eye(3)
    pi = np.array([1.0, 0.0, 0.0])
    S = 2.0 * G + 3.0 * np.outer(pi, pi)
    fit = quasi_einstein_fit(S, G, pi)
    assert fit.a == pytest.approx(2.0, abs=1e-12)
    assert fit.b == pytest.approx(3.0, abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.multiplicity_ok
    assert fit.is_quasi_einstein


def test_quasi_einstein_flat_shifted_ricci(euclidean3):
    # Ricci-flat shifted connection forces S = lam (n-1) pi x pi,
    # i.e. a = 0 and b = -9/8 in dimension 3
    lam = lam_scale(3)
    G = np.eye(3)
    pi = np.array([1.0, 0.0, 0.0])
    S = lam * 2.0 * np.outer(pi, pi)
    fit = quasi_einstein_fit(S, G, pi)
    assert fit.a == pytest.approx(0.0, abs=1e-14)
    assert fit.b == pytest.approx(-9.0 / 8.0, abs=1e-14)
    assert fit.multiplicity_ok


def test_einstein_is_not_quasi_einstein():
    G = np.eye(4)
    pi = np.array([0.5, 0.5, 0.5, 0.5])
    fit = quasi_einstein_fit(G.copy(), G, pi)
    assert fit.b == pytest.approx(0.0, abs=1e-12)
    assert not fit.is_quasi_einstein


def test_quasi_einstein_zero_form_rejected():
    with pytest.raises(ValueError):
        quasi_einstein_fit(np.eye(3), np.eye(3), np.zeros(3))


def test_nullity_fit_values(euclidean3, cylinder):
    s = sample(euclidean3, 40, seed=131)
    fit = nullity_fit(euclidean3, PROJECTIVE, s)
    assert fit.k == pytest.approx(-9.0 / 16.0, abs=1e-10)
    assert fit.residual <= 1e-10
    fit_lc = nullity_fit(euclidean3, LEVI_CIVITA, s)
    assert fit_lc.k == 0.0
    assert fit_lc.residual == 0.0
    s2 = sample(cylinder, 40, seed=131)
    fit_cyl = nullity_fit(cylinder, LEVI_CIVITA, s2)
    assert fit_cyl.k == pytest.approx(0.0, abs=1e-13)
    assert fit_cyl.residual <= 1e-12


def test_nullity_fit_gate(sphere):
    with pytest.raises(GateError):
        nullity_fit(sphere, PROJECTIVE, sample(sphere, 5, seed=1))
