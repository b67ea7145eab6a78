import math

import numpy as np
import pytest

from projconn.connections import LEVI_CIVITA, PROJECTIVE
from projconn.curvature import (
    derivation_all_frames,
    derivation_apply,
    lam_scale,
    nullity_fit,
    projective_at,
    quasi_einstein_fit,
    ricci_at,
    riemann_at,
    rtilde_closed_form,
    theta_beta_at,
)
from projconn.geometry import DimensionError, GateError, load_spec, metric_at, sample

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
ORIGIN = (0.0, 0.0, 0.0)


def test_euclidean_metric_curvature_vanishes(euclidean3):
    cv = riemann_at(euclidean3, LEVI_CIVITA, (0.4, -0.1, 0.2))
    np.testing.assert_allclose(cv.R, 0.0)


def test_flat_projective_curvature_matches_scale(euclidean3):
    # R~(e1, e2) e1 = lam e2 with lam = -9/16 for n = 3
    cv = riemann_at(euclidean3, PROJECTIVE, ORIGIN)
    vector = np.einsum("lijk,i,j,k->l", cv.R, E1, E2, E1)
    np.testing.assert_allclose(vector, lam_scale(3) * E2, atol=1e-15)
    assert cv.R[1, 0, 1, 0] == pytest.approx(-9.0 / 16.0)


def test_cylinder_lowered_curvature_hand_values(cylinder):
    # hand computation on the unit sphere factor (our lowering puts the
    # metric on the last slot): 'R[theta,phi,theta,phi] = -sin^2,
    # 'R[theta,phi,phi,theta] = +sin^2, so the sectional curvature is +1
    for theta in (0.6, 1.2):
        cv = riemann_at(cylinder, LEVI_CIVITA, (theta, 1.0, 0.0))
        s2 = math.sin(theta) ** 2
        assert cv.Rlow[0, 1, 0, 1] == pytest.approx(-s2, abs=1e-13)
        assert cv.Rlow[0, 1, 1, 0] == pytest.approx(s2, abs=1e-13)
        mv = metric_at(cylinder, (theta, 1.0, 0.0), order=0)
        sectional = cv.Rlow[0, 1, 1, 0] / (mv.G[0, 0] * mv.G[1, 1])
        assert sectional == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(cv.Rlow[2], 0.0, atol=1e-14)


def test_closed_form_orthogonal_arguments_reduce_to_metric_curvature(cylinder):
    point = (1.1, 2.0, 0.3)
    # all arguments orthogonal to the distinguished field
    value = rtilde_closed_form(cylinder, point, E1, E2, E1)
    base = np.einsum(
        "lijk,i,j,k->l", riemann_at(cylinder, LEVI_CIVITA, point).R, E1, E2, E1
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
        cv = riemann_at(cylinder, PROJECTIVE, point)
        X, Y, Z = s.frames[idx, 0], s.frames[idx, 1], s.frames[idx, 2]
        direct = np.einsum("lijk,i,j,k->l", cv.R, X, Y, Z)
        closed = rtilde_closed_form(cylinder, point, X, Y, Z)
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    assert worst <= 1e-9


def test_closed_form_gate(sphere):
    with pytest.raises(GateError):
        rtilde_closed_form(sphere, (0.7, 1.0, 2.0), E1, E2, E3)


def test_theta_beta_flat_values(euclidean3):
    tb = theta_beta_at(euclidean3, ORIGIN)
    np.testing.assert_allclose(tb.beta, 0.0, atol=1e-15)
    expected = np.zeros((3, 3))
    expected[0, 0] = lam_scale(3)
    np.testing.assert_allclose(tb.theta, expected, atol=1e-15)


def test_theta_symmetric_on_parallel_charts(euclidean3, cylinder):
    for spec in (euclidean3, cylinder):
        s = sample(spec, 25, seed=101)
        for point in s.points:
            tb = theta_beta_at(spec, point)
            assert np.max(np.abs(tb.theta - tb.theta.T)) <= 1e-11
            assert np.max(np.abs(tb.beta)) <= 1e-12


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
        R = riemann_at(spec, LEVI_CIVITA, point).R
        Rt = riemann_at(spec, PROJECTIVE, point).R
        tb = theta_beta_at(spec, point)
        recon = (
            R
            + np.einsum("ij,lk->lijk", tb.beta, eye)
            + np.einsum("ik,lj->lijk", tb.theta, eye)
            - np.einsum("jk,li->lijk", tb.theta, eye)
        )
        worst = max(worst, float(np.max(np.abs(Rt - recon))))
    assert worst <= 1e-9


def test_ricci_cylinder_hand_values(cylinder):
    theta = 1.0
    rv = ricci_at(cylinder, (theta, 2.0, 0.1))
    np.testing.assert_allclose(
        rv.S, np.diag([1.0, math.sin(theta) ** 2, 0.0]), atol=1e-13
    )
    assert rv.r == pytest.approx(2.0, abs=1e-12)
    assert rv.S_tilde[2, 2] == pytest.approx(9.0 / 8.0, abs=1e-13)
    assert rv.r_tilde == pytest.approx(25.0 / 8.0, abs=1e-12)
    assert rv.lam == pytest.approx(-9.0 / 16.0)
    assert rv.ricci_shift_residual <= 1e-13
    assert rv.scalar_shift_residual <= 1e-13


def test_ricci_euclidean_projective_shift(euclidean3):
    rv = ricci_at(euclidean3, ORIGIN)
    np.testing.assert_allclose(rv.S, 0.0)
    expected = np.zeros((3, 3))
    expected[0, 0] = -2.0 * lam_scale(3)  # 9/8
    np.testing.assert_allclose(rv.S_tilde, expected, atol=1e-15)
    assert rv.S_tilde[0, 0] == pytest.approx(9.0 / 8.0)


def test_projective_tensor_vanishes_on_space_form(sphere):
    s = sample(sphere, 30, seed=107)
    worst = max(
        float(np.max(np.abs(projective_at(sphere, LEVI_CIVITA, point))))
        for point in s.points
    )
    assert worst <= 1e-10


def test_projective_coincidence_cylinder(cylinder):
    s = sample(cylinder, 50, seed=109)
    worst = 0.0
    for point in s.points:
        P = projective_at(cylinder, LEVI_CIVITA, point)
        Pt = projective_at(cylinder, PROJECTIVE, point)
        worst = max(worst, float(np.max(np.abs(Pt - P))))
    assert worst <= 1e-9


def test_projective_flat_values(euclidean3):
    # On a flat chart both projective tensors vanish and coincide with the
    # metric curvature; the shifted curvature itself stays nonzero, with the
    # gap exactly the Ricci correction of magnitude |lam|.
    P = projective_at(euclidean3, LEVI_CIVITA, ORIGIN)
    Pt = projective_at(euclidean3, PROJECTIVE, ORIGIN)
    R = riemann_at(euclidean3, LEVI_CIVITA, ORIGIN).R
    Rt = riemann_at(euclidean3, PROJECTIVE, ORIGIN).R
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
        projective_at(plane, LEVI_CIVITA, (0.0, 0.0))


def test_derivation_annihilates_when_curvature_zero(euclidean3):
    T = np.random.default_rng(3).normal(size=(3, 3, 3, 3))
    out = derivation_apply(euclidean3, ORIGIN, E1, E2, T, LEVI_CIVITA)
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
        Rt = riemann_at(euclidean3, PROJECTIVE, point).R
        pi = np.array([1.0, 0.0, 0.0])
        X = s.frames[idx, 0]
        applied = derivation_apply(euclidean3, point, E1, X, Rt, PROJECTIVE)
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
        Rt = riemann_at(euclidean3, PROJECTIVE, point).R
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


@pytest.mark.parametrize("n", [3, 5])
def test_derivation_all_frames_matches_definition(n):
    rng = np.random.default_rng(100 + n)
    R = rng.normal(size=(2,) + (n,) * 4)  # two samples on a leading axis
    T = rng.normal(size=(2,) + (n,) * 4)
    expected = np.stack([
        _derivation_definition(np.einsum("labm->ablm", r), t) for r, t in zip(R, T)
    ])
    np.testing.assert_allclose(derivation_all_frames(R, T), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("conn", [LEVI_CIVITA, PROJECTIVE])
@pytest.mark.parametrize("n", [3, 5])
def test_derivation_apply_matches_definition(cylinder, n, conn):
    spec = cylinder if n == 3 else load_spec(_curved5_document())
    rng = np.random.default_rng(200 + n)
    point = sample(spec, 1, seed=n).points[0]
    T, X, Y = rng.normal(size=(n,) * 4), rng.normal(size=n), rng.normal(size=n)
    A = np.einsum("labm,a,b->lm", riemann_at(spec, conn, point).R, X, Y)
    assert np.max(np.abs(A)) > 0.1
    np.testing.assert_allclose(derivation_apply(spec, point, X, Y, T, conn),
                               _derivation_definition(A, T), rtol=0, atol=1e-12)


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
