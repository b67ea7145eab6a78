import math
from types import SimpleNamespace

import numpy as np
import pytest

from projconn import connections
from projconn.connections import (
    LEVI_CIVITA,
    PROJECTIVE,
    check_parallel_unit_xi,
    connection_at,
    covariant,
    covariant_derivative,
    nonmetricity_components,
    torsion_components,
)
from projconn.catalog import builtin, catalog_names
from projconn.curvature import jet
from projconn.geometry import load_spec, metric_at, sample
from mutants import mutant
from test_jet import WARPED_CHART

ZERO_FIELD_3D = """
name = flat_no_field
dim = 3
coords = x, y, z
g[0][0] = 1
g[0][1] = 0
g[0][2] = 0
g[1][1] = 1
g[1][2] = 0
g[2][2] = 1
xi[0] = 0
xi[1] = 0
xi[2] = 0
box[0] = -1, 1
box[1] = -1, 1
box[2] = -1, 1
"""


def test_euclidean_christoffel_vanishes(euclidean3):
    conn = connection_at(euclidean3, LEVI_CIVITA, (0.3, -0.2, 0.8), order=2)
    np.testing.assert_allclose(conn.Gamma, 0.0)
    np.testing.assert_allclose(conn.dGamma, 0.0)
    np.testing.assert_allclose(conn.d2Gamma, 0.0)


def test_cylinder_christoffel_hand_values(cylinder):
    # round-sphere factor: Gamma^theta_{phi phi} = -sin cos, Gamma^phi_{theta phi} = cot
    for theta in (0.5, 1.0, 2.2):
        conn = connection_at(cylinder, LEVI_CIVITA, (theta, 1.0, 0.0), order=0)
        assert conn.Gamma[0, 1, 1] == pytest.approx(
            -math.sin(theta) * math.cos(theta), abs=1e-14
        )
        assert conn.Gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-13)
        assert conn.Gamma[1, 1, 0] == pytest.approx(1.0 / math.tan(theta), abs=1e-13)
        np.testing.assert_allclose(conn.Gamma[2], 0.0, atol=1e-15)
        np.testing.assert_allclose(conn.Gamma[:, 2, 2], 0.0, atol=1e-15)


def test_levi_civita_is_symmetric(cylinder):
    conn = connection_at(cylinder, LEVI_CIVITA, (0.9, 2.0, -0.3), order=0)
    np.testing.assert_allclose(conn.Gamma, conn.Gamma.transpose(0, 2, 1), atol=1e-15)


def test_metric_compatibility_spot_check(cylinder):
    s = sample(cylinder, 10, seed=23)
    for point in s.points:
        mv = metric_at(cylinder, point, order=1)
        conn = connection_at(cylinder, LEVI_CIVITA, point, order=0)
        nabla_g = (
            mv.dG
            - np.einsum("mij,mk->ijk", conn.Gamma, mv.G)
            - np.einsum("mik,jm->ijk", conn.Gamma, mv.G)
        )
        assert np.max(np.abs(nabla_g)) <= 1e-11


def test_projective_coefficient_hand_values(euclidean3):
    # with a unit field along the first axis, n = 3:
    # the symmetric shift is 3/4 on the argument slot, -1/4 on the direction slot
    conn = connection_at(euclidean3, PROJECTIVE, (0.0, 0.0, 0.0), order=0)
    assert conn.Gamma[1, 1, 0] == pytest.approx(0.75)
    assert conn.Gamma[1, 0, 1] == pytest.approx(-0.25)
    assert conn.Gamma[2, 2, 0] == pytest.approx(0.75)
    assert conn.Gamma[0, 0, 0] == pytest.approx(0.5)  # 3/4 - 1/4


def test_one_forms_scale(euclidean3):
    # phi = pi/2 and psi = (n-1)/(2(n+1)) pi generate the connection
    # difference: phi + psi on the argument slot, psi - phi on the direction slot
    n = euclidean3.n
    pi = jet(euclidean3, [(0.0, 0.0, 0.0)], 0).pi[0]
    phi, psi = 0.5 * pi, (n - 1.0) / (2.0 * (n + 1.0)) * pi
    np.testing.assert_allclose(phi, [0.5, 0.0, 0.0])
    np.testing.assert_allclose(psi, [0.25, 0.0, 0.0])
    lc = connection_at(euclidean3, LEVI_CIVITA, (0.0, 0.0, 0.0), order=0)
    pr = connection_at(euclidean3, PROJECTIVE, (0.0, 0.0, 0.0), order=0)
    eye = np.eye(n)
    shift = np.einsum("ki,j->kij", eye, phi + psi) + np.einsum("kj,i->kij", eye, psi - phi)
    np.testing.assert_allclose(pr.Gamma - lc.Gamma, shift, atol=1e-15)


def test_vanishing_form_gives_metric_connection():
    spec = load_spec(ZERO_FIELD_3D)
    lc = connection_at(spec, LEVI_CIVITA, (0.1, 0.2, 0.3), order=0)
    pr = connection_at(spec, PROJECTIVE, (0.1, 0.2, 0.3), order=0)
    np.testing.assert_allclose(pr.Gamma, lc.Gamma)


def test_projective_symmetric_part_identity(cylinder):
    s = sample(cylinder, 20, seed=31)
    n = cylinder.n
    factor = (n - 1.0) / (2.0 * (n + 1.0))
    eye = np.eye(n)
    for point in s.points:
        lc = connection_at(cylinder, LEVI_CIVITA, point, order=0)
        pr = connection_at(cylinder, PROJECTIVE, point, order=0)
        pi = metric_at(cylinder, point, order=0).G @ np.array([0.0, 0.0, 1.0])
        sym_extra = factor * (
            np.einsum("i,kj->kij", pi, eye) + np.einsum("j,ki->kij", pi, eye)
        )
        sym_pr = 0.5 * (pr.Gamma + pr.Gamma.transpose(0, 2, 1))
        sym_lc = 0.5 * (lc.Gamma + lc.Gamma.transpose(0, 2, 1))
        assert np.max(np.abs(sym_pr - (sym_lc + sym_extra))) <= 1e-14


def _torsion(spec, point, X, Y):
    """T(X, Y) as the contraction of ``torsion_components``."""
    return np.einsum("kij,i,j->k", torsion_components(spec, point), X, Y)


def _nonmetricity(spec, point, X, Y, Z):
    """Q(X, Y, Z) from the closed form and from direct differentiation."""
    return tuple(
        float(np.einsum("ijk,i,j,k->", Q, X, Y, Z))
        for Q in nonmetricity_components(spec, point)
    )


def test_torsion_hand_values(euclidean3):
    origin = (0.0, 0.0, 0.0)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(_torsion(euclidean3, origin, e1, e2), -e2)
    np.testing.assert_allclose(_torsion(euclidean3, origin, e2, e2), 0.0)
    # T(xi, Y) = pi(Y) xi - Y
    np.testing.assert_allclose(_torsion(euclidean3, origin, e1, e2), -e2)


def test_torsion_antisymmetry_random(cylinder):
    s = sample(cylinder, 10, seed=37)
    for idx in range(s.count):
        point = s.points[idx]
        X, Y = s.frames[idx, 0], s.frames[idx, 1]
        t_xy = _torsion(cylinder, point, X, Y)
        t_yx = _torsion(cylinder, point, Y, X)
        np.testing.assert_allclose(t_xy, -t_yx, atol=1e-14)
        np.testing.assert_allclose(
            _torsion(cylinder, point, X, X), 0.0, atol=1e-14
        )


def test_torsion_matches_antisymmetric_coefficients(cylinder):
    s = sample(cylinder, 50, seed=41)
    for point in s.points:
        pr = connection_at(cylinder, PROJECTIVE, point, order=0)
        # Gamma[k,i,j] - Gamma[k,j,i] contracts against X^i Y^j as T(X,Y)
        antisym = pr.Gamma - pr.Gamma.transpose(0, 2, 1)
        assert np.max(np.abs(antisym - torsion_components(cylinder, point))) <= 1e-12


def test_nonmetricity_hand_value(euclidean3):
    xi = np.array([1.0, 0.0, 0.0])
    closed, direct = _nonmetricity(euclidean3, (0.0, 0.0, 0.0), xi, xi, xi)
    assert closed == pytest.approx(-1.0)
    assert direct == pytest.approx(-1.0)


def test_nonmetricity_orthogonal_directions_vanish(euclidean3):
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    closed, _ = _nonmetricity(euclidean3, (0.0, 0.0, 0.0), e2, e3, e3)
    assert closed == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name", ["cylinder_s2xr", "sphere3_bad_xi"])
def test_nonmetricity_two_path_agreement(name, request):
    from projconn.catalog import builtin

    spec = builtin(name).spec
    s = sample(spec, 100, seed=43)
    worst = 0.0
    for point in s.points:
        closed, direct = nonmetricity_components(spec, point)
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    assert worst <= 1e-11


def test_covariant_derivative_of_form_projective(euclidean3):
    value = covariant_derivative(euclidean3, "pi", PROJECTIVE, (0, 0, 0))
    # (grad~ pi)(X, Y) = -(n-1)/(n+1) pi(X) pi(Y); at (xi, xi) with n=3: -1/2
    assert value[0, 0] == pytest.approx(-0.5)
    assert value.shape == (3, 3)


def test_covariant_derivative_of_field_projective(euclidean3):
    value = covariant_derivative(euclidean3, "xi", PROJECTIVE, (0, 0, 0))
    # grad~_X xi = (n X - pi(X) xi)/(n+1); along e2 with n=3 that is (3/4) e2
    np.testing.assert_allclose(value[1], [0.0, 0.75, 0.0])


def test_covariant_derivative_metric_matches_nonmetricity(cylinder):
    point = (1.2, 0.7, 0.1)
    value = covariant_derivative(cylinder, "g", PROJECTIVE, point)
    _, direct = nonmetricity_components(cylinder, point)
    np.testing.assert_allclose(value, direct, atol=1e-14)


def test_covariant_derivative_parallel_form_on_catalog(euclidean3, cylinder):
    for spec in (euclidean3, cylinder):
        s = sample(spec, 20, seed=51)
        for point in s.points:
            value = covariant_derivative(spec, "pi", LEVI_CIVITA, point)
            assert np.max(np.abs(value)) <= 1e-11


def test_covariant_derivative_of_structure_on_cosymplectic_chart(gssf1):
    # gssf_c1 is cosymplectic: phi is parallel under the metric connection
    for point in sample(gssf1, 10, seed=53).points:
        value = covariant_derivative(gssf1, "phi", LEVI_CIVITA, point)
        assert value.shape == (gssf1.n,) * 3
        assert np.max(np.abs(value)) <= 1e-12


@pytest.mark.parametrize("name", ["phi", "f", "Rlow"])
def test_covariant_derivative_names_a_missing_table(euclidean3, name):
    with pytest.raises(ValueError, match=f"no table '{name}'"):
        covariant_derivative(euclidean3, name, LEVI_CIVITA, (0, 0, 0))


def test_geodesic_spray_difference_is_radial(cylinder):
    # the two connections share geodesics: the quadratic-form difference is
    # parallel to the velocity, with factor (n-1)/(n+1) pi(V)
    rng = np.random.default_rng(61)
    s = sample(cylinder, 25, seed=61)
    n = cylinder.n
    for idx in range(s.count):
        point = s.points[idx]
        lc = connection_at(cylinder, LEVI_CIVITA, point, order=0)
        pr = connection_at(cylinder, PROJECTIVE, point, order=0)
        pi = metric_at(cylinder, point, order=0).G @ np.array([0.0, 0.0, 1.0])
        for _ in range(4):
            V = rng.uniform(-1.0, 1.0, size=n)
            diff = np.einsum("kij,i,j->k", pr.Gamma - lc.Gamma, V, V)
            vv = float(V @ V)
            radial = (float(diff @ V) / vv) * V
            assert np.max(np.abs(diff - radial)) <= 1e-10
            expected_factor = (n - 1.0) / (n + 1.0) * float(pi @ V)
            assert float(diff @ V) / vv == pytest.approx(expected_factor, abs=1e-12)


def test_gate_passes_on_parallel_charts(euclidean3, cylinder):
    for spec in (euclidean3, cylinder):
        report = check_parallel_unit_xi(spec, sample(spec, 30, seed=71))
        assert report.passed
        assert report.gate_status == "passed"
        assert report.residual_max <= 1e-12


def test_gate_fails_on_sphere_control(sphere):
    report = check_parallel_unit_xi(sphere, sample(sphere, 30, seed=71))
    assert report.gate_status == "failed"
    assert report.residual_max > 0.1
    assert report.skipped  # declared negative control
    assert not report.passed


def test_gate_flags_inconsistent_declaration(sphere):
    from dataclasses import replace

    lying = replace(sphere, parallel_xi_expected=True, _tables=None)
    report = check_parallel_unit_xi(lying, sample(lying, 10, seed=71))
    assert not report.passed
    assert not report.skipped


# ---------------------------------------------------------------------------
# the batched covariant derivative


def _chart(name):
    return load_spec(WARPED_CHART) if name == "warped" else builtin(name).spec


@pytest.mark.parametrize("name", [*catalog_names(), "warped"])
def test_covariant_levi_civita_is_metric_compatible(name):
    spec = _chart(name)
    j = jet(spec, sample(spec, 40, seed=83).points, 1)
    nabla_g = covariant(j.lc.Gamma, j.G, j.dG, "ll")
    assert nabla_g.shape == (40,) + (spec.n,) * 3
    assert np.max(np.abs(nabla_g)) <= 1e-11 * (1.0 + np.max(np.abs(j.dG)))


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if builtin(n).spec.parallel_xi_expected]
)
def test_covariant_projective_on_parallel_field(name):
    spec = _chart(name)
    n = spec.n
    s = sample(spec, 40, seed=89)
    j = jet(spec, s.points, 1)
    dxi = spec.tables.values("xi", 1, s.points)
    # grad~ pi = -(n-1)/(n+1) pi x pi
    nabla_pi = covariant(j.pr.Gamma, j.pi, j.dpi, "l")
    expected = -(n - 1) / (n + 1.0) * np.einsum("sm,si->smi", j.pi, j.pi)
    np.testing.assert_allclose(nabla_pi, expected, rtol=0, atol=1e-12)
    # grad~_X xi = (n X - pi(X) xi)/(n+1), X each sampled frame vector
    nabla_xi = covariant(j.pr.Gamma, j.xi, dxi, "u")
    X = s.frames
    along = np.einsum("svm,smc->svc", X, nabla_xi)
    pi_x = np.einsum("si,svi->sv", j.pi, X)
    expected = (n * X - pi_x[..., None] * j.xi[:, None, :]) / (n + 1.0)
    np.testing.assert_allclose(along, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["cylinder_s2xr", "gssf_c1", "warped"])
@pytest.mark.parametrize("kind", [LEVI_CIVITA, PROJECTIVE])
def test_covariant_derivative_is_the_batched_rule_at_one_sample(name, kind):
    spec = _chart(name)
    s = sample(spec, 12, seed=97)
    j = jet(spec, s.points, 1)
    batched = covariant(j.connection(kind).Gamma, j.G, j.dG, "ll")
    for row, point in zip(batched, s.points):
        value = covariant_derivative(spec, "g", kind, point)
        np.testing.assert_allclose(value, row, rtol=1e-13, atol=1e-15)


_SLOTS = "abcdefgh"  # slot labels; s (sample), m (direction), p (summed) stay free


def _covariant_reference(Gamma, T, dT, variance):
    """The slot-action rule as one two-operand einsum per slot: +Gamma[c,m,p] for
    an upper slot c, -Gamma[p,m,c] for a lower one, over a stack m of any
    length; no partials (dT None) is the bare action."""
    idx = _SLOTS[: len(variance)]
    out = 0.0 if dT is None else dT
    for slot, v in enumerate(variance):
        c = idx[slot]
        src = idx[:slot] + "p" + idx[slot + 1:]
        if v == "u":
            out = out + np.einsum(f"s{c}mp,s{src}->sm{idx}", Gamma, T)
        else:
            out = out - np.einsum(f"spm{c},s{src}->sm{idx}", Gamma, T)
    return out


@pytest.mark.parametrize("variance", ["l", "u", "ll", "ul", "lu", "lul", "ulll"])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_covariant_matches_per_slot_reference(n, variance):
    # Gamma with no symmetry in (direction, argument), so that swapping its
    # middle slots changes the result.  The same rule is the curvature
    # derivation: a stack of the n(n-1)/2 frames R(e_a, e_b), no partials.
    rng = np.random.default_rng(7 * n + len(variance))
    rank = len(variance)
    T = rng.normal(size=(4,) + (n,) * rank)
    for k in (n, n * (n - 1) // 2):
        Gamma = rng.normal(size=(4, n, k, n))
        if k == n:
            assert np.max(np.abs(Gamma - Gamma.transpose(0, 1, 3, 2))) > 0.1
        dT = rng.normal(size=(4, k) + (n,) * rank)
        for partials in (dT, None):
            np.testing.assert_allclose(covariant(Gamma, T, partials, tuple(variance)),
                                       _covariant_reference(Gamma, T, partials, variance),
                                       rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the Levi-Civita chain


def _lc_reference(G_inv, dG, d2G, d3G):
    """Gamma, dGamma and d2Gamma by the coordinate chain, one einsum per
    product: C[l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij)/2, Gamma = G_inv C,
    and d(G_inv) = -G_inv dG G_inv differentiated once more."""
    C = 0.5 * (np.einsum("sijl->slij", dG) + np.einsum("sjil->slij", dG) - dG)
    dC = 0.5 * (np.einsum("smijl->smlij", d2G) + np.einsum("smjil->smlij", d2G) - d2G)
    d2C = 0.5 * (np.einsum("spmijl->spmlij", d3G) + np.einsum("spmjil->spmlij", d3G) - d3G)
    dGinv = -np.einsum("ska,smab,sbl->smkl", G_inv, dG, G_inv)
    d2Ginv = -(
        np.einsum("spka,smab,sbl->spmkl", dGinv, dG, G_inv)
        + np.einsum("ska,spmab,sbl->spmkl", G_inv, d2G, G_inv)
        + np.einsum("ska,smab,spbl->spmkl", G_inv, dG, dGinv)
    )
    Gamma = np.einsum("skl,slij->skij", G_inv, C)
    dGamma = np.einsum("smkl,slij->smkij", dGinv, C) + np.einsum("skl,smlij->smkij", G_inv, dC)
    d2Gamma = (
        np.einsum("spmkl,slij->spmkij", d2Ginv, C)
        + np.einsum("smkl,splij->spmkij", dGinv, dC)
        + np.einsum("spkl,smlij->spmkij", dGinv, dC)
        + np.einsum("skl,spmlij->spmkij", G_inv, d2C)
    )
    return Gamma, dGamma, d2Gamma


def _random_metric_jet(n):
    """G_inv and the partials of g at two samples, with no symmetry at all:
    C and its partials are then not symmetric in (i, j), and d2G and d3G
    not in their derivative axes."""
    rng = np.random.default_rng(400 + n)
    return SimpleNamespace(**{
        name: rng.normal(size=(2,) + (n,) * rank)
        for name, rank in (("G_inv", 2), ("dG", 3), ("d2G", 4), ("d3G", 5))
    })


def _lc_gaps(mj):
    """Per piece, the largest difference of connections._lc_pieces from the
    reference, relative to the reference's largest entry."""
    want = _lc_reference(mj.G_inv, mj.dG, mj.d2G, mj.d3G)
    got = connections._lc_pieces(mj, 2)
    return [float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))) for a, b in zip(got, want)]


@pytest.mark.parametrize("n", [3, 5, 8])
def test_lc_pieces_match_reference(n):
    mj = _random_metric_jet(n)
    assert max(_lc_gaps(mj)) <= 1e-12
    # the lower orders are the same rule cut short
    Gamma, dGamma, _ = connections._lc_pieces(mj, 2)
    assert connections._lc_pieces(mj, 0)[1:] == (None, None)
    np.testing.assert_array_equal(connections._lc_pieces(mj, 0)[0], Gamma)
    np.testing.assert_array_equal(connections._lc_pieces(mj, 1)[1], dGamma)


# slot-swap mutants of _lc_pieces: G_inv's slots swapped in Gamma and in
# dGamma, and the two mixed terms of d2Gamma taken in one (p, m) order
LC_MUTANTS = {
    "gamma": ("(G_inv @ C_flat)", "(G_inv.swapaxes(-1, -2) @ C_flat)"),
    "dgamma": ("(Gi @ dC_flat)", "(Gi.swapaxes(-1, -2) @ dC_flat)"),
    "d2gamma_mixed_order": ("d2Gamma += W.transpose(0, 2, 1, 3, 4, 5)", "d2Gamma += W"),
}


@pytest.mark.parametrize("name", LC_MUTANTS)
def test_lc_reference_catches_slot_swaps(monkeypatch, name):
    monkeypatch.setattr(connections, "_lc_pieces",
                        mutant(connections._lc_pieces, *LC_MUTANTS[name]))
    assert max(_lc_gaps(_random_metric_jet(5))) > 1e-3
