"""Acceptance suite: every criterion the package must meet, at its stated
tolerance, printing one pass/fail line per criterion (run with -s to see
them all; any failure also fails the corresponding test)."""

import math
import time

import numpy as np
import pytest

from projconn import expr as ex
from projconn.catalog import builtin
from projconn.cli import main as cli_main
from projconn.connections import PROJECTIVE
from projconn.curvature import (
    jet,
    lam_scale,
    nullity_fit,
    quasi_einstein_fit,
    ricci_shifts,
)
from projconn.geometry import sample
from projconn.theorems import REGISTRY, run_checks

from exprgen import central_difference, seeded_pairs
from test_expr import ROUND_TRIP_CORPUS

SAMPLES = 200
SEED = 42


def _emit(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _reports(spec, selected):
    return {
        r.check_id: r
        for r in run_checks(spec, count=SAMPLES, seed=SEED, selected=selected)
    }


def test_criterion_01_two_path_curvature():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("euclidean3", "cylinder_s2xr"):
        report = _reports(builtin(name).spec, ["eq9_two_path"])["eq9_two_path"]
        assert not report.skipped
        worst = max(worst, report.residual_max)
    elapsed = time.perf_counter() - t0
    _emit(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"two-path curvature residual {worst:.2e} <= 1e-9 over {SAMPLES} samples "
        f"on both parallel charts in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_nullity_scale_by_dimension():
    expected = {3: -9 / 16, 4: -16 / 25, 5: -25 / 36, 8: -64 / 81}
    worst = 0.0
    for n, value in expected.items():
        spec = builtin(f"euclidean{n}").spec
        fit = nullity_fit(spec, PROJECTIVE, sample(spec, SAMPLES, SEED))
        assert value == pytest.approx(lam_scale(n), abs=1e-15)
        worst = max(worst, abs(fit.k - value))
    _emit(2, worst <= 1e-10, f"nullity constant matches -n^2/(n+1)^2 for n in "
          f"{{3,4,5,8}}, worst deviation {worst:.2e} <= 1e-10")


def test_criterion_03_ricci_relations():
    spec = builtin("cylinder_s2xr").spec
    points = sample(spec, SAMPLES, SEED).points
    j = jet(spec, points[:20], 2)
    worst_entry = float(np.max(np.abs(j.pr.S[:, 2, 2] - 9.0 / 8.0)))
    worst_scalar = float(np.max(np.abs(ricci_shifts(j)[1] - 25.0 / 8.0)))
    eq15 = _reports(spec, ["eq15"])["eq15"]
    ok = worst_entry <= 1e-9 and worst_scalar <= 1e-9 and eq15.residual_max <= 1e-9
    _emit(3, ok, f"shifted Ricci entry 9/8 (dev {worst_entry:.2e}) and scalar 25/8 "
          f"(dev {worst_scalar:.2e}) <= 1e-9; Ricci-derivative equality residual "
          f"{eq15.residual_max:.2e} <= 1e-9")


def test_criterion_04_projective_coincidence():
    eq17 = _reports(builtin("cylinder_s2xr").spec, ["eq17"])["eq17"]
    sphere = _reports(builtin("sphere3_bad_xi").spec, ["thm3_3_p_flat"])["thm3_3_p_flat"]
    flat = _reports(builtin("euclidean3").spec, ["eq10b", "eq17", "thm5_1_flat"])
    # flat-chart coincidence: both projective tensors vanish and agree with
    # the metric curvature, and the shifted curvature equals the projective
    # tensor plus the scale term (see decisions ledger on the flat-case
    # coincidence family)
    flat_worst = max(
        flat["eq10b"].residual_max,
        flat["eq17"].residual_max,
        flat["thm5_1_flat"].residual_max,
    )
    ok = (
        eq17.residual_max <= 1e-9
        and not sphere.skipped
        and sphere.residual_max <= 1e-10
        and flat_worst <= 1e-10
    )
    _emit(4, ok, f"projective coincidence {eq17.residual_max:.2e} <= 1e-9 on the "
          f"cylinder; projective tensor vanishes on the round 3-sphere "
          f"({sphere.residual_max:.2e} <= 1e-10); flat-chart coincidence family "
          f"{flat_worst:.2e} <= 1e-10")


def test_criterion_05_curvature_identity_suite():
    t0 = time.perf_counter()
    ids = ["thm2_1_i", "thm2_1_ii", "thm2_1_iii", "thm2_1_iv", "thm2_1_v"]
    budgets = {"thm2_1_i": 1e-10, "thm2_1_ii": 1e-9, "thm2_1_iii": 1e-9,
               "thm2_1_iv": 1e-10, "thm2_1_v": 1e-8}
    ok = True
    worst_by_id = {}
    for name in ("euclidean3", "cylinder_s2xr"):
        reports = _reports(builtin(name).spec, ids)
        for cid in ids:
            report = reports[cid]
            worst_by_id[cid] = max(worst_by_id.get(cid, 0.0), report.residual_max)
            ok = ok and not report.skipped and report.residual_max <= budgets[cid]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    detail = ", ".join(f"{cid}={worst_by_id[cid]:.1e}" for cid in ids)
    _emit(5, ok, f"curvature identity suite on both parallel charts ({detail}) "
          f"within budgets in {elapsed:.2f}s (< 60s)")


def test_criterion_06_semisymmetry_suite_flat():
    spec = builtin("euclidean3").spec
    reports = _reports(spec, ["def4_1_flat", "eq20", "eq21", "cor4_3"])
    worst = max(r.residual_max for r in reports.values())
    ok = all(not r.skipped for r in reports.values()) and worst <= 1e-9
    # the recurrence 1-form evaluates to -1 on the field for n = 3
    rho_on_field = -2.0 * (3 - 1) / (3 + 1)
    ok = ok and rho_on_field == pytest.approx(-1.0)
    _emit(6, ok, f"flat-chart derivation suite (self-annihilation, field "
          f"derivation and curvature closed forms, recurrence with rho(field) "
          f"= -1): worst residual {worst:.2e} <= 1e-9")


def test_criterion_07_derivation_on_projective():
    eq53 = _reports(builtin("cylinder_s2xr").spec, ["eq5_3"])["eq5_3"]
    flat = _reports(builtin("euclidean3").spec, ["thm5_1_flat"])["thm5_1_flat"]
    ok = eq53.residual_max <= 1e-9 and not flat.skipped and flat.residual_max <= 1e-9
    _emit(7, ok, f"projective-tensor field contractions {eq53.residual_max:.2e} "
          f"<= 1e-9 on the cylinder; joint vanishing of the derivation action "
          f"and Ricci tensor on the flat chart {flat.residual_max:.2e} <= 1e-9")


def test_criterion_08_almost_contact_example():
    budgets = {"gssf_star1": 1e-10, "gssf_star2": 1e-9,
               "gssf_star3": 1e-10, "gssf_star4": 1e-9}
    ok = True
    worst = 0.0
    for name in ("gssf_c1", "gssf_c4"):
        reports = _reports(builtin(name).spec, list(budgets))
        for cid, tol in budgets.items():
            report = reports[cid]
            ok = ok and not report.skipped and report.residual_max <= tol
            worst = max(worst, report.residual_max)
    _emit(8, ok, f"almost-contact example verified for both curvature scalings "
          f"(coefficients 1/4 and 1), worst residual {worst:.2e}")


def test_criterion_09_parser_and_derivatives():
    assert len(ROUND_TRIP_CORPUS) >= 50
    stable = all(
        ex.parse(ex.to_text(ex.parse(text))) == ex.parse(text)
        for text in ROUND_TRIP_CORPUS
    )
    worst = 0.0
    count = 0
    for tree, env in seeded_pairs(1000, seed=987654321):
        value = ex.evaluate(ex.diff(tree, "x"), env)
        fd = central_difference(tree, "x", env)
        worst = max(worst, abs(value - fd) / (1.0 + abs(value)))
        count += 1
    ok = stable and count == 1000 and worst <= 1e-5
    _emit(9, ok, f"round trip stable on {len(ROUND_TRIP_CORPUS)} corpus strings; "
          f"symbolic vs central-difference agreement on {count} seeded pairs, "
          f"worst relative deviation {worst:.2e} <= 1e-5")


def test_criterion_10_negative_control(capsys):
    spec = builtin("sphere3_bad_xi").spec
    gate = run_checks(spec, sample(spec, SAMPLES, SEED), selected=["parallel_unit_xi"])[0]
    reports = run_checks(spec, count=SAMPLES, seed=SEED)
    gated = [r for r in reports if REGISTRY[r.check_id][2]]
    all_skipped = all(r.skipped for r in gated)
    exit_code = cli_main(["verify", "--manifold", "sphere3_bad_xi", "--samples", "50"])
    capsys.readouterr()
    ok = gate.residual_max > 0.1 and all_skipped and exit_code == 0
    _emit(10, ok, f"negative control: gate residual {gate.residual_max:.2e} > 0.1, "
          f"{len(gated)} gated checks skipped, verify exit code {exit_code}")


def test_criterion_11_quasi_einstein_fit():
    rng = np.random.default_rng(271828)
    worst = 0.0
    all_multiplicities = True
    for trial in range(100):
        n = (3, 4, 5)[trial % 3]
        A = rng.normal(size=(n, n))
        G = A @ A.T + n * np.eye(n)
        pi = rng.normal(size=n)
        pi = pi / math.sqrt(float(pi @ np.linalg.solve(G, pi)))  # unit generator
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        S = a * G + b * np.outer(pi, pi)
        fit = quasi_einstein_fit(S, G, pi)
        worst = max(worst, abs(fit.a - a), abs(fit.b - b))
        all_multiplicities = all_multiplicities and fit.multiplicity_ok
    ok = worst <= 1e-12 and all_multiplicities
    _emit(11, ok, f"quasi-Einstein decomposition recovered (a, b) for 100 random "
          f"instances, worst coefficient error {worst:.2e} <= 1e-12, eigenvalue "
          f"multiplicities (n-1, 1) confirmed")
