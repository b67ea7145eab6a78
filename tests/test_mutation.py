"""Every engine mutant is killed: it fails a check on some catalog chart or
on the catalog's warped chart at more samples, or it breaks the Ricci identity of
``test_curvature.ricci_identity_gap``, or it moves a chart table off the
SymPy oracle of ``test_jet.warped_table_mismatches``, or it changes which
gated checks fail on the ungated control (``_ungated_failures``), or it
moves the max |R~.P~| a report names off the definition
(``test_curvature.reported_max_abs_rp_gap``).

Each mutant is rebuilt from the rule's source (``mutants.mutant``) and
monkeypatched in wherever the rule is looked up: the family runners through
``theorems._FAMILY_RUNNERS``, which holds the function objects themselves,
and the shared rules in every module that binds them."""

from dataclasses import replace

import numpy as np
import pytest

from projconn import connections, curvature, theorems
from projconn import expr as ex
from projconn.catalog import builtin, catalog_names
from projconn.connections import LEVI_CIVITA, PROJECTIVE
from projconn.theorems import run_checks
from mutants import mutant
from test_curvature import (
    RICCI_CHARTS,
    RP_PIN_CHARTS,
    reported_max_abs_rp_gap,
    ricci_identity_gap,
)
from test_jet import _warped_failures, warped_table_mismatches

# name -> (killed by, modules that bind the rule by name, rule, old source,
# new source).  A mutant is killed by a FAIL of run_checks on some "catalog"
# chart, at 6 samples: warped_r3xr is curved at n = 4, so a coefficient that
# depends on n but is exact at n = 3 shows there.  A wrong mixed partial is
# killed on the "warped" chart, warped_r3xr at 10 samples, the one catalog
# chart whose metric depends on more than one coordinate.  The others are
# killed by the "ricci_identity": the derivation reaches verdicts on flat
# charts only, where the slot mapping does not show; or by the
# "table_oracle", for a wrong table whose derivative axes stay symmetric:
# such a jet is the jet of some (polynomial) metric, so no identity checked
# at a point can see it; or by the "ungated" control, for a check that can
# no longer fail anywhere, such as one comparing a tensor with itself; or by
# the "rp_pin", the max |R~.P~| that thm5_1_flat reports on a non-flat chart
# held to the definition (``test_curvature.reported_max_abs_rp_gap``).  A
# family runner is patched in theorems._FAMILY_RUNNERS instead of in a
# binding module.
MUTANTS = {
    "wrong_lambda": (
        "catalog", (curvature, theorems), "lam_scale", "-(n * n)", "-(n * n + 1)",
    ),
    "projective_shift_coefficients_swapped": (
        "catalog", (connections,), "_projective_shift",
        "a = n / (n + 1.0)\n    b = -1.0 / (n + 1.0)",
        "b = n / (n + 1.0)\n    a = -1.0 / (n + 1.0)",
    ),
    # a connection's direction and argument swapped; a stack of another
    # length than n has no such swap
    "covariant_gamma_slots_swapped": (
        "catalog", (connections, curvature, theorems), "covariant",
        "s, n, k = Gamma.shape[:3]\n",
        "s, n, k = Gamma.shape[:3]\n    if k == n:\n        Gamma = Gamma.swapaxes(2, 3)\n",
    ),
    "eq11d_term_dropped": ("catalog", (), "_curvature_columns", "+ (2.0 / (n + 1)) * pi_R", ""),
    "eq11d_coefficient_n_over_n_plus_1": (
        "catalog", (), "_curvature_columns", "(n / (n + 1.0))", "0.75",
    ),
    "eq11d_coefficient_2_over_n_plus_1": (
        "catalog", (), "_curvature_columns", "(2.0 / (n + 1))", "0.5",
    ),
    "eq5_3_part_i_over_n_minus_1": (
        "catalog", (), "_rp_columns",
        'np.einsum("sjk,sl->sljk", S, xi)\n    ) / (n - 1.0)',
        'np.einsum("sjk,sl->sljk", S, xi)\n    ) / 2.0',
    ),
    # n-dependent factors replaced by their values at n = 3; each multiplies
    # a term that does not vanish on flat charts, so the catalog's charts at
    # n >= 4 kill them
    "ricci_shift_c_at_n3": (
        "catalog", (curvature, theorems), "ricci_shifts",
        "c = lam_scale(n) * (n - 1)", "c = lam_scale(n) * 2",
    ),
    "projective_tensor_over_2": (
        "catalog", (curvature,), "projective_tensor", "/ (R.shape[-1] - 1.0)", "/ 2.0",
    ),
    "cor4_3_rho_at_n3": (
        "catalog", (), "_semisymmetry_columns",
        "rho = -2.0 * (n - 1) / (n + 1.0) * pi", "rho = -1.0 * pi",
    ),
    "eq11d_shift_coefficient_at_n3": (
        "catalog", (), "_curvature_columns",
        "(2.0 * lam * (n - 1) / (n + 1))", "(2.0 * lam * 2 / (n + 1))",
    ),
    "lambda_at_n3": (
        "catalog", (curvature, theorems), "lam_scale",
        "-(n * n) / float((n + 1) * (n + 1))", "-0.5625",
    ),
    "projective_shift_a_at_n3": (
        "catalog", (connections,), "_projective_shift", "a = n / (n + 1.0)", "a = 0.75",
    ),
    # the bracket eq11d and eq20 share
    "eq20_term_dropped": (
        "catalog", (theorems,), "_pi_in_lower_slots", '+ np.einsum("sj,slimk->smlijk", pi, T)', "",
    ),
    "cyclic_permutation_repeated": (
        "catalog", (theorems,), "_cyclic", "cab[a], cab[b], cab[c] = b, c, a", "cab = bca",
    ),
    "cor4_3_term_dropped": (
        "catalog", (), "_semisymmetry_columns",
        'j.pr.nabla_R - np.einsum("sm,slijk->smlijk", rho, Rt)', "j.pr.nabla_R",
    ),
    "gssf_star2_term_dropped": (
        "catalog", (), "_gssf_columns", '+ 2.0 * np.einsum("sij,slk->slijk", A, phi)', "",
    ),
    # the Codazzi antisymmetrisation of lem2_6 swaps the wrong pair of slots
    # of nabla S~
    "codazzi_slots_swapped": (
        "catalog", (), "_ricci_columns",
        'np.einsum("smjk->sjmk", nabla_St)', 'np.einsum("smjk->smkj", nabla_St)',
    ),
    "eq15_compared_with_itself": (
        "ungated", (), "_ricci_columns",
        "_residual(nabla_St - nabla_S)", "_residual(nabla_St - nabla_St)",
    ),
    # the terms of the second and third slots (z and u of a (1,3) tensor)
    # land in each other's slots; a tensor of rank 2 or less has no swap
    "derivation_slots_swapped": (
        "ricci_identity", (connections, curvature, theorems), "covariant",
        "term = term.reshape((s, k) + T.shape[1:])\n",
        "term = term.reshape((s, k) + T.shape[1:])\n"
        "        if rank >= 3 and slot in (1, 2):\n"
        "            term = term.swapaxes(3, 4)\n",
    ),
    # R~.P~ taken as R~.R~: the W(R~.S~) term dropped.  R~.R~ = R~.P~ = 0 on
    # flat charts, where thm5_1_flat runs, so only the max |R~.P~| it reports
    # on a non-flat chart can tell
    "rp_wedge_term_dropped": (
        "rp_pin", (curvature,), "derivation_all_frames",
        '/ (n - 1.0)  # [s, frame, u, v]', '* 0.0  # [s, frame, u, v]',
    ),
    # the two mixed terms of the differentiated G Gamma = C taken as one
    # (p, m) order twice; eq11d and lem2_6 carry the same d2Gamma into both
    # sides, so warped_r3xr's thm2_1_v is what fails
    "lc_d2gamma_mixed_terms_one_order": (
        "catalog", (connections,), "_lc_pieces",
        "rhs - mixed - mixed.transpose(0, 2, 1, 3, 4)", "rhs - 2.0 * mixed",
    ),
    # a permutation of a sorted multi-index gets the table one order down
    "partials_permutation_not_differentiated": (
        "warped", (ex,), "partials", "out[perm] = part", "out[perm] = table[tuple(rest)]",
    ),
    # a sorted multi-index differentiated by its last coordinate, not its first
    "partials_sorted_index_by_last_coordinate": (
        "table_oracle", (ex,), "partials",
        "var = coords[m]", "var = coords[index[-1]]",
    ),
}


# The gated checks that FAIL on sphere3_bad_xi, whose field is not
# parallel, once the gate lets them run; the others (thm2_1_i, thm2_1_v,
# eq11 and thm3_3_p_flat) hold there, and the flat-premise checks skip.
UNGATED_FAILURES = {
    "eq9_two_path", "thm2_1_ii", "thm2_1_iii", "thm2_1_iv",
    "eq11d", "eq12", "lem2_4",
    "eq10", "eq15", "lem2_6",
    "eq17", "eq5_3",
}


# The checks that FAIL on euclidean3 with the rotating unit field
# xi = cos x d_y + sin x d_z, once the gate lets them run: every gated check
# but thm2_1_i and eq11, the flat-premise checks included, since the metric
# is flat.  thm3_3_p_flat holds there.  The metric reads no coordinate, but
# xi does, so the chart is not coordinate-free and every sample is walked.
ROTATING_FAILURES = {
    "eq9_two_path", "thm2_1_ii", "thm2_1_iii", "thm2_1_iv", "thm2_1_v",
    "eq11d", "eq12", "lem2_4",
    "eq10", "eq15", "lem2_6",
    "eq17", "eq10b",
    "def4_1_flat", "eq20", "eq21", "cor4_3",
    "eq5_3", "thm5_1_flat",
}


def _ungated_reports(monkeypatch, spec):
    """The reports of a chart declared parallel, with the gate's measurement
    patched to zeros, at 50 samples."""
    monkeypatch.setattr(theorems, "check_parallel_unit_xi",
                        lambda spec, samples, store: (np.zeros(samples.count),
                                                      np.zeros(samples.count)))
    return run_checks(replace(spec, parallel_xi_expected=True), count=50, seed=42)


def _ungated_failures(monkeypatch) -> set[str]:
    """The checks that FAIL on sphere3_bad_xi without the gate."""
    reports = _ungated_reports(monkeypatch, builtin("sphere3_bad_xi").spec)
    return {r.check_id for r in reports if not (r.passed or r.skipped)}


def test_gated_checks_fail_without_the_gate(monkeypatch):
    assert _ungated_failures(monkeypatch) == UNGATED_FAILURES


def test_flat_premise_checks_fail_on_a_rotating_field(monkeypatch):
    spec = builtin("euclidean3").spec
    rotating = replace(spec, xi=(ex.const(0.0), ex.parse("cos(x)"), ex.parse("sin(x)")))
    assert not rotating.coordinate_free
    reports = _ungated_reports(monkeypatch, rotating)
    assert not any(r.skipped for r in reports)
    assert {r.check_id for r in reports if not r.passed} == ROTATING_FAILURES


def _failing_charts() -> list[str]:
    failing = []
    for name in catalog_names():
        reports = run_checks(builtin(name).spec, count=6, seed=42)
        failing += [f"{name}:{r.check_id}" for r in reports if not (r.passed or r.skipped)]
    return failing


def test_engine_passes_every_catalog_chart():
    assert _failing_charts() == []


def _patch(monkeypatch, name):
    _, binders, rule, old, new = MUTANTS[name]
    wrong = mutant(getattr((binders or (theorems,))[0], rule), old, new)
    for binder in binders:
        monkeypatch.setattr(binder, rule, wrong)
    for family, runner in list(theorems._FAMILY_RUNNERS.items()):
        if runner.__name__ == rule:
            monkeypatch.setitem(theorems._FAMILY_RUNNERS, family, wrong)


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "catalog"])
def test_mutant_fails_a_catalog_chart(monkeypatch, name):
    _patch(monkeypatch, name)
    assert _failing_charts()


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "warped"])
def test_mutant_fails_the_warped_chart(monkeypatch, name):
    _patch(monkeypatch, name)
    assert _warped_failures()[1]


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "ricci_identity"])
def test_mutant_breaks_the_ricci_identity(monkeypatch, name):
    _patch(monkeypatch, name)
    worst = max(
        gap / (1.0 + scale)
        for chart in RICCI_CHARTS
        for gap, scale in [ricci_identity_gap(chart, conn) for conn in (LEVI_CIVITA, PROJECTIVE)]
    )
    assert worst > 1e-3


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "rp_pin"])
def test_mutant_moves_the_reported_max_abs_rp(monkeypatch, name):
    _patch(monkeypatch, name)
    assert max(reported_max_abs_rp_gap(chart) for chart in RP_PIN_CHARTS) > 1e-3


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "table_oracle"])
def test_mutant_fails_the_table_oracle(monkeypatch, name):
    _patch(monkeypatch, name)
    assert warped_table_mismatches()


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "ungated"])
def test_mutant_changes_the_ungated_failures(monkeypatch, name):
    _patch(monkeypatch, name)
    assert _ungated_failures(monkeypatch) != UNGATED_FAILURES
