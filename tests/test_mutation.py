"""Every engine mutant is killed: it fails a check on some catalog chart, or
it breaks the Ricci identity of ``test_curvature.ricci_identity_gap``.

Each mutant is rebuilt from the rule's source (``mutants.mutant``) and
monkeypatched in wherever the rule is looked up: the family runners through
``theorems._FAMILY_RUNNERS``, which holds the function objects themselves,
and the shared rules in every module that binds them."""

import pytest

from projconn import connections, curvature, theorems
from projconn.catalog import builtin, catalog_names
from projconn.connections import LEVI_CIVITA, PROJECTIVE
from projconn.theorems import run_checks
from mutants import mutant
from test_curvature import RICCI_CHARTS, ricci_identity_gap

# name -> (killed by, modules that bind the rule by name, rule, old source,
# new source).  A mutant is killed by a FAIL of run_checks on some "catalog"
# chart, or by the "ricci_identity": the derivation reaches verdicts on flat
# charts only, where the slot mapping does not show.  A family runner is
# patched in theorems._FAMILY_RUNNERS instead of in a binding module.
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
    "eq20_term_dropped": (
        "catalog", (), "_semisymmetry_columns", '+ np.einsum("su,slzbv->sblzuv", pi, Rt)', "",
    ),
    "cor4_3_term_dropped": (
        "catalog", (), "_semisymmetry_columns",
        'j.pr.nabla_R - np.einsum("sm,slijk->smlijk", rho, Rt)', "j.pr.nabla_R",
    ),
    "gssf_star2_term_dropped": (
        "catalog", (), "_gssf_columns", '+ 2.0 * np.einsum("sij,slk->slijk", A, phi)', "",
    ),
    # the terms of the second and third slots (z and u of a (1,3) tensor)
    # land in each other's slots; a tensor of rank 2 or less has no swap
    "derivation_slots_swapped": (
        "ricci_identity", (connections, curvature, theorems), "covariant",
        "np.moveaxis(term, -1, slot + 1)",
        "np.moveaxis(term, -1, 1 + (slot if len(variance) < 3 else {2: 3, 3: 2}.get(slot, slot)))",
    ),
}


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


@pytest.mark.parametrize("name", [m for m in MUTANTS if MUTANTS[m][0] == "ricci_identity"])
def test_mutant_breaks_the_ricci_identity(monkeypatch, name):
    _patch(monkeypatch, name)
    worst = max(
        gap / (1.0 + scale)
        for chart in RICCI_CHARTS
        for gap, scale in [ricci_identity_gap(chart, conn) for conn in (LEVI_CIVITA, PROJECTIVE)]
    )
    assert worst > 1e-3
