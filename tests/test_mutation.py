"""Every engine mutant fails a check on some catalog chart.

Each mutant is rebuilt from the rule's source (``mutants.mutant``) and
monkeypatched in wherever the rule is looked up: the family runners through
``theorems._FAMILY_RUNNERS``, which holds the function objects themselves,
and the shared rules in every module that binds them."""

import pytest

from projconn import connections, curvature, theorems
from projconn.catalog import builtin, catalog_names
from projconn.theorems import run_checks
from mutants import mutant

# name -> (modules that bind the rule by name, rule, old source, new source);
# a family runner is patched in theorems._FAMILY_RUNNERS instead
MUTANTS = {
    "wrong_lambda": ((curvature, theorems), "lam_scale", "-(n * n)", "-(n * n + 1)"),
    "projective_shift_coefficients_swapped": (
        (connections,), "_projective_shift",
        "a = n / (n + 1.0)\n    b = -1.0 / (n + 1.0)",
        "b = n / (n + 1.0)\n    a = -1.0 / (n + 1.0)",
    ),
    "covariant_gamma_slots_swapped": (
        (connections, curvature, theorems), "covariant",
        "s, n = Gamma.shape[:2]\n", "s, n = Gamma.shape[:2]\n    Gamma = Gamma.swapaxes(2, 3)\n",
    ),
    "eq11d_term_dropped": ((), "_curvature_columns", "+ (2.0 / (n + 1)) * pi_R", ""),
    "eq20_term_dropped": (
        (), "_semisymmetry_columns", '+ np.einsum("su,slzbv->sblzuv", pi, Rt)', "",
    ),
    "cor4_3_term_dropped": (
        (), "_semisymmetry_columns",
        'j.pr.nabla_R - np.einsum("sm,slijk->smlijk", rho, Rt)', "j.pr.nabla_R",
    ),
    "gssf_star2_term_dropped": (
        (), "_gssf_columns", '+ 2.0 * np.einsum("sij,slk->slijk", A, phi)', "",
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


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_a_catalog_chart(monkeypatch, name):
    binders, rule, old, new = MUTANTS[name]
    wrong = mutant(getattr((binders or (theorems,))[0], rule), old, new)
    for binder in binders:
        monkeypatch.setattr(binder, rule, wrong)
    for family, runner in list(theorems._FAMILY_RUNNERS.items()):
        if runner.__name__ == rule:
            monkeypatch.setitem(theorems._FAMILY_RUNNERS, family, wrong)
    assert _failing_charts()
