import json
import re
from dataclasses import replace

import numpy as np
import pytest

from projconn.catalog import builtin
from projconn.connections import check_parallel_unit_xi
from projconn.geometry import SpecError, sample
from projconn.theorems import (
    CHECK_IDS,
    REGISTRY,
    run_checks,
)


def _by_id(reports):
    return {r.check_id: r for r in reports}


@pytest.fixture(scope="module")
def euclid_reports(euclidean3):
    return _by_id(run_checks(euclidean3, count=40, seed=42))


@pytest.fixture(scope="module")
def cylinder_reports(cylinder):
    return _by_id(run_checks(cylinder, count=40, seed=42))


@pytest.fixture(scope="module")
def sphere_reports(sphere):
    return _by_id(run_checks(sphere, count=40, seed=42))


def test_flat_chart_passes_everything(euclid_reports):
    for check_id, report in euclid_reports.items():
        assert not report.skipped, check_id
        assert report.passed, check_id
        assert report.residual_max <= 1e-9, check_id


def test_cylinder_gated_checks_pass(cylinder_reports):
    for check_id in (
        "parallel_unit_xi", "eq9_two_path", "thm2_1_i", "thm2_1_ii",
        "thm2_1_iii", "thm2_1_iv", "thm2_1_v", "eq11d", "eq12", "lem2_4",
        "eq10", "eq11", "eq15", "lem2_6", "eq17", "eq5_3",
    ):
        report = cylinder_reports[check_id]
        assert not report.skipped, check_id
        assert report.passed, check_id
    # third-derivative identities stay within the coarser budget
    assert cylinder_reports["thm2_1_v"].residual_max <= 1e-8
    assert cylinder_reports["eq11d"].residual_max <= 1e-8


def test_cylinder_flat_premise_checks_skip_with_observations(cylinder_reports):
    for check_id in ("def4_1_flat", "eq20", "eq21", "cor4_3", "thm5_1_flat", "eq10b"):
        report = cylinder_reports[check_id]
        assert report.skipped, check_id
        assert "not flat" in report.notes
    observed = cylinder_reports["def4_1_flat"].extras
    assert observed["max_abs_R"] > 1e-3
    assert observed["max_abs_RR"] > 1e-3
    rp = cylinder_reports["thm5_1_flat"].extras
    assert rp["max_abs_RP"] > 1e-3
    assert rp["max_abs_S"] > 1e-3


def test_sphere_gated_checks_skip(sphere_reports):
    gated = [cid for cid, meta in REGISTRY.items() if meta[2]]
    for check_id in gated:
        if check_id in sphere_reports:
            report = sphere_reports[check_id]
            assert report.skipped, check_id
            assert report.gate_status == "failed", check_id


def test_sphere_gate_report_is_negative_control(sphere_reports):
    gate = sphere_reports["parallel_unit_xi"]
    assert gate.residual_max > 0.1
    assert gate.skipped
    assert not gate.passed


def test_gate_mean_is_the_mean_over_samples(sphere):
    samples = sample(sphere, 200, 42)
    gate = run_checks(sphere, samples, selected=["parallel_unit_xi"])[0]
    nabla, unit = check_parallel_unit_xi(sphere, samples)
    assert gate.residual_max == float(np.max(np.maximum(nabla, unit)))
    assert gate.residual_mean == float(np.mean(np.maximum(nabla, unit)))
    assert gate.residual_max == pytest.approx(0.949, abs=5e-4)
    assert gate.residual_mean == pytest.approx(0.597, abs=5e-4)
    assert "max=9.49e-01 mean=5.97e-01" in gate.human_line()


def test_negative_control_that_measures_parallel_fails(euclidean3):
    declared_false = replace(euclidean3, parallel_xi_expected=False)
    reports = _by_id(run_checks(declared_false, count=10, seed=42))
    gate = reports["parallel_unit_xi"]
    assert gate.gate_status == "passed"
    assert not gate.passed
    assert not gate.skipped
    assert gate.notes.startswith(
        "declared parallel_xi_expected=false but the field measures parallel")
    for cid, report in reports.items():
        if REGISTRY[cid][2]:
            assert report.gate_status == "passed" and not report.skipped, cid


def test_sphere_projective_flatness_still_verified(sphere_reports):
    report = sphere_reports["thm3_3_p_flat"]
    assert not report.skipped
    assert report.passed
    assert report.residual_max <= 1e-10


def test_gssf_checks_pass_for_both_scalings(gssf1, gssf4):
    for spec in (gssf1, gssf4):
        reports = _by_id(run_checks(spec, count=30, seed=42))
        for check_id in ("gssf_star1", "gssf_star2", "gssf_star3", "gssf_star4"):
            report = reports[check_id]
            assert not report.skipped
            assert report.passed, (spec.name, check_id)
        assert reports["gssf_star1"].residual_max <= 1e-10
        assert reports["gssf_star3"].residual_max <= 1e-10


def test_gssf_requires_structure_fields(euclidean3):
    with pytest.raises(SpecError, match="structure fields"):
        run_checks(euclidean3, sample(euclidean3, 5, seed=1), selected=["gssf_star1"])


def test_gssf_not_scheduled_without_structure(euclid_reports):
    assert "gssf_star1" not in euclid_reports


def test_ricci_relations_values(cylinder):
    reports = _by_id(run_checks(cylinder, sample(cylinder, 30, seed=42),
                                selected=["eq10", "eq11", "eq15", "lem2_6"]))
    assert reports["eq10"].residual_max <= 1e-10
    assert reports["eq11"].residual_max <= 1e-12
    assert reports["eq15"].residual_max <= 1e-9
    assert reports["lem2_6"].residual_max <= 1e-9


def test_selected_subset_returns_only_requested(cylinder):
    reports = run_checks(cylinder, count=10, seed=42, selected=["eq17"])
    assert [r.check_id for r in reports] == ["eq17"]
    assert reports[0].passed


def test_unknown_selection_rejected(cylinder):
    with pytest.raises(KeyError):
        run_checks(cylinder, count=5, seed=42, selected=["eq99"])


def test_unknown_tolerance_id_rejected(cylinder):
    with pytest.raises(KeyError, match="unknown check id\\(s\\) in tolerances: thm2_1_V"):
        run_checks(cylinder, count=5, seed=42, tolerances={"thm2_1_V": 1e-30, "eq17": 1e-9})


def test_tolerance_override_can_fail(cylinder):
    reports = run_checks(
        cylinder, count=10, seed=42, selected=["thm2_1_ii"],
        tolerances={"thm2_1_ii": 1e-30},
    )
    assert not reports[0].passed
    assert not reports[0].skipped


def test_reports_serialize_deterministically(cylinder):
    a = run_checks(cylinder, count=15, seed=42)
    b = run_checks(cylinder, count=15, seed=42)
    dump_a = json.dumps([r.to_dict() for r in a])
    dump_b = json.dumps([r.to_dict() for r in b])
    assert dump_a == dump_b
    c = run_checks(cylinder, count=15, seed=43)
    assert json.dumps([r.to_dict() for r in c]) != dump_a


def test_registry_order_preserved(cylinder_reports):
    ordered = [cid for cid in CHECK_IDS if cid in cylinder_reports]
    assert list(cylinder_reports) == ordered


def test_pass_semantics_follow_residual_and_gate(cylinder_reports):
    for report in cylinder_reports.values():
        if report.skipped:
            assert not report.passed
        else:
            assert report.passed == (report.residual_max <= report.tolerance)


@pytest.mark.parametrize("selected", [None, ["eq9_two_path"]], ids=["all", "one_family"])
def test_gate_tolerance_override_skips_gated_checks(cylinder, selected):
    # The gate passes on this chart at its default tolerance; a negative one
    # fails it, whether or not the gate's own report is selected.
    reports = run_checks(cylinder, count=10, seed=42, selected=selected,
                         tolerances={"parallel_unit_xi": -1.0})
    gated = [r for r in reports if REGISTRY[r.check_id][2]]
    assert [r.check_id for r in gated] == (
        selected or [cid for cid, meta in REGISTRY.items() if meta[2]])
    for report in gated:
        assert report.skipped and report.gate_status == "failed", report.check_id


_RAN = (False, True, "passed", "", [])
_GATE_OK = (False, True, "passed", "max |grad pi| = #, max |g(xi,xi)-#| = #", [])
_GATE_SKIP = (True, False, "failed", "skipped: parallel unit field gate failed (residual #)", [])
_LEM2_4 = (False, True, "passed", "", ["part_i", "part_ii", "part_iii"])
_EQ5_3 = (False, True, "passed", "", ["part_i", "part_ii"])
_NOT_FLAT = "skipped: chart is not flat (max |R| = #)"
_NOT_FLAT_RR = _NOT_FLAT + "; observed max |R~.R~| = #, nonzero as the flat-iff theorem predicts"
_EQ10B_SKIP = (True, False, "passed", _NOT_FLAT, ["max_abs_R"])
_SPACE_FORM = (False, True, "not_required", "constant curvature K = # (fit residual #)", [])
_NOT_SPACE_FORM = (True, False, "not_required",
                   "skipped: curvature is not constant (space-form fit residual #)",
                   ["space_form_fit_residual"])
_DEF4_1_SKIP = (True, False, "passed", _NOT_FLAT_RR, ["max_abs_R", "max_abs_RR"])
_SEMI_SKIP = (True, False, "passed", _NOT_FLAT_RR, [])
_THM5_1_SKIP = (True, False, "passed",
                _NOT_FLAT + "; observed max |R~.P~| = # with max |S| = #",
                ["max_abs_R", "max_abs_RP", "max_abs_S"])
_GSSF = (False, True, "not_required", "", [])

# check id -> (skipped, passed, gate_status, notes with numbers masked, sorted
# extras keys) on euclidean3, cylinder_s2xr, gssf_c1 and sphere3_bad_xi; None
# where the check is not scheduled
_REPORT_PATHS = {
    "parallel_unit_xi": (_GATE_OK, _GATE_OK, _GATE_OK, (
        True, False, "failed", "gate residual # exceeds #; consistent with the declared "
        "negative control, gated checks are skipped", [])),
    **{cid: (_RAN, _RAN, _RAN, _GATE_SKIP) for cid in (
        "eq9_two_path", "thm2_1_i", "thm2_1_ii", "thm2_1_iii", "thm2_1_iv", "thm2_1_v",
        "eq11d", "eq12", "eq10", "eq11", "eq15", "lem2_6", "eq17")},
    "lem2_4": (_LEM2_4, _LEM2_4, _LEM2_4, _GATE_SKIP),
    "eq10b": ((False, True, "passed",
               "flat chart: curvature shift consistent with both projective tensors", []),
              _EQ10B_SKIP, _EQ10B_SKIP, _GATE_SKIP),
    "thm3_3_p_flat": (_SPACE_FORM, _NOT_SPACE_FORM, _NOT_SPACE_FORM, _SPACE_FORM),
    "def4_1_flat": ((False, True, "passed", "", ["max_abs_R"]),
                    _DEF4_1_SKIP, _DEF4_1_SKIP, _GATE_SKIP),
    **{cid: (_RAN, _SEMI_SKIP, _SEMI_SKIP, _GATE_SKIP) for cid in ("eq20", "eq21", "cor4_3")},
    "eq5_3": (_EQ5_3, _EQ5_3, _EQ5_3, _GATE_SKIP),
    "thm5_1_flat": ((False, True, "passed", "flat chart: derivation annihilates the projective "
                     "tensor and the Ricci tensor vanishes", []),
                    _THM5_1_SKIP, _THM5_1_SKIP, _GATE_SKIP),
    **{cid: (None, None, _GSSF, None)
       for cid in ("gssf_star1", "gssf_star2", "gssf_star3", "gssf_star4")},
}


_PINNED_CHARTS = ("euclidean3", "cylinder_s2xr", "gssf_c1", "sphere3_bad_xi")


@pytest.mark.parametrize("column, name", enumerate(_PINNED_CHARTS), ids=_PINNED_CHARTS)
def test_every_report_path_is_pinned(column, name):
    reports = _by_id(run_checks(builtin(name).spec, count=6, seed=1))
    observed = {
        cid: (r.skipped, r.passed, r.gate_status,
              re.sub(r"\d+(\.\d+)?(e[+-]\d+)?", "#", r.notes), sorted(r.extras))
        for cid, r in reports.items()
    }
    expected = {cid: row[column] for cid, row in _REPORT_PATHS.items() if row[column]}
    assert set(_REPORT_PATHS) == set(CHECK_IDS)
    assert observed == expected
