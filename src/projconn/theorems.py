"""Named verification checks: each certifies one quantified identity of the
projective semi-symmetric connection over a seeded sample set and returns a
CheckReport.

Checks derived under the parallel-unit-field hypothesis are gated: when the
gate fails they are reported as skipped, not failed.  Checks whose statement
additionally needs flatness (or constant curvature) detect that premise
numerically from the sampled metric curvature and skip with an observational
note when it does not hold, so the contrapositive direction of the
flat-if-and-only-if theorems stays visible in the reports.  Both decisions
are made in ``_reports``, from the premise table ``_PREMISES`` and the
per-check table ``_SHAPES``; the gate's own report is judged in
``_gate_report`` from the measurement ``connections.check_parallel_unit_xi``
returns.  Every residual is ``_residual``: per sample, the largest |entry|
over the defects a check names.

Default tolerances scale with the derivative order of the identity:
1e-10 for purely algebraic consequences of the curvature arrays, 1e-9 when
one more derivative enters, 1e-8 for third-derivative identities.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce

import numpy as np

from .geometry import ManifoldSpec, SampleSet, SpecError, TableStore, sample
from .connections import check_parallel_unit_xi, covariant, wedge
from .curvature import jet, lam_scale, ricci_shifts
from .report import CheckReport

__all__ = ["REGISTRY", "CHECK_IDS", "run_checks"]


# check id -> (default tolerance, family, needs parallel gate)
REGISTRY: dict[str, tuple[float, str, bool]] = {
    "parallel_unit_xi": (1e-8, "gate", False),
    "eq9_two_path": (1e-9, "curvature", True),
    "thm2_1_i": (1e-10, "curvature", True),
    "thm2_1_ii": (1e-9, "curvature", True),
    "thm2_1_iii": (1e-9, "curvature", True),
    "thm2_1_iv": (1e-10, "curvature", True),
    "thm2_1_v": (1e-8, "curvature", True),
    "eq11d": (1e-8, "curvature", True),
    "eq12": (1e-9, "curvature", True),
    "lem2_4": (1e-9, "curvature", True),
    "eq10": (1e-10, "ricci", True),
    "eq11": (1e-12, "ricci", True),
    "eq15": (1e-9, "ricci", True),
    "lem2_6": (1e-9, "ricci", True),
    "eq17": (1e-9, "projective", True),
    "eq10b": (1e-10, "projective", True),
    "thm3_3_p_flat": (1e-10, "projective", False),
    "def4_1_flat": (1e-9, "semisymmetry", True),
    "eq20": (1e-9, "semisymmetry", True),
    "eq21": (1e-10, "semisymmetry", True),
    "cor4_3": (1e-9, "semisymmetry", True),
    "eq5_3": (1e-9, "rp", True),
    "thm5_1_flat": (1e-9, "rp", True),
    "gssf_star1": (1e-10, "gssf", False),
    "gssf_star2": (1e-9, "gssf", False),
    "gssf_star3": (1e-10, "gssf", False),
    "gssf_star4": (1e-9, "gssf", False),
}

CHECK_IDS = tuple(REGISTRY)

FLAT_DETECTION_TOL = 1e-10


def _tol(check_id: str, tolerances: dict | None) -> float:
    if tolerances and check_id in tolerances:
        return float(tolerances[check_id])
    return REGISTRY[check_id][0]


def _report(check_id, spec, samples, residuals, tolerances, gate_status,
            notes, extras) -> CheckReport:
    """A ran report from per-sample residuals, or a skipped one when
    ``residuals`` is None."""
    skipped = residuals is None
    residual_max = None if skipped else float(np.max(residuals))
    tol = _tol(check_id, tolerances)
    return CheckReport(
        check_id=check_id,
        manifold=spec.name,
        samples=samples.count,
        seed=samples.seed,
        residual_max=residual_max,
        residual_mean=None if skipped else float(np.mean(residuals)),
        tolerance=tol,
        passed=not skipped and residual_max <= tol,
        gate_status=gate_status,
        skipped=skipped,
        notes=notes,
        extras=extras,
    )


def _residual(*defects: np.ndarray) -> np.ndarray:
    """The residual rule of every check: per sample, the largest |entry| over
    all the defects given, each with a leading sample axis.  A per-sample
    column counts as its own entries, so residuals compose."""
    return reduce(np.maximum, (np.maximum.reduce(np.abs(d), axis=tuple(range(1, d.ndim)))
                               for d in defects))


def _cyclic(T: np.ndarray, a: int, b: int, c: int) -> np.ndarray:
    """The cyclic sum T[x,y,z] + T[y,z,x] + T[z,x,y] over the axes (a, b, c)
    of T, from two transposed views, summed in that order."""
    bca, cab = list(range(T.ndim)), list(range(T.ndim))
    bca[a], bca[b], bca[c] = c, a, b
    cab[a], cab[b], cab[c] = b, c, a
    return T + T.transpose(bca) + T.transpose(cab)


def _pi_in_lower_slots(pi: np.ndarray, T: np.ndarray) -> np.ndarray:
    """pi_i T[l,m,j,k] + pi_j T[l,i,m,k] + pi_k T[l,i,j,m] as [s,m,l,i,j,k]:
    the bracket of eq. (11d) with T = R and of eq. (20) with T = R~."""
    return (
        np.einsum("si,slmjk->smlijk", pi, T)
        + np.einsum("sj,slimk->smlijk", pi, T)
        + np.einsum("sk,slijm->smlijk", pi, T)
    )


# ---------------------------------------------------------------------------
# per-chunk contractions: each maps one jet, whether its chunk refuted
# flatness and whether the gate passed, to per-sample columns


def _computes(check_id: str, curved: bool, gate_passed: bool) -> bool:
    """Whether a chunk computes the column of ``check_id``: not that of a
    gated check when the gate failed, nor that of a ``_FLAT_ONLY`` check
    when the chunk refuted flatness, since those checks then skip and their
    columns reach no report."""
    return (gate_passed or not REGISTRY[check_id][2]) and not (
        curved and check_id in _FLAT_ONLY
    )


def _curvature_columns(spec, j, curved, gate_passed) -> dict:
    n = spec.n
    lam = lam_scale(n)
    eye = np.eye(n)
    G, pi, xi = j.G, j.pi, j.xi
    R, Rt, Rtlow = j.lc.R, j.pr.R, j.pr.Rlow
    nabla_Rt = j.pr.nabla_R
    pi_R = np.einsum("sm,slijk->smlijk", pi, R)
    cols = {"eq9_two_path": _residual(Rt - (R + lam * j.shift))}
    cols["thm2_1_i"] = _residual(Rtlow + np.einsum("sijkl->sjikl", Rtlow))
    # the lam-terms of (ii) and (iii) are slot swaps of pi_a pi_b g_cd
    ppG = np.einsum("sa,sb,scd->sabcd", pi, pi, G)
    ikjl, jkil = np.einsum("sikjl->sijkl", ppG), np.einsum("sjkil->sijkl", ppG)
    iljk, jlik = np.einsum("siljk->sijkl", ppG), np.einsum("sjlik->sijkl", ppG)
    cols["thm2_1_ii"] = _residual(
        Rtlow + np.einsum("sijkl->sijlk", Rtlow) - lam * (ikjl - jkil + iljk - jlik)
    )
    cols["thm2_1_iii"] = _residual(Rtlow - np.einsum("sijkl->sklij", Rtlow) - lam * (iljk - jkil))
    cols["thm2_1_iv"] = _residual(_cyclic(Rt, 2, 3, 4))
    cols["thm2_1_v"] = _residual(_cyclic(nabla_Rt - 2.0 * pi_R, 1, 3, 4))
    rhs_11d = (
        j.lc.nabla_R
        + (2.0 / (n + 1)) * pi_R
        - (n / (n + 1.0)) * _pi_in_lower_slots(pi, R)
        - (2.0 * lam * (n - 1) / (n + 1)) * j.pi_shift
    )
    cols["eq11d"] = _residual(nabla_Rt - rhs_11d)
    cols["eq12"] = _residual(j.nullity_defect)
    d1 = j.xi_Rt - lam * (
        np.einsum("sk,lj->sljk", pi, eye) - np.einsum("sj,sk,sl->sljk", pi, pi, xi)
    )
    d2 = np.einsum("slijk,sj->slik", Rt, xi) - lam * (
        np.einsum("sk,si,sl->slik", pi, pi, xi) - np.einsum("sk,li->slik", pi, eye)
    )
    d3 = np.einsum("sl,slijk->sijk", pi, Rt)
    cols["part_i"], cols["part_ii"], cols["part_iii"] = _residual(d1), _residual(d2), _residual(d3)
    cols["lem2_4"] = _residual(cols["part_i"], cols["part_ii"], cols["part_iii"])
    return cols


def _ricci_columns(spec, j, curved, gate_passed) -> dict:
    """Both Ricci tensors are differentiated with the metric connection: that
    is the reading under which the shift identity differentiates to an exact
    statement, since the shift term is parallel together with the field."""
    _, _, ricci_defect, scalar_defect = ricci_shifts(j)
    Gamma = j.lc.Gamma
    nabla_S = covariant(Gamma, j.lc.S, j.lc.dS, "ll")
    nabla_St = covariant(Gamma, j.pr.S, j.pr.dS, "ll")
    codazzi = (nabla_St - np.einsum("smjk->sjmk", nabla_St)) - (
        nabla_S - np.einsum("smjk->sjmk", nabla_S)
    )
    return {
        "eq10": _residual(ricci_defect),
        "eq11": _residual(scalar_defect),
        "eq15": _residual(nabla_St - nabla_S),
        "lem2_6": _residual(codazzi, _cyclic(nabla_St, 1, 2, 3) - _cyclic(nabla_S, 1, 2, 3)),
    }


def _projective_columns(spec, j, curved, gate_passed) -> dict:
    """The space-form premise of ``thm3_3_p_flat`` is detected by a
    least-squares fit of the sampled curvature to K times the unit pattern
    g_jk g_il - g_ik g_jl.  The fit sums are kept per chunk, and so are the
    lowered curvature and the pattern for the fit residual: both exactly
    antisymmetric in (i, j), so their i < j half carries every |entry|.
    Only the gated eq17 and eq10b read the projective connection."""
    lam = lam_scale(spec.n)
    P, G, Rlow = j.lc.P, j.G, j.lc.Rlow
    pattern = np.einsum("sjk,sil->sijkl", G, G) - np.einsum("sik,sjl->sijkl", G, G)
    half = np.triu_indices(spec.n, 1)
    cols = {
        "Rlow": Rlow[:, half[0], half[1]],
        "pattern": pattern[:, half[0], half[1]],
        "fit_num": np.sum(Rlow * pattern, axis=(1, 2, 3, 4)),
        "fit_den": np.sum(pattern * pattern, axis=(1, 2, 3, 4)),
        "thm3_3_p_flat": _residual(P),
    }
    if _computes("eq17", curved, gate_passed):
        cols["eq17"] = _residual(j.pr.P - P)
    if _computes("eq10b", curved, gate_passed):  # gated too, so eq17's column is there
        cols["eq10b"] = _residual(j.pr.R - (P + lam * j.shift), cols["eq17"])
    return cols


def _semisymmetry_columns(spec, j, curved, gate_passed) -> dict:
    """Every check here has the flat premise.  On non-flat charts the checks
    skip but still report the observed max |R| and |R~.R~|: that is the
    contrapositive direction of the flat-iff-semi-symmetric theorem.  So a
    chunk that refuted flatness computes the R~.R~ maxima alone."""
    n = spec.n
    lam = lam_scale(n)
    pi, Rt = j.pi, j.pr.R
    rho = -2.0 * (n - 1) / (n + 1.0) * pi
    cols = {"def4_1_flat": j.derivation_maxima[0]}
    if _computes("eq20", curved, gate_passed):
        applied = covariant(j.xi_Rt, Rt, None, "ulll")  # R~(xi, e_m) . R~
        rhs_20 = -lam * _pi_in_lower_slots(pi, Rt) + 2.0 * lam * lam * j.pi_shift
        cols["eq20"] = _residual(applied - rhs_20)
    if _computes("eq21", curved, gate_passed):
        cols["eq21"] = _residual(Rt - lam * j.shift)
    if _computes("cor4_3", curved, gate_passed):
        cols["cor4_3"] = _residual(j.pr.nabla_R - np.einsum("sm,slijk->smlijk", rho, Rt))
    return cols


def _rp_columns(spec, j, curved, gate_passed) -> dict:
    """``thm5_1_flat`` joins what flatness gives: R~.P~ = 0, S = 0 and P~
    equal to both R and P.  On non-flat charts it skips but reports the
    observed max |R~.P~| and max |S|."""
    n = spec.n
    eye = np.eye(n)
    pi, xi, R, S, P, Pt = j.pi, j.xi, j.lc.R, j.lc.S, j.lc.P, j.pr.P
    S_xi = np.einsum("sjk,sk->sj", S, xi)
    d_i = np.einsum("slijk,si->sljk", Pt, xi) - (
        np.einsum("sk,lj->sljk", S_xi, eye) - np.einsum("sjk,sl->sljk", S, xi)
    ) / (n - 1.0)
    d_ii = np.einsum("sl,slijk->sijk", pi, Pt) - (
        np.einsum("sj,sik->sijk", pi, S) - np.einsum("si,sjk->sijk", pi, S)
    ) / (n - 1.0)
    rp = j.derivation_maxima[1]
    max_S, part_i, part_ii = _residual(S), _residual(d_i), _residual(d_ii)
    cols = {
        "part_i": part_i,
        "part_ii": part_ii,
        "eq5_3": _residual(part_i, part_ii),
        "max_RP": rp,
        "max_S": max_S,
    }
    if _computes("thm5_1_flat", curved, gate_passed):
        cols["thm5_1_flat"] = _residual(rp, max_S, Pt - R, Pt - P)
    return cols


def _gssf_columns(spec, j, curved, gate_passed) -> dict:
    """For charts carrying the almost-contact structure (phi, f1, f2, f3):
    the structure identities, the three-term curvature shape with the
    chart's coefficient functions, the annihilation of the field by the
    curvature, and the nullity form of the projective curvature."""
    eye = np.eye(spec.n)
    G, pi, xi, phi, R = j.G, j.pi, j.xi, j.phi, j.lc.R
    f1, f2, f3 = j.f.T[:, :, None, None, None, None]
    square = np.einsum("sim,smj->sij", phi, phi) + eye - np.einsum("si,sj->sij", xi, pi)
    kills_field = np.einsum("sij,sj->si", phi, xi)
    unit = np.einsum("si,si->s", pi, xi) - 1.0
    compat = np.einsum("sab,sai,sbj->sij", G, phi, phi) - (
        G - np.einsum("si,sj->sij", pi, pi)
    )
    A = np.einsum("sim,smk->sik", G, phi)  # A[i,k] = g(d_i, phi d_k)
    rhs = (
        f1 * wedge(G)
        + f2 * (
            np.einsum("sik,slj->slijk", A, phi)
            - np.einsum("sjk,sli->slijk", A, phi)
            + 2.0 * np.einsum("sij,slk->slijk", A, phi)
        )
        + f3 * (
            j.shift
            + np.einsum("sik,sj,sl->slijk", G, pi, xi)
            - np.einsum("sjk,si,sl->slijk", G, pi, xi)
        )
    )
    return {
        "gssf_star1": _residual(square, kills_field, unit, compat),
        "gssf_star2": _residual(R - rhs),
        "gssf_star3": _residual(np.einsum("slijk,sk->slij", R, xi)),
        "gssf_star4": _residual(j.nullity_defect),
    }


# ---------------------------------------------------------------------------
# reports from the columns of all samples


# observed value a report can name -> the column it is the largest value of
_MAXIMA = {"max_abs_R": "max_R", "max_abs_RR": "def4_1_flat", "max_abs_RP": "max_RP",
           "max_abs_S": "max_S", "part_i": "part_i", "part_ii": "part_ii", "part_iii": "part_iii"}


def _observed(cols) -> dict:
    """The values a family's reports can name, over all samples: the maxima
    of its columns and, where it has the space-form fit sums, the fitted
    curvature K and the fit residual."""
    seen = {name: float(np.max(cols[col])) for name, col in _MAXIMA.items() if col in cols}
    if "fit_num" in cols:
        den = float(np.sum(cols["fit_den"]))
        K = seen["K"] = float(np.sum(cols["fit_num"])) / den if den > 0 else 0.0
        seen["space_form_fit_residual"] = max(
            float(np.max(_residual(Rlow - K * pattern)))
            for Rlow, pattern in zip(cols["Rlow"], cols["pattern"])
        )
    return seen


def _is_flat(max_abs_R: float) -> bool:
    """The flat premise, from the largest |R| over some samples.  Over all
    of them it decides the premise; over one chunk's, a False refutes it
    for the whole sample set, whose largest |R| is at least the chunk's."""
    return max_abs_R <= FLAT_DETECTION_TOL


# premise -> (whether it holds, from the observed values; why a skip skipped)
_PREMISES = {
    "flat": (
        lambda seen: _is_flat(seen["max_abs_R"]),
        "chart is not flat (max |R| = {max_abs_R:.2e})",
    ),
    "space form": (
        lambda seen: seen["space_form_fit_residual"] <= 1e-8 * (1.0 + abs(seen["K"])),
        "curvature is not constant (space-form fit residual {space_form_fit_residual:.2e})",
    ),
}

_SEEN_RR = "; observed max |R~.R~| = {max_abs_RR:.2e}, nonzero as the flat-iff theorem predicts"

# check -> (premise, notes of a ran report, what a skip adds to the premise's
# note, observed values a ran report carries in extras, those a skipped one
# carries).  A check not listed has no premise, no notes and no extras.
_SHAPES = {
    "lem2_4": (None, "", "", ("part_i", "part_ii", "part_iii"), ()),
    "eq10b": ("flat", "flat chart: curvature shift consistent with both projective tensors",
              "", (), ("max_abs_R",)),
    "thm3_3_p_flat": ("space form",
                      "constant curvature K = {K:.6g} (fit residual {space_form_fit_residual:.2e})",
                      "", (), ("space_form_fit_residual",)),
    "def4_1_flat": ("flat", "", _SEEN_RR, ("max_abs_R",), ("max_abs_R", "max_abs_RR")),
    "eq20": ("flat", "", _SEEN_RR, (), ()),
    "eq21": ("flat", "", _SEEN_RR, (), ()),
    "cor4_3": ("flat", "", _SEEN_RR, (), ()),
    "eq5_3": (None, "", "", ("part_i", "part_ii"), ()),
    "thm5_1_flat": ("flat",
                    "flat chart: derivation annihilates the projective tensor and the Ricci tensor vanishes",
                    "; observed max |R~.P~| = {max_abs_RP:.2e} with max |S| = {max_abs_S:.2e}",
                    (), ("max_abs_R", "max_abs_RP", "max_abs_S")),
}

# the checks whose column a chunk that refuted flatness does not compute:
# their premise is flatness and no observed value reads their column
_FLAT_ONLY = frozenset(
    cid for cid, shape in _SHAPES.items()
    if shape[0] == "flat" and cid not in _MAXIMA.values()
)

# the families with a flat-premise check, whose columns carry max |R|
_FLAT_PREMISED = frozenset(REGISTRY[cid][1] for cid, shape in _SHAPES.items()
                           if shape[0] == "flat")


def _reports(family, spec, samples, cols, tolerances, gate_report) -> list[CheckReport]:
    """One report per check of the family, in registry order.

    A gated check skips when the gate failed.  Otherwise a check skips when
    its premise does not hold and runs when it does.  ``cols`` is empty when
    the family did not run, which happens only when all of its checks are
    gated and the gate failed.
    """
    seen = _observed(cols)
    reports = []
    for cid in _family_ids(family):
        premise, notes, skip_notes, extras, skip_extras = _SHAPES.get(cid, (None, "", "", (), ()))
        gated = REGISTRY[cid][2]
        status = "passed" if gated else "not_required"
        residuals = None
        if gated and gate_report.gate_status != "passed":
            status, extras = "failed", ()
            notes = ("skipped: parallel unit field gate failed "
                     f"(residual {gate_report.residual_max:.2e})")
        elif premise and not _PREMISES[premise][0](seen):
            extras = skip_extras
            notes = ("skipped: " + _PREMISES[premise][1] + skip_notes).format_map(seen)
        else:
            residuals, notes = cols[cid], notes.format_map(seen)
        reports.append(_report(cid, spec, samples, residuals, tolerances, status, notes,
                               {key: seen[key] for key in extras}))
    return reports


def _spread(column: np.ndarray, count: int) -> np.ndarray:
    """A per-sample column of the walked samples at the sample count: the
    column itself, or the value of the one walked sample repeated."""
    if len(column) == count:
        return column
    if len(column) != 1:
        raise ValueError(f"a column of {len(column)} samples cannot stand for {count}")
    return np.repeat(column, count)


def _gate_report(spec, samples, nabla, unit, tolerances) -> CheckReport:
    """The ``parallel_unit_xi`` report from the gate's per-sample measurement
    |grad pi| and |g(xi,xi) - 1| (``connections.check_parallel_unit_xi``).

    The report also verifies the chart's declared flag: a declared negative
    control that indeed fails the gate is marked skipped (so suite exit codes
    stay clean), while a chart that declares parallel xi and fails, or
    declares the negative control and measures parallel, is a genuine
    failure.
    """
    residuals = _residual(nabla, unit)
    nabla_max, unit_max, residual = (float(np.max(a)) for a in (nabla, unit, residuals))
    tol = _tol("parallel_unit_xi", tolerances)
    measured_parallel = residual <= tol
    declared = spec.parallel_xi_expected
    if measured_parallel and declared:
        notes = f"max |grad pi| = {nabla_max:.2e}, max |g(xi,xi)-1| = {unit_max:.2e}"
    elif measured_parallel:
        notes = ("declared parallel_xi_expected=false but the field measures "
                 f"parallel (residual {residual:.2e})")
    elif not declared:
        notes = (f"gate residual {residual:.2e} exceeds {tol:.0e}; consistent "
                 "with the declared negative control, gated checks are skipped")
    else:
        notes = ("declared parallel unit field fails the gate: max |grad pi| = "
                 f"{nabla_max:.2e}, max |g(xi,xi)-1| = {unit_max:.2e}")
    return CheckReport("parallel_unit_xi", spec.name, samples.count, samples.seed,
                       residual, float(np.mean(residuals)), tol,
                       passed=measured_parallel and declared,
                       gate_status="passed" if measured_parallel else "failed",
                       skipped=not (measured_parallel or declared), notes=notes)


# ---------------------------------------------------------------------------
# orchestration


# family -> contraction of one chunk's jet into per-sample columns
_FAMILY_RUNNERS = {
    "curvature": _curvature_columns,
    "ricci": _ricci_columns,
    "projective": _projective_columns,
    "semisymmetry": _semisymmetry_columns,
    "rp": _rp_columns,
    "gssf": _gssf_columns,
}

# family -> jet order its contractions need
_FAMILIES = {"curvature": 3, "ricci": 3, "projective": 2, "semisymmetry": 3, "rp": 2, "gssf": 2}

# families built on the projective tensor, which needs n > 2
_NEEDS_N_ABOVE_TWO = {"projective", "rp"}


def _family_ids(family: str) -> list[str]:
    return [cid for cid, meta in REGISTRY.items() if meta[1] == family]


def run_checks(
    spec: ManifoldSpec,
    samples=None,
    *,
    count: int = 200,
    seed: int = 42,
    tolerances: dict | None = None,
    selected: list[str] | None = None,
) -> list[CheckReport]:
    """Run the selected checks (default: every applicable one) and return
    their reports in registry order.

    Every family with a selected check runs whole; its checks are reported
    only when selected.  The gate runs once, at its tolerance in
    ``tolerances``; the families then walk the samples in order, in chunks,
    sharing one jet per chunk at the highest order they need.  The gate's
    pass and every chunk's jet read the chart tables from one
    ``TableStore``, which evaluates each block of them once.  A family
    whose checks are all gated does not run when the gate fails, and a
    family that still runs then computes no column of a gated check; each
    chunk's jet then completes the Levi-Civita connection alone
    (``Jet.complete``), and builds the projective one only if a column
    computed there reads it (``gssf_star4`` does).  On a
    coordinate-free chart (``ManifoldSpec.coordinate_free``), whose jet is
    the same at every sample, the gate and the walk run on the first
    sample only, and each per-sample column (the gate's two and every
    family's) is its value repeated to the sample count, so means, maxima
    and the space-form fit sums run over the values a walk of every sample
    would give.
    Once a chunk's max |R| refutes flatness (``_is_flat``), that chunk
    computes no column of a ``_FLAT_ONLY`` check, whose premise is
    flatness (``_computes`` holds both rules); the walk joins only the
    columns every chunk computed.  Whether a check runs is still decided
    in ``_reports`` alone, and such a check skips there, since a chunk's
    max |R| bounds the whole set's from below.
    Deterministic: the same spec, seed, count and tolerance map produce
    byte-identical serialized reports.
    """
    if samples is None:
        samples = sample(spec, count, seed)
    for ids, where in ((selected, ""), (tolerances, " in tolerances")):
        unknown = [cid for cid in ids or () if cid not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown check id(s){where}: {', '.join(unknown)}")
    if selected is not None:
        wanted = set(selected)
    else:
        inapplicable = {"gssf"} if spec.phi is None else set()
        if spec.n <= 2:
            inapplicable |= _NEEDS_N_ABOVE_TWO
        wanted = {cid for cid, meta in REGISTRY.items() if meta[1] not in inapplicable}
    families = [family for family in _FAMILIES
                if any(REGISTRY[cid][1] == family for cid in wanted)]
    for family in families:
        if family in _NEEDS_N_ABOVE_TWO:
            spec.require_dimension_above_two()
        if family == "gssf" and None in (spec.phi, spec.f1, spec.f2, spec.f3):
            raise SpecError(
                f"chart {spec.name!r} is missing the structure fields "
                "(phi, f1, f2, f3) required by the almost-contact checks"
            )
    walked = samples  # a coordinate-free chart has one jet, bit for bit: walk its first sample
    if spec.coordinate_free:
        walked = SampleSet(samples.seed, samples.points[:1])
    store = TableStore(spec, walked)
    nabla, unit = (_spread(column, samples.count)
                   for column in check_parallel_unit_xi(spec, walked, store))
    gate = _gate_report(spec, samples, nabla, unit, tolerances)
    gate_passed = gate.gate_status == "passed"
    running = [
        family for family in families
        if gate_passed or not all(REGISTRY[cid][2] for cid in _family_ids(family))
    ]
    columns = {family: defaultdict(list) for family in running}
    chunks = walked.chunks()
    if running:
        order = max(_FAMILIES[family] for family in running)
        for lo, hi in chunks:
            j = jet(spec, walked.points[lo:hi], order, store.rows(lo, hi)).complete(gate_passed)
            max_R = _residual(j.lc.R)
            curved = not _is_flat(float(np.max(max_R)))
            for family in running:
                cols = _FAMILY_RUNNERS[family](spec, j, curved, gate_passed)
                if family in _FLAT_PREMISED:
                    cols["max_R"] = max_R
                for key, col in cols.items():
                    columns[family][key].append(col)
            del j  # this chunk's jet goes before the next one is built
    by_id = {"parallel_unit_xi": gate}
    for family in families:
        # Per-sample values are joined across chunks and spread to the
        # sample count; per-sample tensors stay one array per walked chunk,
        # so they are never copied whole.  A column some chunk did not
        # compute belongs to a check that skips: its premise was refuted
        # there, or the gate failed.
        cols = {
            key: _spread(np.concatenate(parts), samples.count) if parts[0].ndim == 1 else parts
            for key, parts in columns.get(family, {}).items() if len(parts) == len(chunks)
        }
        for rep in _reports(family, spec, samples, cols, tolerances, gate):
            by_id[rep.check_id] = rep
    return [by_id[cid] for cid in REGISTRY if cid in wanted]
