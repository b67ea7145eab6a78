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
per-check table ``_SHAPES``.

Default tolerances scale with the derivative order of the identity:
1e-10 for purely algebraic consequences of the curvature arrays, 1e-9 when
one more derivative enters, 1e-8 for third-derivative identities.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .geometry import ManifoldSpec, SpecError, sample
from .connections import check_parallel_unit_xi, covariant
from .curvature import (
    derivation_all_frames,
    jet,
    lam_scale,
    ricci_contraction,
    ricci_shifts,
)
from .report import CheckReport

__all__ = ["REGISTRY", "CHECK_IDS", "run_checks"]


# check id -> (default tolerance, family, needs parallel gate, needs n > 2)
REGISTRY: dict[str, tuple[float, str, bool, bool]] = {
    "parallel_unit_xi": (1e-8, "gate", False, False),
    "eq9_two_path": (1e-9, "curvature", True, False),
    "thm2_1_i": (1e-10, "curvature", True, False),
    "thm2_1_ii": (1e-9, "curvature", True, False),
    "thm2_1_iii": (1e-9, "curvature", True, False),
    "thm2_1_iv": (1e-10, "curvature", True, False),
    "thm2_1_v": (1e-8, "curvature", True, False),
    "eq11d": (1e-8, "curvature", True, False),
    "eq12": (1e-9, "curvature", True, False),
    "lem2_4": (1e-9, "curvature", True, False),
    "eq10": (1e-10, "ricci", True, False),
    "eq11": (1e-12, "ricci", True, False),
    "eq15": (1e-9, "ricci", True, False),
    "lem2_6": (1e-9, "ricci", True, False),
    "eq17": (1e-9, "projective", True, True),
    "eq10b": (1e-10, "projective", True, True),
    "thm3_3_p_flat": (1e-10, "projective", False, True),
    "def4_1_flat": (1e-9, "semisymmetry", True, False),
    "eq20": (1e-9, "semisymmetry", True, False),
    "eq21": (1e-10, "semisymmetry", True, False),
    "cor4_3": (1e-9, "semisymmetry", True, False),
    "eq5_3": (1e-9, "rp", True, True),
    "thm5_1_flat": (1e-9, "rp", True, True),
    "gssf_star1": (1e-10, "gssf", False, False),
    "gssf_star2": (1e-9, "gssf", False, False),
    "gssf_star3": (1e-10, "gssf", False, False),
    "gssf_star4": (1e-9, "gssf", False, False),
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


def _max_abs(arr: np.ndarray) -> np.ndarray:
    """Per-sample max |entry| of an array with a leading sample axis."""
    return np.max(np.abs(arr), axis=tuple(range(1, arr.ndim)))


def _curvature_shift(pi: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """pi_i pi_k d^l_j - pi_j pi_k d^l_i, the curvature shift per unit lam."""
    return np.einsum("si,sk,lj->slijk", pi, pi, eye) - np.einsum(
        "sj,sk,li->slijk", pi, pi, eye
    )


def _nullity_defect(j, Rt: np.ndarray, lam: float, eye: np.ndarray) -> np.ndarray:
    """R~(X,Y)xi - lam {pi(X) Y - pi(Y) X} in components."""
    return np.einsum("slijk,sk->slij", Rt, j.xi) - lam * (
        np.einsum("si,lj->slij", j.pi, eye) - np.einsum("sj,li->slij", j.pi, eye)
    )


# ---------------------------------------------------------------------------
# per-chunk contractions: each maps one jet to per-sample columns


def _curvature_columns(spec, j) -> dict:
    n = spec.n
    lam = lam_scale(n)
    eye = np.eye(n)
    G, pi, xi = j.G, j.pi, j.xi
    R, Rt, Rtlow = j.lc.R, j.pr.R, j.pr.Rlow
    nabla_Rt = j.pr.nabla_R
    shift = _curvature_shift(pi, eye)
    pi_R = np.einsum("sm,slijk->smlijk", pi, R)
    cols = {"eq9_two_path": _max_abs(Rt - (R + lam * shift))}
    cols["thm2_1_i"] = _max_abs(Rtlow + np.einsum("sijkl->sjikl", Rtlow))
    defect_ii = lam * (
        np.einsum("si,sk,sjl->sijkl", pi, pi, G)
        - np.einsum("sj,sk,sil->sijkl", pi, pi, G)
        + np.einsum("si,sl,sjk->sijkl", pi, pi, G)
        - np.einsum("sj,sl,sik->sijkl", pi, pi, G)
    )
    cols["thm2_1_ii"] = _max_abs(Rtlow + np.einsum("sijkl->sijlk", Rtlow) - defect_ii)
    defect_iii = lam * (
        np.einsum("si,sl,sjk->sijkl", pi, pi, G)
        - np.einsum("sj,sk,sil->sijkl", pi, pi, G)
    )
    cols["thm2_1_iii"] = _max_abs(Rtlow - np.einsum("sijkl->sklij", Rtlow) - defect_iii)
    cols["thm2_1_iv"] = _max_abs(
        Rt + np.einsum("slxyz->slzxy", Rt) + np.einsum("slxyz->slyzx", Rt)
    )
    cyclic = (
        nabla_Rt
        + np.einsum("siljmk->smlijk", nabla_Rt)
        + np.einsum("sjlmik->smlijk", nabla_Rt)
    )
    rhs_v = 2.0 * (
        pi_R
        + np.einsum("si,sljmk->smlijk", pi, R)
        + np.einsum("sj,slmik->smlijk", pi, R)
    )
    cols["thm2_1_v"] = _max_abs(cyclic - rhs_v)
    rhs_11d = (
        j.lc.nabla_R
        + (2.0 / (n + 1)) * pi_R
        - (n / (n + 1.0)) * (
            np.einsum("si,slmjk->smlijk", pi, R)
            + np.einsum("sj,slimk->smlijk", pi, R)
            + np.einsum("sk,slijm->smlijk", pi, R)
        )
        - (2.0 * lam * (n - 1) / (n + 1))
        * np.einsum("sm,slijk->smlijk", pi, shift)
    )
    cols["eq11d"] = _max_abs(nabla_Rt - rhs_11d)
    cols["eq12"] = _max_abs(_nullity_defect(j, Rt, lam, eye))
    d1 = np.einsum("slijk,si->sljk", Rt, xi) - lam * (
        np.einsum("sk,lj->sljk", pi, eye) - np.einsum("sj,sk,sl->sljk", pi, pi, xi)
    )
    d2 = np.einsum("slijk,sj->slik", Rt, xi) - lam * (
        np.einsum("sk,si,sl->slik", pi, pi, xi) - np.einsum("sk,li->slik", pi, eye)
    )
    d3 = np.einsum("sl,slijk->sijk", pi, Rt)
    cols["part_i"], cols["part_ii"], cols["part_iii"] = _max_abs(d1), _max_abs(d2), _max_abs(d3)
    cols["lem2_4"] = np.maximum.reduce([cols["part_i"], cols["part_ii"], cols["part_iii"]])
    return cols


def _ricci_columns(spec, j) -> dict:
    """Both Ricci tensors are differentiated with the metric connection: that
    is the reading under which the shift identity differentiates to an exact
    statement, since the shift term is parallel together with the field."""
    _, _, ricci_residual, scalar_residual = ricci_shifts(j)
    Gamma = j.lc.Gamma
    nabla_S = covariant(Gamma, j.lc.S, ricci_contraction(j.lc.dR), "ll")
    nabla_St = covariant(Gamma, j.pr.S, ricci_contraction(j.pr.dR), "ll")

    def cyclic(T):
        return T + np.einsum("sjkm->smjk", T) + np.einsum("skmj->smjk", T)

    codazzi = (nabla_St - np.einsum("smjk->sjmk", nabla_St)) - (
        nabla_S - np.einsum("smjk->sjmk", nabla_S)
    )
    return {
        "eq10": ricci_residual,
        "eq11": scalar_residual,
        "eq15": _max_abs(nabla_St - nabla_S),
        "lem2_6": np.maximum(_max_abs(codazzi), _max_abs(cyclic(nabla_St) - cyclic(nabla_S))),
    }


def _space_form_pattern(G: np.ndarray) -> np.ndarray:
    """g_jk g_il - g_ik g_jl: the lowered curvature of unit constant curvature."""
    return np.einsum("sjk,sil->sijkl", G, G) - np.einsum("sik,sjl->sijkl", G, G)


def _projective_columns(spec, j) -> dict:
    """The space-form premise of ``thm3_3_p_flat`` is detected by a
    least-squares fit of the sampled curvature to K times the unit pattern;
    the fit sums and the lowered curvature are kept per chunk for that."""
    lam = lam_scale(spec.n)
    eye = np.eye(spec.n)
    R, Rt, P, Pt = j.lc.R, j.pr.R, j.lc.P, j.pr.P
    pattern = _space_form_pattern(j.G)
    coincidence = _max_abs(Pt - P)
    return {
        "max_R": _max_abs(R),
        "Rlow": j.lc.Rlow,
        "G": j.G,
        "fit_num": np.sum(j.lc.Rlow * pattern, axis=(1, 2, 3, 4)),
        "fit_den": np.sum(pattern * pattern, axis=(1, 2, 3, 4)),
        "eq17": coincidence,
        "eq10b": np.maximum(
            _max_abs(Rt - (P + lam * _curvature_shift(j.pi, eye))), coincidence
        ),
        "thm3_3_p_flat": _max_abs(P),
    }


def _semisymmetry_columns(spec, j) -> dict:
    """Every check here has the flat premise.  On non-flat charts the checks
    skip but still report the observed max |R| and |R~.R~|: that is the
    contrapositive direction of the flat-iff-semi-symmetric theorem."""
    n = spec.n
    lam = lam_scale(n)
    eye = np.eye(n)
    pi, xi, Rt = j.pi, j.xi, j.pr.R
    rr = derivation_all_frames(Rt, Rt)
    rho = -2.0 * (n - 1) / (n + 1.0) * pi
    shift = _curvature_shift(pi, eye)
    applied = covariant(np.einsum("sa,slabm->slbm", xi, Rt), Rt, None, "ulll")  # R~(xi, e_b) . R~
    rhs_20 = -lam * (
        np.einsum("sz,slbuv->sblzuv", pi, Rt)
        + np.einsum("su,slzbv->sblzuv", pi, Rt)
        + np.einsum("sv,slzub->sblzuv", pi, Rt)
    ) + 2.0 * lam * lam * np.einsum("sb,slzuv->sblzuv", pi, shift)
    return {
        "max_R": _max_abs(j.lc.R),
        "def4_1_flat": _max_abs(rr),
        "eq20": _max_abs(applied - rhs_20),
        "eq21": _max_abs(Rt - lam * shift),
        "cor4_3": _max_abs(j.pr.nabla_R - np.einsum("sm,slijk->smlijk", rho, Rt)),
    }


def _rp_columns(spec, j) -> dict:
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
    rp = _max_abs(derivation_all_frames(j.pr.R, Pt))
    max_S = _max_abs(S)
    part_i, part_ii = _max_abs(d_i), _max_abs(d_ii)
    return {
        "part_i": part_i,
        "part_ii": part_ii,
        "eq5_3": np.maximum(part_i, part_ii),
        "max_R": _max_abs(R),
        "max_RP": rp,
        "max_S": max_S,
        "thm5_1_flat": np.maximum.reduce([rp, max_S, _max_abs(Pt - R), _max_abs(Pt - P)]),
    }


def _gssf_columns(spec, j) -> dict:
    """For charts carrying the almost-contact structure (phi, f1, f2, f3):
    the structure identities, the three-term curvature shape with the
    chart's coefficient functions, the annihilation of the field by the
    curvature, and the nullity form of the projective curvature."""
    n = spec.n
    lam = lam_scale(n)
    eye = np.eye(n)
    G, pi, xi, R = j.G, j.pi, j.xi, j.lc.R
    phi = spec.tables.values("phi", 0, j.points)
    f1, f2, f3 = spec.tables.values("f", 0, j.points).T[:, :, None, None, None, None]
    square = np.einsum("sim,smj->sij", phi, phi) + eye - np.einsum("si,sj->sij", xi, pi)
    kills_field = np.einsum("sij,sj->si", phi, xi)
    unit = np.abs(np.einsum("si,si->s", pi, xi) - 1.0)
    compat = np.einsum("sab,sai,sbj->sij", G, phi, phi) - (
        G - np.einsum("si,sj->sij", pi, pi)
    )
    A = np.einsum("sim,smk->sik", G, phi)  # A[i,k] = g(d_i, phi d_k)
    rhs = (
        f1 * (np.einsum("sjk,li->slijk", G, eye) - np.einsum("sik,lj->slijk", G, eye))
        + f2 * (
            np.einsum("sik,slj->slijk", A, phi)
            - np.einsum("sjk,sli->slijk", A, phi)
            + 2.0 * np.einsum("sij,slk->slijk", A, phi)
        )
        + f3 * (
            _curvature_shift(pi, eye)
            + np.einsum("sik,sj,sl->slijk", G, pi, xi)
            - np.einsum("sjk,si,sl->slijk", G, pi, xi)
        )
    )
    return {
        "gssf_star1": np.maximum.reduce(
            [_max_abs(square), _max_abs(kills_field), unit, _max_abs(compat)]
        ),
        "gssf_star2": _max_abs(R - rhs),
        "gssf_star3": _max_abs(np.einsum("slijk,sk->slij", R, xi)),
        "gssf_star4": _max_abs(_nullity_defect(j, j.pr.R, lam, eye)),
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
            float(np.max(np.abs(Rlow - K * _space_form_pattern(G))))
            for Rlow, G in zip(cols["Rlow"], cols["G"])
        )
    return seen


# premise -> (whether it holds, from the observed values; why a skip skipped)
_PREMISES = {
    "flat": (
        lambda seen: seen["max_abs_R"] <= FLAT_DETECTION_TOL,
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
    sharing one jet per chunk at the highest order they need.  A family
    whose checks are all gated does not run when the gate fails.
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
        wanted = set(REGISTRY)
        if spec.phi is None:
            wanted -= {cid for cid, meta in REGISTRY.items() if meta[1] == "gssf"}
        if spec.n <= 2:
            wanted -= {cid for cid, meta in REGISTRY.items() if meta[3]}
    families = [family for family in _FAMILIES
                if any(REGISTRY[cid][1] == family for cid in wanted)]
    for family in families:
        if any(REGISTRY[cid][3] for cid in _family_ids(family)):
            spec.require_dimension_above_two()
        if family == "gssf" and None in (spec.phi, spec.f1, spec.f2, spec.f3):
            raise SpecError(
                f"chart {spec.name!r} is missing the structure fields "
                "(phi, f1, f2, f3) required by the almost-contact checks"
            )
    gate = check_parallel_unit_xi(
        spec, samples, tolerance=_tol("parallel_unit_xi", tolerances)
    )
    running = [
        family for family in families
        if gate.gate_status == "passed"
        or not all(REGISTRY[cid][2] for cid in _family_ids(family))
    ]
    columns = {family: defaultdict(list) for family in running}
    if running:
        order = max(_FAMILIES[family] for family in running)
        for lo, hi in samples.chunks():
            j = jet(spec, samples.points[lo:hi], order)
            for family in running:
                for key, col in _FAMILY_RUNNERS[family](spec, j).items():
                    columns[family][key].append(col)
    by_id = {"parallel_unit_xi": gate}
    for family in families:
        # Per-sample values are joined across chunks; per-sample tensors
        # stay one array per chunk, so they are never copied whole.
        cols = {
            key: np.concatenate(parts) if parts[0].ndim == 1 else parts
            for key, parts in columns.get(family, {}).items()
        }
        for rep in _reports(family, spec, samples, cols, tolerances, gate):
            by_id[rep.check_id] = rep
    return [by_id[cid] for cid in REGISTRY if cid in wanted]
