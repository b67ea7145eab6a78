"""Named verification checks: each certifies one quantified identity of the
projective semi-symmetric connection over a seeded sample set and returns a
CheckReport.

Checks derived under the parallel-unit-field hypothesis are gated: when the
gate fails they are reported as skipped, not failed.  Checks whose statement
additionally needs flatness (or constant curvature) detect that premise
numerically from the sampled metric curvature and skip with an observational
note when it does not hold, so the contrapositive direction of the
flat-if-and-only-if theorems stays visible in the reports.

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
    projective_tensor,
    ricci_contraction,
    ricci_shifts,
)
from .report import CheckReport

__all__ = [
    "REGISTRY",
    "CHECK_IDS",
    "default_tolerance",
    "run_checks",
    "check_curvature_identities",
    "check_ricci_relations",
    "check_projective_coincidence",
    "check_semisymmetry",
    "check_rp_condition",
    "check_gssf_example",
]


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


def default_tolerance(check_id: str) -> float:
    return REGISTRY[check_id][0]


def _tol(check_id: str, tolerances: dict | None) -> float:
    if tolerances and check_id in tolerances:
        return float(tolerances[check_id])
    return default_tolerance(check_id)


def _report(check_id, spec, samples, residuals, tolerances, gate_status,
            notes="", extras=None) -> CheckReport:
    residual_max = float(np.max(residuals))
    residual_mean = float(np.mean(residuals))
    tol = _tol(check_id, tolerances)
    return CheckReport(
        check_id=check_id,
        manifold=spec.name,
        samples=samples.count,
        seed=samples.seed,
        residual_max=residual_max,
        residual_mean=residual_mean,
        tolerance=tol,
        passed=residual_max <= tol,
        gate_status=gate_status,
        skipped=False,
        notes=notes,
        extras=extras or {},
    )


def _skip(check_id, spec, samples, tolerances, gate_status, notes, extras=None) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        manifold=spec.name,
        samples=samples.count,
        seed=samples.seed,
        residual_max=None,
        residual_mean=None,
        tolerance=_tol(check_id, tolerances),
        passed=False,
        gate_status=gate_status,
        skipped=True,
        notes=notes,
        extras=extras or {},
    )


def _gate(spec, samples, gate: CheckReport | None) -> CheckReport:
    return gate if gate is not None else check_parallel_unit_xi(spec, samples)


def _skip_family(ids, spec, samples, tolerances, gate: CheckReport):
    notes = f"skipped: parallel unit field gate failed (residual {gate.residual_max:.2e})"
    return [
        _skip(cid, spec, samples, tolerances, "failed", notes) for cid in ids
    ]


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
    cols = {"eq9_two_path": _max_abs(Rt - (R + lam * _curvature_shift(pi, eye)))}
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
        np.einsum("sm,slijk->smlijk", pi, R)
        + np.einsum("si,sljmk->smlijk", pi, R)
        + np.einsum("sj,slmik->smlijk", pi, R)
    )
    cols["thm2_1_v"] = _max_abs(cyclic - rhs_v)
    rhs_11d = (
        j.lc.nabla_R
        + (2.0 / (n + 1)) * np.einsum("sm,slijk->smlijk", pi, R)
        - (n / (n + 1.0)) * (
            np.einsum("si,slmjk->smlijk", pi, R)
            + np.einsum("sj,slimk->smlijk", pi, R)
            + np.einsum("sk,slijm->smlijk", pi, R)
        )
        - (2.0 * lam * (n - 1) / (n + 1)) * (
            np.einsum("sm,sk,si,lj->smlijk", pi, pi, pi, eye)
            - np.einsum("sm,sj,sk,li->smlijk", pi, pi, pi, eye)
        )
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
    lam = lam_scale(spec.n)
    eye = np.eye(spec.n)
    R, Rt = j.lc.R, j.pr.R
    P = projective_tensor(R, j.lc.S)
    Pt = projective_tensor(Rt, j.pr.S)
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
    n = spec.n
    lam = lam_scale(n)
    eye = np.eye(n)
    pi, xi, Rt = j.pi, j.xi, j.pr.R
    rr = derivation_all_frames(Rt, Rt)
    rho = -2.0 * (n - 1) / (n + 1.0) * pi
    applied = np.einsum("sablzuv,sa->sblzuv", rr, xi)
    rhs_20 = -lam * (
        np.einsum("sz,slbuv->sblzuv", pi, Rt)
        + np.einsum("su,slzbv->sblzuv", pi, Rt)
        + np.einsum("sv,slzub->sblzuv", pi, Rt)
    ) + 2.0 * lam * lam * np.einsum("sz,lu,sb,sv->sblzuv", pi, eye, pi, pi) \
      - 2.0 * lam * lam * np.einsum("su,lz,sb,sv->sblzuv", pi, eye, pi, pi)
    return {
        "max_R": _max_abs(j.lc.R),
        "def4_1_flat": _max_abs(rr),
        "eq20": _max_abs(applied - rhs_20),
        "eq21": _max_abs(Rt - lam * _curvature_shift(pi, eye)),
        "cor4_3": _max_abs(j.pr.nabla_R - np.einsum("sm,slijk->smlijk", rho, Rt)),
    }


def _rp_columns(spec, j) -> dict:
    n = spec.n
    eye = np.eye(n)
    pi, xi, R, S = j.pi, j.xi, j.lc.R, j.lc.S
    P = projective_tensor(R, S)
    Pt = projective_tensor(j.pr.R, j.pr.S)
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


# checks whose residual is the largest of named parts, each also reported
_PARTS = {"lem2_4": ("part_i", "part_ii", "part_iii"), "eq5_3": ("part_i", "part_ii")}


def _part_maxima(check_id, cols) -> dict:
    return {part: float(np.max(cols[part])) for part in _PARTS.get(check_id, ())}


def _plain_reports(family, gate_status):
    def reports(spec, samples, cols, tolerances, gate):
        return [
            _report(cid, spec, samples, cols[cid], tolerances, gate_status,
                    extras=_part_maxima(cid, cols))
            for cid in _family_ids(family)
        ]

    return reports


def _projective_reports(spec, samples, cols, tolerances, gate):
    max_R = float(np.max(cols["max_R"]))
    den = float(np.sum(cols["fit_den"]))
    K = float(np.sum(cols["fit_num"])) / den if den > 0 else 0.0
    fit_residual = max(
        float(np.max(np.abs(Rlow - K * _space_form_pattern(G))))
        for Rlow, G in zip(cols["Rlow"], cols["G"])
    )
    flat = max_R <= FLAT_DETECTION_TOL
    const_curv = fit_residual <= 1e-8 * (1.0 + abs(K))
    reports = []
    if gate.gate_status != "passed":
        reports.extend(
            _skip_family(["eq17", "eq10b"], spec, samples, tolerances, gate)
        )
    else:
        reports.append(_report("eq17", spec, samples, cols["eq17"], tolerances, "passed"))
        if flat:
            reports.append(
                _report("eq10b", spec, samples, cols["eq10b"], tolerances, "passed",
                        notes="flat chart: curvature shift consistent with both projective tensors")
            )
        else:
            reports.append(
                _skip("eq10b", spec, samples, tolerances, "passed",
                      f"skipped: chart is not flat (max |R| = {max_R:.2e})",
                      extras={"max_abs_R": max_R})
            )
    if const_curv:
        reports.append(
            _report("thm3_3_p_flat", spec, samples, cols["thm3_3_p_flat"], tolerances,
                    "not_required",
                    notes=f"constant curvature K = {K:.6g} (fit residual {fit_residual:.2e})")
        )
    else:
        reports.append(
            _skip("thm3_3_p_flat", spec, samples, tolerances, "not_required",
                  f"skipped: curvature is not constant (space-form fit residual {fit_residual:.2e})",
                  extras={"space_form_fit_residual": fit_residual})
        )
    return reports


def _semisymmetry_reports(spec, samples, cols, tolerances, gate):
    ids = _family_ids("semisymmetry")
    max_R = float(np.max(cols["max_R"]))
    if max_R <= FLAT_DETECTION_TOL:
        return [
            _report(cid, spec, samples, cols[cid], tolerances, "passed",
                    extras={"max_abs_R": max_R} if cid == "def4_1_flat" else None)
            for cid in ids
        ]
    max_RR = float(np.max(cols["def4_1_flat"]))
    notes = (
        f"skipped: chart is not flat (max |R| = {max_R:.2e}); observed "
        f"max |R~.R~| = {max_RR:.2e}, nonzero as the flat-iff theorem predicts"
    )
    extras = {"max_abs_R": max_R, "max_abs_RR": max_RR}
    return [
        _skip(cid, spec, samples, tolerances, "passed", notes,
              extras=extras if cid == "def4_1_flat" else None)
        for cid in ids
    ]


def _rp_reports(spec, samples, cols, tolerances, gate):
    observed = {key: float(np.max(cols[key])) for key in ("max_R", "max_RP", "max_S")}
    reports = [
        _report("eq5_3", spec, samples, cols["eq5_3"], tolerances, "passed",
                extras=_part_maxima("eq5_3", cols))
    ]
    if observed["max_R"] <= FLAT_DETECTION_TOL:
        reports.append(
            _report("thm5_1_flat", spec, samples, cols["thm5_1_flat"], tolerances, "passed",
                    notes="flat chart: derivation annihilates the projective tensor and the Ricci tensor vanishes")
        )
    else:
        reports.append(
            _skip("thm5_1_flat", spec, samples, tolerances, "passed",
                  f"skipped: chart is not flat (max |R| = {observed['max_R']:.2e}); observed "
                  f"max |R~.P~| = {observed['max_RP']:.2e} with max |S| = {observed['max_S']:.2e}",
                  extras={"max_abs_R": observed["max_R"], "max_abs_RP": observed["max_RP"],
                          "max_abs_S": observed["max_S"]})
        )
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

# family -> (jet order its contractions need, reports from all columns)
_FAMILIES = {
    "curvature": (3, _plain_reports("curvature", "passed")),
    "ricci": (3, _plain_reports("ricci", "passed")),
    "projective": (2, _projective_reports),
    "semisymmetry": (3, _semisymmetry_reports),
    "rp": (2, _rp_reports),
    "gssf": (2, _plain_reports("gssf", "not_required")),
}


def _family_ids(family: str) -> list[str]:
    return [cid for cid, meta in REGISTRY.items() if meta[1] == family]


def _run_families(spec, samples, families, tolerances, gate) -> list[CheckReport]:
    """Walk the samples in order, in chunks; build one jet per chunk at the
    highest order the running families need and contract it in each."""
    for family in families:
        if any(REGISTRY[cid][3] for cid in _family_ids(family)):
            spec.require_dimension_above_two()
        if family == "gssf" and None in (spec.phi, spec.f1, spec.f2, spec.f3):
            raise SpecError(
                f"chart {spec.name!r} is missing the structure fields "
                "(phi, f1, f2, f3) required by the almost-contact checks"
            )
    gate = _gate(spec, samples, gate)
    running = [
        family for family in families
        if gate.gate_status == "passed"
        or not all(REGISTRY[cid][2] for cid in _family_ids(family))
    ]
    columns = {family: defaultdict(list) for family in running}
    if running:
        order = max(_FAMILIES[family][0] for family in running)
        for lo, hi in samples.chunks():
            j = jet(spec, samples.points[lo:hi], order)
            for family in running:
                for key, col in _FAMILY_RUNNERS[family](spec, j).items():
                    columns[family][key].append(col)
    reports = []
    for family in families:
        if family in columns:
            # Per-sample values are joined across chunks; per-sample tensors
            # stay one array per chunk, so they are never copied whole.
            cols = {
                key: np.concatenate(parts) if parts[0].ndim == 1 else parts
                for key, parts in columns[family].items()
            }
            reports += _FAMILIES[family][1](spec, samples, cols, tolerances, gate)
        else:
            reports += _skip_family(_family_ids(family), spec, samples, tolerances, gate)
    return reports


def check_curvature_identities(
    spec: ManifoldSpec, samples, tolerances=None, gate: CheckReport | None = None
) -> list[CheckReport]:
    """Antisymmetry, the pair-swap and pair-symmetry defect closed forms, the
    first Bianchi identity, the cyclic third-derivative identity, the
    curvature-shift two-path check and the distinguished-field relations."""
    return _run_families(spec, samples, ["curvature"], tolerances, gate)


def check_ricci_relations(
    spec: ManifoldSpec, samples, tolerances=None, gate: CheckReport | None = None
) -> list[CheckReport]:
    """Ricci shift, scalar shift, equality of the two covariant Ricci
    derivatives, and the Codazzi/cyclic-sum agreement they imply.

    Both Ricci tensors are differentiated with the metric connection; that is
    the reading under which the shift identity differentiates to an exact
    statement, since the shift term is parallel together with the field.
    """
    return _run_families(spec, samples, ["ricci"], tolerances, gate)


def check_projective_coincidence(
    spec: ManifoldSpec, samples, tolerances=None, gate: CheckReport | None = None
) -> list[CheckReport]:
    """Coincidence of the two projective curvature tensors; on flat charts
    the consistency of the curvature shift with both; on constant-curvature
    charts the vanishing of the metric projective tensor (detected by a
    least-squares space-form fit of the sampled curvature)."""
    return _run_families(spec, samples, ["projective"], tolerances, gate)


def check_semisymmetry(
    spec: ManifoldSpec, samples, tolerances=None, gate: CheckReport | None = None
) -> list[CheckReport]:
    """On flat charts: the curvature-as-derivation annihilates itself, the
    closed forms for the curvature and its derivation by the field hold, and
    the curvature is recurrent with the predicted 1-form.  On non-flat charts
    these are skipped and the observed magnitudes are reported, which is the
    contrapositive direction of the flat-iff-semi-symmetric theorem."""
    return _run_families(spec, samples, ["semisymmetry"], tolerances, gate)


def check_rp_condition(
    spec: ManifoldSpec, samples, tolerances=None, gate: CheckReport | None = None
) -> list[CheckReport]:
    """Closed forms for the projective tensor contracted with the field, and
    on flat charts the joint vanishing of the derivation action on the
    projective tensor and of the Ricci tensor, together with the coincidence
    of the projective tensor with the metric curvature."""
    return _run_families(spec, samples, ["rp"], tolerances, gate)


def check_gssf_example(
    spec: ManifoldSpec, samples, tolerances=None, gate: CheckReport | None = None
) -> list[CheckReport]:
    """For charts carrying the almost-contact structure: the algebraic
    structure identities, the three-term curvature shape with the chart's
    coefficient functions, the annihilation of the field by the curvature,
    and the nullity form of the projective connection's curvature."""
    return _run_families(spec, samples, ["gssf"], tolerances, gate)


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

    The gate runs first; the families then share one jet per chunk of
    samples.  Deterministic: the same spec, seed, count and tolerance map
    produce byte-identical serialized reports.
    """
    if samples is None:
        samples = sample(spec, count, seed)
    if selected is not None:
        unknown = [cid for cid in selected if cid not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown check id(s): {', '.join(unknown)}")
        wanted = set(selected)
    else:
        wanted = set(REGISTRY)
        if spec.phi is None:
            wanted -= {cid for cid, meta in REGISTRY.items() if meta[1] == "gssf"}
        if spec.n <= 2:
            wanted -= {cid for cid, meta in REGISTRY.items() if meta[3]}
    gate = check_parallel_unit_xi(
        spec, samples, tolerance=_tol("parallel_unit_xi", tolerances)
    )
    families = [family for family in _FAMILIES
                if any(REGISTRY[cid][1] == family for cid in wanted)]
    by_id = {"parallel_unit_xi": gate}
    for rep in _run_families(spec, samples, families, tolerances, gate):
        by_id[rep.check_id] = rep
    return [by_id[cid] for cid in REGISTRY if cid in wanted and cid in by_id]
