#!/usr/bin/env python3
"""Curvature of both connections, the Ricci shift, nullity fitting and the
quasi-Einstein decomposition."""

import numpy as np

from projconn.catalog import builtin
from projconn.connections import PROJECTIVE
from projconn.curvature import (
    jet,
    lam_scale,
    nullity_fit,
    quasi_einstein_fit,
    ricci_shifts,
)
from projconn.geometry import sample


def main():
    spec = builtin("euclidean3").spec
    origin = (0.0, 0.0, 0.0)
    print("flat chart: the shifted connection is curved")
    j = jet(spec, [origin], 2)
    print(f"  R~[2,1,2,1] = {j.pr.R[0, 1, 0, 1, 0]:+.4f}  (the scale -n^2/(n+1)^2 "
          f"= {lam_scale(3):+.4f})")
    print(f"  metric curvature: max |R| = {np.max(np.abs(j.lc.R[0])):.1e}")
    print()

    spec = builtin("cylinder_s2xr").spec
    point = (np.pi / 2, 1.0, 0.0)
    j = jet(spec, [point], 2)
    r, r_tilde, ricci_defect, scalar_defect = (v[0] for v in ricci_shifts(j))
    ricci_residual, scalar_residual = np.max(np.abs(ricci_defect)), abs(scalar_defect)
    print("sphere-times-line chart at the equator")
    print(f"  Ricci (metric)  diag = {np.round(np.diag(j.lc.S[0]), 6)},  scalar = {r:.4f}")
    print(f"  Ricci (shifted) diag = {np.round(np.diag(j.pr.S[0]), 6)},  "
          f"scalar = {r_tilde:.4f}")
    print(f"  shift identity residuals: {ricci_residual:.1e}, {scalar_residual:.1e}")
    print()

    print("nullity constant of the field, by dimension")
    for n in (3, 4, 5, 8):
        flat = builtin(f"euclidean{n}").spec
        fit = nullity_fit(flat, PROJECTIVE, sample(flat, 30, seed=9))
        print(f"  n = {n}: fitted k = {fit.k:+.9f}, expected {lam_scale(n):+.9f}, "
              f"residual {fit.residual:.1e}")
    print()

    print("quasi-Einstein decomposition of a synthetic Ricci tensor")
    G = np.eye(3)
    pi = np.array([1.0, 0.0, 0.0])
    S = 2.0 * G + 3.0 * np.outer(pi, pi)
    fit = quasi_einstein_fit(S, G, pi)
    print(f"  S = 2 g + 3 pi x pi  ->  a = {fit.a:.6f}, b = {fit.b:.6f}, "
          f"residual {fit.residual:.1e}")
    print(f"  eigenvalues {np.round(fit.eigenvalues, 9)} "
          f"(multiplicities n-1 and 1: {fit.multiplicity_ok})")


if __name__ == "__main__":
    main()
