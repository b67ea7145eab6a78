#!/usr/bin/env python3
"""The projective semi-symmetric connection next to the metric one.

Shows the coefficient shift built from the lowered unit field, the torsion
it creates, the non-metricity computed two independent ways, and the shared
geodesics (the quadratic spray difference is radial).
"""

import numpy as np

from projconn.catalog import builtin
from projconn.connections import nonmetricity_components, torsion_components
from projconn.curvature import jet
from projconn.geometry import sample


def main():
    spec = builtin("euclidean3").spec
    origin = (0.0, 0.0, 0.0)
    j = jet(spec, [origin], 1)
    lc, pr = j.lc.Gamma[0], j.pr.Gamma[0]
    print("flat chart, unit field along the first axis (n = 3)")
    print(f"  metric coefficients vanish: max |Gamma| = {np.max(np.abs(lc)):.1e}")
    print(f"  shifted coefficients: Gamma~[2,2,1] = {pr[1, 1, 0]:+.4f} (= n/(n+1))")
    print(f"                        Gamma~[2,1,2] = {pr[1, 0, 1]:+.4f} (= -1/(n+1))")
    print()

    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    T = torsion_components(j)[0]
    print("torsion T(X, Y) = pi(Y) X - pi(X) Y")
    print(f"  T(e1, e2) = {np.einsum('kij,i,j->k', T, e1, e2)}")
    print(f"  T(X, X)   = {np.einsum('kij,i,j->k', T, e2, e2)}")
    print()

    print("non-metricity, closed form vs direct differentiation")
    closed, direct = (
        float(np.einsum("ijk,i,j,k->", Q[0], e1, e1, e1))
        for Q in nonmetricity_components(j)
    )
    print(f"  (grad~_xi g)(xi, xi): closed {closed:+.6f}, "
          f"direct {direct:+.6f}, discrepancy {abs(closed - direct):.1e}")
    print()

    spec = builtin("cylinder_s2xr").spec
    print("shared geodesics on the sphere-times-line chart")
    V = np.array([0.6, -0.3, 0.8])  # a velocity, the same at each point
    for point in sample(spec, 3, seed=2).points:
        j = jet(spec, [point], 1)
        diff = np.einsum("kij,i,j->k", j.pr.Gamma[0] - j.lc.Gamma[0], V, V)
        radial = (float(diff @ V) / float(V @ V)) * V
        factor = (spec.n - 1) / (spec.n + 1) * float(j.pi[0] @ V)
        print(f"  point {np.round(point, 3)}: cross-component residual "
              f"{np.max(np.abs(diff - radial)):.1e}, radial factor {factor:+.4f}")


if __name__ == "__main__":
    main()
