#!/usr/bin/env python3
"""Closed-form kernels and their analytic identities.

The exact-scaling Neumann kernel K(z, w) = -ln|z - w||z - conj(w)| has two
special structural properties this package leans on everywhere:

1. its semicircle averages are exactly Brownian: the double angular average
   over radii e^{-s}, e^{-t} equals 2 min(s, t);
2. removing that Brownian part leaves the lateral noise, whose covariance is
   stationary in log-radius and integrates to zero over angles.

This script evaluates the kernels at a few hand-checkable points and verifies
both identities by quadrature.
"""

import numpy as np

from gmclab import kernels

print("point values")
print("  K((0,1),(0,2))          =", kernels.eval_neumann((0, 1), (0, 2)),
      " (expect -ln 3 =", -np.log(3.0), ")")
print("  K((1,0),(-1,0))         =", kernels.eval_neumann((1, 0), (-1, 0)),
      " (expect -2 ln 2)")
print("  K((0,0),(e,0))          =", kernels.eval_neumann((0, 0), (np.e, 0)),
      " (expect -2 ln e = -2)")
print("  lateral cov(i vs 1)     =",
      kernels.eval_lateral(0.0, np.pi / 2, 0.0, 0.0), " (expect -ln 2)")

print("\nsemicircle-average identity: quadrature vs 2 min(s, t)")
for s, t in [(0.25, 0.5), (0.5, 2.0), (1.0, 2.0), (0.5, 0.5)]:
    q = kernels.quadrature_cov(s, t, 2048)
    print(f"  (s, t) = ({s}, {t}):  quadrature {q:+.9f}   "
          f"analytic {2 * min(s, t):+.9f}")

print("\nlateral noise: stationary in s, zero angular average")
a = kernels.eval_lateral(0.4, 1.0, 1.3, 2.0)
b = kernels.eval_lateral(0.4 + 5.0, 1.0, 1.3 + 5.0, 2.0)
print(f"  shift invariance:  {a:.12f} vs {b:.12f}")
for t1, t2 in [(0.3, 1.1), (0.05, 2.4)]:
    z = kernels.lateral_avg_quadrature(t1, t2, 512)
    print(f"  double angular average at ({t1}, {t2}) = {z:+.2e}")
