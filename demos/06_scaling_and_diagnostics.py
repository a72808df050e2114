#!/usr/bin/env python3
"""Scaling exponents, moment-window diagnostics, and locality.

Four desk-scale looks at the finer structure:

- the localized bulk/boundary quotient over half-disks of radius rho scales
  exactly like rho^{zeta(p; q)} with zeta(p;q) = (2 - g^2/2)(p - q/2)
  - g^2 (p - q/2)^2.  The localized masses are those of the field tilted
  toward v = 0, a segment midpoint of each grid; running each rho on a
  geometrically similar grid makes the discretization bias a common
  factor, so the fitted slope is clean;
- quotient moments inside the admissible window p < min(2/g^2 + q/2, 4/g^2)
  stabilize as N grows, while outside the window the running mean keeps
  jumping (a diagnostic, not a proof of divergence).  The inside p is
  taken with 2p inside the window of the square moment too, so its running
  mean has finite variance;
- the localized-tail mass concentrates near its singularity: the full-cube
  vs local-ball gap shrinks relative to the local term as t climbs.  One
  pass of the tilted field (``tailest.tilted_masses``) gives both the
  masses and the t values, read at quantiles of the full-cube mass;
- both proof-parameter systems admit strict witnesses throughout gamma in
  (0, 2).
"""

import numpy as np

from gmclab import fieldsim, tailest
from gmclab.gmc import GmcParams
from gmclab.radial import RadialConfig, RadialSampler

gamma = 1.0

slope, se, rows = tailest.quotient_rho_scan(gamma, 1.0, 1.0,
                                            [0.05, 0.1, 0.2, 0.4],
                                            N=20_000, seed=3)
print("rho-scaling of the localized ball quotient (p = q = 1):")
for rho, val, err in rows:
    print(f"  rho = {rho:5.2f}:  E = {val:.4f} ± {err:.4f}")
print(f"  fitted slope {slope:.3f} ± {se:.3f}   "
      f"zeta_tilde = {tailest.zeta_tilde(1.0, 1.0, gamma):.3f}")

sampler = RadialSampler(gamma, RadialConfig(T=12.0, ds=0.1, n_theta=16))
draws = sampler.sample_joint(5, 20_000, want_truncated=False)
p_in = 0.98 * min(2 / gamma ** 2 + 1, 4 / gamma ** 2) / 2
inside = tailest.radial_quotient_moment(p_in, 1.0, gamma, draws)
outside = tailest.radial_quotient_moment(3.0, 1.0, gamma, draws)
print("\nquotient-moment window diagnostic (running means at N/4, N/2, N):")
for est, tag in ((inside, f"p={p_in:.2f} (inside)"),
                 (outside, "p=3.0 (outside)")):
    rm = est.running_mean
    print(f"  {tag:16s} finite_predicted={est.finite_predicted}  "
          f"{rm[len(rm) // 4]:10.3f} {rm[len(rm) // 2]:10.3f} {rm[-1]:10.3f}")

grid = fieldsim.build_grid(0.5, 16, 33)  # odd segment count: v = 0 is a midpoint
factor = fieldsim.build_cov(grid)
print("\nlocality of the tilted tail (|gap| / local term):")
quants = (0.5, 0.9, 0.99)
gaps = tailest.locality_gap(GmcParams(gamma, 0.5), grid, factor, 0.0, 0.125,
                            quants, 50_000, 9)
for q, (t, gap, gse, local) in zip(quants, gaps):
    print(f"  t = {t:7.3f} at q{int(100 * q):02d}: "
          f"ratio = {abs(gap) / local:.3f}")

print("\nfeasibility witnesses:")
for g in (0.5, 1.0, np.sqrt(2.0), 1.8):
    for system in (tailest.EQ16, tailest.EQ20):
        fp = tailest.feasible_params(g, system)
        print(f"  gamma = {g:.3f} {system}: p = {fp.p:.4f}, eta = "
              f"{fp.eta:.4f}, delta = {fp.delta:.1e} (slack {fp.slack:.1e})")
