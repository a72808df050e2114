#!/usr/bin/env python3
"""Boundary-localization importance sampling of the bulk-mass tail.

Plain Monte Carlo loses the tail of mu_H(Q_r) at P ~ 1e-4.  Tilting the field
toward each boundary midpoint (an exact discrete Girsanov step) and averaging
1{bulk > t}/boundary-mass extends the survival curve four more decades at the
same budget.  The fitted log-log slope in the stable window estimates the
tail exponent 2/gamma^2.
"""

import numpy as np

from gmclab import fieldsim, tailest
from gmclab.expcli import window_from_curve
from gmclab.gmc import GmcParams

gamma, r = 1.0, 0.5
grid = fieldsim.build_grid(r, 16, 32)
factor = fieldsim.build_cov(grid)
params = GmcParams(gamma=gamma, r=r)

_, mb = tailest.plain_survival(params, grid, factor, [1.0], 20_000, seed=99)
t0 = float(np.quantile(mb, 0.90))
ts = np.geomspace(t0, 3000 * t0, 60)
curve = tailest.localized_survival_curve(params, grid, factor, ts,
                                         n_per_point=20_000, seed=7)
window = window_from_curve(curve, mb)
fit = tailest.fit_tail(curve, window)

print(f"fit window t in ({window[0]:.1f}, {window[1]:.1f})")
print(f"tail exponent {fit.exponent:.3f} ± {fit.stderr_exponent:.3f}"
      f"   (continuum value 2/gamma^2 = {2 / gamma ** 2:.3f})")
print(f"free-fit constant {fit.constant:.3f}")

print("\nsurvival curve (importance-sampled):")
for i in range(0, len(ts), 8):
    print(f"  t = {ts[i]:9.2f}   P = {curve.phat[i]:.3e} "
          f"± {curve.stderr[i]:.0e}   exceedances {curve.n_exceed[i]}")

print("\nlocal slope stability (half-decade windows):")
for a in np.geomspace(window[0], window[1] / 3.2, 6):
    wnd = (a, a * 10 ** 0.5)
    f = tailest.fit_tail(curve, wnd)
    print(f"  [{wnd[0]:8.1f}, {wnd[1]:8.1f}]  slope {f.exponent:.3f}"
          f" ± {f.stderr_exponent:.3f}")
