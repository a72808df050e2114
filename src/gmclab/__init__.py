"""gmclab: a desk-scale Monte Carlo laboratory for bulk/boundary Gaussian
multiplicative chaos on the upper half-plane.

Subpackage map:

- ``kernels``  closed-form covariance kernels and their analytic identities
- ``cellavg``  cell averages of log-singular kernels, Gauss-Legendre rules
- ``fieldsim`` half-plane grids, dense covariance factors, streamed field
  sampling, Girsanov shift vectors
- ``gmc``      bulk/boundary GMC masses of a field or a batch of fields,
  from one weight matrix that folds in the renormalization, any boundary
  tilts and regions; measures localized at a boundary point are the masses
  of the field tilted toward it
- ``radial``   maximum law, conditioned paths, lateral densities and the
  radial-route integrals
- ``tailest``  survival curves, log-log WLS tail fits, the
  boundary-localization importance sampler, the grid masses localized at a
  boundary point (``tilted_masses``), the radial constant, quotient
  moments, feasibility systems
- ``expcli``   experiment runner (configs, JSON records, CSV plot data, CLI)
- ``rng``      counter-based Philox streams and the worker count
- ``errors``   the package's exception types
"""

__version__ = "0.1.0"

from . import cellavg, errors, expcli, fieldsim, gmc, kernels, radial, rng, tailest

__all__ = [
    "__version__",
    "cellavg",
    "errors",
    "expcli",
    "fieldsim",
    "gmc",
    "kernels",
    "radial",
    "rng",
    "tailest",
]
