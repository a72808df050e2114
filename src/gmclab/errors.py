"""Exception hierarchy for gmclab.

Every error raised by the library derives from ``GmclabError`` so callers can
catch the whole family at once.  Names mirror the failure they report.
"""


class GmclabError(Exception):
    """Base class for all gmclab errors."""


# --- kernels ---------------------------------------------------------------

class DiagonalSingularity(GmclabError):
    """A log-kernel was evaluated at coincident arguments (value is +inf)."""


class QuadratureUnstable(GmclabError):
    """Adjacent quadrature refinements disagree beyond the requested tolerance."""


# --- fieldsim --------------------------------------------------------------

class InvalidResolution(GmclabError):
    """Grid geometry request is malformed (bad r or node counts)."""


class NotPositiveDefinite(GmclabError):
    """A covariance to be factored exactly has a negative eigenvalue (or is
    numerically singular); no jitter or clipping is applied to rescue it."""


# --- gmc -------------------------------------------------------------------

class RegionMismatch(GmclabError):
    """A region refers to node indices outside the expected bulk/boundary
    set."""


class SupercriticalWeight(GmclabError):
    """A singular weight is non-integrable at the requested coupling."""


# --- radial ----------------------------------------------------------------

class IndexMismatch(GmclabError):
    """Two paths cannot be concatenated (incompatible time steps)."""


class InvalidRho(GmclabError):
    """Radial-route radius must satisfy 0 < rho < 1 (and rho <= r)."""


# --- tailest ---------------------------------------------------------------

class EmptySample(GmclabError):
    """Estimator called with no samples."""


class DegenerateWindow(GmclabError):
    """Tail-fit window contains too few usable points."""


class Infeasible(GmclabError):
    """No witness satisfying the requested inequality system was found."""


class GeometryViolation(GmclabError):
    """Locality-gap geometry condition 2*rho < min(r - v, v + r) fails."""


# --- expcli ----------------------------------------------------------------

class ConfigInvalid(GmclabError):
    """Experiment configuration failed validation."""


class IoFailure(GmclabError):
    """Reading or writing an experiment artifact failed."""
