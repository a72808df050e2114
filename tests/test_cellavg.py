"""Cell averages of the log kernel against an independent adaptive rule."""

import numpy as np
import pytest
from scipy import integrate

from gmclab import cellavg


def _tri(x, half_width):
    return (half_width - np.abs(x)) / half_width ** 2


def _dblquad_reference(a, v_lo, v_hi):
    """E[-ln sqrt(U^2 + V^2)] by adaptive double quadrature, U folded to
    [0, a] and, for symmetric V, V folded to [0, v_hi]."""
    scale = max(a, abs(v_lo), abs(v_hi))
    a, v_lo, v_hi = a / scale, v_lo / scale, v_hi / scale
    mid, hw = 0.5 * (v_lo + v_hi), 0.5 * (v_hi - v_lo)
    if v_lo < 0:
        lo, fold = 0.0, 2.0
    else:
        lo, fold = v_lo, 1.0

    def integrand(u, v):
        return -0.5 * np.log(u * u + v * v) * 2.0 * _tri(u, a) \
            * fold * _tri(v - mid, hw)

    val, err = integrate.dblquad(integrand, lo, v_hi, 0.0, a,
                                 epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    return val - np.log(scale)


@pytest.mark.parametrize("a,h", [(1.0, 1.0), (2.0, 1.0), (0.5, 1.0),
                                 (1 / 60, 1 / 60)])
def test_direct_cells(a, h):
    """Cells paired with themselves: V = y - y' is symmetric."""
    assert cellavg.neg_log_avg_tri(a, -h, h) == pytest.approx(
        _dblquad_reference(a, -h, h), rel=0, abs=1e-12)


@pytest.mark.parametrize("a,dy", [(1 / 16, 1 / 16), (1 / 8, 1 / 16),
                                  (1 / 32, 1 / 16)])
def test_bottom_image_row(a, dy):
    """V = y + y' starts at the origin, where the log is singular."""
    assert cellavg.neg_log_avg_tri(a, 0.0, 2 * dy) == pytest.approx(
        _dblquad_reference(a, 0.0, 2 * dy), rel=0, abs=1e-12)


def test_image_rows_of_a_fine_grid():
    """Rows 1..127 of a 128-row grid; from row 5 on V's support lies more
    than ``FAR_ROW_RATIO`` widths out and the quadrature branch is used."""
    dy = 1 / 128
    assert 2 * 5 * dy > cellavg.FAR_ROW_RATIO * 2 * dy
    for k in range(1, 128):
        lo = 2 * k * dy
        assert cellavg.neg_log_avg_tri(dy, lo, lo + 2 * dy) == pytest.approx(
            _dblquad_reference(dy, lo, lo + 2 * dy), rel=0, abs=1e-12), k


def test_far_row_with_wide_and_narrow_cells():
    for a in (1 / 64, 1 / 256):
        for lo in (0.2, 0.6, 1.9):
            assert cellavg.neg_log_avg_tri(a, lo, lo + 1 / 64) \
                == pytest.approx(_dblquad_reference(a, lo, lo + 1 / 64),
                                 rel=0, abs=1e-12)


def test_rejects_degenerate_supports():
    with pytest.raises(ValueError):
        cellavg.neg_log_avg_tri(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        cellavg.neg_log_avg_tri(-1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        cellavg.neg_log_avg_tri(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        cellavg.neg_log_avg_tri(1.0, -0.5, 1.0)  # neither symmetric nor >= 0


def test_cell_average_is_memoized():
    """The benchmark drops this cache before every repetition."""
    cellavg.neg_log_avg_tri.cache_clear()
    cellavg.neg_log_avg_tri(1.0, -1.0, 1.0)
    cellavg.neg_log_avg_tri(1.0, -1.0, 1.0)
    assert cellavg.neg_log_avg_tri.cache_info().hits == 1
