"""Survival-function backends against frozen high-precision references.

Reference values were tabulated with an arbitrary-precision library
(40 significant digits) and frozen here as literals; the implementation
must match each to 1e-10 absolute. The beta-based functions must also
equal the scalar continued fraction in stats_oracles bit for bit.
"""

import math
import struct

import numpy as np
import pytest

from unmixlab.stats import (
    _beta_cf,
    chi2_sf,
    f_sf,
    regularized_beta,
    regularized_gamma_q,
)

import stats_oracles as oracles

CHI2_REFERENCE = [
    (7.2, 2, 0.027323722447292558),
    (0.5, 1, 0.47950012218695346),
    (3.3, 4, 0.50893225784499843),
    (12.7, 9, 0.17665737664168301),
    (45.0, 49, 0.63598031395524929),
    (88.2, 49, 0.00050374647659149684),
    (150.0, 99, 0.00072044539571696292),
    (0.001, 2, 0.99950012497916927),
    (250.0, 3, 6.5437500309679936e-54),
    (2.5, 7, 0.92709706501347377),
]

F_REFERENCE = [
    (1.0, 3, 10, 0.43233720302169707),
    (2.5, 4, 20, 0.075146629635274659),
    (0.3, 2, 8, 0.74880052977637482),
    (7.7, 9, 40, 1.8502862470162581e-6),
    (0.0, 5, 5, 1.0),
    (35.0, 1, 48, 3.3671488451822063e-7),
    (1.2, 49, 2450, 0.16240661856302393),
]


@pytest.mark.parametrize("x,df,expected", CHI2_REFERENCE)
def test_chi2_sf_reference(x, df, expected):
    assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("x,d1,d2,expected", F_REFERENCE)
def test_f_sf_reference(x, d1, d2, expected):
    assert f_sf(x, d1, d2) == pytest.approx(expected, abs=1e-10)


def test_chi2_sf_df2_closed_form():
    """For two degrees of freedom the survival function is exp(-x/2)."""
    for x in (0.1, 1.0, 3.6, 7.2, 20.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)


def test_chi2_sf_at_zero_is_one():
    for df in (1, 2, 5, 49):
        assert chi2_sf(0.0, df) == 1.0


def test_t_squared_is_f():
    """T^2 with df degrees of freedom is F(1, df): 2*t_sf(x) = f_sf(x^2)."""
    for x in (0.5, 1.9, 3.3):
        for df in (4, 25):
            assert 2 * oracles.t_sf(x, df) == pytest.approx(f_sf(x * x, 1, df), abs=1e-12)


def test_gamma_beta_edges():
    assert regularized_gamma_q(2.5, 0.0) == 1.0
    assert regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_beta(2.0, 3.0, 1.0) == 1.0
    # complement identity
    a, b, x = 1.7, 4.2, 0.37
    assert regularized_beta(a, b, x) + regularized_beta(b, a, 1 - x) == pytest.approx(
        1.0, abs=1e-12
    )


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 2)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        f_sf(-0.1, 2, 2)
    with pytest.raises(ValueError):
        regularized_gamma_q(-1.0, 1.0)


# ---------------------------------------------------------------------------
# bit-for-bit agreement with the scalar continued fraction
# ---------------------------------------------------------------------------

SHAPES = (0.5, 1.0, 1.7, 4.2, 24.5, 1222.0)
X_GRID = (0.0, 1e-300, 1e-12, 0.001, 0.05, 0.2, 0.37, 0.5, 0.63, 0.8, 0.95,
          0.999, 0.99877, 1.0 - 1e-12, 1.0)


def _bits(x):
    return struct.pack("<d", x)


def test_beta_grid_covers_both_continued_fraction_branches():
    front = [x < (a + 1.0) / (a + b + 2.0)
             for a in SHAPES for b in SHAPES for x in X_GRID if 0.0 < x < 1.0]
    assert any(front) and not all(front)


@pytest.mark.parametrize("a", SHAPES)
def test_regularized_beta_is_the_scalar_oracle_bit_for_bit(a):
    for b in SHAPES:
        for x in X_GRID:
            got, want = regularized_beta(a, b, x), oracles.regularized_beta(a, b, x)
            assert _bits(got) == _bits(want), (a, b, x, got, want)


def test_t_and_f_sf_are_the_scalar_oracle_bit_for_bit():
    """f_sf against the scalar oracle. The package has no t_sf of its own:
    the Conover-Iman t tail is its array recurrence, checked in test_stats."""
    for d1, d2 in ((1, 48), (2, 8), (3, 10), (9, 40), (49, 2450)):
        for x in (0.0, 0.01, 0.3, 1.0, 1.2, 2.5, 7.7, 35.0, 1e6, math.inf):
            assert _bits(f_sf(x, d1, d2)) == _bits(oracles.f_sf(x, d1, d2)), (x, d1, d2)


def test_beta_cf_elements_leave_at_their_own_step():
    """The array continued fraction drops each element at the step it
    converges; every element keeps the scalar recurrence's bits, from one
    that converges at step 1 to ones that run all _ITMAX steps."""
    rng = np.random.default_rng(17)
    a = np.exp(rng.uniform(math.log(0.5), math.log(2000.0), 300))
    b = np.exp(rng.uniform(math.log(0.5), math.log(2000.0), 300))
    x = rng.uniform(0.0, 1.0, 300) * (a + 1.0) / (a + b + 2.0)
    # x = 1e-300 converges at step 1; (1e7, 1e7, 0.49999), (1e8, 1e8, 0.5)
    # and a NaN x still run at step _ITMAX
    a = np.concatenate([a, [2.0, 0.5, 1e7, 1e8, 3.0]])
    b = np.concatenate([b, [3.0, 0.5, 1e7, 1e8, 2.0]])
    x = np.concatenate([x, [1e-300, 1e-300, 0.49999, 0.5, math.nan]])
    got = _beta_cf(a, b, x)
    for k, (ak, bk, xk) in enumerate(zip(a.tolist(), b.tolist(), x.tolist())):
        assert _bits(float(got[k])) == _bits(oracles.beta_cf(ak, bk, xk)), (k, ak, bk, xk)
