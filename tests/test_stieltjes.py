"""Moment generating series: windows, reciprocal product, continued fraction, Pade."""

import pytest
from conftest import continued_fraction_mismatch

from opoly import families
from opoly.errors import TruncationExhausted
from opoly.rational import rat
from opoly.stieltjes import (
    first_kind_series_check,
    inverse_series_check,
    pade_approximation_check,
    stieltjes_series,
)


def test_series_window_matches_the_stored_moments():
    u = families.chebyshev_t(10)
    s = stieltjes_series(u)
    assert s.max_power == -1
    assert s.min_power == -10
    assert s.coefficient(-1) == 1
    assert s.coefficient(-3) == rat(1, 2)  # second moment of chebyshev-t
    with pytest.raises(TruncationExhausted):
        s.coefficient(-11)
    # positive powers are known zero even on a truncated series
    assert s.coefficient(0) == 0


@pytest.mark.parametrize(
    "u",
    [
        families.chebyshev_u(16),
        families.chebyshev_t(16),
        families.laguerre(0, 16),
        families.laguerre(rat(1, 2), 16),
    ],
    ids=["chebyshev-u", "chebyshev-t", "laguerre:0", "laguerre:1/2"],
)
def test_reciprocal_series_product_is_z_to_minus_two(u):
    report = inverse_series_check(u)
    assert report.identity == "identidad"
    assert report.passed
    # the product of two 16-moment tails is certified down to z^-17
    assert report.max_level == 17


@pytest.mark.parametrize(
    "u",
    [
        families.chebyshev_u(16),
        families.chebyshev_t(16),
        families.laguerre(0, 16),
    ],
    ids=["chebyshev-u", "chebyshev-t", "laguerre:0"],
)
def test_cleared_continued_fraction(u):
    # relationS and identidad together give (z - b_0) S_u - a_1 S_{u^(1)} S_u = u_0
    assert continued_fraction_mismatch(u) is None


def test_continued_fraction_respects_a_rescaled_first_norm():
    assert continued_fraction_mismatch(families.chebyshev_u(16), norm1=rat(3, 2)) is None


def test_first_kind_series_relation_needs_four_moments():
    with pytest.raises(TruncationExhausted):
        first_kind_series_check(families.chebyshev_u(3))


@pytest.mark.parametrize(
    "u",
    [
        families.chebyshev_u(16),
        families.chebyshev_t(16),
        families.laguerre(0, 16),
    ],
    ids=["chebyshev-u", "chebyshev-t", "laguerre:0"],
)
def test_first_kind_series_relation(u):
    report = first_kind_series_check(u)
    assert report.identity == "relationS"
    assert report.passed
    assert report.details["norm1"] == "1"


def test_first_kind_series_relation_rescaled():
    report = first_kind_series_check(families.laguerre(0, 16), norm1=rat(-2, 7))
    assert report.passed
    assert report.details["norm1"] == "-2/7"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pade_error_vanishes_through_the_window(n):
    report = pade_approximation_check(families.chebyshev_u(16), n)
    assert report.identity == "pade"
    assert report.passed
    assert report.max_level == n


def test_pade_residue_is_the_norm():
    # chebyshev-u has K_n = (1/4)^n; the first surviving coefficient at
    # z^{-n-1} must be exactly that norm
    report = pade_approximation_check(families.chebyshev_u(16), 2)
    assert report.details["residue"] == "1/16"
    report = pade_approximation_check(families.laguerre(0, 16), 2)
    assert report.details["residue"] == "12"  # 2! * (2)_2


def test_pade_requires_enough_moments_and_a_positive_index():
    with pytest.raises(TruncationExhausted):
        pade_approximation_check(families.chebyshev_u(8), 4)
    with pytest.raises(ValueError):
        pade_approximation_check(families.chebyshev_u(8), 0)
