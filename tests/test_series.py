"""Laurent-series windows: known-coefficient tracking through the arithmetic."""

import pytest

from opoly.errors import TruncationExhausted
from opoly.rational import rat
from opoly.series import (
    LaurentSeries,
    first_series_mismatch,
    from_polynomial,
    monomial_series,
    series_add,
    series_multiply,
    series_scale,
    series_shift,
    series_sub,
)
from opoly.poly import X


def test_window_accessors():
    s = LaurentSeries(-1, (1, 2, 3))
    assert s.max_power == -1
    assert s.min_power == -3
    assert s.coefficient(-1) == 1
    assert s.coefficient(-3) == 3
    assert s.coefficient(5) == 0  # above the window: structurally zero


def test_unknown_coefficient_raises():
    s = LaurentSeries(-1, (1, 2, 3))
    with pytest.raises(TruncationExhausted):
        s.coefficient(-4)
    assert not s.knows(-4)
    assert s.knows(-3)


def test_exact_series_knows_everything():
    s = from_polynomial(X * X - 1)
    assert s.exact
    assert s.coefficient(-17) == 0
    assert s.coefficient(2) == 1


def test_leading_zeros_are_stripped_losslessly():
    s = LaurentSeries(2, (0, 0, 5, 7))
    assert s.max_power == 0
    assert s.coefficient(2) == 0
    assert s.coefficient(0) == 5


def test_exact_trailing_zeros_are_stripped():
    s = LaurentSeries(2, (1, 0, 0), exact=True)
    assert s.coeffs == (1,)
    assert s.min_power == 2


def test_addition_window_is_the_tightest_nonexact_floor():
    s = LaurentSeries(-1, (1, 1, 1))          # knows -1..-3
    t = LaurentSeries(0, (2, 2))              # knows 0..-1
    out = series_add(s, t)
    assert out.max_power == 0
    assert out.min_power == -1                # t's floor wins
    assert out.coefficient(0) == 2
    assert out.coefficient(-1) == 3


def test_addition_with_exact_side_keeps_other_floor():
    s = LaurentSeries(-1, (1, 1, 1))
    p = from_polynomial(X)
    out = series_add(s, p)
    assert out.min_power == -3
    assert out.coefficient(1) == 1
    assert out.coefficient(-2) == 1


def test_multiplication_window_rule():
    # s knows -1..-4, t is exact with top power 1:
    # every product coefficient down to -4 + 1 = -3 is certified.
    s = LaurentSeries(-1, (1, 2, 3, 4))
    t = from_polynomial(X - 2)
    out = series_multiply(s, t)
    assert out.max_power == 0
    assert out.min_power == -3
    assert out.coefficient(0) == 1
    assert out.coefficient(-1) == 2 - 2 * 1


def test_multiplication_of_two_nonexact_windows():
    s = LaurentSeries(-1, (1, 1))   # knows -1..-2
    t = LaurentSeries(-1, (1, 1))
    out = series_multiply(s, t)
    # floor = min_power + other's max_power = -2 + -1 = -3
    assert out.max_power == -2
    assert out.min_power == -3
    assert out.coefficient(-2) == 1
    assert out.coefficient(-3) == 2


def test_exact_times_exact_is_exact():
    out = series_multiply(from_polynomial(X + 1), from_polynomial(X - 1))
    assert out.exact
    assert first_series_mismatch(out, from_polynomial(X * X - 1)) is None


def test_scale_shift_neg():
    s = LaurentSeries(-1, (1, 2))
    assert series_scale(rat(1, 2), s).coefficient(-1) == rat(1, 2)
    assert series_shift(s, 3).max_power == 2
    assert series_sub(s, s).is_known_zero() or all(
        series_sub(s, s).coefficient(m) == 0 for m in (-1, -2)
    )


def test_monomial_series():
    m = monomial_series(-2, rat(3, 4))
    assert m.exact
    assert m.coefficient(-2) == rat(3, 4)
    assert m.coefficient(-9) == 0


def test_mismatch_is_located_at_the_highest_differing_power():
    s = LaurentSeries(0, (1, 2, 3))
    t = LaurentSeries(0, (1, 5, 3))
    assert first_series_mismatch(s, t) == -1
    assert first_series_mismatch(s, LaurentSeries(0, (1, 2, 3))) is None


def test_comparison_never_reads_below_the_common_floor():
    s = LaurentSeries(0, (1, 2))        # knows 0..-1
    t = LaurentSeries(0, (1, 2, 999))   # knows 0..-2
    assert first_series_mismatch(s, t) is None  # -2 is outside s's certified window
