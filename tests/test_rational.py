"""Exact rational scalars: parsing, canonical strings, the one scalar type."""

import pytest

from opoly.rational import BACKEND, ONE, ZERO, parse_rational, rat, rat_str


def test_backend_is_a_known_choice():
    # Fraction is the only scalar type; perfbench records its name
    assert BACKEND == "fraction"


def test_rat_from_ints_and_pairs():
    assert rat(3) == 3
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(2, 4) == rat(1, 2)
    assert rat(-6, -4) == rat(3, 2)


def test_rat_from_strings():
    assert rat("7") == 7
    assert rat("-3/4") == rat(-3, 4)
    assert rat("+5/10") == rat(1, 2)
    assert rat("4", "6") == rat(2, 3)


def test_unicode_minus_is_accepted():
    assert parse_rational("−3/4") == rat(-3, 4)


def test_whitespace_is_tolerated():
    assert parse_rational("  5/8 ") == rat(5, 8)


def test_zero_denominator_is_rejected():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@pytest.mark.parametrize("bad", ["", "x", "1.5", "1/2/3", "one", "2 / 3"])
def test_garbage_is_rejected(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(1, 2.0)


def test_a_rational_comes_back_as_itself():
    x = rat(-22, 7)
    assert rat(x) is x
    assert rat(ZERO) is ZERO
    # only a rational alone: a pair is still divided, a string still parsed
    assert rat(x, 2) == rat(-11, 7)
    assert rat("-22/7") == x
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_str_is_canonical():
    assert rat_str(rat(2, 4)) == "1/2"
    assert rat_str(rat(-2, 4)) == "-1/2"
    assert rat_str(rat(8, 4)) == "2"
    assert rat_str(rat(0)) == "0"
    assert rat_str(5) == "5"


def test_string_round_trip():
    for text in ("0", "1", "-1", "3/7", "-22/7", "123456789/1000000007"):
        assert rat_str(parse_rational(text)) == text


def test_zero_and_one():
    assert ZERO == 0 and ONE == 1
