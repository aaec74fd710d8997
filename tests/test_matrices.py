"""Band matrices: products against a dense reference, shifts, block comparisons."""

import random

import pytest
from conftest import band_from_entries, identity, mat_power, product_reference

from opoly.matrices import (
    BandMatrix,
    UnitLowerBidiagonal,
    UnitLowerTriband,
    UpperBidiagonal,
    UpperTriband,
    first_block_mismatch,
    mat_multiply,
    shift_cols_left,
    shift_rows_up,
    shifted,
)
from opoly.orthopoly import RecurrenceCoefficients, jacobi_matrix
from opoly.rational import rat


def tridiagonal(size, sub, diag, sup):
    return BandMatrix(size, {-1: sub, 0: diag, 1: sup})


def random_band(rng, size, lower, upper):
    diagonals = {}
    for d in range(-min(lower, size - 1), min(upper, size - 1) + 1):
        diagonals[d] = tuple(rat(rng.randint(-4, 4)) for _ in range(size - abs(d)))
    return BandMatrix(size, diagonals)


def test_entry_layout_and_bandwidths():
    j = tridiagonal(4, (7, 8, 9), (1, 2, 3, 4), (1, 1, 1))
    assert j.entry(0, 0) == 1
    assert j.entry(1, 0) == 7
    assert j.entry(0, 1) == 1
    assert j.entry(3, 2) == 9
    assert j.entry(0, 3) == 0
    assert j.lower == 1 and j.upper == 1


def test_all_zero_diagonals_are_dropped():
    m = BandMatrix(3, {0: (1, 1, 1), 1: (0, 0)})
    assert m.upper == 0
    assert 1 not in m.diagonals


def test_entry_bounds_are_checked():
    m = identity(3)
    with pytest.raises(IndexError):
        m.entry(3, 0)
    with pytest.raises(IndexError):
        m.entry(0, -1)


def test_diagonal_length_validation():
    with pytest.raises(ValueError):
        BandMatrix(3, {0: (1, 1)})
    with pytest.raises(ValueError):
        BandMatrix(2, {2: (1,)})


def test_add_sub_scale_shift():
    j = tridiagonal(3, (4, 5), (1, 2, 3), (1, 1))
    s = shifted(j, rat(1, 2))
    assert s.entry(0, 0) == rat(1, 2)
    assert s.entry(1, 0) == 4


def test_multiplication_matches_dense_reference():
    rng = random.Random(7)
    for _ in range(25):
        size = rng.randint(2, 6)
        a = random_band(rng, size, rng.randint(0, 2), rng.randint(0, 2))
        b = random_band(rng, size, rng.randint(0, 2), rng.randint(0, 2))
        got = mat_multiply(a, b)
        want = product_reference(a, b)
        for i in range(size):
            for j in range(size):
                assert got.entry(i, j) == want[i][j]


def test_multiplication_keeps_the_unit_superdiagonal():
    # lower-bidiagonal times upper-bidiagonal must reproduce a unit
    # superdiagonal: the historical failure mode of wrong dot bounds.
    lower = UnitLowerBidiagonal(4, (2, 3, 4)).to_band()
    upper = UpperBidiagonal(4, (5, 6, 7, 8)).to_band()
    prod = mat_multiply(lower, upper)
    for i in range(3):
        assert prod.entry(i, i + 1) == 1
    assert prod.entry(1, 0) == 2 * 5
    assert prod.entry(1, 1) == 2 * 1 + 6


def test_power_against_repeated_products():
    j = tridiagonal(4, (1, 1, 1), (0, 0, 0, 0), (1, 1, 1))
    j3 = mat_power(j, 3)
    want = product_reference(product_reference(j, j), j)
    assert [[j3.entry(r, c) for c in range(4)] for r in range(4)] == want
    assert mat_power(j, 0) == identity(4)


def test_shift_conjugate_drops_first_row_and_column():
    # the Jacobi matrix of the shifted recurrence is J without its first
    # row and column
    rc = RecurrenceCoefficients((1, 2, 3, 7), (4, 5, 6))
    j = jacobi_matrix(rc, 4)
    t = jacobi_matrix(rc.shifted(1), 3)
    assert t.size == 3
    assert t.entry(0, 0) == 2
    assert t.entry(1, 0) == 5
    for i in range(3):
        for k in range(3):
            assert t.entry(i, k) == j.entry(i + 1, k + 1)


def test_shift_rows_up_moves_diagonals_up():
    j = tridiagonal(4, (4, 5, 6), (1, 2, 3, 7), (1, 1, 1))
    up = shift_rows_up(j)
    for i in range(3):
        for jj in range(4):
            assert up.entry(i, jj) == j.entry(i + 1, jj)
    # the old subdiagonal is now the main diagonal; the old main diagonal
    # sits one above; the old superdiagonal two above
    assert up.entry(0, 0) == 4
    assert up.entry(0, 1) == 2
    assert up.entry(0, 2) == 1
    assert up.upper == 2 and up.lower == 0


def test_shift_cols_left_moves_diagonals_down():
    j = tridiagonal(4, (4, 5, 6), (1, 2, 3, 7), (1, 1, 1))
    left = shift_cols_left(j)
    for i in range(4):
        for jj in range(3):
            assert left.entry(i, jj) == j.entry(i, jj + 1)
    assert left.entry(0, 0) == 1  # the old unit superdiagonal survives the shift
    assert left.entry(1, 0) == 2
    assert left.entry(2, 0) == 5
    assert left.lower == 2 and left.upper == 0


def test_row_and_column_shifts_compose_to_the_corner_conjugate():
    rc = RecurrenceCoefficients((1, 2, 3, 7, 9), (4, 5, 6, 7))
    j = jacobi_matrix(rc, 5)
    # both orders drop the first row and column of j and leave the last
    # row and column unknown, so they agree with the conjugate off those
    a = shift_rows_up(shift_cols_left(j))
    b = shift_cols_left(shift_rows_up(j))
    assert first_block_mismatch(a, b, 5) is None
    conj = jacobi_matrix(rc.shifted(1), 4)
    assert first_block_mismatch(a, conj, 4) is None


def test_block_comparisons():
    a = identity(4)
    b = BandMatrix(4, {0: (1, 1, 1, 5)})
    assert first_block_mismatch(a, b, 3) is None
    assert first_block_mismatch(a, b, 4) == 4
    assert first_block_mismatch(a, a, 4) is None
    assert first_block_mismatch(a, b, 0) is None
    # a diagonal only one side stores counts as zero on the other
    c = BandMatrix(4, {0: (1,) * 4, -2: (0, 3)})
    assert first_block_mismatch(a, c, 4) == first_block_mismatch(c, a, 4) == 4
    assert first_block_mismatch(a, c, 3) is None
    with pytest.raises(ValueError):
        first_block_mismatch(a, b, 5)


def test_equality_compares_size_and_stored_diagonals():
    # an all-zero diagonal is never stored, so equal matrices store the same
    assert BandMatrix(4, {0: (1,) * 4, 1: (0, 0, 0)}) == identity(4)
    assert BandMatrix(4, {0: (1, 1, 1, 5)}) != identity(4)
    assert identity(3) != identity(4)
    assert hash(BandMatrix(3, {0: (1, 1, 1), -1: (0, 0)})) == hash(identity(3))


def test_structured_factors_expose_their_entries():
    lo = UnitLowerBidiagonal(3, (4, 5))
    up = UpperBidiagonal(3, (1, 2, 3))
    assert lo.to_band().entry(1, 0) == 4
    assert lo.shifted_tail().sub == (5,)
    assert up.to_band().entry(0, 1) == 1
    assert up.shifted_tail().diag == (2, 3)
    tri_lo = UnitLowerTriband(4, (1, 2, 3), (4, 5))
    tri_up = UpperTriband(4, (1, 2, 3, 4), (5, 6, 7))
    assert tri_lo.to_band().entry(2, 0) == 4
    assert tri_up.to_band().entry(0, 2) == 1
    assert tri_up.to_band().entry(1, 3) == 1


def test_tri_band_factors_at_size_two_leave_out_the_second_off_diagonal():
    lower = UnitLowerTriband(2, (3,), ()).to_band()
    upper = UpperTriband(2, (1, 2), (5,)).to_band()
    assert sorted(lower.diagonals) == [-1, 0]
    assert sorted(upper.diagonals) == [0, 1]
    assert lower.entry(1, 0) == 3 and upper.entry(0, 1) == 5


def test_band_from_entries_clips_to_valid_offsets():
    m = band_from_entries(3, -5, 5, lambda i, j: rat(i + j))
    assert m.entry(2, 0) == 2
    assert m.entry(0, 2) == 2
