"""The F_3 layer both tables share: rows, canonical lines and the rank."""

import numpy as np
import pytest

import trigonal
from trigonal import f3
from trigonal import sympf3 as sp

from oracles import brute_canonicalize, f3_rank, leading_digits


@pytest.mark.parametrize("n", range(1, 7))
def test_row_k_of_all_rows_is_the_base3_digits_of_k(n):
    rows = f3.all_rows(n)
    assert rows.dtype == np.int8 and rows.shape == (3 ** n, n)
    for k in range(3 ** n):
        digits = [(k // 3 ** (n - 1 - j)) % 3 for j in range(n)]
        assert rows[k].tolist() == digits
    # the columns are contiguous, as the column-wise readers expect
    assert rows.T.flags.c_contiguous


def test_canonical_form_is_first_nonzero_digit_one():
    rows = f3.all_rows(4)
    lead = leading_digits(rows)
    for row, d in zip(rows.tolist(), lead.tolist()):
        assert d == next((x for x in row if x), 0)
    canonical = brute_canonicalize(rows)
    # v and -v = 2v meet at the row whose first nonzero digit is 1
    assert (canonical == brute_canonicalize(-rows % 3)).all()
    assert (leading_digits(canonical) == (lead != 0)).all()
    assert (canonical[lead == 1] == rows[lead == 1]).all()


@pytest.mark.parametrize("n", range(1, 8))
def test_key_digits_are_the_rows_of_all_rows(n):
    rows = f3.all_rows(n)
    msb_first = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = np.arange(3 ** n, dtype=np.int32)
    digits = f3.key_digits(keys, msb_first)
    assert digits.dtype == np.int8 and digits.T.flags.c_contiguous
    assert (digits == rows).all()
    # the first column least significant: the columns reversed
    assert (f3.key_digits(keys, msb_first[::-1]) == rows[:, ::-1]).all()
    assert (f3.key_digits(keys[::5], msb_first) == rows[::5]).all()


def test_rank_equals_the_row_reduction_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        rows, cols = rng.integers(1, 13, size=2)
        m = rng.integers(0, 3, size=(rows, cols))
        assert f3.rank(m) == f3_rank(m), m
    # rank-deficient products of thin factors
    for _ in range(100):
        rows, cols = rng.integers(1, 13, size=2)
        inner = rng.integers(1, 5)
        m = (rng.integers(0, 3, size=(rows, inner))
             @ rng.integers(0, 3, size=(inner, cols))) % 3
        assert f3.rank(m) == f3_rank(m) <= inner, m
    assert f3.rank(np.zeros((4, 5), dtype=np.int8)) == 0
    assert f3.rank(sp.SYMP_GRAM) == trigonal.RANK


@pytest.mark.parametrize("n", range(1, 8))
def test_negated_keys_and_digit_sums_equal_the_all_rows_route(n):
    rows = f3.all_rows(n)
    rng = np.random.default_rng(n)
    msb_first = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    coefficients = rng.integers(-4, 5, size=n)
    # both digit orders: first column most significant, and reversed
    for weights in (msb_first, msb_first[::-1]):
        negated = (-rows.astype(np.int64) % 3) @ weights
        assert (f3.negated_keys(rows, weights) == negated).all()
        assert (f3.negated_keys(rows[::7], weights) == negated[::7]).all()
    sums = f3.digit_sums(coefficients)
    assert sums.dtype == np.uint8
    assert (sums == rows.astype(np.int64) @ coefficients % 3).all()
    # the last column most significant: the coefficients reversed
    reversed_rows = rows[:, ::-1].astype(np.int64)
    assert (f3.digit_sums(coefficients[::-1])
            == reversed_rows @ coefficients % 3).all()


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int32,
                                   np.int64])
def test_mod3_is_the_remainder_even_where_its_product_wraps(dtype):
    # every value of the narrow types, and both ends of the wide ones,
    # where 3 * (x // 3) leaves the type
    info = np.iinfo(dtype)
    low, high = max(int(info.min), -2 ** 16), min(int(info.max), 2 ** 16)
    x = np.concatenate([np.arange(low, high + 1), [info.min, info.max]])
    x = x.astype(dtype)
    assert f3.mod3(x).dtype == dtype
    assert (f3.mod3(x) == x % 3).all()
