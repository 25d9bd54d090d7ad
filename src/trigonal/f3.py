"""F_3, the one encoding of lines that both tables share, and the rank.

RANK is the rank of the lattice, the dimension of its reduction mod theta,
and the number of half-twist moves: the one statement of the rank.

Both tables enumerate lines +-v of F_3^n by canonical rows, the one of v,
-v whose first nonzero digit is 1: one block of keys per position of that
leading 1, whose earlier digits are 0 and later digits free, with the rows
read off the keys by `key_digits`.  Both look a line up in a
`signed_index` over the base-3 keys of its two representatives, the second
from `negated_keys`.  The digit weights stay with their tables, since each
table's digit order is part of its export bytes.
"""

from __future__ import annotations

import numpy as np

RANK = 10


def all_rows(n: int) -> np.ndarray:
    """F_3^n as int8 rows: row k holds the base-3 digits of k, the first
    column most significant.  The rows are a transposed view, so each
    column is contiguous, which the column-wise readers depend on."""
    return np.indices((3,) * n, dtype=np.int8).reshape(n, -1).T


def key_digits(keys, weights) -> np.ndarray:
    """The base-3 digits of keys as int8 rows: column j holds the digit of
    weight weights[j], keys // w_j % 3.  As in `all_rows`, the rows are a
    transposed view, so each column is contiguous."""
    keys = np.asarray(keys)
    digits = np.empty((len(weights), len(keys)), dtype=np.int8)
    for column, weight in zip(digits, weights):
        np.remainder(keys // int(weight), 3, out=column, casting="unsafe")
    return digits.T


def negated_keys(rows, weights) -> np.ndarray:
    """The keys sum_j w_j * (-x_j mod 3) of the negated rows -x, read from
    the int8 digits one column at a time, so no (n, k) int64 copy is made."""
    keys = np.zeros(len(rows), dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    for column, weight in zip(np.asarray(rows).T, weights):
        keys += (-column % 3) * weight
    return keys


def digit_sums(coefficients) -> np.ndarray:
    """sum_j c_j * x_j mod 3 for every row x of `all_rows(len(c))`, in row
    order, as uint8: built one digit at a time, first column most
    significant, so no all_rows matrix is made."""
    sums = np.zeros(1, dtype=np.uint8)
    letters = np.arange(3, dtype=np.uint8)
    for c in coefficients:
        sums = ((sums[:, None] + letters * np.uint8(c % 3)) % 3).reshape(-1)
    return sums


def signed_index(size: int, keys, negated) -> np.ndarray:
    """The index of rows that stand for lines +-v: the key of row r and that
    of its negative map to r, every other key in range(size) to -1.

    The values are row positions, int32 to halve the table, like every
    index and key array of both tables; gathers through them use np.take
    (see `schreier`)."""
    assert len(keys) < 2 ** 31
    index = np.full(size, -1, dtype=np.int32)
    index[keys] = index[negated] = np.arange(len(keys), dtype=np.int32)
    return index


def rank(m) -> int:
    """The rank of m over F_3, by Gauss-Jordan elimination."""
    a = np.array(m, dtype=np.int64) % 3
    r = 0
    for col in range(a.shape[1]):
        pivots = np.flatnonzero(a[r:, col]) + r
        if pivots.size:
            a[[r, pivots[0]]] = a[[pivots[0], r]]
            a[r] = a[r] * a[r, col] % 3             # d * d = 1 in F_3
            others = np.arange(len(a)) != r
            a[others] = (a[others] - np.outer(a[others, col], a[r])) % 3
            r += 1
    return r
