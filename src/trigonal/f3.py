"""F_3, the one encoding of lines that both tables share, and the rank.

RANK is the rank of the lattice, the dimension of its reduction mod theta,
and the number of half-twist moves: the one statement of the rank.  The
package supports even ranks from 4 up, and the modules that size their
tables from RANK at import read it through `supported_rank`, which raises
ValueError for any other.  At an odd rank the alternating form mod theta
lives on an odd dimension, so it is degenerate (rank 8 at rank 9): there
is no symplectic space to match the classes with, and the classes fail
their transversal certificate.  Rank 2, a trigonal curve of genus
rank/2 - 1 = 0, has no basis vector a_3, the minus-6 witness that the
report pins, so its `minus6_certificates` row fails.  To run at another
rank, set `trigonal.f3.RANK` before any other module of the package is
imported.  The generators of both sides, the triflections and the
transvections, are numbered 1..rank, and `generator_index` is the one rule
that checks such a number.

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


def supported_rank() -> int:
    """RANK, or ValueError for an odd rank or one below 4."""
    if RANK % 2 or RANK < 4:
        raise ValueError(f"rank {RANK} is not supported: the package "
                         "supports even ranks from 4 up")
    return RANK


def generator_index(i, n: int) -> int:
    """A 1-based generator index, the one rule on both sides: an integer 1..n
    (numpy's too) as a plain int; TypeError for bool or float."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise TypeError(f"generator index must be an integer, got {i!r}")
    if not 1 <= i <= n:
        raise IndexError(f"generator index must be in 1..{n}, got {i!r}")
    return int(i)


def mod3(x):
    """x mod 3 for an integer array x, as x % 3 gives it: x - 3 * (x // 3),
    which runs 3 to 10 times faster than numpy's integer remainder (on
    29524 int8 entries, 7 against 74 us), since numpy divides by a scalar
    quickly.  In a narrow type a product that wraps still leaves the exact
    remainder, which lies in 0..2."""
    return x - 3 * (x // 3)


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
        column[:] = mod3(keys // int(weight))
    return digits.T


def negated_keys(rows, weights) -> np.ndarray:
    """The keys sum_j w_j * (-x_j mod 3) of the negated rows -x, read from
    the int8 digits one column at a time, so no (n, k) int64 copy is made."""
    keys = np.zeros(len(rows), dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    for column, weight in zip(np.asarray(rows).T, weights):
        keys += mod3(-column) * weight
    return keys


def digit_sums(coefficients) -> np.ndarray:
    """sum_j c_j * x_j mod 3 for every row x of `all_rows(len(c))`, in row
    order, as uint8: built one digit at a time from the last column, each
    new digit the outer axis, so no all_rows matrix is made and numpy's
    inner loop runs over the sums so far.  Each term is reduced to 0..2, so
    the sums stay below 2 * len(c) and are reduced once, at the end."""
    assert 2 * len(coefficients) <= np.iinfo(np.uint8).max
    sums = np.zeros(1, dtype=np.uint8)
    letters = np.arange(3, dtype=np.uint8)
    for c in reversed(coefficients):
        sums = np.add.outer(letters * np.uint8(c % 3) % 3, sums).reshape(-1)
    return mod3(sums)


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
