"""
A rank-10 hermitian lattice over the Eisenstein integers and its triflections.

The lattice L is free of rank 10 with basis a_1, ..., a_10 and carries the
hermitian form given by the chain Gram matrix

    herm(a_i, a_i)     = -3
    herm(a_i, a_{i+1}) = +theta        (and herm(a_{i+1}, a_i) = -theta)
    herm(a_i, a_j)     = 0             for |i - j| >= 2.

The form is linear in its first argument and conjugate-linear in the second.
All its values lie in theta*Z[tau], so the rescaled form

    skew(x, y) = herm(x, y) / theta

is integral; it satisfies skew(y, x) = -conj(skew(x, y)).

For each basis vector a_i there is a triflection

    s_i(x) = x + tau * skew(x, a_i) * a_i,

an order-3 isometry of L multiplying a_i by the primitive cube root tau^2
and fixing the orthogonal complement of a_i pointwise.  The ten triflections
satisfy the braid relations of the A-chain.  This module defines them once,
as s_i^e(x) = x + c_e * skew(x, a_i) * a_i with c_{+1} = tau and
c_{-1} = tau^2 (so s_i^{-1} = s_i^2).  The matrices `triflection`,
`word_matrix` and `step_matrix`, the vector action `apply_lattice_word`
and the norm -6 walk of `decompose_minus6` are all derived from that
formula; that walk is `_walk`, the one breadth-first walk of the
triflection Cayley graph, which also builds the seed ball.

Flat Z-coordinates.  As a Z-module L is free of rank 20 with basis
a_1, tau*a_1, a_2, tau*a_2, ...; the vector sum_k (p_k + q_k*tau) a_k has
the flat coordinates (p_1, q_1, p_2, q_2, ...), a tuple of 20 Python ints.
This is the one form of a vector, at the API too: `basis_vector`,
`apply_lattice_word`, `decompose_minus6` and `minus6_witness` take and
return flat tuples; `_step` moves them; `herm` pairs them through the two
integer matrices A and B of herm(x, y) = x^T A y + (x^T B y) * tau and
returns the pair (x^T A y, x^T B y); `step_matrix` gives the 20x20 integer
matrix of a triflection on this basis; `preserves_realified_form` checks
R^T A R = A and R^T B R = B; and `realify_and_certify` certifies the Gram
matrix -(2A + B)/3.  Every int64 matrix product is covered by a checked
bound that raises OverflowError instead of letting an entry wrap: `matmul`
checks one product, and `require_int64_products` all products of a few
matrices at once.  The walk expands a level at a time through the step
matrices, as one `matmul` of the frontier.

EisensteinInt remains only where a value is divided or printed: the chain
`GRAM` (the source of A, B and the `_step` rows, and the `export gram`
JSON), the minus-6 witness's value and its divisibility tests, and the
10x10 matrices of `word_matrix`, `triflection` and `compose`, which no
command path builds.

The real part of the form, rescaled by -2/3, turns the rank-20 underlying
Z-module into an even unimodular quadratic lattice of signature (18, 2);
`realify_and_certify` computes that certificate exactly.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

import numpy as np

from .eisenstein import (
    ZERO, ONE, TAU, TAU2, THETA,
    EisensteinInt, div_exact, divides,
)
from .f3 import generator_index, supported_rank

RANK = supported_rank()
Matrix = tuple  # 10x10 nested tuple of EisensteinInt, row major


#: the chain's entries GRAM[i][i + d] by the offset d; zero off the chain
_CHAIN = {0: EisensteinInt(-3), 1: THETA, -1: -THETA}
GRAM: Matrix = tuple(tuple(_CHAIN.get(j - i, ZERO) for j in range(RANK))
                     for i in range(RANK))


# -- vectors ------------------------------------------------------------------

def basis_vector(i: int) -> tuple:
    """The flat coordinates of the basis vector a_i, 1 <= i <= 10: the unit
    tuple of 20 ints with its 1 at index 2i - 2."""
    k = 2 * generator_index(i, RANK) - 2
    return (0,) * k + (1,) + (0,) * (2 * RANK - 1 - k)


def _unflat(z) -> tuple:
    """The EisensteinInt coordinates p_k + q_k*tau of the flat vector z."""
    return tuple(EisensteinInt(p, q) for p, q in zip(z[::2], z[1::2]))


# -- exact int64 products ----------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _abs_max(m: np.ndarray) -> int:
    return max(abs(int(m.max(initial=0))), abs(int(m.min(initial=0))))


def require_int64_products(mats, factors: int) -> None:
    """OverflowError unless every product of at most `factors` of the n x n
    int64 matrices `mats` is exact: each partial sum of an entry of such a
    product is at most n^(factors - 1) * max|m|^factors in size."""
    n = len(mats[0])
    if n ** (factors - 1) * max(map(_abs_max, mats)) ** factors > _INT64_MAX:
        raise OverflowError("int64 matrix products could overflow")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int64 product a @ b, exact: every partial sum of an entry is at
    most inner * max|a| * max|b| in size, and OverflowError is raised when
    that bound does not fit in int64."""
    if a.shape[1] * _abs_max(a) * _abs_max(b) > _INT64_MAX:
        raise OverflowError("int64 matrix product could overflow")
    return a @ b


def _int64(rows) -> np.ndarray:
    """A read-only int64 array; OverflowError if an entry does not fit."""
    m = np.array(rows, dtype=np.int64)
    m.flags.writeable = False
    return m


# -- the form ------------------------------------------------------------------
#
# On the Z-basis, herm(s a_i, t a_j) = s * conj(t) * GRAM[i][j] for s, t in
# {1, tau}; its two integer components are the entries of A and B.

_SCALARS = (ONE, TAU)  # multipliers giving the Z-basis order a_i, tau*a_i


@functools.cache
def _form_components() -> tuple[np.ndarray, np.ndarray]:
    """The 20x20 integer matrices A and B of herm on the Z-basis:
    herm(x, y) = x^T A y + (x^T B y) tau."""
    h = [[s * t.conj() * GRAM[i][j] for j in range(RANK) for t in _SCALARS]
         for i in range(RANK) for s in _SCALARS]
    return (_int64([[c.a for c in row] for row in h]),
            _int64([[c.b for c in row] for row in h]))


@functools.cache
def _herm_rows() -> tuple:
    """Per flat index p, the nonzero (q, A[p][q], B[p][q])."""
    a, b = (m.tolist() for m in _form_components())
    return tuple(tuple((q, a[p][q], b[p][q]) for q in range(2 * RANK)
                       if a[p][q] or b[p][q])
                 for p in range(2 * RANK))


def herm(x: tuple, y: tuple) -> tuple[int, int]:
    """The hermitian form on flat coordinates, linear in x and
    conjugate-linear in y: the pair (re, im) of herm(x, y) = re + im*tau,
    that is (x^T A y, x^T B y)."""
    re = im = 0
    for xp, row in zip(x, _herm_rows()):
        if xp:
            for q, ca, cb in row:
                t = xp * y[q]
                re += ca * t
                im += cb * t
    return re, im


# -- matrices ------------------------------------------------------------------

def compose(m: Matrix, n: Matrix) -> Matrix:
    """The product m*n, i.e. the map applying n first, then m."""
    return tuple(
        tuple(sum((m[i][k] * n[k][j] for k in range(RANK) if m[i][k]), ZERO)
              for j in range(RANK))
        for i in range(RANK))


def preserves_realified_form(r: np.ndarray) -> bool:
    """Whether the integer matrix r on the Z-basis is an isometry of herm:
    r^T A r = A and r^T B r = B."""
    return all((matmul(matmul(r.T, c), r) == c).all()
               for c in _form_components())


# -- triflections ----------------------------------------------------------------
#
# skew(x, a_i) = sum_j x_j * GRAM[j][i-1] / theta reads column i-1 of GRAM,
# whose only nonzero entries sit in rows i-2, i-1 and i.  So s_i^e changes
# coordinate i-1 alone and reads only that coordinate and its two neighbours:
# row i-1 of the matrix of s_i is (tau, tau^2, -tau) over columns i-2, i-1, i,
# and that of s_i^{-1} is (tau^2, -tau, -tau^2).  On flat coordinates it
# changes the pair (2i-2, 2i-1): multiplying p + q*tau by m = u + v*tau gives
# (u p - v q) + (v p + (u + v) q) tau.

#: c_e in s_i^e(x) = x + c_e * skew(x, a_i) * a_i; s_i^{-1} = s_i^2
_COEFF = {1: TAU, -1: TAU2}


def _exponent(e) -> int:
    """A letter's exponent, the one rule: the integer 1 or -1 (numpy's too)
    as a plain int; TypeError for bool, float or else, ValueError for others."""
    if isinstance(e, bool) or not isinstance(e, (int, np.integer)):
        raise TypeError(f"exponent must be an integer, got {e!r}")
    if e not in _COEFF:
        raise ValueError(f"exponent must be 1 or -1, got {e!r}")
    return int(e)


@functools.cache
def _step_rows(i: int, e: int) -> tuple:
    """The first flat coordinate 2i-2 that s_i^e changes, and the integer
    rows of the two it changes, each a tuple of (flat index, coefficient)
    over its nonzero coefficients."""
    g = i - 1
    re, im = [], []
    for j in range(RANK):
        if not GRAM[j][g]:
            continue
        m = _COEFF[e] * div_exact(GRAM[j][g], THETA) + (1 if j == g else 0)
        for k, cre, cim in ((2 * j, m.a, m.b), (2 * j + 1, -m.b, m.a + m.b)):
            if cre:
                re.append((k, cre))
            if cim:
                im.append((k, cim))
    return 2 * g, tuple(re), tuple(im)


def _step(z: tuple, i: int, e: int) -> tuple:
    """s_i^e on flat Z-coordinates, the one definition every triflection
    here is derived from."""
    k, re, im = _step_rows(i, e)
    return (z[:k] + (sum([c * z[j] for j, c in re]),
                     sum([c * z[j] for j, c in im])) + z[k + 2:])


def apply_lattice_word(word, z: tuple) -> tuple:
    """The image of the flat vector z under a word [(i, e), ...]; letters
    act in list order.

    Each letter is a generator index 1..10 with exponent e in {+1, -1}.
    """
    for i, e in word:
        z = _step(z, generator_index(i, RANK), _exponent(e))
    return z


def word_matrix(word) -> Matrix:
    """The matrix of a word [(i, e), ...]; letters act in list order.

    Column j is the image of a_j, so the first letter is applied first.
    """
    return tuple(zip(*(_unflat(apply_lattice_word(word, basis_vector(j)))
                       for j in range(1, RANK + 1))))


def triflection(i: int) -> Matrix:
    """The triflection s_i(x) = x + tau * skew(x, a_i) * a_i as a matrix."""
    return word_matrix([(i, 1)])


def step_matrix(i: int, e: int = 1) -> np.ndarray:
    """The read-only 20x20 int64 matrix of s_i^e on the Z-basis; column k is
    `_step` of the k-th unit vector."""
    return _step_matrix(generator_index(i, RANK), _exponent(e))


@functools.cache
def _step_matrix(i: int, e: int) -> np.ndarray:
    """The identity with the two rows that s_i^e changes read off
    `_step_rows`, the coefficients `_step` applies."""
    k, re, im = _step_rows(i, e)
    m = np.identity(2 * RANK, dtype=np.int64)
    m[k:k + 2] = 0
    for row, coefficients in zip(m[k:k + 2], (re, im)):
        for j, c in coefficients:
            row[j] = c
    m.flags.writeable = False
    return m


# -- realification ----------------------------------------------------------------
#
# The symmetric pairing is b(u, v) = -(2/3) * Re herm(u, v); with
# Re(a + b*tau) = a + b/2 this is -(2A + B)/3 on the Z-basis, integral
# because herm takes values in theta*Z[tau].


def realified_gram() -> list:
    """The 20x20 integer Gram matrix of -(2/3)*Re herm on the Z-basis."""
    a, b = _form_components()
    num = -(2 * a + b)
    bad = np.argwhere(num % 3)
    if bad.size:
        p, q = bad[0].tolist()
        raise ArithmeticError("realified pairing is not integral; "
                              f"entry ({p},{q}) = {num[p, q]}/3")
    return (num // 3).tolist()


def _swap(a, k: int, r: int) -> None:
    """Exchange basis vectors k and r of the symmetric matrix a."""
    a[k], a[r] = a[r], a[k]
    for row in a:
        row[k], row[r] = row[r], row[k]


def _det_and_signature(rows) -> tuple[int, tuple[int, int]]:
    """(det, (n_plus, n_minus)) of a symmetric integer matrix.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968): after step
    k every entry of the trailing block is a bordered (k+1)-minor, so each
    division by the previous pivot is exact and pivot k is the leading minor
    D_k.  A zero pivot is repaired by congruence, which keeps det and
    signature: a symmetric swap with a later nonzero diagonal entry, else
    e_k += e_o for a later o with a[k][o] != 0, making the pivot 2*a[k][o].
    A trailing row that is all zero is a radical direction: it moves to the
    end and drops out, and det is 0.  Each D_k / D_(k-1) < 0 counts one
    negative direction.
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    pos = neg = 0
    prev = 1
    k = 0
    while k < n:
        if a[k][k] == 0:
            d = next((d for d in range(k + 1, n) if a[d][d]), None)
            o = next((o for o in range(k + 1, n) if a[k][o]), None)
            if d is not None:
                _swap(a, k, d)
            elif o is not None:
                for c in range(k, n):
                    a[k][c] += a[o][c]
                for r in range(k, n):
                    a[r][k] += a[r][o]
            else:
                n -= 1
                _swap(a, k, n)
                continue
        pk, rk = a[k][k], a[k]
        if (pk < 0) == (prev < 0):
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            row, f = a[r], a[r][k]
            for c in range(k + 1, n):
                row[c] = (row[c] * pk - f * rk[c]) // prev
        prev = pk
        k += 1
    return (prev if n == len(a) else 0), (pos, neg)


def realified_signature(rank: int) -> tuple[int, int]:
    """The signature the realified chain form of `rank` must have, from an
    integer count.  The chain Gram has the hermitian eigenvalues
    -3 + 2*sqrt(3)*cos(pi*k/(rank + 1)), k = 1..rank, and one is positive
    exactly when cos(pi*k/(rank + 1)) > cos(pi/6), that is 6k < rank + 1;
    each positive one gives two negative directions of -(2/3)*Re herm."""
    positive = sum(1 for k in range(1, rank + 1) if 6 * k < rank + 1)
    return 2 * rank - 2 * positive, 2 * positive


def realified_abs_det(rank: int) -> int:
    """The |det| the realified chain form of `rank` must have: (D_rank)^2 /
    3^rank, from the chain's leading minors D_0 = 1, D_1 = -3 and D_n =
    -3 D_(n-1) - theta * (-theta) D_(n-2); 1 at rank 10, 4 at 2, 8, 14, 20."""
    prev, d = 1, -3
    for _ in range(rank - 1):
        prev, d = d, -3 * d - 3 * prev
    return d * d // 3 ** rank


def realify_and_certify() -> dict:
    """Certificate for the rescaled real form: even, unimodular, signature (18, 2).

    Returns {'is_even': bool, 'abs_det': int, 'signature': (pos, neg)} computed
    with exact integer arithmetic.
    """
    b = realified_gram()
    is_even = all(b[i][i] % 2 == 0 for i in range(2 * RANK))
    det, sig = _det_and_signature(b)
    return {"is_even": is_even, "abs_det": abs(det), "signature": sig}


# -- norm -6 vectors ---------------------------------------------------------------

_MOVES = tuple((i, e) for i in range(1, RANK + 1) for e in (1, -1))
SEARCH_BOUND = 8    # the longest word from a_1 + a_2 decompose_minus6 tries
#: a_1 + a_2, the norm -6 vector every decomposition walk starts from
MINUS6_SEED = tuple(map(operator.add, basis_vector(1), basis_vector(2)))


@functools.cache
def _move_images() -> np.ndarray:
    """The transposed step matrices of _MOVES side by side, read-only: row
    z of a frontier times this matrix holds the 20 images of z, in _MOVES
    order."""
    return _int64(np.hstack([_step_matrix(i, e).T for i, e in _MOVES]))


def _walk(start: tuple, radius: int):
    """(z, word) with start --word--> z for each flat vector z within
    `radius` steps of `start` in the triflection Cayley graph: breadth
    first, each z once and as soon as it is found (frontier first, then
    moves in _MOVES order), with the first word found for it, a shortest
    one.  Each level is expanded as one exact int64 product of the
    frontier with `_move_images`."""
    seen = {start}
    yield start, ()
    frontier = [(start, ())]
    for _ in range(radius):
        vectors = np.array([z for z, _ in frontier], dtype=np.int64)
        vectors = vectors.reshape(-1, 2 * RANK)
        images = matmul(vectors, _move_images()).reshape(-1, 2 * RANK)
        nxt = []
        for y, ((_, w), move) in zip(map(tuple, images.tolist()),
                                     itertools.product(frontier, _MOVES)):
            if y not in seen:
                seen.add(y)
                nxt.append((y, w + (move,)))
                yield nxt[-1]
        frontier = nxt


@functools.cache
def _seed_ball(radius: int) -> dict:
    """Words of length <= radius from a_1 + a_2, keyed by their flat image."""
    return dict(_walk(MINUS6_SEED, radius))


def decompose_minus6(eps: tuple):
    """Split the flat norm -6 vector eps as x + y with herm(x,x) =
    herm(y,y) = -3 and herm(x, y) = theta.

    The search is a meet-in-the-middle walk in the triflection Cayley graph:
    any eps reachable from a_1 + a_2 by a word of length <= SEARCH_BOUND is
    decomposed.  Returns the flat pair (x, y), or None when the bound is
    exhausted (which is never a refutation: the walk only explores a finite
    ball).  ArithmeticError if a split it finds fails one of its identities.
    """
    if herm(eps, eps) != (-6, 0):
        raise ValueError("decompose_minus6 requires herm(eps, eps) = -6")
    fwd_radius = SEARCH_BOUND // 2
    ball = _seed_ball(fwd_radius)
    for z, back_word in _walk(eps, SEARCH_BOUND - fwd_radius):
        if z in ball:
            # a_1+a_2 --ball[z]--> z <--back_word-- eps
            u = ball[z] + tuple((i, -e) for i, e in reversed(back_word))
            zx, zy = (apply_lattice_word(u, basis_vector(k)) for k in (1, 2))
            if tuple(map(operator.add, zx, zy)) != eps:
                raise ArithmeticError("decompose_minus6: x + y != eps")
            if not herm(zx, zx) == herm(zy, zy) == (-3, 0):
                raise ArithmeticError("decompose_minus6: "
                                      "herm(x, x) = herm(y, y) = -3 fails")
            if herm(zx, zy) != (THETA.a, THETA.b):
                raise ArithmeticError("decompose_minus6: "
                                      "herm(x, y) = theta fails")
            return zx, zy
    return None


class Minus6Witness(NamedTuple):
    """Evidence that the norm -6 vector eps admits no integral hexaflection.

    index: the basis vector x = a_index with herm(eps, x) not in 3*Z[tau];
    value: herm(eps, x); hexaflection_nonintegral: True when the map
    z -> z + herm(z, eps)/3 * eps indeed moves x outside the lattice.
    """
    index: int
    value: EisensteinInt
    hexaflection_nonintegral: bool


def minus6_witness(eps: tuple):
    """Search basis vectors for x with herm(eps, x) not divisible by 3,
    for the flat norm -6 vector eps.

    Basis vectors outside the support of eps are scanned first (in index
    order), mirroring the usual way such a witness is exhibited; support
    vectors follow as a fallback.  Returns a Minus6Witness, or None if no
    basis vector witnesses non-integrality.
    """
    if herm(eps, eps) != (-6, 0):
        raise ValueError("minus6_witness requires herm(eps, eps) = -6")
    three = EisensteinInt(3)
    coords = _unflat(eps)
    for i in sorted(range(1, RANK + 1), key=lambda i: bool(coords[i - 1])):
        value = EisensteinInt(*herm(eps, basis_vector(i)))
        if divides(three, value):
            continue
        # herm(x, eps) = conj(value); the hexaflection sends x to
        # x + herm(x, eps)/3 * eps, not in L iff some coordinate fails.
        hx = value.conj()
        nonintegral = any(not divides(three, hx * c) for c in coords if c)
        return Minus6Witness(i, value, nonintegral)
    return None
