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
c_{-1} = tau^2 (so s_i^{-1} = s_i^2).  The matrices `triflection` and
`word_matrix`, the vector action `apply_word` and the norm -6 walk of
`decompose_minus6` are all derived from that formula.

The real part of the form, rescaled by -2/3, turns the rank-20 underlying
Z-module into an even unimodular quadratic lattice of signature (18, 2);
`realify_and_certify` computes that certificate exactly.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .eisenstein import (
    ZERO, ONE, TAU, TAU2, THETA,
    EisensteinInt, div_exact, divides,
)

RANK = 10

Vector = tuple  # length-10 tuple of EisensteinInt
Matrix = tuple  # 10x10 nested tuple of EisensteinInt, row major


def _gram():
    rows = []
    for i in range(RANK):
        row = []
        for j in range(RANK):
            if i == j:
                row.append(EisensteinInt(-3))
            elif j == i + 1:
                row.append(THETA)
            elif j == i - 1:
                row.append(-THETA)
            else:
                row.append(ZERO)
        rows.append(tuple(row))
    return tuple(rows)


GRAM: Matrix = _gram()


# -- vectors ------------------------------------------------------------------

def basis_vector(i: int) -> Vector:
    """The basis vector a_i, 1 <= i <= 10."""
    _check_index(i)
    return tuple(ONE if k == i - 1 else ZERO for k in range(RANK))


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def _check_index(i: int):
    if not isinstance(i, int) or not 1 <= i <= RANK:
        raise IndexError(f"generator index must be in 1..{RANK}, got {i!r}")


# -- the form ------------------------------------------------------------------

def herm(x: Vector, y: Vector) -> EisensteinInt:
    """The hermitian form; linear in x, conjugate-linear in y.

    Only the tridiagonal Gram entries contribute.
    """
    total = ZERO
    for i in range(RANK):
        xi = x[i]
        if not xi:
            continue
        acc = xi * EisensteinInt(-3) * y[i].conj()
        if i + 1 < RANK:
            acc = acc + xi * THETA * y[i + 1].conj()
        if i - 1 >= 0:
            acc = acc - xi * THETA * y[i - 1].conj()
        total = total + acc
    return total


def skew(x: Vector, y: Vector) -> EisensteinInt:
    """herm(x, y) / theta, an exact Eisenstein integer."""
    return div_exact(herm(x, y), THETA)


# -- matrices ------------------------------------------------------------------

def apply(m: Matrix, x: Vector) -> Vector:
    """Matrix-vector product; x is a column of coordinates in the a_i basis."""
    return tuple(sum((m[i][j] * x[j] for j in range(RANK) if x[j]), ZERO)
                 for i in range(RANK))


def compose(m: Matrix, n: Matrix) -> Matrix:
    """The product m*n, i.e. the map applying n first, then m."""
    return tuple(
        tuple(sum((m[i][k] * n[k][j] for k in range(RANK) if m[i][k]), ZERO)
              for j in range(RANK))
        for i in range(RANK))


def preserves_form(m: Matrix) -> bool:
    """Whether herm(m*a_i, m*a_j) = herm(a_i, a_j) for all basis pairs."""
    cols = [apply(m, basis_vector(i)) for i in range(1, RANK + 1)]
    for i in range(RANK):
        for j in range(RANK):
            if herm(cols[i], cols[j]) != GRAM[i][j]:
                return False
    return True


# -- triflections ----------------------------------------------------------------
#
# skew(x, a_i) = sum_j x_j * GRAM[j][i-1] / theta reads column i-1 of GRAM,
# whose only nonzero entries sit in rows i-2, i-1 and i.  So s_i^e changes
# coordinate i-1 alone and reads only that coordinate and its two neighbours:
# row i-1 of the matrix of s_i is (tau, tau^2, -tau) over columns i-2, i-1, i,
# and that of s_i^{-1} is (tau^2, -tau, -tau^2).

_SKEW_COLUMNS = tuple(
    tuple((j, div_exact(GRAM[j][g], THETA)) for j in range(RANK) if GRAM[j][g])
    for g in range(RANK))

#: c_e in s_i^e(x) = x + c_e * skew(x, a_i) * a_i; s_i^{-1} = s_i^2
_COEFF = {1: TAU, -1: TAU2}


def _step(x: Vector, i: int, e: int) -> Vector:
    """s_i^e(x), the one definition every triflection here is derived from."""
    g = i - 1
    k = sum((x[j] * c for j, c in _SKEW_COLUMNS[g]), ZERO)
    return x[:g] + (x[g] + _COEFF[e] * k,) + x[g + 1:]


def apply_word(word, x: Vector) -> Vector:
    """The image of x under a word [(i, e), ...]; letters act in list order.

    Each letter is a generator index 1..10 with exponent e in {+1, -1}.
    """
    for i, e in word:
        _check_index(i)
        x = _step(x, i, e)
    return x


def word_matrix(word) -> Matrix:
    """The matrix of a word [(i, e), ...]; letters act in list order.

    Column j is the image of a_j, so the first letter is applied first.
    """
    return tuple(zip(*(apply_word(word, basis_vector(j))
                       for j in range(1, RANK + 1))))


def triflection(i: int) -> Matrix:
    """The triflection s_i(x) = x + tau * skew(x, a_i) * a_i as a matrix."""
    return word_matrix([(i, 1)])


# -- serialization --------------------------------------------------------------

def matrix_to_json(m: Matrix) -> list:
    return [[c.to_json() for c in row] for row in m]


# -- realification ----------------------------------------------------------------
#
# Z-basis of the underlying rank-20 Z-module: a_1, tau*a_1, a_2, tau*a_2, ...
# The symmetric pairing is b(u, v) = -(2/3) * Re herm(u, v); with
# Re(a + b*tau) = a + b/2 this is -(2a + b)/3, integral because herm takes
# values in theta*Z[tau].

_SCALARS = (ONE, TAU)  # multipliers giving the Z-basis order a_i, tau*a_i


def realified_gram() -> list:
    """The 20x20 integer Gram matrix of -(2/3)*Re herm on the Z-basis."""
    out = [[0] * (2 * RANK) for _ in range(2 * RANK)]
    for i in range(RANK):
        for si, s in enumerate(_SCALARS):
            for j in range(RANK):
                for sj, t in enumerate(_SCALARS):
                    h = s * t.conj() * GRAM[i][j]
                    num = -(2 * h.a + h.b)
                    if num % 3 != 0:
                        raise ArithmeticError(
                            "realified pairing is not integral; "
                            f"entry ({i},{si},{j},{sj}) = {h}")
                    out[2 * i + si][2 * j + sj] = num // 3
    return out


def _det_exact(rows) -> int:
    """Determinant of an integer matrix via fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] * inv
            if f == 0:
                continue
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    assert det.denominator == 1
    return int(det)


def _signature_exact(rows):
    """Signature (n_plus, n_minus) of a symmetric matrix over Q.

    Diagonalizes by congruence with exact rationals; a nondegenerate input
    yields n_plus + n_minus = dim.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((c for c in range(k + 1, n) if a[k][c] != 0), None)
                if other is None:
                    continue  # degenerate direction contributes nothing
                for c in range(n):
                    a[k][c] += a[other][c]
                for r in range(n):
                    a[r][k] += a[r][other]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            f = a[r][k] / d
            if f == 0:
                continue
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
        for c in range(k + 1, n):
            f = a[k][c] / d
            if f == 0:
                continue
            for r in range(k, n):
                a[r][c] -= f * a[r][k]
    return pos, neg


def realify_and_certify() -> dict:
    """Certificate for the rescaled real form: even, unimodular, signature (18, 2).

    Returns {'is_even': bool, 'abs_det': int, 'signature': (pos, neg)} computed
    with exact integer/rational arithmetic.
    """
    b = realified_gram()
    is_even = all(b[i][i] % 2 == 0 for i in range(2 * RANK))
    det = _det_exact(b)
    sig = _signature_exact(b)
    return {"is_even": is_even, "abs_det": abs(det), "signature": sig}


# -- norm -6 vectors ---------------------------------------------------------------

_MOVES = tuple((i, e) for i in range(1, RANK + 1) for e in (1, -1))


@functools.cache
def _seed_ball(radius: int) -> dict:
    """Words of length <= radius from a_1 + a_2, keyed by their image."""
    seed = vec_add(basis_vector(1), basis_vector(2))
    ball = {seed: ()}
    frontier = [seed]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            w = ball[x]
            for i, e in _MOVES:
                y = _step(x, i, e)
                if y not in ball:
                    ball[y] = w + ((i, e),)
                    nxt.append(y)
        frontier = nxt
    return ball


def decompose_minus6(eps: Vector, search_bound: int = 8):
    """Split a norm -6 vector as x + y with herm(x,x) = herm(y,y) = -3
    and herm(x, y) = theta.

    The search is a meet-in-the-middle walk in the triflection Cayley graph:
    any eps reachable from a_1 + a_2 by a word of length <= search_bound is
    decomposed.  Returns (x, y), or None when the bound is exhausted (which
    is never a refutation: the walk only explores a finite ball).
    """
    if herm(eps, eps) != EisensteinInt(-6):
        raise ValueError("decompose_minus6 requires herm(eps, eps) = -6")
    fwd_radius = search_bound // 2
    ball = _seed_ball(fwd_radius)

    def _reconstruct(meet: Vector, back_word):
        # a_1+a_2 --ball[meet]--> meet <--back_word-- eps
        u = ball[meet] + tuple((i, -e) for i, e in reversed(back_word))
        x = apply_word(u, basis_vector(1))
        y = apply_word(u, basis_vector(2))
        assert vec_add(x, y) == eps
        assert herm(x, x) == EisensteinInt(-3)
        assert herm(y, y) == EisensteinInt(-3)
        assert herm(x, y) == THETA
        return x, y

    if eps in ball:
        return _reconstruct(eps, ())
    seen = {eps: ()}
    frontier = [eps]
    for _ in range(search_bound - fwd_radius):
        nxt = []
        for x in frontier:
            w = seen[x]
            for i, e in _MOVES:
                y = _step(x, i, e)
                if y in seen:
                    continue
                wy = w + ((i, e),)
                if y in ball:
                    return _reconstruct(y, wy)
                seen[y] = wy
                nxt.append(y)
        frontier = nxt
    return None


class Minus6Witness:
    """Evidence that the norm -6 vector eps admits no integral hexaflection.

    index/vector: the basis vector x = a_index with herm(eps, x) not in
    3*Z[tau]; value: herm(eps, x); hexaflection_nonintegral: True when the
    map z -> z + herm(z, eps)/3 * eps indeed moves x outside the lattice.
    """

    __slots__ = ("index", "vector", "value", "hexaflection_nonintegral")

    def __init__(self, index, vector, value, hexaflection_nonintegral):
        self.index = index
        self.vector = vector
        self.value = value
        self.hexaflection_nonintegral = hexaflection_nonintegral

    def to_json(self):
        return {
            "index": self.index,
            "value": self.value.to_json(),
            "hexaflection_nonintegral": self.hexaflection_nonintegral,
        }


def minus6_witness(eps: Vector):
    """Search basis vectors for x with herm(eps, x) not divisible by 3.

    Basis vectors outside the support of eps are scanned first (in index
    order), mirroring the usual way such a witness is exhibited; support
    vectors follow as a fallback.  Returns a Minus6Witness, or None if no
    basis vector witnesses non-integrality.
    """
    if herm(eps, eps) != EisensteinInt(-6):
        raise ValueError("minus6_witness requires herm(eps, eps) = -6")
    three = EisensteinInt(3)
    indices = [i for i in range(1, RANK + 1) if not eps[i - 1]]
    indices += [i for i in range(1, RANK + 1) if eps[i - 1]]
    for i in indices:
        x = basis_vector(i)
        value = herm(eps, x)
        if divides(three, value):
            continue
        # herm(x, eps) = conj(value); the hexaflection sends x to
        # x + herm(x, eps)/3 * eps, not in L iff some coordinate fails.
        hx = value.conj()
        nonintegral = any(not divides(three, hx * c) for c in eps if c)
        return Minus6Witness(i, x, value, nonintegral)
    return None

