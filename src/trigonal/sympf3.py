"""The 10-dimensional symplectic F_3-space obtained from the lattice mod theta.

Reduction mod theta sends the lattice onto F_3^10; the rescaled form skew
descends to a nondegenerate alternating form with symp(alpha_i, alpha_{i+1}) = 1
on the images alpha_i of the basis vectors.  Triflections descend to the
symplectic transvections x -> x - symp(x, alpha_i) * alpha_i.

Projective points are the (3^10 - 1)/2 = 29524 lines of F_3^10.  A line is
represented by its canonical vector (first nonzero coordinate equal to 1,
the canonical form of `f3` that the classes use too) and indexed by the
rank of that vector in ascending base-3 key order, where coordinate 0 is the
least significant digit; the first point is the line of (1, 0, ..., 0).
A transvection sends rep(p) to +rep(q) or -rep(q), where q is the image
point; one sign mask per transvection records which, so the orbit of a
vector and the order of Sp_10(F_3) are read off the point action.

Lines are classified relative to a fixed line ell as
    H  : the line is ell itself,
    RM : orthogonal to ell but different from it,
    SG : not orthogonal to ell,
giving counts {H: 1, RM: (3^9-1)/2 - 1 = 9840, SG: 3^9 = 19683}.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import lattice
from .eisenstein import ONE, TAU, THETA, div_exact, reduce_mod_theta
from .f3 import (all_rows, generator_index, key_digits, mod3, negated_keys,
                 signed_index)
from .schreier import orbit_bfs, orbit_sizes

DIM = lattice.RANK
N_VECTORS = 3 ** DIM            # 59049, including zero
N_POINTS = (3 ** DIM - 1) // 2  # 29524

POW3 = (3 ** np.arange(DIM, dtype=np.int64))  # coordinate 0 least significant

LINE_CLASSES = ("H", "RM", "SG")
#: the lines of each class relative to a fixed line ell: ell-perp is a
#: hyperplane of 3^(DIM-1) vectors, RM is its lines other than ell, and SG
#: the 3^(DIM-1) points off it
LINE_CLASS_COUNTS = {"H": 1, "RM": (3 ** (DIM - 1) - 1) // 2 - 1,
                     "SG": 3 ** (DIM - 1)}


def reduction_matrix() -> np.ndarray:
    """The 10x20 int64 matrix of reduction mod theta on the lattice's flat
    Z-coordinates (p_1, q_1, p_2, ...): p + q*tau -> p*red(1) + q*red(tau)."""
    units = [reduce_mod_theta(s) for s in (ONE, TAU)]
    return np.kron(np.identity(DIM, dtype=np.int64), units)


#: symp(alpha_i, alpha_j) = skew(a_i, a_j) mod theta
#:                        = (GRAM[i][j] / theta) mod theta
SYMP_GRAM = np.array([[reduce_mod_theta(div_exact(c, THETA)) for c in row]
                      for row in lattice.GRAM], dtype=np.int8)


def transvection(i: int) -> np.ndarray:
    """Matrix of x -> x - symp(x, alpha_i) * alpha_i (column convention)."""
    g = generator_index(i, DIM) - 1
    m = np.identity(DIM, dtype=np.int8)
    m[g, :] = (m[g, :] - SYMP_GRAM[:, g]) % 3
    return m


#: SYMP_GRAM as int64, cast once for the products with int64 vectors
_SYMP_GRAM64 = SYMP_GRAM.astype(np.int64)


def _dot_mod3(vectors: np.ndarray, c: list) -> np.ndarray:
    """x . c mod 3 for every row x of the int8 array `vectors`, as uint8,
    with c a list of ints 0..2.

    Only the columns where c is nonzero are read.  The rows have entries
    0..2, so each term is at most 4 and the sum stays unsigned and below
    256; it is reduced once, through `f3.mod3`.
    """
    assert 4 * len(c) <= np.iinfo(np.uint8).max
    columns = vectors.view(np.uint8)
    total = np.zeros(len(columns), dtype=np.uint8)
    for j, cj in enumerate(c):
        if cj:
            total += cj * columns[:, j]
    return mod3(total)


def symp_with(vectors: np.ndarray, w) -> np.ndarray:
    """symp(x, w) for every row x of the int8 array `vectors`: x .
    (SYMP_GRAM w), whose only nonzero entries, two for a basis vector w
    under the chain form, are read."""
    return _dot_mod3(vectors, (_SYMP_GRAM64 @ np.asarray(w, dtype=np.int64)
                               % 3).tolist())


def _transvect_keys(vectors: np.ndarray, keys: np.ndarray, i: int) -> np.ndarray:
    """Keys of the rows x (with keys `keys`) after transvection i.

    Transvection i changes only coordinate g = i - 1, to
    x'_g = x_g - symp(x, alpha_i) mod 3, which is row g of transvection(i)
    applied to x; so the key moves by (x'_g - x_g) * 3^g.  The keys keep
    their integer type: the moved keys also lie in range(3^DIM).
    """
    g = i - 1
    moved = _dot_mod3(vectors, transvection(i)[g].tolist())
    step = moved.view(np.int8) - vectors[:, g]        # -2..2, in int8
    return keys + step.astype(keys.dtype) * int(POW3[g])


class ProjectiveTable:
    """Canonical line representatives, index lookups and generator actions."""

    def __init__(self):
        # the vectors whose first nonzero coordinate is 1, in ascending key
        # order (coordinate 0 least significant): one block per coordinate
        # p of the leading 1, the keys 3^p mod 3^(p+1)
        canonical = np.zeros(N_VECTORS, dtype=bool)
        for weight in POW3.tolist():
            canonical[weight::3 * weight] = True
        self.keys = np.flatnonzero(canonical).astype(np.int32)
        del canonical                       # freed before the index is built
        assert self.keys.size == N_POINTS
        self.reps = key_digits(self.keys, POW3)     # (29524, 10) canonical rows
        # v and 2v = -v span one point, so every nonzero key is indexed
        self.point_index = signed_index(N_VECTORS, self.keys,
                                        negated_keys(self.reps, POW3))

        self._transvection_perms: np.ndarray | None = None   # (DIM, N_POINTS)
        self._transvection_signs: np.ndarray | None = None   # (DIM, N_POINTS)

    # -- lookups -------------------------------------------------------------

    def basis_point(self, i: int) -> int:
        """The point [alpha_i], 1 <= i <= 10."""
        return int(self.point_index[POW3[generator_index(i, DIM) - 1]])

    # -- actions -------------------------------------------------------------

    def transvections(self) -> tuple[np.ndarray, np.ndarray]:
        """The transvections on signed points, as (perms, signs), each one
        (DIM, N_POINTS) array with row i - 1 for transvection i: they send
        the vector rep(p) to -rep(q) where signs[i - 1, p] is set, else to
        +rep(q), with q = perms[i - 1, p].  Both are read off the same
        images, built once per table."""
        if self._transvection_perms is None:
            # the int32 keys and their images lie in range(3^DIM)
            assert N_VECTORS <= np.iinfo(np.int32).max
            perms = np.empty((DIM, N_POINTS), dtype=np.int32)
            signs = np.empty((DIM, N_POINTS), dtype=bool)
            for g in range(DIM):
                images = _transvect_keys(self.reps, self.keys, g + 1)
                np.take(self.point_index, images, out=perms[g])
                # an image is -rep(q) exactly when its key is not rep(q)'s
                np.not_equal(np.take(self.keys, perms[g]), images,
                             out=signs[g])
            assert (perms >= 0).all()
            self._transvection_perms, self._transvection_signs = perms, signs
        return self._transvection_perms, self._transvection_signs

    def all_transvection_perms(self) -> np.ndarray:
        """The ten point permutations, the int32 rows of one (DIM, N_POINTS)
        array: row i - 1 is transvection i."""
        return self.transvections()[0]

    def vector_perm(self, i: int) -> np.ndarray:
        """The permutation of all 3^10 vector keys (0 is fixed): the dense
        form of the signed action, which no command reads.  It rebuilds
        the rows of F_3^10, which the table does not keep."""
        i = generator_index(i, DIM)
        vectors = all_rows(DIM)[:, ::-1]            # row k has key k
        return _transvect_keys(vectors, np.arange(N_VECTORS, dtype=np.int64), i)

    def orbit_of_points(self):
        """The Schreier tree of point 0 under the transvections."""
        return orbit_bfs(self.all_transvection_perms(), 0)

    def orbit_of_nonzero_vectors(self) -> tuple[int, int]:
        """The sizes of the orbits of point 0 and of its vector
        (1, 0, ..., 0) under the transvections, from one traversal of the
        signed points."""
        perms, signs = self.transvections()
        return orbit_sizes(perms, 0, signs)


@functools.cache
def get_table() -> ProjectiveTable:
    return ProjectiveTable()


# -- classification ------------------------------------------------------------

def _label_codes(s: np.ndarray, is_ell) -> np.ndarray:
    """The rule, coded 0=H, 1=RM, 2=SG, for whole tables: H for the line
    ell itself (`is_ell`, a mask or an index), otherwise RM when
    symp(v, ell) = 0 (`s`), otherwise SG.  `line_labels` is its one-row
    form."""
    out = np.int8(1) + (s != 0)
    out[is_ell] = 0
    return out


#: the columns of SYMP_GRAM as Python lists, for the one-row form
_SYMP_COLUMNS = SYMP_GRAM.T.tolist()


def line_labels(v: list, ell: list) -> int:
    """The label code of `_label_codes` for one nonzero vector v relative
    to one line [ell], lists of DIM ints 0..2, without numpy: SG when
    symp(v, ell) = v . (SYMP_GRAM ell) is nonzero mod 3, otherwise H when
    v = ell or v = 2 ell = -ell, otherwise RM.  The form is alternating,
    so the line ell has symp 0 with itself, and testing symp first gives
    the same labels.  Only the columns of SYMP_GRAM where ell is nonzero
    are read."""
    symp = 0
    for e, column in zip(ell, _SYMP_COLUMNS):
        if e:
            symp += e * sum(map(operator.mul, v, column))
    if symp % 3:
        return 2
    return 0 if v == ell or v == [2 * e % 3 for e in ell] else 1


def classify_line(m_idx: int, ell_idx: int) -> str:
    """Class of the line m relative to the fixed line ell: H, RM or SG."""
    reps = get_table().reps
    return LINE_CLASSES[line_labels(reps[m_idx].tolist(),
                                    reps[ell_idx].tolist())]


def line_class_vector(ell_idx: int) -> np.ndarray:
    """Classes of every point relative to ell, coded 0=H, 1=RM, 2=SG.

    The rows of the table's `reps` are canonical and row ell_idx is ell, so
    the only H is the index itself."""
    table = get_table()
    return _label_codes(symp_with(table.reps, table.reps[ell_idx]), ell_idx)


def label_counts(labels) -> dict:
    """Counts of the label codes 0=H, 1=RM, 2=SG of either trichotomy."""
    return dict(zip(LINE_CLASSES, np.bincount(labels, minlength=3).tolist()))
