"""Reference routes the tests compare the package against.

Each oracle is written from its definition, independently of the code it
checks, and is defined here once for every test module.  None of them is
called by a command, so none of them lives in the package.
"""

import itertools
import operator

import numpy as np

from trigonal import lattice as lat
from trigonal import sympf3 as sp
from trigonal.eisenstein import (ONE, TAU, THETA, ZERO, EisensteinInt,
                                 div_exact, reduce_mod_theta)

#: the six relabelings of codes induced by simultaneous conjugation, the
#: maps c -> +-c + a, which are all of Sym(F_3), as rows in lexicographic
#: order: row k sends code c to ALPHABET_PERMS[k][c]
ALPHABET_PERMS = np.array(sorted(itertools.permutations(range(3))),
                          dtype=np.int8)


def f3_rank(m):
    """Row reduction over F_3, written independently of the module under test."""
    a = np.array(m, dtype=np.int64) % 3
    rank = 0
    for col in range(a.shape[1]):
        piv = None
        for r in range(rank, a.shape[0]):
            if a[r, col] % 3:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, 3)) % 3
        for r in range(a.shape[0]):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % 3
        rank += 1
    return rank


def leading_digits(rows):
    """The first nonzero digit of each row, 0 for a zero row: the canonical
    row of a line +-v is the one whose first nonzero digit is 1."""
    rows = np.atleast_2d(rows)
    lead = rows[:, -1].copy()
    for column in rows.T[-2::-1]:           # right to left: the first wins
        np.copyto(lead, column, where=column != 0)
    return lead


def brute_canonicalize(v):
    """Rows scaled by 2 where the first nonzero coordinate is 2."""
    lead = v[np.arange(v.shape[0]), np.argmax(v != 0, axis=1)]
    return np.where((lead == 2)[:, None], (2 * v) % 3, v)


def keys_of(vectors):
    """The base-3 keys of the point side, coordinate 0 least significant."""
    return np.asarray(vectors, dtype=np.int64) @ sp.POW3


def flat(x):
    """The flat Z-coordinates (p_1, q_1, ..., p_10, q_10) of the lattice
    vector x = sum_k (p_k + q_k tau) a_k, given by its EisensteinInt
    coordinates x_k = p_k + q_k tau."""
    return tuple(n for c in x for n in (c.a, c.b))


def eisenstein(z):
    """The EisensteinInt coordinates x_k = p_k + q_k tau of the lattice
    vector with flat Z-coordinates z = (p_1, q_1, ..., p_10, q_10)."""
    return tuple(EisensteinInt(p, q) for p, q in zip(z[::2], z[1::2]))


def vec_add(x, y):
    """The sum of two flat vectors, coordinate by coordinate."""
    return tuple(map(operator.add, x, y))


def scalar_matrix(c):
    """The 10x10 matrix c * I over the Eisenstein integers."""
    return tuple(tuple(c if i == j else ZERO for j in range(10))
                 for i in range(10))


def realify(m):
    """The 20x20 integer matrix of the Z-linear action of m on the Z-basis
    a_1, tau*a_1, a_2, ...: a + b*tau acts as the block [[a, -b], [b, a+b]]."""
    out = np.zeros((20, 20), dtype=object)
    for i in range(10):
        for j in range(10):
            c = m[i][j]
            out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[c.a, -c.b],
                                                      [c.b, c.a + c.b]]
    return out


def scale(c, z):
    """c * z for the Eisenstein integer c and the flat vector z."""
    return tuple(realify(scalar_matrix(c)) @ np.array(z, dtype=object))


def skew(x, y):
    """The rescaled form herm(x, y) / theta of two flat vectors, an exact
    Eisenstein integer."""
    return div_exact(EisensteinInt(*lat.herm(x, y)), THETA)


def reduce_vector(z):
    """A flat lattice vector reduced mod theta, coordinate by coordinate."""
    return np.array([reduce_mod_theta(c) for c in eisenstein(z)],
                    dtype=np.int8)


def symp(x, y):
    """The alternating form x^T SYMP_GRAM y over F_3."""
    return int(np.asarray(x, dtype=np.int64) @ sp.SYMP_GRAM.astype(np.int64)
               @ np.asarray(y, dtype=np.int64)) % 3


def walk_by_vector(start, radius):
    """The (z, word) pairs of the breadth-first walk from the flat vector
    `start` in the triflection Cayley graph, to `radius` steps, one vector
    and one letter at a time: each frontier vector in turn takes each
    letter (i, e), i = 1..10 and e = 1 then -1, through
    `apply_lattice_word`, and a vector is kept with the first word that
    reaches it."""
    letters = [(i, e) for i in range(1, 11) for e in (1, -1)]
    found = {start: ()}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for z in frontier:
            for letter in letters:
                y = lat.apply_lattice_word([letter], z)
                if y not in found:
                    found[y] = found[z] + (letter,)
                    nxt.append(y)
        frontier = nxt
    return list(found.items())


def hurwitz_move_codes(codes, i):
    """The move (u, v) -> (v, -u - v) at slots (i, i+1) of explicit code
    rows, 0 <= i <= 10."""
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int8)).copy()
    u, v = codes[:, i].copy(), codes[:, i + 1].copy()
    codes[:, i] = v
    codes[:, i + 1] = (-u - v) % 3
    return codes


def confluence_labels_by_deletion(codes, pos):
    """The confluence rule of (n, len) code rows at slots (pos, pos+1 mod
    len), 0=H, 1=RM, 2=SG, with the other letters copied out by np.delete:
    RM when the two letters differ, else H when the others are all equal,
    else SG."""
    codes = np.atleast_2d(codes)
    nxt = (pos + 1) % codes.shape[1]
    rest = np.delete(codes, [pos, nxt], axis=1)
    same_rest = (rest == rest[:, :1]).all(axis=1)
    return np.where(codes[:, pos] != codes[:, nxt], 1,
                    np.where(same_rest, 0, 2))


def point_vectors_by_differences(codes):
    """The closed form of the bijection on (n, len) code rows, summed as
    written: v_i = sum of d_k over k <= i, k = i (mod 2), d_k = t_k - t_{k-1},
    for i = 1..len-2, mod 3."""
    t = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    d = np.diff(t[:, :-1], axis=1)                  # d_1 .. d_{len-2}
    v = np.empty_like(d)
    v[:, 0::2] = np.cumsum(d[:, 0::2], axis=1)      # odd i: d_1 + d_3 + ...
    v[:, 1::2] = np.cumsum(d[:, 1::2], axis=1)      # even i: d_2 + d_4 + ...
    return v % 3


def realified_chain_gram(rank):
    """The 2*rank x 2*rank Gram matrix of -(2/3) * Re herm on the Z-basis
    a_1, tau*a_1, a_2, ... of the chain lattice of `rank`, from its
    definition: herm(a_i, a_i) = -3, herm(a_i, a_{i+1}) = theta =
    -herm(a_{i+1}, a_i), herm(s*x, t*y) = s * conj(t) * herm(x, y), and
    Re(a + b*tau) = a + b/2."""
    chain = {0: EisensteinInt(-3), 1: THETA, -1: -THETA}
    rows = []
    for i, s in itertools.product(range(rank), (ONE, TAU)):
        row = []
        for j, t in itertools.product(range(rank), (ONE, TAU)):
            h = s * t.conj() * chain.get(j - i, ZERO)
            assert (2 * h.a + h.b) % 3 == 0
            row.append(-(2 * h.a + h.b) // 3)
        rows.append(row)
    return rows
