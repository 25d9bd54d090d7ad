"""Orbit enumeration with Schreier trees, and a permutation-group order
certificate from the stabilizer chain of a generator list, for permutations
stored as dense numpy index arrays.

A permutation on n points is an int array p of length n with image p[x],
stored int32: every point count here is below 2^31.  Composition (p after
q) is the gather np.take(p, q).  numpy's fancy index p[q] converts a
non-intp q to intp element by element, which on 29524 points takes twice
as long as np.take (106 against 54 us); so an int32 array that drives
several scatters is widened once, with astype(np.intp).  A word is a list of
generator indices, applied first letter first, and a Schreier generator is a
pair of such words: two forward tree paths that end at the same point.

A signed permutation is a permutation g with a boolean mask s: it sends the
signed point +p to -g[p] where s[p] is set, else to +g[p], and -p to the
opposite sign.  The transvections act so on the vectors +-rep(p) of the
projective points, which spares the dense action on all 3^10 vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def generator_index(i, n: int) -> int:
    """A 1-based generator index, the one rule on both sides: an integer 1..n
    (numpy's too) as a plain int; TypeError for bool or float."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise TypeError(f"generator index must be an integer, got {i!r}")
    if not 1 <= i <= n:
        raise IndexError(f"generator index must be in 1..{n}, got {i!r}")
    return int(i)


@dataclass
class OrbitResult:
    """BFS tree of a generator action from one seed.

    order: points in BFS order (the seed first, each level ascending);
    parent/parent_gen: the tree edge through which a point was first reached
    (-1 for the seed and off the orbit); depth: distance from the seed, or -1.

    `order` and `parent` are int32, like the permutations, and are read
    through np.take or widened once (see the module docstring);
    `parent_gen` and `depth` are values, stored in the narrowest signed
    type that holds the generator count and the point count.
    """
    order: np.ndarray
    parent: np.ndarray
    parent_gen: np.ndarray
    depth: np.ndarray

    @property
    def size(self) -> int:
        return int(self.order.size)


def _root(n_points: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The visited mask and the first frontier of a traversal from the seed;
    IndexError for a seed outside range(n_points), which numpy would
    otherwise read from the end."""
    if not 0 <= seed < n_points:
        raise IndexError(f"seed {seed} is not in range({n_points})")
    visited = np.zeros(n_points, dtype=bool)
    visited[seed] = True
    return visited, np.array([seed], dtype=np.intp)


def orbit_bfs(n_points: int, gens, seed) -> OrbitResult:
    """Deterministic BFS orbit of the seed under the generator arrays.

    Each generator must be a permutation of range(n_points): the BFS relies
    on g[frontier] never repeating a point.  Each level is processed with
    generators in list order and parents in ascending point order, and a
    point is claimed by the first edge that reaches it, so the Schreier tree
    does not depend on timing.
    """
    parent = np.full(n_points, -1, dtype=np.int32)
    parent_gen = np.full(n_points, -1,
                         dtype=np.min_scalar_type(-1 - len(gens)))
    depth = np.full(n_points, -1, dtype=np.min_scalar_type(-1 - n_points))
    visited, frontier = _root(n_points, seed)
    reached = np.zeros(n_points, dtype=bool)     # the level being built
    depth[frontier] = 0
    order = [frontier]
    d = 0
    while frontier.size:
        d += 1
        # a permutation sends distinct parents to distinct points, so points
        # collide only across generators, where `visited` keeps the first
        for gi, g in enumerate(gens):
            imgs = g[frontier].astype(np.intp)   # a gather and four scatters
            fresh = ~visited[imgs]
            pts = imgs[fresh]
            visited[pts] = True
            reached[pts] = True
            parent[pts] = frontier[fresh]
            parent_gen[pts] = gi
        frontier = np.flatnonzero(reached)       # ascending
        reached[frontier] = False
        depth[frontier] = d
        if frontier.size:
            order.append(frontier)
    return OrbitResult(np.concatenate(order, dtype=np.int32), parent,
                       parent_gen, depth)


def orbit_size(n_points: int, gens, seed, signs=None) -> int:
    """The size of the orbit of the seed, signed by `signs` if given: the
    second of `orbit_sizes`."""
    return orbit_sizes(n_points, gens, seed, signs)[1]


def orbit_sizes(n_points: int, gens, seed, signs=None) -> tuple[int, int]:
    """The sizes of the orbit of the seed, `orbit_bfs(...).size`, and of
    its signed orbit (the same without `signs`), from one traversal with a
    visited mask alone: no tree, no depths and no BFS order.

    The generators must be permutations, as for `orbit_bfs`: the fresh
    images of one generator are then distinct, and `visited` keeps a point
    that two generators reach from entering the next frontier twice.

    With `signs`, one boolean mask per generator, the generators act on
    signed points (see the module docstring), and the seed p stands for +p.
    Its orbit covers the orbit of p once, or twice: each point takes the
    sign of its first visit, and the orbit holds both signs exactly when
    some edge q -> g[q] disagrees with them, that is when a Schreier
    generator of the stabilizer of p sends +p to -p.
    """
    visited, frontier = _root(n_points, seed)
    negative = np.zeros(n_points, dtype=bool)  # the first-visit signs
    size = 0
    while frontier.size:
        size += frontier.size
        fresh = []
        for gi, g in enumerate(gens):
            imgs = g[frontier].astype(np.intp)
            new = ~visited[imgs]
            pts = imgs[new]
            visited[pts] = True
            if signs is not None:
                parents = frontier[new]
                negative[pts] = negative[parents] ^ signs[gi][parents]
            fresh.append(pts)
        frontier = np.concatenate(fresh)
    if signs is not None:
        orbit = np.flatnonzero(visited)
        if any((np.take(negative, g[orbit])
                != negative[orbit] ^ s[orbit]).any()
               for g, s in zip(gens, signs)):
            return size, 2 * size
    return size, size


def word_from_root(res: OrbitResult, point: int) -> list[int]:
    """Tree word from the seed to a point."""
    letters = []
    p = int(point)
    while res.parent[p] != -1:
        letters.append(int(res.parent_gen[p]))
        p = int(res.parent[p])
    letters.reverse()
    return letters


def apply_word(points, word, gens):
    """Images of a point, or an array of points, under a word."""
    for g in word:
        points = np.take(gens[g], points)
    return points


def schreier_generator_words(res: OrbitResult, gens, limit: int):
    """Schreier generators of the seed's stabilizer, as word pairs (lhs, rhs)
    from the first `limit` non-tree edges.

    The edge (p, g) gives lhs = tree(p) + [g] and rhs = tree(g[p]), two paths
    from the seed to g[p]; their element rhs^-1 lhs fixes a point x exactly
    when both words send x to the same point.  Scanning points in BFS order
    keeps each path at most depth + 1 letters.
    """
    pairs = []
    for p in res.order:
        for gi, g in enumerate(gens):
            q = int(g[p])
            if res.parent[q] == p and res.parent_gen[q] == gi:
                continue  # the tree edge itself
            pairs.append((word_from_root(res, p) + [gi], word_from_root(res, q)))
            if len(pairs) >= limit:
                return pairs
    return pairs


def inverse_permutation(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=p.dtype)
    return inv


# -- order certificate -------------------------------------------------------------
#
# The suffix chain of the generators, in list order: H_k = <g_k, ..., g_last>
# fixes b_k, the least point that g_k moves and every later generator fixes.
# So H_(k+1) lies in the stabilizer of b_k in H_k, and |H_k| >= |H_k b_k| *
# |H_(k+1)|; the product of the orbit sizes is a lower bound for the order of
# <gens> (and divides it).  When it reaches a known upper bound, the order is
# certified exactly.  The bound depends on the generator order: a list that
# is not a chain bounds the order only weakly.  On signed points a generator
# moves +p when it moves p or its mask flips p, and the orbits are signed.
def bsgs_order(gens, target: int, signs=None):
    """Lower-bound the order of <gens> by the suffix chain of the generators,
    signed by `signs` (one mask per generator) if given.

    A level whose generator moves no point that the later ones fix counts 1.
    Returns (lower_bound, lower_bound >= target, orbit_sizes), one orbit size
    per generator in list order.
    """
    n_points = gens[0].size
    identity = np.arange(n_points, dtype=gens[0].dtype)
    fixed = np.ones(n_points, dtype=bool)   # fixed by every later generator
    sizes = []
    for k in reversed(range(len(gens))):
        moved = gens[k] != identity
        if signs is not None:
            moved |= signs[k]
        base = np.flatnonzero(moved & fixed)
        sizes.append(orbit_size(n_points, gens[k:], base[0],
                                None if signs is None else signs[k:])
                     if base.size else 1)
        fixed &= ~moved
    sizes.reverse()
    lb = math.prod(sizes)
    return lb, lb >= target, sizes
