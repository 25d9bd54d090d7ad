"""Orbit enumeration with Schreier trees, and a permutation-group order
certificate from the stabilizer chain of a generator list, for permutations
stored as dense numpy index arrays.

A permutation on n points is an int array p of length n with image p[x].
Composition (p after q) is the fancy index p[q].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OrbitResult:
    """BFS forest of a generator action.

    order: points in BFS order (seeds first, each level ascending);
    parent/parent_gen: the tree edge through which a point was first reached
    (-1 entries for seeds and unvisited points); depth: distance from a seed.
    """
    order: np.ndarray
    parent: np.ndarray
    parent_gen: np.ndarray
    depth: np.ndarray
    visited: np.ndarray

    @property
    def size(self) -> int:
        return int(self.order.size)


def orbit_bfs(n_points: int, gens, seeds) -> OrbitResult:
    """Deterministic BFS orbit of the seeds under the generator arrays.

    Each generator must be a permutation of range(n_points): the BFS relies
    on g[frontier] never repeating a point.  Each level is processed with
    generators in list order and parents in ascending point order, and a
    point is claimed by the first edge that reaches it, so the Schreier tree
    does not depend on timing.
    """
    parent = np.full(n_points, -1, dtype=np.int64)
    parent_gen = np.full(n_points, -1, dtype=np.int64)
    depth = np.full(n_points, -1, dtype=np.int64)
    visited = np.zeros(n_points, dtype=bool)
    reached = np.zeros(n_points, dtype=bool)     # the level being built

    frontier = np.asarray(sorted(set(seeds)), dtype=np.int64)
    visited[frontier] = True
    depth[frontier] = 0
    order = [frontier]
    d = 0
    while frontier.size:
        d += 1
        # a permutation sends distinct parents to distinct points, so points
        # collide only across generators, where `visited` keeps the first
        for gi, g in enumerate(gens):
            imgs = g[frontier]
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
    return OrbitResult(np.concatenate(order), parent, parent_gen, depth, visited)


def word_from_root(res: OrbitResult, point: int):
    """Tree word from the seed to a point, as [(gen_index, +1), ...] applied
    first letter first."""
    letters = []
    p = int(point)
    while res.parent[p] != -1:
        letters.append((int(res.parent_gen[p]), 1))
        p = int(res.parent[p])
    letters.reverse()
    return letters


def invert_word(word):
    return [(g, -e) for g, e in reversed(word)]


def apply_word(points, word, gens, inv_gens):
    """Images of a point, or an array of points, under a word (first letter
    applied first)."""
    for g, e in word:
        points = (gens[g] if e == 1 else inv_gens[g])[points]
    return points


def schreier_generator_words(res: OrbitResult, gens, limit: int):
    """Words fixing the BFS seed, from the first `limit` non-tree edges.

    Each non-tree edge (p, g) yields tree(p) + [(g,+1)] + tree(g[p])^{-1};
    scanning points in BFS order keeps the word lengths near-minimal
    (bounded by 2*depth + 1).
    """
    words = []
    for p in res.order:
        for gi, g in enumerate(gens):
            q = int(g[p])
            if res.parent[q] == p and res.parent_gen[q] == gi:
                continue  # the tree edge itself
            w = word_from_root(res, p) + [(gi, 1)] + invert_word(word_from_root(res, q))
            words.append(w)
            if len(words) >= limit:
                return words
    return words


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
# is not a chain bounds the order only weakly.
def bsgs_order(gens, target: int):
    """Lower-bound the order of <gens> by the suffix chain of the generators.

    A level whose generator moves no point that the later ones fix counts 1.
    Returns (lower_bound, lower_bound >= target, orbit_sizes), one orbit size
    per generator in list order.
    """
    n_points = gens[0].size
    identity = np.arange(n_points)
    fixed = np.ones(n_points, dtype=bool)   # fixed by every later generator
    sizes = []
    for k in reversed(range(len(gens))):
        moved = gens[k] != identity
        base = np.flatnonzero(moved & fixed)[:1]
        sizes.append(orbit_bfs(n_points, gens[k:], base).size if base.size else 1)
        fixed &= ~moved
    sizes.reverse()
    lb = math.prod(sizes)
    return lb, lb >= target, sizes
