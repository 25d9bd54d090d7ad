"""Orbit enumeration with Schreier trees, and a permutation-group order
certificate, for permutations stored as dense numpy index arrays.

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
# Randomized Schreier-Sims (Sims 1970; Seress, Permutation Group Algorithms,
# 2003), used only as a *lower bound* certifier: every stored element fixes
# the base points before its level, so the products of transversal elements
# along the chain are distinct group elements, and the product of the orbit
# sizes bounds the order from below.  When the product reaches a known upper
# bound for the order, the order is certified exactly.

MAX_ROUNDS = 4000


# The strong generators are nested: level j keeps S(j), every stored element
# fixing b_0..b_{j-1}, so a residue that sticks at level i joins S(0)..S(i).
# The orbit at a level must grow when a deeper level does; with level-local
# generators only a lucky random element would find that growth.
#
# A sift step replaces h by u^-1 h, where the tree element u carries b_i to
# h(b_i).  That is h followed by the inverse tree letters, in reverse order:
# apply_word(h, invert_word(word)) gathers h through one stored inverse per
# letter, and each element is inverted once, when it is stored.
def bsgs_order(gens, target: int, rng):
    """Lower-bound the order of <gens> by a randomized stabilizer chain.

    Stops as soon as the chain product reaches `target` (then the result is
    exact for any group known to have order <= target), or after MAX_ROUNDS
    random elements.  Returns (lower_bound, certified, orbit_sizes).
    """
    n_points = gens[0].size
    identity = np.arange(n_points, dtype=np.int64)
    base: list[int] = []
    strong: list[list] = []            # strong[j] is S(j)
    inverse: list[list] = []           # inverse[j][k] is strong[j][k]^-1
    trees: list = []                   # trees[j]: orbit of base[j] under S(j)

    def sift_and_add(h) -> None:
        """Sift h through the chain; add the residue where it sticks."""
        i = 0
        while i < len(base) and trees[i].visited[h[base[i]]]:
            word = word_from_root(trees[i], h[base[i]])
            h = apply_word(h, invert_word(word), strong[i], inverse[i])
            i += 1
        if i == len(base):
            if (h == identity).all():
                return
            base.append(int(np.argmax(h != identity)))
            strong.append([])
            inverse.append([])
            trees.append(None)
        h_inv = inverse_permutation(h)
        for j in range(i + 1):
            strong[j].append(h)
            inverse[j].append(h_inv)
            # an old tree stays a Schreier tree while h keeps its orbit
            if j == i or not trees[j].visited[h[trees[j].order]].all():
                trees[j] = orbit_bfs(n_points, strong[j], [base[j]])

    def chain_product():
        return math.prod(t.size for t in trees)

    for g in gens:
        sift_and_add(np.asarray(g, dtype=np.int64))

    # product-replacement state for cheap pseudo-random elements
    state = [np.asarray(g, dtype=np.int64) for g in gens]
    while len(state) < 8:
        state.append(state[rng.randrange(len(state))])

    def random_element():
        i = rng.randrange(len(state))
        j = rng.randrange(len(state))
        while j == i:
            j = rng.randrange(len(state))
        state[i] = state[i][state[j]]
        return state[i]

    rounds = 0
    while chain_product() < target and rounds < MAX_ROUNDS:
        rounds += 1
        sift_and_add(random_element())
    lb = chain_product()
    return lb, lb >= target, [t.size for t in trees]
