"""Orbit enumeration with Schreier trees, and a permutation-group order
certificate, for permutations stored as dense numpy index arrays.

A permutation on n points is an int array p of length n with image p[x].
Composition (p after q) is the fancy index p[q].
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Each level is processed with generators in list order and parents in
    ascending point order, and a point is claimed by the first edge that
    reaches it, so the Schreier tree does not depend on timing.
    """
    parent = np.full(n_points, -1, dtype=np.int64)
    parent_gen = np.full(n_points, -1, dtype=np.int64)
    depth = np.full(n_points, -1, dtype=np.int64)
    visited = np.zeros(n_points, dtype=bool)

    frontier = np.asarray(sorted(set(seeds)), dtype=np.int64)
    visited[frontier] = True
    depth[frontier] = 0
    order = [frontier]
    d = 0
    while frontier.size:
        d += 1
        level = []
        for gi, g in enumerate(gens):
            imgs = g[frontier]
            fresh = ~visited[imgs]
            if not fresh.any():
                continue
            pts, first = np.unique(imgs[fresh], return_index=True)
            srcs = frontier[fresh][first]
            visited[pts] = True
            parent[pts] = srcs
            parent_gen[pts] = gi
            depth[pts] = d
            level.append(pts)
        frontier = np.sort(np.concatenate(level)) if level else np.empty(0, dtype=np.int64)
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


def word_permutation(word, gens, inv_gens, n_points: int) -> np.ndarray:
    """The dense permutation realized by a word (first letter applied first)."""
    return apply_word(np.arange(n_points, dtype=np.int64), word, gens, inv_gens)


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
# Randomized Schreier-Sims, used only as a *lower bound* certifier: every
# element stored at a level genuinely fixes the previous base points, so the
# product of the orbit sizes along the chain divides the group order.  When
# the product reaches a known upper bound for the order, the order is
# certified exactly.


@dataclass
class _Level:
    base: int
    gens: list = field(default_factory=list)
    tree: OrbitResult | None = None
    inv_gens: list = field(default_factory=list)

    def rebuild(self, n_points):
        self.inv_gens = [inverse_permutation(g) for g in self.gens]
        self.tree = orbit_bfs(n_points, self.gens + self.inv_gens, [self.base])

    def transversal_to(self, point, n_points):
        """Permutation carrying base -> point, composed from tree letters."""
        gens2 = self.gens + self.inv_gens
        inv2 = self.inv_gens + self.gens
        word = word_from_root(self.tree, point)
        return word_permutation(word, gens2, inv2, n_points)


def bsgs_order(gens, target: int, rng, max_rounds: int = 4000):
    """Lower-bound the order of <gens> by a randomized stabilizer chain.

    Stops as soon as the chain product reaches `target` (then the result is
    exact for any group known to have order <= target).  Returns
    (lower_bound, certified).
    """
    n_points = gens[0].size
    identity = np.arange(n_points, dtype=np.int64)
    levels: list[_Level] = []

    def chain_product():
        out = 1
        for lv in levels:
            out *= lv.tree.size
        return out

    def sift_and_add(g) -> bool:
        """Sift g through the chain; add the residue where it sticks."""
        h = g
        for li, lv in enumerate(levels):
            if (h == identity).all():
                return False
            img = int(h[lv.base])
            if not lv.tree.visited[img]:
                lv.gens.append(h)
                lv.rebuild(n_points)
                return True
            u = lv.transversal_to(img, n_points)
            h = inverse_permutation(u)[h]
        if (h == identity).all():
            return False
        base = int(np.argmax(h != identity))
        lv = _Level(base=base, gens=[h])
        lv.rebuild(n_points)
        levels.append(lv)
        return True

    for g in gens:
        sift_and_add(np.asarray(g, dtype=np.int64))

    # product-replacement state for cheap pseudo-random elements
    state = [np.asarray(g, dtype=np.int64).copy() for g in gens]
    while len(state) < 8:
        state.append(state[rng.randrange(len(state))].copy())

    def random_element():
        i = rng.randrange(len(state))
        j = rng.randrange(len(state))
        while j == i:
            j = rng.randrange(len(state))
        state[i] = state[i][state[j]]
        return state[i]

    rounds = 0
    stall = 0
    while chain_product() < target and rounds < max_rounds:
        rounds += 1
        changed = sift_and_add(random_element().copy())
        if changed:
            stall = 0
        else:
            stall += 1
            if stall > 64:
                # targeted Schreier generators of the first incomplete level
                for lv in levels:
                    pts = lv.tree.order
                    p = int(pts[rng.randrange(pts.size)])
                    g = lv.gens[rng.randrange(len(lv.gens))]
                    u_p = lv.transversal_to(p, n_points)
                    q = int(g[p])
                    u_q = lv.transversal_to(q, n_points)
                    cand = inverse_permutation(u_q)[g[u_p]]
                    if sift_and_add(cand):
                        break
                stall = 0
    lb = chain_product()
    return lb, lb >= target
