"""The equivariant bijection between projective points and monodromy classes.

`forward` maps a point index of P^9(F_3) to a monodromy class index so that

    forward[sigma_i(p)] = B_i(forward[p])        for i = 1..10,

where sigma_i is the projective transvection permutation and B_i the
half-twist permutation.  The bijection is anchored at a base pair: the class
rho_0 = ClassTable.base_class() and a point ell_0 found by search.  Candidate
base points are pruned by stabilizer matching: each Schreier generator of
the stabilizer of rho_0 is a pair of tree paths that carry rho_0 to one
class, and the same pair, read on the point side, must carry ell_0 to one
point.  From backward[rho_0] = ell_0, each survivor is transported along the
class tree the search built, by backward[B_i(c)] = sigma_i(backward[c]),
and must be a bijection whose inverse carries all 10 x 29524 edges.

Cross-validation compares, for every class rho and every slot i = 1..10,
the combinatorial confluence label of rho at i with the line label of
[alpha_i] relative to the point forward^{-1}(rho).  Slots 0 and 11 carry no
generator and no pinned basis line, so they are classified combinatorially
but excluded from the comparison.  The raw agreement count is reported
together with the count after exchanging the RM and SG labels on one side,
which makes the label pairing between the two trichotomies explicit.

The searched bijection also has a closed form, v = t P mod 3, stated once
as `rules.point_vectors` and the columns `rules.P_COLUMNS`; the tests
certify it equal to the searched `backward` on every class.  This module
reads neither the lattice nor the Eisenstein integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import monodromy as mo
from . import sympf3 as sp
from .rules import CONFLUENCE_CLASSES, LINE_CLASS_COUNTS, LINE_CLASSES
from .schreier import (apply_word, inverse_permutation,
                       schreier_generator_words)

N = sp.N_POINTS
assert N == mo.N_CLASSES
assert sp.DIM == mo.N_MOVES          # one coordinate per generator slot 1..10

WORD_BUDGET = 64    # Schreier words of the stabilizer of rho_0 that prune


@dataclass
class Correspondence:
    """A fully verified equivariant bijection (point index -> class index)."""
    forward: np.ndarray
    backward: np.ndarray
    base_point: int
    base_class: int
    candidates_pruned: int
    candidates_passing: int
    edges_verified: int
    words_used: int

    def base_pair(self) -> dict:
        return {
            "point_index": int(self.base_point),
            "point": sp.get_table().reps[self.base_point].tolist(),
            "class_index": int(self.base_class),
            "class": mo.get_table().class_string(self.base_class),
        }

    def to_json(self) -> dict:
        return {
            "forward": self.forward.tolist(),
            "generators_checked": sp.DIM,
            "edges_verified": int(self.edges_verified),
            "base_pair": self.base_pair(),
        }

    def summary(self) -> str:
        return (f"equivariant bijection verified: {self.edges_verified} edges "
                f"over {sp.DIM} generators and {N} points; base pair "
                f"(point {self.base_point}, class {self.base_class}); "
                f"{self.candidates_passing} of {self.candidates_pruned} pruned "
                f"candidates passed full verification")


def _fixed_points(words, gens) -> np.ndarray:
    """The points where every (lhs, rhs) word pair agrees, ascending; each
    pair is applied only to the points still standing."""
    points = np.arange(N, dtype=np.int64)
    for lhs, rhs in words:
        points = points[apply_word(points, lhs, gens)
                        == apply_word(points, rhs, gens)]
    return points


def _transport(ell0: int, tree, s_gens: np.ndarray) -> np.ndarray:
    """backward with backward[rho0] = ell0, rho0 the root of the class tree,
    extended along it by backward[B_i(c)] = sigma_i(backward[c])."""
    backward = np.full(N, -1, dtype=np.int32)
    backward[tree.order[0]] = ell0
    # the BFS order lists the levels in turn, so level d ends at ends[d]
    # (counted once: a scalar search per level in the narrow depths is slow)
    ends = np.cumsum(np.bincount(np.take(tree.depth, tree.order)))
    for d in range(1, ends.size):
        cls = tree.order[ends[d - 1]:ends[d]].astype(np.intp)
        # s_gens[gen, point] as one gather from the flat (DIM * N) array
        flat = (tree.parent_gen[cls].astype(np.intp) * N
                + np.take(backward, tree.parent[cls]))
        backward[cls] = np.take(s_gens, flat)
    return backward


def failing_edges(forward: np.ndarray):
    """The edges (i, p) where forward[sigma_i(p)] = B_i(forward[p]) fails,
    lazily, generator by generator and then by ascending point, each as a
    dict that names both sides."""
    s_gens = sp.get_table().all_transvection_perms()
    h_gens = mo.get_table().all_hurwitz_perms()
    for i, (s_gen, h_gen) in enumerate(zip(s_gens, h_gens), 1):
        lhs = np.take(forward, s_gen)
        rhs = np.take(h_gen, forward)
        for p in np.flatnonzero(lhs != rhs).tolist():
            yield {"generator": i, "point": p,
                   "forward_of_image": int(lhs[p]),
                   "image_of_forward": int(rhs[p])}


def _verify(backward: np.ndarray):
    """(forward, None) when backward is a bijection and its inverse carries
    all 10 x 29524 edges, else (None, the first failure)."""
    if not (np.sort(backward) == np.arange(N)).all():
        return None, {"reason": "backward is not a bijection"}
    forward = inverse_permutation(backward)
    failure = next(failing_edges(forward), None)
    return (forward, None) if failure is None else (None, failure)


def build_bijection() -> Correspondence:
    """Search, transport and exhaustively verify the equivariant bijection."""
    s_gens = sp.get_table().all_transvection_perms()    # one (DIM, N) array
    h_gens = mo.get_table().all_hurwitz_perms()

    class_orbit = mo.orbit_R()               # rooted at rho_0, the base class
    if class_orbit.size != mo.N_CLASSES:
        raise RuntimeError("the half-twist moves do not act transitively "
                           "on the classes")
    words = schreier_generator_words(class_orbit, h_gens, WORD_BUDGET)

    # a point can be the image of rho_0 only if every Schreier generator
    # fixing rho_0 also fixes it
    candidates = _fixed_points(words, s_gens)

    passing, failures = [], []
    for ell0 in candidates.tolist():
        backward = _transport(ell0, class_orbit, s_gens)
        forward, failure = _verify(backward)
        if forward is None:
            failures.append({"candidate_point": ell0, **failure})
        else:
            passing.append((ell0, forward, backward))

    if not passing:
        raise RuntimeError(
            "no equivariant bijection found: "
            f"{candidates.size} pruned candidates all failed full "
            f"verification; first failing edge: {failures[0]}")

    ell0, forward, backward = passing[0]
    return Correspondence(
        forward=forward,
        backward=backward,
        base_point=ell0,
        base_class=int(class_orbit.order[0]),
        candidates_pruned=int(candidates.size),
        candidates_passing=len(passing),
        edges_verified=sp.DIM * N,
        words_used=len(words),
    )


_LABEL_SWAP = np.array([0, 2, 1], dtype=np.int8)  # exchange RM and SG codes


def cross_validate_classification(corr: Correspondence) -> dict:
    """Compare the confluence labels with the line labels over slots 1..10.

    For slot i the line side classifies [alpha_i] relative to the point
    forward^{-1}(rho).  Returns the total raw agreements, the total after
    exchanging RM and SG on the line side, and the first raw disagreement
    (if any) as a concrete counterexample.
    """
    spt = sp.get_table()
    mot = mo.get_table()
    agreements = agreements_swapped = 0
    first_disagreement = None

    for i in range(1, sp.DIM + 1):
        comb = mo.confluence_labels(mot.codes, i)
        line = np.take(sp.line_class_vector(spt.basis_point(i)), corr.backward)
        agree = comb == line
        agreements += int(np.count_nonzero(agree))
        agreements_swapped += int(np.count_nonzero(
            comb == np.take(_LABEL_SWAP, line)))
        if first_disagreement is None and not agree.all():
            c = int(np.flatnonzero(~agree)[0])
            first_disagreement = {
                "position": i,
                "class_index": c,
                "class": mot.class_string(c),
                "confluence": CONFLUENCE_CLASSES[int(comb[c])],
                "line_class": LINE_CLASSES[int(line[c])],
            }

    report = {
        "total_checks": sp.DIM * N,
        "agreements": agreements,
        "agreements_rm_sg_swapped": agreements_swapped,
        "first_disagreement": first_disagreement,
        "excluded_positions": [0, mo.TUPLE_LEN - 1],
    }
    if agreements != report["total_checks"] \
            and agreements_swapped == report["total_checks"]:
        report["note"] = (
            "the two trichotomies agree exactly up to exchanging the RM and "
            "SG labels on the line side: per slot, the {SG} classes with "
            "distinct adjacent letters correspond to the {SG} lines not "
            "perpendicular to the basis line, and the {RM} non-degenerate "
            "equal-letter classes to the {RM} other perpendicular lines"
        ).format(**LINE_CLASS_COUNTS)
    return report
