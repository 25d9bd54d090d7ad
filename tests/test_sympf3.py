"""Mod-3 symplectic space: reduction, transvections, projective tables."""

import random
from itertools import repeat

import numpy as np
import pytest

from trigonal import lattice as lat
from trigonal import sympf3 as sp

from oracles import (THETA, EisensteinInt, brute_canonicalize, f3_rank,
                     keys_of, reduce_mod_theta, reduce_vector, scale, skew,
                     symp, vec_add)


def rand_vector(rng, bound):
    """A flat vector; its coordinates p_k, q_k are drawn in that order."""
    return tuple(rng.randint(-bound, bound) for _ in range(20))


def test_reduction_of_basis_and_theta_multiples():
    a1 = lat.basis_vector(1)
    assert (reduce_vector(a1) == np.eye(10, dtype=np.int8)[0]).all()
    assert (reduce_vector(scale(EisensteinInt(2), a1))
            == 2 * np.eye(10, dtype=np.int8)[0]).all()
    tau_a1 = scale(EisensteinInt(0, 1), a1)
    assert (reduce_vector(tau_a1) == (2 * np.eye(10, dtype=np.int8)[0])).all()
    theta_x = scale(THETA, vec_add(a1, lat.basis_vector(5)))
    assert not reduce_vector(theta_x).any()


def test_symp_gram_values():
    assert sp.SYMP_GRAM[0, 1] == 1
    assert sp.SYMP_GRAM[1, 0] == 2
    assert sp.SYMP_GRAM[0, 2] == 0
    assert (np.diag(sp.SYMP_GRAM) == 0).all()
    assert ((sp.SYMP_GRAM + sp.SYMP_GRAM.T) % 3 == 0).all()


def test_symp_gram_is_reduction_of_skew_on_basis_pairs():
    # SYMP_GRAM is the array of `rules.SYMP_COLUMNS`, stated without the
    # lattice: here it is derived from the lattice's form at rank 10, the
    # pair GRAM[i][j] = herm(a_i, a_j) = a + b*tau, whose skew GRAM[i][j] /
    # theta has the residue (a + b) mod 3
    reduced = [[(a + b) % 3 for a, b in row] for row in lat.GRAM]
    assert (sp.SYMP_GRAM == np.array(reduced)).all()
    assert sp.SYMP_GRAM.dtype == np.int8


def test_symp_values_and_nondegeneracy():
    e = np.identity(10, dtype=np.int8)
    assert symp(e[0], e[1]) == 1
    assert symp(e[1], e[0]) == 2
    assert symp(e[0], e[2]) == 0
    assert f3_rank(sp.SYMP_GRAM) == 10


def test_symp_is_reduction_of_skew():
    rng = random.Random(11)
    for _ in range(30):
        x, y = rand_vector(rng, 4), rand_vector(rng, 4)
        assert (symp(reduce_vector(x), reduce_vector(y))
                == reduce_mod_theta(skew(x, y)))


def test_transvection_values():
    t1 = sp.transvection(1)
    e = np.identity(10, dtype=np.int8)
    assert ((t1 @ e[1]) % 3 == (e[1] + e[0]) % 3).all()   # alpha_2 -> alpha_2 + alpha_1
    assert ((t1 @ e[0]) % 3 == e[0]).all()                 # fixes its own direction
    with pytest.raises(IndexError):
        sp.transvection(0)


def test_transvections_have_order_three_and_preserve_form():
    j = sp.SYMP_GRAM.astype(np.int64)
    for i in range(1, 11):
        m = sp.transvection(i).astype(np.int64)
        assert not (m % 3 == np.identity(10)).all()
        assert ((np.linalg.matrix_power(m, 3)) % 3 == np.identity(10)).all()
        assert ((m.T @ j @ m) % 3 == j % 3).all()


def test_reduction_intertwines_triflection_and_transvection():
    rng = random.Random(12)
    for i in range(1, 11):
        tri = lat.triflection(i)
        tv = sp.transvection(i).astype(np.int64)
        reduced = np.array([[reduce_mod_theta(c) for c in row] for row in tri])
        assert (reduced == tv % 3).all()
        for _ in range(4):
            x = rand_vector(rng, 3)
            lhs = reduce_vector(lat.apply_lattice_word([(i, 1)], x))
            rhs = (tv @ reduce_vector(x).astype(np.int64)) % 3
            assert (lhs == rhs).all()


def test_projective_enumeration():
    t = sp.get_table()
    assert t.reps.shape == (29524, 10)
    # first point is the line of (1, 0, ..., 0)
    assert (t.reps[0] == np.eye(10, dtype=np.int8)[0]).all()
    # canonical: first nonzero coordinate is 1
    lead = t.reps[np.arange(29524), np.argmax(t.reps != 0, axis=1)]
    assert (lead == 1).all()
    # no duplicates and scaling by 2 gives no new canonical rows
    assert np.unique(keys_of(t.reps)).size == 29524
    assert (keys_of(brute_canonicalize((t.reps * 2) % 3))
            == keys_of(t.reps)).all()


def every_vector():
    """F_3^10 in key order, coordinate 0 least significant: digits by ten
    divmod passes, as the table was built before it stopped keeping them."""
    keys = np.arange(sp.N_VECTORS, dtype=np.int64)
    return np.stack([(keys // 3 ** i) % 3 for i in range(10)],
                    axis=1).astype(np.int8)


def test_projective_table_equals_the_canonicalize_route():
    # the table as built before: the canonical keys of every nonzero vector,
    # deduplicated; each point is indexed at the key of its canonical vector
    # v and at the key of 2v.  The index holds row positions, as int32
    vectors = every_vector()
    canon_keys = np.unique(keys_of(brute_canonicalize(vectors[1:])))
    reps = vectors[canon_keys]
    point_index = np.full(sp.N_VECTORS, -1, dtype=np.int32)
    point_index[canon_keys] = np.arange(sp.N_POINTS)
    point_index[keys_of((2 * reps) % 3)] = np.arange(sp.N_POINTS)
    t = sp.get_table()
    assert not hasattr(t, "vectors")          # no kept copy of F_3^10
    # the keys, like every index or key array, are int32
    for got, want in ((t.reps, reps), (t.keys, canon_keys.astype(np.int32)),
                      (t.point_index, point_index)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert (got == want).all()


def test_point_count_formula():
    assert sp.N_POINTS == (3 ** 10 - 1) // 2 == 29524


def test_index_round_trip_and_basis_points():
    t = sp.get_table()
    rng = random.Random(13)
    for _ in range(50):
        idx = rng.randrange(29524)
        assert t.point_index[keys_of(t.reps[idx])] == idx
        assert t.point_index[keys_of(t.reps[idx] * 2 % 3)] == idx
    assert t.basis_point(1) == 0
    e = np.identity(10, dtype=np.int8)
    for i in range(1, 11):
        assert t.basis_point(i) == t.point_index[keys_of(e[i - 1])]
        assert (t.reps[t.basis_point(i)] == e[i - 1]).all()
    for i in (0, 11):
        with pytest.raises(IndexError):
            t.basis_point(i)


def test_transvection_perms_are_permutations_of_order_three():
    t = sp.get_table()
    n = sp.N_POINTS
    for i in range(1, 11):
        p = t.all_transvection_perms()[i - 1]
        assert (np.sort(p) == np.arange(n)).all()
        assert (p[p[p]] == np.arange(n)).all()
        assert (p != np.arange(n)).any()


def test_point_index_maps_every_nonzero_vector_to_its_line():
    t = sp.get_table()
    assert t.point_index[0] == -1
    vectors = every_vector()
    assert (t.reps[t.point_index[1:]] == brute_canonicalize(vectors[1:])).all()


def test_generator_permutations_equal_the_matrix_route():
    t = sp.get_table()
    perms, signs = t.transvections()
    vectors = every_vector()
    for i in range(1, 11):
        m = sp.transvection(i).astype(np.int64)
        assert (t.vector_perm(i) == keys_of((vectors @ m.T) % 3)).all()
        images = (t.reps @ m.T) % 3
        imgs = brute_canonicalize(images)
        row = t.all_transvection_perms()[i - 1]
        assert (row == t.point_index[keys_of(imgs)]).all()
        assert row.base is perms                # one array, a row each
        # the sign is set where the image of a canonical row is not canonical
        assert (signs[i - 1] == (imgs != images).any(axis=1)).all()


def test_generator_permutations_reject_indices_outside_1_10():
    t = sp.get_table()
    for i in (0, 11):
        with pytest.raises(IndexError):
            t.vector_perm(i)


def test_braid_relations_for_point_permutations():
    t = sp.get_table()
    perms = t.all_transvection_perms()
    for i in range(1, 10):
        p, q = perms[i - 1], perms[i]
        assert (p[q[p]] == q[p[q]]).all()
    for i in range(1, 11):
        for j in range(i + 2, 11):
            p, q = perms[i - 1], perms[j - 1]
            assert (p[q] == q[p]).all()


def test_orbit_transitivity_on_points_and_vectors():
    t = sp.get_table()
    res = t.orbit_of_points()
    assert res.size == 29524
    p = t.basis_point(1)
    assert res.order[0] == p == 0          # the tree's root is point 0
    assert t.all_transvection_perms()[5 - 1][p] == p  # 5 fixes [alpha_1]
    # the vector orbit is that of rep(0) = (1, 0, ..., 0)
    assert (t.reps[0] == np.eye(10, dtype=np.int8)[0]).all()
    sizes = t.orbit_of_nonzero_vectors()
    assert sizes == (29524, 3 ** 10 - 1)


def test_classify_line_examples():
    t = sp.get_table()
    a = {i: t.basis_point(i) for i in (1, 2, 3)}
    assert sp.classify_line(a[1], a[1]) == "H"
    assert sp.classify_line(a[3], a[1]) == "RM"
    assert sp.classify_line(a[2], a[1]) == "SG"


def test_symp_with_equals_the_dense_form():
    vectors = every_vector()
    x = vectors.astype(np.int64)
    dense_w = np.array([1, 2, 1, 1, 2, 2, 1, 2, 1, 1], dtype=np.int8)
    for w in [*np.identity(10, dtype=np.int8), dense_w]:
        got = sp.symp_with(vectors, w)
        assert (got == x @ sp.SYMP_GRAM.astype(np.int64) @ w % 3).all()


def test_line_class_vector_equals_the_rule():
    t = sp.get_table()
    rng = random.Random(11)
    x = t.reps.astype(np.int64)
    gram = sp.SYMP_GRAM.astype(np.int64)
    reps, negated = t.reps.tolist(), (2 * t.reps % 3).tolist()
    # the basis lines, the bijection's base point [0, 1, ..., 0, 1] (pinned
    # in test_correspondence) and seeded lines
    pinned = [t.basis_point(i) for i in range(1, 11)] + [11073]
    for ell in pinned + [rng.randrange(sp.N_POINTS) for _ in range(5)]:
        labels = sp.line_class_vector(ell)
        assert labels.dtype == np.int8
        # the dense form x^T SYMP_GRAM ell, with H at ell
        dense = np.where(x @ gram @ x[ell] % 3 == 0, 1, 2)
        dense[ell] = 0
        assert (labels == dense).all()
        assert np.flatnonzero(labels == 0).tolist() == [ell]
        if ell in pinned:
            # the one-row form on every point; the rule holds per line:
            # -v and -ell give the same labels
            assert list(map(sp.line_labels, reps, repeat(reps[ell]))) \
                == labels.tolist()
            assert list(map(sp.line_labels, negated, repeat(negated[ell]))) \
                == labels.tolist()


def test_stabilizer_orbit_sizes():
    # the report's counts: the line labels relative to one line
    t = sp.get_table()
    sizes = sp.label_counts(sp.line_class_vector(t.basis_point(1)))
    assert sizes == {"H": 1, "RM": (3 ** 9 - 1) // 2 - 1, "SG": 3 ** 9}
    assert sizes == {"H": 1, "RM": 9840, "SG": 19683}
    assert sum(sizes.values()) == 29524
    # the same counts hold for any line (the form is homogeneous)
    sizes2 = sp.label_counts(sp.line_class_vector(12345))
    assert sizes2 == sizes
