"""Schreier-tree BFS and the stabilizer-chain order certificate."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigonal import cli
from trigonal import lattice as la
from trigonal import monodromy as mo
from trigonal import sympf3 as sp
from trigonal.schreier import (apply_word, bsgs_order, inverse_permutation,
                               orbit_bfs, orbit_size, orbit_sizes,
                               schreier_generator_words, word_from_root)

#: the basic orbits of Sp(DIM, F3) on nonzero vectors along the transvection
#: chain: 3^2k - 1 and 3^(2k-1) for k = DIM/2..1
SP10_ORBIT_SIZES = [size for k in range(sp.DIM // 2, 0, -1)
                    for size in (3 ** (2 * k) - 1, 3 ** (2 * k - 1))]

#: S6 on range(6), generated by (0 1) and (0 1 2 3 4 5)
S6 = [np.array([1, 0, 2, 3, 4, 5]), np.array([1, 2, 3, 4, 5, 0])]

#: S6 generated by the adjacent transpositions (0 1), ..., (4 5): a chain
S6_ADJACENT = [np.array([*range(i), i + 1, i, *range(i + 2, 6)]) for i in range(5)]


def brute_bfs(n_points, gens, seed):
    """Level-by-level BFS in plain Python with the documented claim rule: a
    point goes to the first generator in list order, then the ascending
    first parent, that reaches it."""
    parent, parent_gen, depth = [-1] * n_points, [-1] * n_points, [-1] * n_points
    level = [seed]
    depth[seed] = 0
    order = list(level)
    while level:
        reached = []
        for gi, g in enumerate(gens):
            for p in level:
                q = int(g[p])
                if depth[q] == -1:
                    parent[q], parent_gen[q], depth[q] = p, gi, depth[p] + 1
                    reached.append(q)
        level = sorted(reached)
        order += level
    return order, parent, parent_gen, depth


def assert_matches_brute_bfs(n_points, gens, seed):
    res = orbit_bfs(n_points, gens, seed)
    want = brute_bfs(n_points, gens, seed)
    for name, w in zip(("order", "parent", "parent_gen", "depth"), want):
        assert getattr(res, name).tolist() == w, name
    return res


def random_permutations(seed, n_points, blocks, count):
    """`count` seeded permutations that each preserve the `blocks` cut of
    range(n_points), so the group is intransitive when blocks > 1."""
    rng = np.random.default_rng(seed)
    cuts = np.linspace(0, n_points, blocks + 1).astype(int)
    gens = []
    for _ in range(count):
        g = np.empty(n_points, dtype=np.int64)
        for a, b in zip(cuts, cuts[1:]):
            g[a:b] = a + rng.permutation(b - a)
        gens.append(g)
    return gens


def test_orbit_bfs_on_s6_matches_brute_force():
    res = assert_matches_brute_bfs(6, S6, 0)
    assert res.size == 6


@pytest.mark.parametrize("seed", range(6))
def test_orbit_bfs_on_random_permutations_matches_brute_force(seed):
    blocks = 1 + seed % 3
    gens = random_permutations(seed, 90, blocks, 2 + seed % 2)
    res = assert_matches_brute_bfs(90, gens, 3 * seed)
    if blocks > 1:
        # the seed lies in the first block: the other blocks stay unvisited
        outside = np.arange(90 // blocks, 90)
        for name in ("parent", "parent_gen", "depth"):
            assert (getattr(res, name)[outside] == -1).all()


def test_orbit_bfs_on_the_generator_permutations_matches_brute_force():
    mot, spt = mo.get_table(), sp.get_table()
    assert_matches_brute_bfs(mo.N_CLASSES, mot.all_hurwitz_perms(),
                             mot.base_class())
    assert_matches_brute_bfs(sp.N_POINTS, spt.all_transvection_perms(),
                             spt.basis_point(1))


def assert_orbit_size_is_the_bfs_size(n_points, gens, seed):
    size = orbit_size(n_points, gens, seed)
    assert type(size) is int
    assert size == orbit_bfs(n_points, gens, seed).size
    return size


def test_orbit_size_on_s6():
    for seed in range(6):
        assert assert_orbit_size_is_the_bfs_size(6, S6, seed) == 6
    # the subgroup <(0 1)> has the orbit {0, 1} and fixed points
    assert assert_orbit_size_is_the_bfs_size(6, S6[:1], 0) == 2
    assert assert_orbit_size_is_the_bfs_size(6, S6[:1], 4) == 1


@pytest.mark.parametrize("seed", range(12))
def test_orbit_size_on_random_permutations(seed):
    blocks = 1 + seed % 4
    gens = random_permutations(seed, 120, blocks, 1 + seed % 3)
    rng = np.random.default_rng(seed)
    # seeds in the first block and across the blocks
    for point in (seed, 7 * seed % 120, *rng.integers(0, 120, 3).tolist()):
        assert_orbit_size_is_the_bfs_size(120, gens, point)
    if blocks > 1:
        assert orbit_size(120, gens, 0) <= 120 // blocks


def test_orbit_size_on_the_generator_permutations():
    mot, spt = mo.get_table(), sp.get_table()
    hurwitz = mot.all_hurwitz_perms()
    alternating = mot.index_of_codes(mo.parse_tuple_string("010101010101"))
    for seed in (mot.base_class(), alternating, 0):
        assert assert_orbit_size_is_the_bfs_size(
            mo.N_CLASSES, hurwitz, seed) == mo.N_CLASSES
    assert assert_orbit_size_is_the_bfs_size(
        sp.N_POINTS, spt.all_transvection_perms(), 0) == sp.N_POINTS
    vectors = [spt.vector_perm(i) for i in range(1, sp.DIM + 1)]
    assert assert_orbit_size_is_the_bfs_size(
        sp.N_VECTORS, vectors, 1) == sp.N_VECTORS - 1
    assert assert_orbit_size_is_the_bfs_size(sp.N_VECTORS, vectors, 0) == 1
    # a suffix of the chain, as one level of `bsgs_order` runs it
    assert assert_orbit_size_is_the_bfs_size(
        sp.N_VECTORS, vectors[-2:], sp.POW3[-2]) == 8
    # the line orbit and the vector orbit, from one signed traversal
    both = (sp.N_POINTS, sp.N_VECTORS - 1)
    assert spt.orbit_of_nonzero_vectors() == both


def test_orbits_reject_seeds_outside_the_points():
    # numpy would read the seed -1 as the last point
    signs = [np.zeros(6, dtype=bool)] * 2
    for seed in (-1, 6, -7, np.int32(6)):
        match = f"seed {seed} is not in range\\(6\\)"
        with pytest.raises(IndexError, match=match):
            orbit_bfs(6, S6, seed)
        with pytest.raises(IndexError, match=match):
            orbit_size(6, S6, seed)
        with pytest.raises(IndexError, match=match):
            orbit_size(6, S6, seed, signs)


def doubled(gens, signs):
    """The signed permutations as plain ones on 2n points: +p is p, and -p
    is p + n."""
    n = gens[0].size
    return [np.concatenate([g + n * s, g + n * ~s]) for g, s in zip(gens, signs)]


def brute_signed_orbit(gens, signs, seed):
    """The orbit of +seed, closed in plain Python on (point, negative)."""
    seen, todo = {(seed, False)}, [(seed, False)]
    while todo:
        p, neg = todo.pop()
        for g, s in zip(gens, signs):
            q = (int(g[p]), neg != bool(s[p]))
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def test_signed_orbit_size_on_hand_made_groups():
    swap = np.array([1, 0])
    # (0 1) on two points: a sign on one edge makes it a 4-cycle of
    # +0, -1, -0, +1; on both edges it is the swap of +0 and -1 again
    for mask, size in (([0, 0], 2), ([1, 0], 4), ([0, 1], 4), ([1, 1], 2)):
        signs = [np.array(mask, dtype=bool)]
        assert orbit_size(2, [swap], 0, signs) == size, mask
        assert len(brute_signed_orbit([swap], signs, 0)) == size
    # a generator that fixes the point and flips it is -1 itself
    one = np.array([0])
    assert orbit_size(1, [one], 0, [np.array([True])]) == 2
    assert orbit_size(1, [one], 0, [np.array([False])]) == 1
    # the 3-cycle with every sign set has order 6 on signed points
    cycle = np.array([1, 2, 0])
    assert orbit_size(3, [cycle], 0, [np.ones(3, dtype=bool)]) == 6
    # two swaps that each keep one sign per point, +0 <-> -1 and +0 <-> +1:
    # only together do they reach both signs of 1, and then of 0
    both, plain = np.ones(2, dtype=bool), np.zeros(2, dtype=bool)
    assert orbit_size(2, [swap, swap], 0, [both, plain]) == 4
    assert len(brute_signed_orbit([swap, swap], [both, plain], 0)) == 4


@pytest.mark.parametrize("seed", range(12))
def test_signed_orbits_and_chain_equal_the_doubled_action(seed):
    rng = np.random.default_rng(seed)
    n_points = 4 + seed % 4
    gens = []
    for _ in range(1 + seed % 3):
        g = np.arange(n_points)
        support = rng.choice(n_points, rng.integers(2, n_points + 1), replace=False)
        g[support] = rng.permutation(support)
        gens.append(g)
    signs = [rng.random(n_points) < 0.2 * (seed % 5) for _ in gens]
    plain = doubled(gens, signs)
    for p in range(n_points):
        size = orbit_size(n_points, gens, p, signs)
        assert size == orbit_size(2 * n_points, plain, p)
        # one signed traversal also counts the unsigned orbit
        assert orbit_sizes(n_points, gens, p, signs) \
            == (orbit_size(n_points, gens, p), size)
        assert size == len(brute_signed_orbit(gens, signs, p))
    # +p and -p are fixed together, so the least base on 2n points is the
    # least signed base +p: the two chains agree level by level
    order = group_order(plain)
    assert bsgs_order(gens, order, signs) == bsgs_order(plain, order)


@pytest.mark.parametrize("seed", range(3))
def test_signed_orbit_size_equals_the_vector_orbit_on_every_suffix(seed):
    table = sp.get_table()
    perms, signs = table.transvections()
    dense = [table.vector_perm(i) for i in range(1, sp.DIM + 1)]
    rng = np.random.default_rng(seed)
    keys = [int(sp.POW3[seed]), *rng.integers(1, sp.N_VECTORS, 2).tolist()]
    for k in range(sp.DIM):
        for key in keys:
            want = orbit_size(sp.N_VECTORS, dense[k:], key)
            point = int(table.point_index[key])
            assert orbit_size(sp.N_POINTS, perms[k:], point, signs[k:]) \
                == want, (k, key)
    # transvection 10 alone moves alpha_9, which pairs with alpha_10, along
    # the 3-cycle alpha_9 - j alpha_10 that misses -alpha_9: no doubling
    alpha9 = int(sp.POW3[sp.DIM - 2])
    res = orbit_bfs(sp.N_VECTORS, dense[-1:], alpha9)
    assert res.size == 3 and res.depth[2 * alpha9] == -1    # key of -alpha_9
    point = int(table.point_index[alpha9])
    assert orbit_size(sp.N_POINTS, perms[-1:], point, signs[-1:]) == 3


def assert_pair_identity(gens, root):
    """Each tree word, applied by `apply_word`, is the product of its
    letters and carries the root to its point; each Schreier pair carries
    the root to one point, and its element rhs^-1 lhs fixes exactly the
    points that both words send to the same point."""
    n = gens[0].size
    tree = orbit_bfs(n, gens, root)
    for p in tree.order:
        word = word_from_root(tree, p)
        u = np.arange(n)
        for g in word:                 # u = g_last o ... o g_first
            u = gens[g][u]
        assert u[root] == p
        assert (apply_word(np.arange(n), word, gens) == u).all()
    pairs = schreier_generator_words(tree, gens, len(gens) * n)
    assert len(pairs) == (len(gens) - 1) * tree.size + 1
    for lhs, rhs in pairs:
        assert apply_word(root, lhs, gens) == apply_word(root, rhs, gens)
        lhs_perm = apply_word(np.arange(n), lhs, gens)
        rhs_perm = apply_word(np.arange(n), rhs, gens)
        element = inverse_permutation(rhs_perm)[lhs_perm]
        assert element[root] == root
        assert ((element == np.arange(n)) == (lhs_perm == rhs_perm)).all()


def test_pair_identity_on_s6():
    for root in range(6):
        assert_pair_identity(S6, root)


@pytest.mark.parametrize("seed", range(6))
def test_pair_identity_on_random_permutations(seed):
    gens = random_permutations(seed, 90, 1 + seed % 3, 2 + seed % 2)
    assert_pair_identity(gens, 3 * seed)


def group_order(gens):
    """|<gens>| by closing the identity under the generators, on tuples."""
    identity = tuple(range(gens[0].size))
    seen, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(int(g[x]) for x in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def test_sp10_orbit_sizes_multiply_to_the_order():
    assert np.prod(SP10_ORBIT_SIZES, dtype=object) == cli.SP10_ORDER


def test_sp10_certifies_along_the_transvection_chain(monkeypatch):
    # the command's chain runs on signed points
    runs = []

    def recorded(*args):
        runs.append(bsgs_order(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "bsgs_order", recorded)
    assert cli.check_sp10_order(cli.Context(0, True))[0] is True
    (order, certified, sizes), = runs
    assert (order, certified) == (cli.SP10_ORDER, True)
    assert sizes == SP10_ORBIT_SIZES
    # the dense reference: the same chain on all 3^10 vector keys
    table = sp.get_table()
    dense = [table.vector_perm(i) for i in range(1, sp.DIM + 1)]
    assert bsgs_order(dense, cli.SP10_ORDER) == (order, certified, sizes)


@pytest.mark.parametrize("seed", [3, 9, 15, 17, 23, 39, 40])
def test_sp10_certifies_on_seeds_that_used_to_stall(seed):
    # these seeds stalled the randomized certifier; the chain takes no seed
    row = cli.check_sp10_order(cli.Context(seed, True))
    assert row == (True, str(cli.SP10_ORDER), str(cli.SP10_ORDER),
                   {"certified": True})


def test_s6_certifies_720():
    assert bsgs_order(S6_ADJACENT, 720) == (720, True, [6, 5, 4, 3, 2])


def test_inflated_target_is_not_certified():
    assert bsgs_order(S6_ADJACENT, 1440) == (720, False, [6, 5, 4, 3, 2])


def test_generator_order_matters():
    # (0 1) moves no point that the 6-cycle fixes: its level counts 1
    assert bsgs_order(S6, 720) == (6, False, [1, 6])


@pytest.mark.parametrize("seed", range(40))
def test_chain_bound_divides_the_group_order(seed):
    rng = np.random.default_rng(seed)
    n_points = 5 + seed % 3
    gens = []
    for _ in range(2 + seed % 3):
        # a random permutation of a random subset of points, so that later
        # generators often fix points that earlier ones move
        g = np.arange(n_points)
        support = rng.choice(n_points, rng.integers(2, n_points + 1), replace=False)
        g[support] = rng.permutation(support)
        gens.append(g)
    order = group_order(gens)
    bound, certified, sizes = bsgs_order(gens, order)
    assert order % bound == 0 and len(sizes) == len(gens)
    assert certified == (bound == order)


@st.composite
def signed_permutation_sets(draw):
    """A few permutations of a few points, a sign mask per permutation,
    a seed and a word."""
    n = draw(st.integers(1, 9))
    count = draw(st.integers(1, 4))
    gens = [np.array(draw(st.permutations(range(n)))) for _ in range(count)]
    signs = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
             for _ in range(count)]
    seed = draw(st.integers(0, n - 1))
    word = draw(st.lists(st.integers(0, count - 1), max_size=6))
    return gens, signs, seed, word


@settings(max_examples=80, deadline=None)
@given(signed_permutation_sets())
def test_kernels_are_dtype_blind(case):
    # the tables store their permutations int32 and the kernels gather
    # through them with np.take: each result equals that of int64 copies
    gens, signs, seed, word = case
    n = gens[0].size
    wide, narrow = ([g.astype(t) for g in gens] for t in (np.int64, np.int32))
    for a, b in zip(astuple(orbit_bfs(n, wide, seed)),
                    astuple(orbit_bfs(n, narrow, seed))):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert orbit_size(n, wide, seed) == orbit_size(n, narrow, seed)
    assert orbit_size(n, wide, seed, signs) \
        == orbit_size(n, narrow, seed, signs)
    for points in (np.arange(n), seed):
        assert np.array_equal(apply_word(points, word, wide),
                              apply_word(points, word, narrow))
    for g, h in zip(wide, narrow):
        assert np.array_equal(inverse_permutation(g), inverse_permutation(h))
    target = math.factorial(n)
    assert bsgs_order(wide, target) == bsgs_order(narrow, target)
    assert bsgs_order(wide, target, signs) == bsgs_order(narrow, target, signs)


#: every function of a 1-based generator index, on both sides; the table
#: methods get a fresh table each
INDEXED = {
    "ProjectiveTable.vector_perm": lambda: sp.ProjectiveTable().vector_perm,
    "ProjectiveTable.basis_point": lambda: sp.ProjectiveTable().basis_point,
    "sympf3.transvection": lambda: sp.transvection,
    "lattice.basis_vector": lambda: la.basis_vector,
    "lattice.triflection": lambda: la.triflection,
    "lattice.step_matrix": lambda: la.step_matrix,
}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_generator_indices_follow_one_rule_on_both_sides(name):
    fn = INDEXED[name]()

    def same(a, b):
        return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    # numpy integers are the plain int, also once the slot is cached
    for i in (1, 3, 10):
        want = fn(np.int64(i))
        assert same(fn(i), want)
        assert same(fn(np.uint8(i)), want)
    # with slots 1 and 3 cached, True and 3.0 must still be refused
    for bad in (True, False, np.bool_(True), 3.0, np.float64(1.0)):
        with pytest.raises(TypeError, match="must be an integer"):
            fn(bad)
    for bad in (0, 11, -1, np.int64(0), np.int16(11)):
        with pytest.raises(IndexError, match=r"must be in 1\.\.10"):
            fn(bad)
