"""Lattice, triflections, realification and norm -6 certificates.

Expected values are frozen from independent hand computation with the
defining relations tau^2 = tau - 1, theta = -1 + 2*tau:
    tau*theta = tau - 2, 1 + tau*theta = tau^2, tau^2*theta = -tau - 1.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trigonal.eisenstein import (
    ZERO, ONE, TAU, TAU2, THETA, EisensteinInt, div_exact, divides,
)
from trigonal import cli
from trigonal import lattice as lat

from oracles import (eisenstein, flat, realified_chain_gram, realify,
                     scalar_matrix, scale, skew, vec_add, walk_by_vector)


A = [None] + [lat.basis_vector(i) for i in range(1, 11)]  # 1-based, flat
IDENTITY = scalar_matrix(ONE)


def rand_vector(rng, bound=4):
    """A flat vector; its coordinates p_k, q_k are drawn in that order."""
    return tuple(rng.randint(-bound, bound) for _ in range(20))


def rand_scalar(rng, bound=4):
    return EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def herm_value(x, y):
    """herm(x, y) of two flat vectors as an Eisenstein integer."""
    return EisensteinInt(*lat.herm(x, y))


def act(m, x):
    """The matrix-vector product m*x, through realify on flat coordinates."""
    return tuple(realify(m) @ np.array(x, dtype=object))


def preserves_form(m):
    return lat.preserves_realified_form(realify(m).astype(np.int64))


def gram_herm(x, y):
    """herm as the sum of x_i * GRAM[i][j] * conj(y_j), in EisensteinInt,
    for two flat vectors."""
    x, y = eisenstein(x), eisenstein(y)
    return sum((x[i] * lat.GRAM[i][j] * y[j].conj()
                for i in range(10) for j in range(10)), ZERO)


scalars = st.builds(EisensteinInt, st.integers(-50, 50), st.integers(-50, 50))
vectors = st.tuples(*[scalars] * 10).map(flat)


# -- Gram and form ------------------------------------------------------------

def test_gram_chain_values():
    assert lat.GRAM[0][0] == EisensteinInt(-3)
    assert lat.GRAM[0][1] == THETA
    assert lat.GRAM[1][0] == -THETA
    assert lat.GRAM[0][2] == ZERO
    for i in range(10):
        for j in range(10):
            assert lat.GRAM[j][i] == lat.GRAM[i][j].conj()


def test_herm_on_basis_matches_gram():
    for i in range(1, 11):
        for j in range(1, 11):
            assert herm_value(A[i], A[j]) == lat.GRAM[i - 1][j - 1]


def test_herm_of_minus6_vector():
    eps = lat.MINUS6_SEED
    assert eps == vec_add(A[1], A[2])
    assert herm_value(eps, eps) == EisensteinInt(-6)


def test_herm_is_sesquilinear_and_theta_valued():
    rng = random.Random(1)
    for _ in range(40):
        x, y = rand_vector(rng), rand_vector(rng)
        lam = rand_scalar(rng)
        assert herm_value(scale(lam, x), y) == lam * herm_value(x, y)
        assert herm_value(x, scale(lam, y)) == lam.conj() * herm_value(x, y)
        assert herm_value(y, x) == herm_value(x, y).conj()
        assert divides(THETA, herm_value(x, y))
        d = herm_value(x, x)
        assert d.b == 0 and d.a % 3 == 0  # diagonal values are integers in 3Z


def test_skew_values():
    assert skew(A[1], A[2]) == ONE
    assert skew(A[2], A[1]) == -ONE
    assert skew(A[1], A[1]) == THETA
    assert skew(A[1], A[3]) == ZERO


def test_skew_twisted_antisymmetry():
    rng = random.Random(2)
    for _ in range(40):
        x, y = rand_vector(rng), rand_vector(rng)
        assert skew(y, x) == -(skew(x, y).conj())


# -- triflections ---------------------------------------------------------------

def test_triflection_on_its_own_mirror_vector():
    s1 = lat.triflection(1)
    assert (act(s1, A[1]) == lat.apply_lattice_word([(1, 1)], A[1])
            == scale(TAU2, A[1]))


def test_triflection_on_neighbour_and_far_vector():
    s1 = lat.triflection(1)
    assert act(s1, A[2]) == vec_add(A[2], scale(-TAU, A[1]))
    assert act(s1, A[3]) == A[3]
    assert lat.apply_lattice_word([(1, 1)], A[3]) == A[3]
    assert lat.apply_lattice_word([(5, 1)], A[1]) == A[1]


def test_triflection_matches_defining_formula():
    rng = random.Random(3)
    for i in range(1, 11):
        s = lat.triflection(i)
        for _ in range(6):
            x = rand_vector(rng)
            expected = vec_add(x, scale(TAU * skew(x, A[i]), A[i]))
            assert act(s, x) == lat.apply_lattice_word([(i, 1)], x) == expected


def test_triflection_order_three():
    for i in range(1, 11):
        s = lat.triflection(i)
        assert s != IDENTITY
        s2 = lat.compose(s, s)
        assert s2 != IDENTITY
        assert lat.compose(s, s2) == IDENTITY
        assert s2 == lat.word_matrix([(i, -1)])


def test_triflections_preserve_the_form():
    for i in range(1, 11):
        assert lat.preserves_realified_form(lat.step_matrix(i))
        assert preserves_form(lat.triflection(i))


def test_braid_relations():
    for i in range(1, 10):
        s, t = lat.triflection(i), lat.triflection(i + 1)
        assert lat.compose(s, lat.compose(t, s)) == lat.compose(t, lat.compose(s, t))
    for i in range(1, 11):
        for j in range(i + 2, 11):
            s, t = lat.triflection(i), lat.triflection(j)
            assert lat.compose(s, t) == lat.compose(t, s)


def test_generator_index_range():
    for bad in (0, 11, -1):
        with pytest.raises(IndexError):
            lat.triflection(bad)
    with pytest.raises(IndexError):
        lat.basis_vector(11)


def test_word_matrix_and_apply_word_agree():
    rng = random.Random(4)
    for _ in range(10):
        word = [(rng.randint(1, 10), rng.choice((1, -1))) for _ in range(6)]
        m = lat.word_matrix(word)
        assert preserves_form(m)
        product = IDENTITY
        for i, e in word:
            s = lat.triflection(i)
            step = s if e == 1 else lat.compose(s, s)
            product = lat.compose(step, product)
        assert m == product
        x = rand_vector(rng, bound=2)
        expected = x                  # the defining formula, letter by letter
        for i, e in word:
            c = TAU if e == 1 else TAU2
            expected = vec_add(
                expected, scale(c * skew(expected, A[i]), A[i]))
        assert lat.apply_lattice_word(word, x) == expected == act(m, x)


#: every function that takes the exponent of a letter
EXPONENT_TAKERS = {
    "apply_lattice_word": lambda e: lat.apply_lattice_word([(1, e)], A[2]),
    "word_matrix": lambda e: lat.word_matrix([(1, e)]),
    "step_matrix": lambda e: lat.step_matrix(1, e),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_TAKERS))
def test_exponents_follow_one_rule(name):
    fn = EXPONENT_TAKERS[name]

    def same(a, b):
        return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    # numpy integers are the plain int, also once the exponent is cached
    for e in (1, -1):
        want = fn(e)
        assert same(fn(np.int64(e)), want)
        assert same(fn(np.int8(e)), want)
    assert not same(fn(1), fn(-1))
    for bad in (True, False, np.bool_(True), 1.0, -1.0, np.float64(1.0),
                "1", None):
        with pytest.raises(TypeError, match="exponent must be an integer"):
            fn(bad)
    for bad in (0, 2, -2, np.int64(3)):
        with pytest.raises(ValueError, match="exponent must be 1 or -1"):
            fn(bad)


# -- integer kernels on flat Z-coordinates ----------------------------------------

@given(vectors, st.integers(1, 10), st.sampled_from((1, -1)))
def test_flat_step_is_the_defining_formula(x, i, e):
    c = TAU if e == 1 else TAU2
    expected = vec_add(
        x, scale(c * div_exact(gram_herm(x, A[i]), THETA), A[i]))
    assert lat._step(x, i, e) == expected
    assert flat(eisenstein(x)) == x
    assert lat._unflat(x) == eisenstein(x)


@given(vectors, vectors)
def test_flat_herm_is_the_gram_sum(x, y):
    assert herm_value(x, y) == gram_herm(x, y)


def test_step_matrices_are_the_realified_triflections():
    for i in range(1, 11):
        s, s_back = lat.step_matrix(i, 1), lat.step_matrix(i, -1)
        assert s.dtype == np.int64 and not s.flags.writeable
        assert (s == realify(lat.triflection(i))).all()
        assert (s_back == realify(lat.word_matrix([(i, -1)]))).all()


def test_step_matrix_columns_are_the_steps_of_the_unit_vectors():
    # the matrices are filled from `_step_rows`; column k must still be
    # what `_step` does to the k-th unit vector
    units = np.identity(20, dtype=np.int64).tolist()
    for i in range(1, 11):
        for e in (1, -1):
            m = lat.step_matrix(i, e)
            for k, unit in enumerate(units):
                assert tuple(m[:, k].tolist()) == lat._step(tuple(unit), i, e)


def test_preserves_form_accepts_tau_and_rejects_theta_and_a_perturbation():
    assert preserves_form(scalar_matrix(TAU))
    assert not preserves_form(scalar_matrix(THETA))
    s = [list(row) for row in lat.triflection(3)]
    s[4][7] = s[4][7] + ONE
    assert preserves_form(lat.triflection(3))
    assert not preserves_form(tuple(map(tuple, s)))


def test_int64_products_refuse_to_overflow():
    fits = np.full((20, 20), 2 ** 29, dtype=np.int64)   # 20 * 2^58 < 2^63
    assert (lat.matmul(fits, fits) == 20 * 2 ** 58).all()
    big = np.full((20, 20), 2 ** 31, dtype=np.int64)    # 20 * 2^62 > 2^63
    with pytest.raises(OverflowError):
        lat.matmul(big, big)
    with pytest.raises(OverflowError):
        lat.preserves_realified_form(big)


def fraction_det_and_signature(rows):
    """(det, (n_plus, n_minus)) of a symmetric matrix by congruence
    diagonalization over Q, skipping radical directions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det, pos, neg = len(a), Fraction(1), 0, 0
    for k in range(n):
        if a[k][k] == 0:
            d = next((d for d in range(k + 1, n) if a[d][d]), None)
            o = next((o for o in range(k + 1, n) if a[k][o]), None)
            if d is not None:                   # e_k <-> e_d
                a[k], a[d] = a[d], a[k]
                for row in a:
                    row[k], row[d] = row[d], row[k]
            elif o is not None:                 # e_k += e_o
                for c in range(n):
                    a[k][c] += a[o][c]
                for r in range(n):
                    a[r][k] += a[r][o]
            else:
                det = 0
                continue
        det *= a[k][k]
        pos, neg = (pos + 1, neg) if a[k][k] > 0 else (pos, neg + 1)
        for r in range(k + 1, n):              # clear row and column k
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
        for r in range(k + 1, n):
            a[k][r] = a[r][k] = Fraction(0)
    return det, (pos, neg)


def random_symmetric(rng):
    """A seeded symmetric integer matrix; about a third have a zero diagonal
    and about a quarter a row that is a multiple of another."""
    n = rng.randint(1, 7)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.choice((0, rng.randint(-9, 9)))
    if rng.random() < 0.35:
        for i in range(n):
            a[i][i] = 0
    if n > 1 and rng.random() < 0.25:           # e_u = f * e_v on both sides
        u, v = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        a[u] = [f * x for x in a[v]]
        for row in a:
            row[u] = f * row[v]
    return a


def test_fraction_free_elimination_equals_the_fraction_reference():
    rng = random.Random(7)
    zero_diagonal = singular = 0
    for _ in range(600):
        rows = random_symmetric(rng)
        det, sig = lat._det_and_signature(rows)
        # the signature of the nondegenerate part, singular or not
        assert (det, sig) == fraction_det_and_signature(rows)
        singular += det == 0
        zero_diagonal += det != 0 and not any(r[i] for i, r in enumerate(rows))
    assert singular > 100 and zero_diagonal > 40
    assert lat._det_and_signature([[0, 1], [1, 0]]) == (-1, (1, 1))
    assert lat._det_and_signature([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == (-1, (2, 1))
    assert lat._det_and_signature([[2, 4], [4, 8]])[0] == 0
    assert lat._det_and_signature([]) == (1, (0, 0))


# -- realification -----------------------------------------------------------------

def test_realified_gram_entries():
    b = lat.realified_gram()
    assert b[0][0] == 2          # b(a_1, a_1)
    assert b[1][1] == 2          # b(tau*a_1, tau*a_1)
    assert b[0][1] == 1          # b(a_1, tau*a_1)
    assert b[0][2] == 0          # b(a_1, a_2)
    assert b[0][3] == -1         # b(a_1, tau*a_2)
    assert b[1][2] == 1          # b(tau*a_1, a_2)
    assert b[1][3] == 0          # b(tau*a_1, tau*a_2)
    arr = np.array(b)
    assert arr.shape == (20, 20)
    assert (arr == arr.T).all()


def test_a_realified_entry_3_does_not_divide_is_named(monkeypatch):
    a, b = lat._form_components()
    a = a.copy()
    a[0, 1] += 1                 # -(2a + b) at (0, 1) goes from 3 to 1
    monkeypatch.setattr(lat, "_form_components", lambda: (a, b))
    with pytest.raises(ArithmeticError,
                       match=r"not integral; entry \(0,1\) = 1/3$"):
        lat.realified_gram()


def test_realify_certificate():
    cert = lat.realify_and_certify()
    assert cert["is_even"] is True
    assert cert["abs_det"] == 1
    assert cert["signature"] == (18, 2)


@pytest.mark.parametrize("rank", range(2, 23, 2))
def test_realified_signature_is_the_eigenvalue_count(rank):
    # the count the certificate expects, against the exact signature of the
    # chain Gram built from its definition; rank 10 is the package's own
    gram = realified_chain_gram(rank)
    det, signature = lat._det_and_signature(gram)
    assert det != 0
    assert lat.realified_signature(rank) == signature
    if rank == lat.RANK:
        assert gram == lat.realified_gram()
        assert signature == (18, 2)


def test_realify_certificate_against_float_oracle():
    eig = np.linalg.eigvalsh(np.array(lat.realified_gram(), dtype=float))
    assert np.all(np.abs(eig) > 1e-9)
    assert (int((eig > 0).sum()), int((eig < 0).sum())) == (18, 2)


def test_realified_certificate_is_basis_change_invariant():
    rng = random.Random(5)
    word = [(rng.randint(1, 10), rng.choice((1, -1))) for _ in range(5)]
    t = realify(lat.word_matrix(word))
    assert abs(round(float(np.linalg.det(t.astype(float))))) == 1
    b = np.array(lat.realified_gram(), dtype=object)
    b2 = t.T @ b @ t
    assert (b2 == b).all()  # triflections are isometries, so the Gram is literally fixed
    # and an arbitrary unimodular change of basis preserves the certificate
    u = np.identity(20, dtype=object)
    u[0, 7] = 3
    u[4, 2] = -2
    b3 = u.T @ b @ u
    det, sig = lat._det_and_signature(b3.tolist())
    assert abs(det) == 1 and sig == (18, 2)
    assert fraction_det_and_signature(b3.tolist()) == (det, sig)
    assert all(b3[i][i] % 2 == 0 for i in range(20))


# -- norm -6 vectors ------------------------------------------------------------

def test_decompose_identity_instance():
    eps = lat.MINUS6_SEED
    pair = lat.decompose_minus6(eps)
    assert pair == (A[1], A[2])


def test_decompose_rejects_wrong_norm():
    with pytest.raises(ValueError):
        lat.decompose_minus6((0,) * 20)
    with pytest.raises(ValueError):
        lat.decompose_minus6(A[1])


def test_decompose_transported_instances():
    rng = random.Random(6)
    eps0 = lat.MINUS6_SEED
    for _ in range(5):
        word = [(rng.randint(1, 10), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))]
        eps = lat.apply_lattice_word(word, eps0)
        pair = lat.decompose_minus6(eps)
        assert pair is not None
        x, y = pair
        assert vec_add(x, y) == eps
        assert herm_value(x, x) == EisensteinInt(-3)
        assert herm_value(y, y) == EisensteinInt(-3)
        assert herm_value(x, y) == THETA


def test_seed_ball_is_the_per_vector_walk():
    # the ball is expanded a level at a time through the step matrices; it
    # must keep the per-vector walk's vectors, words and order
    assert [len(lat._seed_ball(r)) for r in range(5)] == [1, 7, 26, 91, 301]
    ball = lat._seed_ball(4)
    assert list(ball.items()) == walk_by_vector(lat.MINUS6_SEED, 4)
    for z, word in ball.items():
        assert lat.apply_lattice_word(word, lat.MINUS6_SEED) == z
        level = min(r for r in range(5) if z in lat._seed_ball(r))
        assert len(word) == level


def test_decompose_walks_back_from_outside_the_seed_ball():
    # a word of length 6 > SEARCH_BOUND // 2 that the ball from a_1 + a_2
    # does not reach, so the split is found by walking back from eps
    word = [(3, 1), (7, -1), (2, 1), (4, 1), (5, -1), (4, 1)]
    eps = lat.apply_lattice_word(word, lat.MINUS6_SEED)
    assert eps not in lat._seed_ball(lat.SEARCH_BOUND // 2)
    x, y = lat.decompose_minus6(eps)
    assert vec_add(x, y) == eps
    assert herm_value(x, x) == herm_value(y, y) == EisensteinInt(-3)
    assert herm_value(x, y) == THETA


def test_decompose_gives_up_past_the_search_bound():
    # 24 letters, drawn with random.Random(5), carry a_1 + a_2 beyond the
    # walk's reach: its way back from eps meets no vector of the seed ball
    word = [(10, 1), (3, -1), (2, 1), (1, 1), (3, 1), (4, 1), (8, -1), (6, 1),
            (7, -1), (5, -1), (6, -1), (8, 1), (4, 1), (3, 1), (6, -1), (8, 1),
            (9, -1), (2, -1), (3, -1), (4, 1), (8, 1), (6, -1), (6, 1), (1, -1)]
    eps = lat.apply_lattice_word(word, lat.MINUS6_SEED)
    assert lat.herm(eps, eps) == (-6, 0)
    assert lat.decompose_minus6(eps) is None


def test_minus6_witness_identity_instance():
    eps = lat.MINUS6_SEED
    w = lat.minus6_witness(eps)
    assert w is not None
    assert w.index == 3 and herm_value(eps, A[w.index]) == w.value
    assert w.value == THETA
    assert not divides(EisensteinInt(3), w.value)
    assert w.hexaflection_nonintegral


def test_minus6_witness_shifted_instance():
    eps = vec_add(A[2], A[3])
    w = lat.minus6_witness(eps)
    assert w.index == 1
    assert w.value == -THETA
    assert w.hexaflection_nonintegral


def test_minus6_witness_skips_a_basis_vector_3_divides():
    # a_1 lies off the support of a_3 + a_4 and pairs with it to 0
    eps = vec_add(A[3], A[4])
    assert herm_value(eps, A[1]) == ZERO
    w = lat.minus6_witness(eps)
    assert (w.index, w.value.to_json()) == (2, [1, -2])


def test_minus6_witness_requires_norm_minus6():
    with pytest.raises(ValueError):
        lat.minus6_witness(A[1])


# -- serialization ----------------------------------------------------------------

def test_matrix_round_trip():
    m = lat.triflection(4)
    data = [[c.to_json() for c in row] for row in m]
    assert tuple(tuple(EisensteinInt(*p) for p in row) for row in data) == m
    assert data[3][3] == [-1, 1]  # tau^2 at the mirror slot


def test_gram_json_shape(tmp_path):
    out = tmp_path / "gram.json"
    assert cli.main(["export", "gram", "--out", str(out)]) == 0
    data = json.loads(out.read_text())["gram"]
    assert tuple(tuple(EisensteinInt(*p) for p in row)
                 for row in data) == lat.GRAM
    assert data[0][0] == [-3, 0]
    assert data[0][1] == [-1, 2]
    assert data[1][0] == [1, -2]
