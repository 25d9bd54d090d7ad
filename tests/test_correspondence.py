"""The equivariant bijection and the trichotomy cross-validation."""

import json
import tracemalloc

import numpy as np
import pytest

from trigonal import cli
from trigonal import correspondence as co
from trigonal import monodromy as mo
from trigonal import sympf3 as sp
from trigonal.schreier import apply_word, orbit_bfs, schreier_generator_words

from oracles import (ALPHABET_PERMS, brute_canonicalize, keys_of,
                     point_vectors_by_differences, symp)


@pytest.fixture(scope="module")
def corr():
    return co.build_bijection()


def test_base_class():
    t = mo.get_table()
    idx = t.base_class()
    assert t.class_string(idx) == "001111111111"
    assert mo.classify_confluence_codes(t.codes[idx], 0) == "H"


def test_build_succeeds_and_is_bijective(corr):
    n = co.N
    assert corr.edges_verified == 295240
    assert (corr.backward[corr.forward] == np.arange(n)).all()
    assert (corr.forward[corr.backward] == np.arange(n)).all()
    assert np.unique(corr.forward).size == n


def test_base_pair_frozen(corr):
    assert corr.base_point == 11073
    assert corr.base_class == 6560
    assert sp.get_table().reps[corr.base_point].tolist() == [0, 1] * 5
    assert mo.get_table().class_string(corr.base_class) == "001111111111"
    assert int(corr.forward[corr.base_point]) == corr.base_class


def test_candidate_counts(corr):
    # stabilizer pruning alone pins the base point uniquely
    assert corr.candidates_pruned == 1
    assert corr.candidates_passing == 1
    assert corr.words_used == 64


def test_survivor_pruning_equals_the_full_mask_route(corr):
    # the route as built before: each word of a pair as a full permutation
    # of the points, the candidates being the points where every pair agrees
    s_gens = sp.get_table().all_transvection_perms()
    h_gens = mo.get_table().all_hurwitz_perms()
    tree = orbit_bfs(h_gens, corr.base_class)
    identity = np.arange(co.N)
    for budget in (1, 2, 4, 8, 64):
        words = schreier_generator_words(tree, h_gens, budget)
        mask = np.ones(co.N, dtype=bool)
        for lhs, rhs in words:
            mask &= (apply_word(identity, lhs, s_gens)
                     == apply_word(identity, rhs, s_gens))
        got = co._fixed_points(words, s_gens)
        assert got.tolist() == np.flatnonzero(mask).tolist(), budget
    assert corr.words_used == len(words) == 64
    assert corr.candidates_pruned == got.size == 1
    assert corr.base_point == got[0]


def test_point_vectors_equal_the_searched_bijection(corr):
    # the closed form t P mod 3 certified against the search on all 29524
    # classes, under each of the six relabelings of the codes
    mot, spt = mo.get_table(), sp.get_table()
    for perm in ALPHABET_PERMS:
        v = perm[mot.codes] @ co.P % 3
        assert v.shape == (co.N, sp.DIM)
        assert v.any(axis=1).all(), perm
        points = spt.point_index[keys_of(brute_canonicalize(v))]
        assert (points == corr.backward).all(), perm
    base = co.point_vectors(mot.codes[corr.base_class].tolist())
    assert spt.point_index[keys_of(base)] == corr.base_point


def test_point_vectors_are_the_linear_map_p():
    # v = t P mod 3: the rows of P are the images of the unit rows, the map
    # is additive on seeded rows, and a constant row (the kernel) maps to 0
    units = np.identity(mo.TUPLE_LEN, dtype=int).tolist()
    assert co.P.shape == (mo.TUPLE_LEN, sp.DIM)
    assert [co.point_vectors(u) for u in units] == (co.P % 3).tolist()
    rng = np.random.default_rng(28)
    a, b = rng.integers(0, 3, size=(2, 500, mo.TUPLE_LEN), dtype=np.int8)
    for x, y in zip(a.tolist(), b.tolist()):
        assert co.point_vectors([(i + j) % 3 for i, j in zip(x, y)]) \
            == [(i + j) % 3 for i, j in zip(co.point_vectors(x),
                                             co.point_vectors(y))]
    # the product equals the sums of differences, on every class row too
    for rows in (a, mo.get_table().codes):
        assert (rows @ co.P % 3 == point_vectors_by_differences(rows)).all()
    assert co.point_vectors([1] * mo.TUPLE_LEN) == [0] * sp.DIM


def test_the_one_row_point_equals_the_product_on_every_class_row():
    # every class row, and two relabelings of each, against t P mod 3
    codes = mo.get_table().codes
    k = np.arange(len(codes))
    for rows in (codes, ALPHABET_PERMS[k % 5 + 1, codes.T].T,
                 ALPHABET_PERMS[(k + 2) % 5 + 1, codes.T].T):
        assert list(map(co.point_vectors, rows.tolist())) \
            == (rows @ co.P % 3).tolist()


def test_equivariance_exhaustive(corr):
    spt, mot = sp.get_table(), mo.get_table()
    for i in range(1, 11):
        assert (corr.forward[spt.all_transvection_perms()[i - 1]]
                == mot.all_hurwitz_perms()[i - 1][corr.forward]).all()


def test_order_intertwining(corr):
    ident = np.arange(co.N)
    for i in range(1, 11):
        fixed_pt = sp.get_table().all_transvection_perms()[i - 1] == ident
        fixed_cls = mo.get_table().all_hurwitz_perms()[i - 1] == ident
        assert (fixed_pt == fixed_cls[corr.forward]).all()


def test_h_classes_map_to_basis_lines(corr):
    spt, mot = sp.get_table(), mo.get_table()
    for i in range(1, 11):
        chars = ["0"] * 12
        chars[i] = chars[i + 1] = "1"
        h_idx = mot.index_of_codes(mo.parse_tuple_string("".join(chars)))
        assert int(corr.backward[h_idx]) == spt.basis_point(i)


def test_base_point_is_perp_to_interior_lines(corr):
    # the base point is fixed by the transvections matching the moves
    # fixing the base class: slots 2..10 carry equal letters
    spt = sp.get_table()
    v = spt.reps[corr.base_point]
    for i in range(2, 11):
        assert symp(spt.reps[spt.basis_point(i)], v) == 0
    assert symp(spt.reps[spt.basis_point(1)], v) != 0


def test_base_pair_line_class_is_h(corr):
    assert sp.classify_line(corr.base_point, corr.base_point) == "H"


def test_stabilizer_words(corr):
    mot, spt = mo.get_table(), sp.get_table()
    h = mot.all_hurwitz_perms()
    s = spt.all_transvection_perms()
    words = schreier_generator_words(orbit_bfs(h, corr.base_class),
                                     h, 16)
    assert len(words) == 16
    for lhs, rhs in words:
        assert all(isinstance(g, int) and 0 <= g < 10 for g in lhs + rhs)
        assert apply_word(corr.base_class, lhs, h) \
            == apply_word(corr.base_class, rhs, h)
        # matched base points: the same pair fixes the point-side base
        assert apply_word(corr.base_point, lhs, s) \
            == apply_word(corr.base_point, rhs, s)


def test_lattice_side_words(corr):
    spt = sp.get_table()
    s = spt.all_transvection_perms()
    words = schreier_generator_words(orbit_bfs(s, corr.base_point),
                                     s, 8)
    assert len(words) == 8
    for lhs, rhs in words:
        assert apply_word(corr.base_point, lhs, s) \
            == apply_word(corr.base_point, rhs, s)


def test_to_json(corr):
    blob = corr.to_json()
    assert set(blob) == {"forward", "generators_checked", "edges_verified",
                         "base_pair"}
    assert blob["generators_checked"] == 10
    assert blob["edges_verified"] == 295240
    assert len(blob["forward"]) == 29524
    assert blob["base_pair"]["class"] == "001111111111"
    assert blob["base_pair"]["point"] == [0, 1] * 5


def test_bijection_row_reads_the_base_pair_without_to_json(corr, monkeypatch):
    assert corr.base_pair() == corr.to_json()["base_pair"]
    monkeypatch.setattr(co, "build_bijection", lambda: corr)
    monkeypatch.setattr(co.Correspondence, "to_json",
                        lambda self: pytest.fail("the row built to_json"))
    ok, _, _, details = cli.check_equivariant_bijection(cli.Context(0, False))
    assert ok and details["base_pair"] == corr.base_pair()


def test_cross_validation_report(corr):
    rep = co.cross_validate_classification(corr)
    assert rep["total_checks"] == 295240
    # raw agreement holds exactly on the ten H fibers; exchanging the RM/SG
    # labels on the line side gives full agreement
    assert rep["agreements"] == 10
    assert rep["agreements_rm_sg_swapped"] == 295240
    assert rep["excluded_positions"] == [0, 11]
    assert "note" in rep
    # per slot, counted here: the report keeps only the totals
    mot, spt = mo.get_table(), sp.get_table()
    for i in range(1, 11):
        comb = mo.confluence_labels(mot.codes, i)
        line = sp.line_class_vector(spt.basis_point(i))[corr.backward]
        assert (comb == line).sum() == 1
        assert (comb == np.array([0, 2, 1])[line]).sum() == 29524
        assert sp.label_counts(comb) == {"H": 1, "RM": 19683, "SG": 9840}
        assert sp.label_counts(line) == {"H": 1, "RM": 9840, "SG": 19683}


def test_cross_validation_counterexample(corr):
    rep = co.cross_validate_classification(corr)
    d = rep["first_disagreement"]
    assert d is not None
    # verify the reported counterexample from scratch
    mot, spt = mo.get_table(), sp.get_table()
    i, c = d["position"], d["class_index"]
    assert mo.classify_confluence_codes(mot.codes[c], i) == d["confluence"]
    ell = int(corr.backward[c])
    assert sp.classify_line(spt.basis_point(i), ell) == d["line_class"]
    assert d["confluence"] != d["line_class"]


def test_base_pair_slot1_instance(corr):
    # at the base pair, slot 1 has distinct letters (confluence RM) while
    # the base point is NOT perpendicular to alpha_1 (line label SG): the
    # two labelings pair RM with SG
    mot, spt = mo.get_table(), sp.get_table()
    assert mo.classify_confluence_codes(mot.codes[corr.base_class], 1) == "RM"
    a1 = spt.basis_point(1)
    assert symp(spt.reps[a1], spt.reps[corr.base_point]) != 0
    assert a1 != corr.base_point
    assert sp.classify_line(a1, corr.base_point) == "SG"


@pytest.mark.parametrize("slot, swap, failure", [
    (10, (0, 1), "{'candidate_point': 11073, 'generator': 10, 'point': 0, "
                 "'forward_of_image': 5467, 'image_of_forward': 16402}"),
    (5, (100, 200), "{'candidate_point': 11073, "
                    "'reason': 'backward is not a bijection'}"),
], ids=["first_failing_edge", "not_a_bijection"])
def test_a_corrupted_transvection_fails_the_bijection(tmp_path, slot, swap,
                                                      failure):
    # two swapped images of one transvection permutation leave the base
    # point a candidate, so the failure comes from the transport and the
    # exhaustive check, not from the pruning
    spt, mot = sp.get_table(), mo.get_table()
    # build_bijection reads the rows of this one array in place: patch a
    # row and put it back, so that no later test sees the corruption
    s_gens = spt.all_transvection_perms()
    row = s_gens[slot - 1].copy()
    s_gens[slot - 1, list(swap)] = row[list(swap[::-1])]
    try:
        assert (spt.all_transvection_perms()[slot - 1] != row).sum() == 2
        h_gens = mot.all_hurwitz_perms()
        words = schreier_generator_words(mo.orbit_R(), h_gens, co.WORD_BUDGET)
        assert co._fixed_points(words, s_gens).tolist() == [11073]
        message = ("no equivariant bijection found: 1 pruned candidates all "
                   f"failed full verification; first failing edge: {failure}")
        with pytest.raises(RuntimeError) as exc:
            co.build_bijection()
        assert str(exc.value) == message

        out = tmp_path / "report.json"
        assert cli.main(["verify", "correspondence", "--out", str(out)]) == 1
        report = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert report["equivariant_bijection"]["status"] == "fail"
        assert report["equivariant_bijection"]["observed"] \
            == f"error: RuntimeError: {message}"
    finally:
        s_gens[slot - 1] = row
    assert (spt.all_transvection_perms()[slot - 1] == row).all()


def test_an_intransitive_class_tree_stops_the_search(monkeypatch):
    # a tree of one move alone cannot reach every class
    mot = mo.get_table()
    tree = orbit_bfs(mot.all_hurwitz_perms()[:1], mot.base_class())
    assert tree.size < co.N
    monkeypatch.setattr(co.mo, "orbit_R", lambda: tree)
    with pytest.raises(RuntimeError, match="do not act transitively"):
        co.build_bijection()


# -- what the tables keep -------------------------------------------------------

def test_index_and_key_arrays_are_int32(corr):
    # every value is a point, a class or a key below 3^12 < 2^31, so the
    # arrays are int32 and gathered with np.take: on random permutations
    # of 29524 points (one CPU, best of 7), p64[q64] took 51 us, p32[q32]
    # 106 us, since numpy converts a non-intp index on every fancy index,
    # and np.take(p32, q32) 54 us (Intel Xeon, numpy 2.4)
    spt, mot = sp.get_table(), mo.get_table()
    tree = mo.orbit_R()
    indices = {"hurwitz": mot.all_hurwitz_perms(),
               "transvections": spt.all_transvection_perms(),
               "order": tree.order, "parent": tree.parent,
               "forward": corr.forward, "backward": corr.backward,
               "class keys": mot.keys, "point keys": spt.keys,
               "class index": mot.class_index,
               "point index": spt.point_index}
    for name, array in indices.items():
        assert array.dtype == np.int32, name
    # both sides keep their generators in one array, a row per slot
    for name in ("hurwitz", "transvections"):
        assert indices[name].shape == (sp.DIM, sp.N_POINTS), name
    for i in range(1, sp.DIM + 1):
        assert mot.all_hurwitz_perms()[i - 1].dtype == np.int32
        assert spt.all_transvection_perms()[i - 1].dtype == np.int32
    # the tree's values: ten generators and depths below 29524
    assert tree.parent_gen.dtype == np.int8 and tree.depth.dtype == np.int16


@pytest.mark.parametrize("build, bound", [(mo.ClassTable, 3.3e6),
                                          (sp.ProjectiveTable, 1.3e6)])
def test_table_builds_stay_under_their_tracemalloc_bounds(build, bound):
    # after one warm-up build: the class table's certificate marks the six
    # relabelings one at a time in its one mask (peak 2.58 MB), the point
    # table peaks at 1.07 MB, and neither table keeps or makes an int64
    # copy of its rows or a copy of F_3^10
    build()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
