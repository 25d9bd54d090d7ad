"""Monodromy classes, the half-twist action, and confluence classes."""

import functools
import itertools
import warnings

import numpy as np
import pytest

from trigonal import monodromy as mo
from trigonal.f3 import all_rows

from oracles import (ALPHABET_PERMS, confluence_labels_by_deletion,
                     hurwitz_move_codes)


@pytest.fixture(scope="module")
def table():
    return mo.get_table()


# -- an S_3 reference, built here from itertools and independent of the F_3
# coding in the module: element index = lex rank of the permutation tuple

S3 = list(itertools.permutations(range(3)))
S3_ONE = S3.index((0, 1, 2))
#: S3_MUL[a, b] = a after b
S3_MUL = np.array([[S3.index(tuple(a[b[x]] for x in range(3))) for b in S3]
                   for a in S3])
S3_INV = np.array([S3.index(tuple(sorted(range(3), key=a.__getitem__)))
                   for a in S3])
#: transposition codes 0 = (12), 1 = (23), 2 = (13), on the points 0, 1, 2
S3_T = np.array([S3.index(p) for p in ((1, 0, 2), (0, 2, 1), (2, 1, 0))])


def s3_product_is_one(codes):
    """Whether t_11 * ... * t_0 is the identity, multiplied out in S_3."""
    codes = np.atleast_2d(codes)
    acc = np.full(codes.shape[0], S3_ONE)
    for pos in range(codes.shape[1]):
        acc = S3_MUL[S3_T[codes[:, pos]], acc]
    return acc == S3_ONE


@pytest.fixture(scope="module")
def every_tuple():
    """All 3^12 code rows, in base-3 order."""
    return np.fromiter(
        itertools.chain.from_iterable(
            itertools.product(range(3), repeat=mo.TUPLE_LEN)),
        dtype=np.int8).reshape(-1, mo.TUPLE_LEN)


def test_s3_tables():
    # the reference tables against python tuples
    for a, b in itertools.product(range(6), repeat=2):
        assert S3[S3_MUL[a, b]] == tuple(S3[a][S3[b][x]] for x in range(3))
    for a in range(6):
        assert S3_MUL[a, S3_INV[a]] == S3_ONE == S3_MUL[S3_INV[a], a]
    for c in range(3):
        e = S3_T[c]
        assert S3_MUL[e, e] == S3_ONE and S3_INV[e] == e
        # with point p at 2 - p in F_3, code c is the reflection x -> c - x
        assert S3[e] == tuple((2 - (c - (2 - p))) % 3 for p in range(3))


def test_conjugation_table():
    # the move (u, v) -> (v, t_v t_u t_v): fixed when u == v, the third
    # letter otherwise, on all nine pairs
    for u, v in itertools.product(range(3), repeat=2):
        conj = S3_MUL[S3_MUL[S3_T[v], S3_T[u]], S3_T[v]]
        moved = hurwitz_move_codes([u, v] + [0] * 10, 0)[0]
        assert int(moved[0]) == v and S3_T[moved[1]] == conj
        assert int(moved[1]) == (u if u == v else 3 - u - v)


def test_reflection_coding_equals_the_s3_reference(every_tuple):
    # product one is the alternating sum, on every 12-tuple
    assert (mo.product_is_one(every_tuple)
            == s3_product_is_one(every_tuple)).all()
    # conjugation by the six elements relabels the codes by the rows of
    # ALPHABET_PERMS, in order
    code_of = {int(e): c for c, e in enumerate(S3_T)}
    induced = [[code_of[int(S3_MUL[S3_MUL[g, S3_T[c]], S3_INV[g]])]
                for c in range(3)] for g in range(6)]
    assert sorted(induced) == ALPHABET_PERMS.tolist()


def test_alphabet_perms_are_all_of_s3():
    perms = {tuple(int(x) for x in row) for row in ALPHABET_PERMS}
    assert perms == set(itertools.permutations(range(3)))


def test_counts(table):
    assert table.raw_count == 177144
    assert table.codes.shape == (29524, 12)
    assert table.keys.size == 29524


def brute_canonical_keys(codes):
    """Least base-3 key (position 0 most significant) over the six
    relabelings, applied one at a time."""
    weights = 3 ** np.arange(mo.TUPLE_LEN - 1, -1, -1, dtype=np.int64)
    return np.min([np.array(perm)[codes].astype(np.int64) @ weights
                   for perm in itertools.permutations(range(3))], axis=0)


def test_classes_are_canonical_and_sorted(table):
    assert (brute_canonical_keys(table.codes) == table.keys).all()
    assert (np.diff(table.keys) > 0).all()
    assert (mo.codes_to_keys(table.codes) == table.keys).all()


def indexed_classes(table, codes):
    """The classes of (n, 12) code rows read through class_index: t_0
    translated to 0, then the key of (t_1, ..., t_10), t_1 most
    significant."""
    digits = (codes[:, 1:-1] - codes[:, :1]) % 3
    return table.class_index[digits.astype(np.int64)
                             @ 3 ** np.arange(mo.N_MOVES - 1, -1, -1)]


def test_class_lookup_equals_brute_force_on_raw_tuples(table, every_tuple):
    # of every 12-tuple, the tuple rule passes exactly the raw ones:
    # non-constant, product one; the constant ones break the constant rule
    constant = (every_tuple == every_tuple[:, :1]).all(axis=1)
    raw_mask = ~constant & s3_product_is_one(every_tuple)
    # the one-row rule on each tuple, drawn in the fixture's order
    broken = np.fromiter(
        map(mo.broken_rules,
            itertools.product(range(3), repeat=mo.TUPLE_LEN)),
        dtype=np.int8, count=len(every_tuple))
    assert ((broken == -1) == raw_mask).all()
    assert ((broken == 1) == constant).all()
    assert (broken[~raw_mask & ~constant] == 2).all()
    raw = every_tuple[raw_mask]
    assert raw.shape[0] == mo.N_RAW
    brute = brute_canonical_keys(raw)
    assert (table.keys[indexed_classes(table, raw)] == brute).all()
    keys, counts = np.unique(brute, return_counts=True)
    assert (keys == table.keys).all() and (counts == 6).all()
    # index_of_codes reads the same entry, on a sample
    for row in raw[::1009]:
        assert table.keys[table.index_of_codes(row)] \
            == brute_canonical_keys(row[None])[0]


def test_class_lookup_equals_brute_force_on_moved_classes(table):
    for i in range(1, 11):
        moved = hurwitz_move_codes(table.codes, i)
        brute = brute_canonical_keys(moved)
        assert (table.keys[indexed_classes(table, moved)] == brute).all()
        assert (table.keys[table.all_hurwitz_perms()[i - 1]] == brute).all()
        for row, key in zip(moved[::997], brute[::997]):
            assert table.keys[table.index_of_codes(row)] == key


def test_class_index_holds_both_zero_led_rows_of_each_class(table):
    # every key below 3^10 is a tuple (t_1, ..., t_10); np.indices puts t_1
    # most significant, so row k has key k
    free = mo.N_MOVES
    digits = np.indices((3,) * free, dtype=np.int8).reshape(free, -1).T
    assert (digits.astype(np.int64) @ 3 ** np.arange(free - 1, -1, -1)
            == np.arange(3 ** free)).all()
    # completed to the zero-led row by the t_11 that gives product one
    codes = np.zeros((3 ** free, mo.TUPLE_LEN), dtype=np.int8)
    codes[:, 1:-1] = digits
    last = np.full(3 ** free, -1)
    for c in range(3):
        codes[:, -1] = c
        last[s3_product_is_one(codes)] = c
    assert (last >= 0).all()
    codes[:, -1] = last
    # only key 0, the constant tuple, is no class
    assert table.class_index.size == 3 ** 10
    assert table.class_index[0] == -1
    assert (codes[1:] != codes[1:, :1]).any(axis=1).all()
    brute = brute_canonical_keys(codes[1:])
    want = np.searchsorted(table.keys, brute)
    assert (table.keys[want] == brute).all()
    assert (table.class_index[1:] == want).all()
    # two keys per class: its row and the row's negative
    assert (np.bincount(want, minlength=mo.N_CLASSES) == 2).all()


def test_class_strings_equal_the_per_element_definition(table):
    want = ["".join(str(c) for c in row) for row in table.codes.tolist()]
    assert mo.code_strings(table.codes) == want
    assert [table.class_string(i) for i in range(mo.N_CLASSES)] == want


def test_both_entry_points_reject_a_tuple_by_the_same_rule(table):
    for s, rule in (("000000000000", 1), ("011111111111", 2)):
        with pytest.raises(ValueError) as parsed:
            mo.parse_tuple_string(s)
        with pytest.raises(ValueError) as looked_up:
            table.index_of_codes([int(ch) for ch in s])
        assert str(parsed.value) == str(looked_up.value) == mo.TUPLE_RULES[rule]
    # 4 and -2 are 1 mod 3: translating t_0 must not wrap them into a
    # class, nor may a cast truncate 1.5 to 1
    for bad in (3, -1, 4, -2, 1.5):
        for codes in ([bad] + [1] * 11, [0, 0] + [1] * 9 + [bad]):
            with pytest.raises(ValueError, match=r"\{0, 1, 2\}"):
                table.index_of_codes(codes)


def test_every_class_has_product_one(table):
    assert s3_product_is_one(table.codes).all()
    # and is non-constant
    assert not np.any(np.all(table.codes == table.codes[:, :1], axis=1))


def test_hurwitz_is_permutation(table):
    for i in range(1, 11):
        p = table.all_hurwitz_perms()[i - 1]
        assert np.unique(p).size == mo.N_CLASSES


def test_hurwitz_preserves_product():
    rng = np.random.default_rng(5)
    t = mo.get_table()
    sample = rng.integers(0, mo.N_CLASSES, size=50)
    for i in range(0, 11):
        moved = hurwitz_move_codes(t.codes[sample], i)
        assert s3_product_is_one(moved).all()


def test_hurwitz_order_three_or_fixed(table):
    for i in (1, 4, 10):
        p = table.all_hurwitz_perms()[i - 1]
        ident = np.arange(mo.N_CLASSES)
        p3 = p[p[p]]
        assert (p3 == ident).all()
        fixed = p == ident
        # fixed exactly when the two slots carry equal letters
        same = table.codes[:, i] == table.codes[:, i + 1]
        assert (fixed == same).all()
        # the move fixes the classes with t_i = t_{i+1}: 1 H + 9840 SG
        assert int(fixed.sum()) == (3 ** (mo.N_MOVES - 1) - 1) // 2


def test_hurwitz_braid_relations(table):
    p4, p5, p6 = table.all_hurwitz_perms()[3:6]
    assert (p4[p5[p4]] == p5[p4[p5]]).all()
    assert (p4[p6] == p6[p4]).all()


def test_base_class(table):
    b = table.base_class()
    assert table.class_string(b) == "001111111111"
    codes = table.codes[b]
    assert s3_product_is_one(codes)[0]


def test_classify_base_class(table):
    codes = table.codes[table.base_class()]
    # slots (0, 1) carry the equal pair, everything else is the letter 1
    assert mo.classify_confluence_codes(codes, 0) == "H"
    assert mo.classify_confluence_codes(codes, 1) == "RM"
    assert mo.classify_confluence_codes(codes, 5) == "SG"
    assert mo.classify_confluence_codes(codes, 11) == "RM"


def test_classify_string_form():
    def classify(s, pos):
        return mo.classify_confluence_codes(mo.parse_tuple_string(s), pos)
    assert classify("001111111111", 0) == "H"
    assert classify("001111111111", 1) == "RM"
    assert classify("001111111111", 5) == "SG"
    assert classify("010101010101", 3) == "RM"
    with pytest.raises(IndexError):
        classify("001111111111", 12)


def test_classify_conjugation_invariant(table):
    rng = np.random.default_rng(11)
    for idx in rng.integers(0, mo.N_CLASSES, size=20):
        codes = table.codes[int(idx)]
        for perm in ALPHABET_PERMS:
            relabeled = perm[codes]
            for pos in (0, 3, 11):
                assert (mo.classify_confluence_codes(relabeled, pos)
                        == mo.classify_confluence_codes(codes, pos))


def brute_confluence_label(row, pos):
    """0=H, 1=RM, 2=SG for one code row, straight from the module docstring."""
    u, v = row[pos], row[(pos + 1) % 12]
    if u != v:
        return 1                # the local product is a 3-cycle
    rest = [c for k, c in enumerate(row) if k not in (pos, (pos + 1) % 12)]
    return 0 if len(set(rest)) == 1 else 2


def test_confluence_labels_equal_brute_force_on_every_class(table):
    rows = table.codes.tolist()
    for pos in range(mo.TUPLE_LEN):
        brute = [brute_confluence_label(row, pos) for row in rows]
        labels = mo.confluence_labels(table.codes, pos)
        assert labels.dtype == np.int8
        assert labels.tolist() == brute
    for bad in (-1, 12):
        with pytest.raises(IndexError):
            mo.confluence_labels(table.codes, bad)
        with pytest.raises(IndexError):
            mo.classify_confluence_codes(table.codes[0], bad)


def test_the_one_row_label_equals_the_array_form_on_every_class(table):
    rows = table.codes.tolist()
    for pos in range(mo.TUPLE_LEN):
        labels = [mo.CONFLUENCE_CLASSES[k]
                  for k in mo.confluence_labels(table.codes, pos).tolist()]
        assert [mo.classify_confluence_codes(row, pos) for row in rows] \
            == labels, pos


def test_confluence_labels_equal_the_deletion_form_on_every_row_kind(table):
    # the class rows, the constant tuples, and the rows (a, a, b, c, ..., c)
    # that the H-variant note reads
    abc = all_rows(3)
    h_variant = np.repeat(abc[abc.min(axis=1) < abc.max(axis=1)],
                          [2, 1, mo.TUPLE_LEN - 3], axis=1)
    constant = np.repeat(np.arange(3, dtype=np.int8)[:, None], mo.TUPLE_LEN,
                         axis=1)
    for rows in (table.codes, constant, h_variant):
        for pos in range(mo.TUPLE_LEN):
            assert (mo.confluence_labels(rows, pos)
                    == confluence_labels_by_deletion(rows, pos)).all(), pos


def test_parse_tuple_string_errors():
    with pytest.raises(ValueError, match="12 characters"):
        mo.parse_tuple_string("0011")
    with pytest.raises(ValueError, match="12 characters"):
        mo.parse_tuple_string("00111111111x")
    # twelve characters, one of them not one byte in UTF-8, or a lone
    # surrogate as argv holds an undecodable byte
    for s in ("00111111111\u0661", "00111111111\udc80"):
        with pytest.raises(ValueError, match="12 characters"):
            mo.parse_tuple_string(s)
    with pytest.raises(ValueError, match="not surjective"):
        mo.parse_tuple_string("000000000000")
    with pytest.raises(ValueError, match="not the identity"):
        mo.parse_tuple_string("011111111111")
    codes = mo.parse_tuple_string("001111111111")
    assert codes == [0, 0] + [1] * 10


def test_index_round_trip(table):
    rng = np.random.default_rng(17)
    for idx in rng.integers(0, mo.N_CLASSES, size=25):
        s = table.class_string(int(idx))
        assert table.index_of_codes(mo.parse_tuple_string(s)) == int(idx)
        # any relabeling resolves to the same class
        relabeled = ALPHABET_PERMS[3][table.codes[int(idx)]]
        assert table.index_of_codes(relabeled) == int(idx)


def test_index_of_codes_rejects_any_non_letter_by_the_first_rule(table):
    # a huge int and a non-finite float are letters outside {0, 1, 2}, which
    # an int8 cast would wrap or warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (2 ** 70, -2 ** 70, 1e30, float("nan"), float("inf"),
                    -float("inf")):
            for codes in ([bad] + [1] * 11, [0, 0] + [1] * 9 + [bad]):
                with pytest.raises(ValueError) as rejected:
                    table.index_of_codes(codes)
                assert str(rejected.value) == mo.TUPLE_RULES[0]


def test_index_of_codes_names_the_rule_each_row_breaks(table):
    base = [0, 0] + [1] * mo.N_MOVES
    for bad in (3, -1, 2 ** 70, float("nan")):
        for slot in (0, 5, mo.TUPLE_LEN - 1):
            codes = base.copy()
            codes[slot] = bad
            with pytest.raises(ValueError) as rejected:
                table.index_of_codes(codes)
            assert str(rejected.value) == mo.TUPLE_RULES[0], (bad, slot)
    for codes, rule in (([1] * mo.TUPLE_LEN, 1), ([0, 1] + [1] * 10, 2)):
        for copy in (codes, np.array(codes, dtype=np.uint8)):
            with pytest.raises(ValueError) as rejected:
                table.index_of_codes(copy)
            assert str(rejected.value) == mo.TUPLE_RULES[rule]


def test_index_of_codes_takes_one_row_of_twelve_letters(table):
    base = [0, 0] + [1] * 10
    assert table.index_of_codes([base]) == table.index_of_codes(base)
    # a second row, here an invalid one, is not silently dropped
    for bad in ([base, [0, 1] + [1] * 10], base[:-1], base + [1], [[base]]):
        with pytest.raises(ValueError, match="one row of 12 letters"):
            table.index_of_codes(bad)


def test_index_of_codes_reads_unsigned_and_list_copies(table):
    # t_0 is translated to 0 in a signed type: in uint8, 1 - 2 would wrap
    # to 255 = 0 mod 3, and (2, ..., 2, 1, 1) would read as (0, 1, 2, ..., 2)
    codes = np.array([2] * 10 + [1, 1], dtype=np.int8)
    assert table.class_string(table.index_of_codes(codes)) == "000000000011"
    for k in range(0, mo.N_CLASSES, 997):
        for perm in ALPHABET_PERMS[ALPHABET_PERMS[:, 0] != 0]:
            codes = perm[table.codes[k]]                   # t_0 != 0
            for copy in (codes.astype(np.uint8), codes.astype(np.uint16),
                         codes.astype(np.int64), codes.tolist()):
                assert table.index_of_codes(copy) == k, (k, perm, copy)


def seeded_raw_rows(table, n, seed):
    """n seeded raw tuples that are not class rows: t_1..t_11 drawn, t_0
    forced by product one, constant and canonical rows dropped."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, size=(n, mo.TUPLE_LEN)).astype(np.int8)
    signs = np.resize([1, -1], mo.TUPLE_LEN)
    codes[:, 0] = -(codes[:, 1:] @ signs[1:]) % 3
    codes = codes[(codes != codes[:, :1]).any(axis=1)]
    codes = codes[~np.isin(mo.codes_to_keys(codes), table.keys)]
    assert set(map(mo.broken_rules, codes.tolist())) == {-1}
    assert len(codes) > n // 2
    return codes


def test_relabeled_keys_are_the_keys_of_the_relabeled_rows(table):
    # the six key identities, on the class rows and on raw rows that are
    # not canonical
    for codes in (table.codes, seeded_raw_rows(table, 5000, 8)):
        keys = mo.codes_to_keys(codes)
        negated = mo.codes_to_keys(-codes % 3)
        relabeled = list(mo.relabeled_keys(keys, negated))
        assert len(relabeled) == len(ALPHABET_PERMS) == 6
        for k, perm in enumerate(ALPHABET_PERMS):
            assert (relabeled[k] == mo.codes_to_keys(perm[codes])).all(), perm


def test_class_index_holds_the_negated_row_of_each_class(table):
    # the row that indexes each class's second zero-led row is c -> -c
    negated = mo.codes_to_keys(-table.codes % 3)
    assert (table.class_index[negated // 3] == np.arange(mo.N_CLASSES)).all()
    assert (table.class_index[table.keys // 3]
            == np.arange(mo.N_CLASSES)).all()


def test_base_class_tree_is_built_once_per_table(monkeypatch):
    table = mo.get_table()
    base = table.base_class()
    tree = mo.orbit_R()
    assert mo.orbit_R() is tree
    assert tree.size == mo.N_CLASSES and tree.order[0] == base
    # the memo lives on the table: a new table builds a new tree
    monkeypatch.setattr(mo, "get_table", functools.cache(mo.ClassTable))
    fresh = mo.orbit_R()
    assert fresh is not tree
    for name in ("order", "parent", "parent_gen", "depth"):
        assert (getattr(fresh, name) == getattr(tree, name)).all(), name


def certify(codes):
    return mo.transversal_raw_count(mo.codes_to_keys(codes),
                                    mo.codes_to_keys(-codes % 3))


def test_transversal_certificate_accepts_the_class_rows(table):
    assert certify(table.codes) == mo.N_RAW
    # any relabeling of each row is a transversal too
    relabeled = ALPHABET_PERMS[np.arange(mo.N_CLASSES) % 6, table.codes.T].T
    assert certify(relabeled) == mo.N_RAW


def test_transversal_certificate_rejects_corrupted_rows(table):
    # one class row replaced by a relabeling of another class's row
    shared = table.codes.copy()
    shared[7] = ALPHABET_PERMS[4][shared[100]]
    with pytest.raises(ValueError, match="177144 relabelings mark 177138 "
                       "tuples, not the 177144 raw tuples"):
        certify(shared)
    # one class row dropped
    with pytest.raises(ValueError, match="177138 relabelings mark 177138 "
                       "tuples, not the 177144 raw tuples"):
        certify(np.delete(table.codes, 7, axis=0))
    # a row without product one, in place of its class
    broken = table.codes.copy()
    broken[7, -1] = (broken[7, -1] + 1) % 3
    with pytest.raises(ValueError, match="not the 177144 raw tuples"):
        certify(broken)


def test_transversal_certificate_rejects_marks_of_a_constant_tuple(table):
    # the row (0, n), n = 001111111111 with letters 0 and 1 only, marks n
    # and its relabelings c -> c + 1, 1 - c and 2 - c, which are raw, and
    # the constant tuples 0...0 and 2...2, keys 0 and 3^12 - 1, in place
    # of the other two; every other rule holds, so only the constant keys
    # reject it
    keys = mo.codes_to_keys(table.codes)
    negated = mo.codes_to_keys(-table.codes % 3)
    n = [0, 0] + [1] * mo.N_MOVES
    row = table.index_of_codes(n)
    keys[row], negated[row] = 0, mo.codes_to_keys(n)
    with pytest.raises(ValueError, match="177144 relabelings mark 177144 "
                       "tuples, not the 177144 raw tuples"):
        mo.transversal_raw_count(keys, negated)


def test_the_letter_rule_is_named_before_the_others():
    # 3...3 is also constant, and 310...0 also breaks product one
    codes = [[3] * mo.TUPLE_LEN, [3, 1] + [0] * mo.N_MOVES]
    assert [mo.broken_rules(row) for row in codes] == [0, 0]


@pytest.mark.parametrize("rank", range(2, 23, 2))
def test_alternating_tuple_is_raw_at_every_even_rank(rank):
    length = rank + 2
    text = mo.alternating_tuple(length)
    assert len(text) == length and text[:-1] == "01" * (length // 2 - 1) + "0"
    # a raw tuple: letters in F_3, product one, not constant
    codes = np.array([int(ch) for ch in text])
    assert set(text) <= set("012")
    assert codes @ np.resize([1, -1], length) % 3 == 0
    assert len(set(text)) > 1
    if length == mo.TUPLE_LEN:
        assert text == "010101010101"
        assert mo.broken_rules(codes.tolist()) == -1
