"""Degree-3 cover monodromy data on TUPLE_LEN marked points, up to conjugation.

TUPLE_LEN = RANK + 2, and the sizes below are those of RANK = 10: a datum
is a 12-tuple (t_0, ..., t_11) of transpositions in S_3 whose ordered
product t_11 * t_10 * ... * t_0 is the identity and which uses at least two
distinct transpositions.  Transpositions are coded

    0 = (12),  1 = (23),  2 = (13).

Labelling the three sheets 1, 2, 3 by 2, 1, 0 in F_3, transposition c is the
reflection x -> c - x, and S_3 is the group of maps x -> +-x + a.  Everything
below is this arithmetic mod 3:

  * t_b t_a is the translation x -> x + b - a, so the product is the
    identity exactly when the alternating sum t_0 - t_1 + t_2 - ... - t_11
    is 0;
  * t_v t_u t_v is the reflection in 2v - u, that is code -u - v;
  * conjugation by x -> +-x + a sends code c to +-c + 2a, so the induced
    relabelings of codes are all six permutations of F_3.

Free choice of t_1..t_11 forces t_0, giving 3^11 - 3 = 177144 raw tuples
(the rule is `broken_rules`); conjugation acts freely, so there are exactly
177144 / 6 = 29524 classes, in key order (position 0 most significant) of
their least relabeling, the canonical form (0, t_1, ..., t_10, t_11) whose
first nonzero letter is 1, as for the points, with t_11 forced by product
one.  The rows are enumerated directly and certified as a transversal:
their six relabelings are the raw tuples, once each.  So a class is the
line +-(t_1, ..., t_10) of F_3^10, looked up as points are: `f3.signed_index`
over the base-3 keys of (t_1, ..., t_10), t_1 most significant.

The ten half-twist moves act at adjacent slots (i, i+1), i = 1..10:

    (u, v) -> (v, v*u*v) = (v, -u - v),

trivial when u = v and of order 3 otherwise; they satisfy the braid
relations.

Collapsing the two branch points at slots (i, i+1) of a datum is classified
combinatorially:

    RM : t_i != t_{i+1}      (the local product is a 3-cycle: the cover
                              acquires a point of total ramification),
    H  : t_i = t_{i+1} and the remaining ten entries generate a group of
         order 2 (the degenerate cover disconnects),
    SG : t_i = t_{i+1} and the remaining entries generate S_3.

TUPLE_LEN and the one-row forms of the tuple rule and of this trichotomy,
`broken_rules`, `parse_tuple_string` and `classify_confluence_codes`, are
stated in `rules`, without numpy; this module builds the whole table.
"""

from __future__ import annotations

import functools

import numpy as np

from .f3 import digit_sums, key_digits, mod3, negated_keys, signed_index
# the one-row rules live in `rules`, which needs no numpy; the table does
# not use parse_tuple_string, which the benchmark wraps here
from .rules import (TUPLE_LEN, TUPLE_RULES, broken_rules, check_slot,
                    parse_tuple_string)
from .schreier import OrbitResult, orbit_bfs

N_RAW = 3 ** (TUPLE_LEN - 1) - 3    # 177144
N_CLASSES = N_RAW // 6              # 29524
N_MOVES = TUPLE_LEN - 2             # half-twists at slots (i, i+1), i = 1..10

_W12 = (3 ** np.arange(TUPLE_LEN - 1, -1, -1, dtype=np.int64))  # MSB first
_SIGNS = np.resize(np.int8([1, -1]), TUPLE_LEN)  # product one: t @ _SIGNS = 0


def codes_to_keys(codes: np.ndarray) -> np.ndarray:
    return np.asarray(codes, dtype=np.int64) @ _W12


def relabeled_keys(keys, negated):
    """The keys of the six relabelings of code rows, one array at a time,
    from the keys of the rows and of their negations c -> -c.

    The relabelings are the permutations p of (0, 1, 2) in lexicographic
    order, which send code c to p[c].  A key is linear in the letters:
    with K_c the key of the indicator row of c, a row has key K_1 + 2K_2,
    its negation 2K_1 + K_2, and K_0 + K_1 + K_2 = S, the key of the
    all-ones row; the key of the relabeling p is p[0]K_0 + p[1]K_1 + p[2]K_2.
    """
    s = (3 ** TUPLE_LEN - 1) // 2
    yield keys                        # (0, 1, 2)
    yield negated                     # (0, 2, 1)
    yield s + keys - negated          # (1, 0, 2)
    yield s - keys + negated          # (1, 2, 0)
    yield 2 * s - negated             # (2, 0, 1)
    yield 2 * s - keys                # (2, 1, 0)


def transversal_raw_count(keys, negated) -> int:
    """Certify code rows as one per class from their keys and the keys of
    their negations; return the raw-tuple count.  The six relabelings must
    be distinct and be exactly the raw tuples; otherwise ValueError.

    The one mask marks the relabelings.  Every marked tuple must be raw:
    its t_0 is the one that product one forces from t_1..t_11, and it is
    no constant tuple (c, ..., c), key c * (3^12 - 1) / 2.  There are N_RAW
    raw tuples, 3^11 free choices less the 3 constant ones, so
    6 * len(keys) = N_RAW distinct marks are all of them."""
    marks = np.zeros(3 ** TUPLE_LEN, dtype=bool)
    for relabeled in relabeled_keys(keys, negated):
        marks[relabeled] = True
    marked = int(np.count_nonzero(marks))
    by_t0 = marks.reshape(3, -1)              # [t_0, key of t_1..t_11]
    forced = digit_sums(-_SIGNS[1:])
    constant = np.arange(3) * ((3 ** TUPLE_LEN - 1) // 2)
    raw = (sum(np.count_nonzero(by_t0[t0] & (forced == t0)) for t0 in range(3))
           == marked and not marks[constant].any())
    relabelings = 6 * len(keys)
    if not raw or marked != relabelings or marked != N_RAW:
        raise ValueError(f"{relabelings} relabelings mark {marked} tuples, "
                         f"not the {N_RAW} raw tuples")
    return marked


class ClassTable:
    """All 29524 classes, canonical codes, and the half-twist permutations."""

    def __init__(self):
        # the canonical rows (0, t_1, ..., t_10, t_11), t_11 forced by product
        # one, in key order over t_1..t_10, t_1 most significant: one block
        # per slot of the leading 1, with m free digits after it, is the run
        # of keys 3^m .. 2 * 3^m - 1
        position = np.concatenate([
            np.arange(3 ** m, 2 * 3 ** m, dtype=np.int32)
            for m in range(N_MOVES)])
        rows = key_digits(position, _W12[2:])
        last = mod3(rows @ _SIGNS[1:-1])
        self.codes = np.column_stack((np.zeros_like(rows[:, 0]), rows, last))
        # t_0 = 0, so the key of the whole row appends the digit t_11 to
        # the key `position` over t_1..t_10
        self.keys = (3 * position + last).astype(np.int32)
        # a class has two rows with t_0 = 0, the canonical one and its
        # negation c -> -c, whose key over t_1..t_10 is `negated`
        negated = negated_keys(rows, _W12[2:])
        self.raw_count = transversal_raw_count(self.keys,
                                               3 * negated + mod3(-last))
        self.class_index = signed_index(3 ** N_MOVES, position, negated)
        self._hurwitz_perms: np.ndarray | None = None   # (N_MOVES, N_CLASSES)
        self._base_tree: OrbitResult | None = None      # see orbit_R

    # -- lookups ----------------------------------------------------------------

    def index_of_codes(self, codes) -> int:
        codes = np.asarray(codes)
        if codes.shape not in ((TUPLE_LEN,), (1, TUPLE_LEN)):
            raise ValueError(f"a monodromy tuple is one row of {TUPLE_LEN} letters")
        # Python numbers, so that translating t_0 to 0 cannot wrap an
        # unsigned type
        row = codes.reshape(TUPLE_LEN).tolist()
        broken = broken_rules(row)
        if broken >= 0:
            raise ValueError(TUPLE_RULES[broken])
        return int(self.class_index[
            codes_to_keys([(c - row[0]) % 3 for c in row]) // 3])

    def class_string(self, idx: int) -> str:
        return code_strings(self.codes[idx])[0]

    # -- the half-twist action ----------------------------------------------------

    def all_hurwitz_perms(self) -> np.ndarray:
        """The ten class permutations, stored once as the rows of one
        (N_MOVES, N_CLASSES) int32 array: row i - 1 is the move at slots
        (i, i+1)."""
        if self._hurwitz_perms is None:
            # every key and moved key lies below 3^TUPLE_LEN
            assert 3 ** TUPLE_LEN <= np.iinfo(np.int32).max
            perms = np.empty((N_MOVES, N_CLASSES), dtype=np.int32)
            for i in range(1, N_MOVES + 1):
                # the move (u, v) -> (v, -u - v) at slots i, i+1 changes two
                # digits of the key, of weights 3w and w, so the key by w
                # times 3(v - u) + (-u - v) % 3 - v, at most 8 in size, in
                # int8.  It keeps t_0 = 0, so the moved row is one of the
                # two indexed rows of its class
                u, v = self.codes[:, i], self.codes[:, i + 1]
                step = 3 * (v - u) + mod3(-u - v) - v
                moved = step.astype(np.int32)
                moved *= int(_W12[i + 1])
                moved += self.keys
                moved //= 3
                np.take(self.class_index, moved, out=perms[i - 1])
            assert (perms >= 0).all()
            self._hurwitz_perms = perms
        return self._hurwitz_perms

    def base_class(self) -> int:
        """The class of (t_0, t_1) = ((12), (12)), t_2..t_11 = (23)."""
        return self.index_of_codes([0, 0] + [1] * N_MOVES)


@functools.cache
def get_table() -> ClassTable:
    return ClassTable()


# -- tuple-level utilities ------------------------------------------------------

def code_strings(codes) -> list[str]:
    """The 12-character strings of (n, 12) code rows, decoded in one pass."""
    text = (np.atleast_2d(codes) + ord("0")).astype(np.uint8).tobytes().decode()
    return [text[k:k + TUPLE_LEN] for k in range(0, len(text), TUPLE_LEN)]


#: row pos masks the ten slots other than pos and pos + 1 mod 12
_OTHER_SLOTS = ~(np.identity(TUPLE_LEN, dtype=bool)
                 | np.roll(np.identity(TUPLE_LEN, dtype=bool), 1, axis=1))


def confluence_labels(codes, pos: int) -> np.ndarray:
    """Labels of (n, 12) code rows collapsed at slots (pos, pos+1 mod 12),
    for whole tables.

    The rule, coded 0=H, 1=RM, 2=SG: RM when the two letters differ,
    otherwise H when the other ten letters are all equal, otherwise SG.
    `rules.classify_confluence_codes` is its one-row form.
    """
    check_slot(pos)
    codes = np.atleast_2d(codes)
    rest = codes[:, _OTHER_SLOTS[pos]]
    return np.where(codes[:, pos] != codes[:, (pos + 1) % TUPLE_LEN],
                    np.int8(1), np.where((rest == rest[:, :1]).all(axis=1),
                                         np.int8(0), np.int8(2)))


def alternating_tuple(length: int) -> str:
    """The code string of the raw tuple (0, 1, 0, 1, ..., 0, x) of even
    `length`, with x forced by product one: the alternating sum is
    -(length/2 - 1) - x, so x = 1 - length/2 mod 3."""
    return "01" * (length // 2 - 1) + "0" + str((1 - length // 2) % 3)


def orbit_R() -> OrbitResult:
    """The Schreier tree of the base class under the ten moves, which the
    Hurwitz check, the bijection search and the orbit exports all read:
    built once per table."""
    t = get_table()
    if t._base_tree is None:
        t._base_tree = orbit_bfs(t.all_hurwitz_perms(), t.base_class())
    return t._base_tree
