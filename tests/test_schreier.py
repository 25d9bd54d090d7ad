"""The randomized Schreier-Sims order certificate."""

import random

import numpy as np
import pytest

from trigonal import cli
from trigonal import sympf3 as sp
from trigonal.schreier import MAX_ROUNDS, bsgs_order

#: the basic orbits of Sp10(F3) on nonzero vectors: 3^2k - 1 and 3^(2k-1)
#: for k = 5..1, whose product is |Sp10(F3)|
SP10_ORBIT_SIZES = [59048, 19683, 6560, 2187, 728, 243, 80, 27, 8, 3]

#: S6 on range(6), generated by (0 1) and (0 1 2 3 4 5)
S6 = [np.array([1, 0, 2, 3, 4, 5]), np.array([1, 2, 3, 4, 5, 0])]


class CountingRandom(random.Random):
    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


def test_sp10_orbit_sizes_multiply_to_the_order():
    assert np.prod(SP10_ORBIT_SIZES, dtype=object) == cli.SP10_ORDER


@pytest.mark.parametrize("seed", [3, 9, 15, 17, 23, 39, 40])
def test_sp10_certifies_on_seeds_that_used_to_stall(seed):
    table = sp.get_table()
    gens = [table.vector_perm(i) for i in range(1, sp.DIM + 1)]
    order, certified, sizes = bsgs_order(gens, cli.SP10_ORDER,
                                         random.Random(f"{seed}:bsgs"))
    assert (order, certified) == (cli.SP10_ORDER, True)
    assert sizes == SP10_ORBIT_SIZES


def test_s6_certifies_720():
    order, certified, sizes = bsgs_order(S6, 720, random.Random(0))
    assert (order, certified) == (720, True)
    assert sizes == [6, 5, 4, 3, 2]


def test_inflated_target_gives_up_after_max_rounds():
    rng = CountingRandom(0)
    order, certified, sizes = bsgs_order(S6, 1440, rng)
    assert (order, certified) == (720, False)
    assert sizes == [6, 5, 4, 3, 2]
    # each round draws at least two indices for its product replacement
    assert rng.calls >= 2 * MAX_ROUNDS
