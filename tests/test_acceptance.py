"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Every comparison is exact; tolerances are zero.  Each test times its own
work, including any table builds it is the first to trigger, and asserts
the stated runtime ceiling.  Criteria 3, 4, 5, 6, 7 and 11 run their
`cli.CHECKS` row and compare its observed values with literals written
here.

Criterion 8 certifies the orbit trichotomy in the form that holds.  The
stabilizer of the base line ell_0 has exactly three orbits on points, of
sizes 1, 9840 and 19683, and they are the line labels H, RM (perp ell_0) and
SG.  At every slot i, forward carries Fix(sigma_i) (the lines perp alpha_i:
line H or RM) onto Fix(B_i) (the classes with t_i = t_{i+1}: confluence H or
SG).  So the labels agree on exactly the 10 H fibers, and on all 295240
pairs once RM and SG are exchanged on the line side.

The `orbit_trichotomy` report row of `trigonal verify` stays red.  Its
target asks for label-preserving agreement on all 295240 pairs, but line RM
has 9840 members per slot and confluence RM has 19683, so no bijection can
give it.  Criterion 8 pins the raw count at exactly 10, so relabeling either
side to turn that row green turns this test red.
"""

import random
import time

import numpy as np
import pytest

from trigonal import cli
from trigonal import correspondence as co
from trigonal import lattice as la
from trigonal import monodromy as mo
from trigonal import sympf3 as sp
from trigonal.eisenstein import THETA, EisensteinInt, divides
from trigonal.schreier import (apply_word, inverse_permutation, orbit_bfs,
                               schreier_generator_words)

from oracles import vec_add


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(num, name, ok, limit, timer, detail=""):
    status = "PASS" if ok else "FAIL"
    line = (f"ACCEPTANCE {num:02d} {name}: {status} "
            f"[{timer.seconds:.2f}s / limit {limit:.0f}s]")
    if detail:
        line += f" -- {detail}"
    print(line)
    assert timer.seconds < limit, line
    assert ok, line


def test_criterion_01_monodromy_class_count():
    with Timer() as t:
        table = mo.get_table()
        classes = table.codes
        ok = (classes.shape[0] == 29524
              and table.raw_count == 177144
              and 29524 == (3 ** 11 - 3) // 6 == (3 ** 10 - 1) // 2)
    report(1, "monodromy class count", ok, 5, t,
           f"classes={classes.shape[0]}, raw={table.raw_count}")


def test_criterion_02_projective_point_count():
    with Timer() as t:
        reps = sp.get_table().reps
        ok = reps.shape[0] == 29524
    report(2, "projective point count", ok, 5, t, f"points={reps.shape[0]}")


def run_row(name, optional=False):
    """(ok, observed) of the `cli.CHECKS` row `name` on a seed-0 context."""
    fn = next(row[3] for row in cli.CHECKS if row[0] == name)
    ok, observed, _expected, _details = fn(cli.Context(0, optional))
    return ok, observed


def test_criterion_03_triflection_algebra():
    with Timer() as t:
        ok, observed = run_row("triflection_algebra")
        ok = ok and observed == {"order_three": True, "preserves_form": True,
                                 "integral_entries": True,
                                 "braid_relations": True}
    report(3, "triflection algebra", ok, 1, t, f"{observed}")


def test_criterion_04_mod_theta_compatibility():
    with Timer() as t:
        ok, observed = run_row("mod_theta_compatibility")
        ok = ok and observed == {
            "reduce_triflection_equals_transvection_reduce": True,
            "antisymmetric": True, "zero_diagonal": True, "rank": 10}
    report(4, "mod-theta compatibility", ok, 1, t, f"{observed}")


def test_criterion_05_hurwitz_action():
    with Timer() as t:
        ok, observed = run_row("hurwitz_action")
        seeds = [0, 12345]             # beyond the row's base and alternating
        hurwitz = mo.get_table().all_hurwitz_perms()
        transitive = all(orbit_bfs(29524, hurwitz, s).size == 29524
                         for s in seeds)
        ok = ok and transitive and observed == {
            "order_divides_three": True,
            "trivial_and_order_three_points": True,
            "braid_relations": True,
            "orbit_from_base": 29524,
            "orbit_from_alternating": 29524}
    report(5, "Hurwitz action", ok, 30, t,
           f"{observed}, transitive from seeds {seeds}={transitive}")


def test_criterion_06_symplectic_transitivity():
    with Timer() as t:
        ok, observed = run_row("symplectic_transitivity")
        ok = ok and observed == {"point_orbit": 29524,
                                 "nonzero_vector_orbit": 59048}
    report(6, "symplectic transitivity", ok, 60, t, f"{observed}")


@pytest.fixture(scope="module")
def corr():
    return co.build_bijection()


def test_criterion_07_equivariant_bijection():
    with Timer() as t:
        ok, observed = run_row("equivariant_bijection")
        ok = ok and observed == {"edges_verified": 295240,
                                 "mutually_inverse": True}
    report(7, "equivariant bijection", ok, 120, t, f"{observed}")


def _orbit_partition(n, gens):
    """The orbits of <gens> on range(n), as sorted index arrays."""
    seen = np.zeros(n, dtype=bool)
    orbits = []
    while not seen.all():
        res = orbit_bfs(n, gens, int(np.argmin(seen)))
        seen |= res.depth >= 0
        orbits.append(np.sort(res.order))
    return orbits


def _fixed(perm):
    return np.flatnonzero(perm == np.arange(perm.size))


def test_criterion_08_orbit_trichotomy(corr):
    with Timer() as t:
        spt, mot = sp.get_table(), mo.get_table()
        n = co.N

        # orbits: the subgroup generated by the point-side Schreier words
        # fixes ell_0, and Sp10(F3) preserves ell_0-perp, so if its orbits
        # are exactly the three line-label sets, those sets are the orbits
        # of the full stabilizer.
        s_gens = spt.all_transvection_perms()
        words = schreier_generator_words(
            orbit_bfs(n, s_gens, corr.base_point), s_gens, 64)
        stab = [inverse_permutation(apply_word(np.arange(n), rhs, s_gens))
                [apply_word(np.arange(n), lhs, s_gens)] for lhs, rhs in words]
        labels = sp.line_class_vector(corr.base_point)
        orbits = sorted(_orbit_partition(n, stab), key=len)
        orbit_sizes = [o.size for o in orbits]
        orbits_ok = (len(words) == 64
                     and orbit_sizes == [1, 9840, 19683]
                     and all(np.array_equal(o, np.flatnonzero(labels == c))
                             for c, o in enumerate(orbits))  # H, RM, SG
                     and sp.label_counts(labels)
                     == {"H": 1, "RM": 9840, "SG": 19683})

        # pairing: sigma_i fixes [p] iff symp(p, alpha_i) = 0 (line H or RM)
        # and B_i fixes a class iff t_i = t_{i+1} (confluence H or SG);
        # the bijection forward carries one fixed set onto the other.
        pairing_ok = np.array_equal(np.sort(corr.forward), np.arange(n))
        for i in range(1, 11):
            fix_s = _fixed(spt.all_transvection_perms()[i - 1])
            fix_b = _fixed(mot.all_hurwitz_perms()[i - 1])
            line = sp.line_class_vector(spt.basis_point(i))
            conf = mo.confluence_labels(mot.codes, i)
            pairing_ok = pairing_ok and bool(
                fix_s.size == fix_b.size == 9841
                and np.array_equal(fix_s, np.flatnonzero(line != 2))
                and np.array_equal(fix_b, np.flatnonzero(conf != 1))
                and np.array_equal(np.sort(corr.forward[fix_s]), fix_b))

        # counts: the labels agree only on the ten H fibers until RM and SG
        # are exchanged, and then everywhere
        cross = co.cross_validate_classification(corr)
        h_fibers = all(
            corr.backward[int(np.flatnonzero(
                mo.confluence_labels(mot.codes, i) == 0)[0])]
            == spt.basis_point(i) for i in range(1, 11))
        counts_ok = (
            cross["total_checks"] == 295240
            and cross["agreements"] == 10
            and cross["agreements_rm_sg_swapped"] == 295240
            and h_fibers
            and all(sp.label_counts(mo.confluence_labels(mot.codes, i))
                    == {"H": 1, "RM": 19683, "SG": 9840}
                    and sp.label_counts(sp.line_class_vector(
                        spt.basis_point(i))[corr.backward])
                    == {"H": 1, "RM": 9840, "SG": 19683}
                    for i in range(1, 11)))
        ok = orbits_ok and pairing_ok and counts_ok
    report(8, "orbit trichotomy", ok, 120, t,
           f"stabilizer orbits={orbit_sizes} = line labels: {orbits_ok}; "
           f"forward carries Fix(sigma_i) onto Fix(B_i), i=1..10: "
           f"{pairing_ok}; agreements={cross['agreements']}/295240 "
           f"raw, {cross['agreements_rm_sg_swapped']}/295240 after "
           f"exchanging RM/SG on the line side")


def test_criterion_09_realification_certificate():
    with Timer() as t:
        cert = la.realify_and_certify()
        ok = (cert["is_even"] is True and cert["abs_det"] == 1
              and tuple(cert["signature"]) == (18, 2))
    report(9, "realification certificate", ok, 1, t,
           f"even={cert['is_even']}, |det|={cert['abs_det']}, "
           f"signature={tuple(cert['signature'])}")


def test_criterion_10_minus6_certificates():
    with Timer() as t:
        rng = random.Random("0:minus6")
        eps0 = la.MINUS6_SEED
        decomposed = 0
        samples = 100
        for _ in range(samples):
            word = [(rng.randint(1, 10), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 8))]
            eps = la.apply_lattice_word(word, eps0)
            pair = la.decompose_minus6(eps)
            if pair is not None:
                x, y = pair
                minus3 = EisensteinInt(-3, 0)
                if (vec_add(x, y) == eps
                        and EisensteinInt(*la.herm(x, x)) == minus3
                        and EisensteinInt(*la.herm(y, y)) == minus3
                        and EisensteinInt(*la.herm(x, y)) == THETA):
                    decomposed += 1
        w = la.minus6_witness(eps0)
        witness_ok = (w is not None and w.index == 3 and w.value == THETA
                      and not divides(EisensteinInt(3, 0), w.value)
                      and w.hexaflection_nonintegral)
        ok = decomposed == samples and witness_ok
    report(10, "minus-6 certificates", ok, 60, t,
           f"decomposed={decomposed}/{samples}, witness(a3)={witness_ok}")


def test_criterion_11_sp10_order():
    with Timer() as t:
        ok, observed = run_row("sp10_order", optional=True)
        ok = ok and observed == "152915585868239728626892800"
    report(11, "Sp10(F3) group order", ok, 300, t, f"order={observed}")


def test_criterion_12_discrepancy_notes(tmp_path):
    with Timer() as t:
        out = tmp_path / "report.json"
        code = cli.main(["verify", "lattice", "--out", str(out)])
        text = out.read_text()
        ok = (code == 0
              and cli.NOTE_INDEX in text
              and cli.NOTE_H_VARIANT in text)
    report(12, "discrepancy notes", ok, 30, t,
           "both informational notes appear verbatim in the report")
