"""CLI subcommands: reports, exports, classification, exit codes.

The commands run in-process through `cli.main(argv)`.  The tests that need
a fresh interpreter start one through `fresh_python`: the no-tables test of
`verify lattice` and `classify --cross-check`, which needs empty table
caches, the runs of the whole program at ranks 4, 6 and 8, which set the rank
before the package reads it, the naive closure of the rank-4 symplectic
group, the test that an odd rank or one below 4 is refused at import, the
tests that `verify all` and `export bijection` build only the base class
tree, the tests that `import trigonal.cli`, `classify`, `--help` and a
dunder probe import no numpy and no table module and that
`import trigonal.rules` imports nothing else, the tests of the table
readers that may come first in a process and of the `verify` report and
the DOT export under two hash seeds, the test that
`verify` and the exports leave `numpy.ma` unimported, the tests that
`trigonal.monodromy` imports nothing from the point side and
`trigonal.f3` nothing from the package, the call survey of the commands
(profiled from before the package import), the tests of the
`python -m trigonal.cli` entry point and of the heap freeze that only it
makes, the test that the benchmark's in-process runner still finds every
package name it reaches, and the test that its traced replays run to an
"ok" oracle status.  One test runs pytest itself in a subprocess, on a
failing hypothesis test under this repo's ini options.
"""

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trigonal
from trigonal import __version__, cli
from trigonal import monodromy as mo
from trigonal.eisenstein import TAU2, EisensteinInt
from trigonal.schreier import inverse_permutation

from oracles import ALPHABET_PERMS

#: SHA-256 of the bytes each export writes
EXPORT_SHA256 = {
    ("gram",): "352c83c5a30a611c53f604edc557f13d"
               "ccdf5ca3716edd194c71ed8972579135",
    ("classes",): "0900487f59f4104a9feae926cb41d69a"
                  "2a1aee53fed4c072586e1dd90dd72134",
    ("bijection",): "b7760b1b368f6ea0edea18668be13c84"
                    "ab061c02cec5107f5221216fa15c1f73",
    ("orbits",): "031c36e66cef56b405348eba1cbcafe7"
                 "1aee09baf02b4b1f229f77d7e3064332",
    ("orbits", "--format", "dot"): "ed7e199b5cb4738129ad356cfb4b6206"
                                   "c7c5cbd68e4433cf1395464c52798ea5",
}

#: SHA-256 of the `verify all --seed 0` report with `seed` and every
#: `runtime_ms` removed, keyed by whether `--optional` was given.  The report
#: holds `version`, so a version bump changes both digests.
REPORT_SHA256 = {
    False: "346fadf95ee21f00c90b9dbb88dfc6877d922a3e45a38b6a9bb0f258637c5fdf",
    True: "cdad84fee9109b8524c954159e7f01e540138bd4030f31db2a650f23deaca947",
}
REPORT_VERSION = "0.1.0"


def fresh_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter that imports this `trigonal`,
    with the environment variables `env` set on top of this one's.

    PYTHONPATH is set from the location of the imported package, so the
    child runs the same code whether or not the variable is set outside.
    """
    src = str(Path(trigonal.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run(capsys, args):
    """(exit code, stdout, stderr) of `trigonal ARGS`, run in-process."""
    try:
        code = cli.main(args)
    except SystemExit as exc:          # argparse rejected the invocation
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "seed"}
    body["checks"] = [{k: v for k, v in c.items() if k != "runtime_ms"}
                      for c in report["checks"]]
    return hashlib.sha256(json.dumps(body, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def verify_all(tmp_path, *extra):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "all", "--out", str(out), *extra])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    return verify_all(tmp_path_factory.mktemp("rep"))


@pytest.fixture
def tables():
    """numpy and the table modules bound in `cli`, for a test whose first
    call is a private helper that reads them: only `Context`, `cmd_export`
    and a non-dunder read from outside, such as `cli.mo`, bind them."""
    cli._load_tables()


def test_verify_all_exit_and_shape(full_report):
    code, rep = full_report
    # one check fails honestly (criterion 8's agreement clause), hence exit 1
    assert code == 1
    assert rep["failed"] == 1
    assert rep["tool"] == "trigonal"
    assert set(rep["conventions"]) >= {"gram", "hurwitz_move",
                                       "transposition_codes", "point_order"}
    names = [c["name"] for c in rep["checks"]]
    assert names == ["R_count", "proj_count", "triflection_algebra",
                     "mod_theta_compatibility", "hurwitz_action",
                     "symplectic_transitivity", "equivariant_bijection",
                     "orbit_trichotomy", "realification_certificate",
                     "minus6_certificates", "sp10_order", "discrepancy_notes"]
    for c in rep["checks"]:
        assert c["status"] in ("pass", "fail", "skipped")
        assert isinstance(c["runtime_ms"], int)


def test_verify_report_values(full_report):
    _, rep = full_report
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["R_count"]["observed"] == 29524
    assert by_name["R_count"]["details"]["raw_tuples"] == 177144
    assert by_name["proj_count"]["observed"] == 29524
    assert by_name["sp10_order"]["status"] == "skipped"  # no --optional
    tri = by_name["orbit_trichotomy"]
    assert tri["status"] == "fail"
    assert tri["observed"]["stabilizer_orbit_sizes"] == \
        {"H": 1, "RM": 9840, "SG": 19683}
    assert tri["observed"]["agreements"] == 10
    assert tri["details"]["agreements_rm_sg_swapped"] == 295240
    assert by_name["equivariant_bijection"]["status"] == "pass"
    assert by_name["equivariant_bijection"]["observed"]["edges_verified"] \
        == 295240
    assert by_name["realification_certificate"]["observed"] == \
        {"is_even": True, "abs_det": 1, "signature": [18, 2]}
    assert by_name["minus6_certificates"]["observed"]["decomposed"] == 100
    assert by_name["minus6_certificates"]["observed"]["witness_value"] == [-1, 2]


def test_notes_present_verbatim(full_report):
    _, rep = full_report
    assert cli.NOTE_INDEX in rep["notes"]
    assert cli.NOTE_H_VARIANT in rep["notes"]
    assert cli.NOTE_LABEL_PAIRING in rep["notes"]
    assert "(3^9-1)/2 = 9841" in cli.NOTE_INDEX
    assert "(3^10-1)/2 = 29524" in cli.NOTE_INDEX
    assert "t0 = t1 != t2 = ... = t11" in cli.NOTE_H_VARIANT


@pytest.mark.parametrize("wrong", ["note_number", "derived_size", "formula"])
def test_discrepancy_notes_go_red_on_a_wrong_number(monkeypatch, tmp_path,
                                                    wrong):
    assert cli.check_discrepancy_notes(cli.Context(0, False))[0]

    def note_says(old, new):
        note = cli.NOTE_INDEX.replace(old, new)
        monkeypatch.setattr(cli, "NOTE_INDEX", note)
        monkeypatch.setattr(cli, "REPORT_NOTES", [note, *cli.REPORT_NOTES[1:]])

    if wrong == "note_number":
        note_says("= 9841", "= 9842")
    elif wrong == "derived_size":
        monkeypatch.setattr(cli.mo, "N_CLASSES", cli.mo.N_CLASSES + 1)
    else:           # note and code agree on a size its formula does not give
        monkeypatch.setattr(cli.mo, "N_CLASSES", cli.mo.N_CLASSES + 1)
        note_says("= 29524", "= 29525")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "lattice", "--out", str(out)]) == 1
    row = {c["name"]: c for c in json.loads(out.read_text())["checks"]}[
        "discrepancy_notes"]
    assert row["status"] == "fail"
    assert row["observed"] == {"index_note_present": False,
                               "h_variant_note_present": True}


def test_h_variant_note_goes_red_when_the_rule_changes(tables, monkeypatch,
                                                       tmp_path):
    assert cli._h_variant_holds()
    labels = mo.confluence_labels

    def variant_rule(codes, pos):
        # the variant wording made the rule: H at slot 0 when t0 = t1 and
        # t3 = ... = t11, whatever t2 is
        codes = np.atleast_2d(codes)
        h = (codes[:, 0] == codes[:, 1]) \
            & (codes[:, 3:] == codes[:, 3:4]).all(axis=1)
        return np.where(h & (pos == 0), np.int8(0), labels(codes, pos))

    monkeypatch.setattr(cli.mo, "confluence_labels", variant_rule)
    assert not cli._h_variant_holds()
    out = tmp_path / "report.json"
    assert cli.main(["verify", "lattice", "--out", str(out)]) == 1
    row = {c["name"]: c for c in json.loads(out.read_text())["checks"]}[
        "discrepancy_notes"]
    assert row["status"] == "fail"
    assert row["observed"] == {"index_note_present": True,
                               "h_variant_note_present": False}


def test_label_pairing_notes_are_the_same_at_rank_10(full_report):
    # both notes are built from the derived trichotomy counts; at rank 10
    # they must stay byte for byte what the report digests pin
    _, rep = full_report
    assert cli.sp.DIM == 10
    assert cli.NOTE_LABEL_PAIRING == (
        "informational: the confluence labels and the line labels agree "
        "exactly up to exchanging RM and SG on the line side; per slot, the "
        "19683 distinct-pair classes match the 19683 non-perpendicular lines "
        "and the 9840 non-degenerate equal-pair classes match the 9840 "
        "perpendicular lines (see the orbit_trichotomy check).")
    row = {c["name"]: c for c in rep["checks"]}["orbit_trichotomy"]
    assert row["details"]["note"] == (
        "the two trichotomies agree exactly up to exchanging the RM and SG "
        "labels on the line side: per slot, the 19683 classes with distinct "
        "adjacent letters correspond to the 19683 lines not perpendicular to "
        "the basis line, and the 9840 non-degenerate equal-letter classes to "
        "the 9840 other perpendicular lines")


def test_verify_report_digests(full_report, tmp_path):
    assert __version__ == REPORT_VERSION
    code, rep = full_report
    assert code == 1 and rep["seed"] == 0
    assert report_digest(rep) == REPORT_SHA256[False]
    code, rep = verify_all(tmp_path, "--optional")
    assert code == 1
    assert {c["name"]: c["status"] for c in rep["checks"]}["sp10_order"] == "pass"
    assert report_digest(rep) == REPORT_SHA256[True]


def test_sp10_order_row_is_the_same_on_every_seed(tmp_path):
    rows = []
    for seed in range(10):
        out = tmp_path / f"report{seed}.json"
        code = cli.main(["verify", "symplectic", "--optional", "--seed", str(seed),
                         "--out", str(out)])
        assert code == 0
        row, = (c for c in json.loads(out.read_text())["checks"]
                if c["name"] == "sp10_order")
        del row["runtime_ms"]
        rows.append(row)
    assert rows[0]["status"] == "pass"
    assert all(row == rows[0] for row in rows)


def test_failing_lattice_rows_name_their_first_failure(monkeypatch):
    ctx = cli.Context(0, False)
    for check in (cli.check_triflection_algebra, cli.check_mod_theta):
        ok, _, _, details = check(ctx)
        assert ok and details is None
    la, step = cli.la, cli.la.step_matrix
    # tau^2 * s_4 still has order three and preserves the form, but breaks
    # the braid relations with s_3 and s_5; mod theta tau^2 is 1
    # (a + b*tau acts on the flat pair (p, q) as [[a, -b], [b, a + b]])
    a, b = TAU2.a, TAU2.b
    tau2 = np.kron(np.identity(10, dtype=np.int64), [[a, -b], [b, a + b]])
    twist = {1: tau2, -1: la.matmul(tau2, tau2)}
    monkeypatch.setattr(la, "step_matrix", lambda i, e=1: (
        la.matmul(twist[e], step(i, e)) if i == 4 else step(i, e)))
    ok, observed, _, details = cli.check_triflection_algebra(ctx)
    assert not ok and details == {"first_failure": "braid 3,4"}
    assert observed == {"order_three": True, "preserves_form": True,
                        "integral_entries": True, "braid_relations": False}
    assert cli.check_mod_theta(ctx)[0]
    # s_5 replaced by its inverse no longer reduces to transvection 5
    monkeypatch.setattr(la, "step_matrix",
                        lambda i, e=1: step(i, -e if i == 5 else e))
    ok, observed, _, details = cli.check_mod_theta(ctx)
    assert not ok and details == {"first_failure": "generator 5"}
    assert not observed["reduce_triflection_equals_transvection_reduce"]


def test_triflection_relations_refuse_generators_that_could_overflow(
        monkeypatch):
    # every relation multiplies at most three generators, so one bound is
    # checked before any product: with an entry of 2^21 the bound is
    # 20^2 * (2^21)^3 = 400 * 2^63, which int64 cannot hold, and no
    # relation after the integrality rows is evaluated
    la, step = cli.la, cli.la.step_matrix
    big = np.full((20, 20), 2 ** 21, dtype=np.int64)
    monkeypatch.setattr(la, "step_matrix",
                        lambda i, e=1: big if i == 4 else step(i, e))
    families = []
    with pytest.raises(OverflowError):
        for family, _, _ in cli._triflection_relations():
            families.append(family)
    assert families == ["integral_entries"] * 10
    rows = cli.run_checks("lattice", 0, False)
    row = next(r for r in rows if r["name"] == "triflection_algebra")
    assert row["status"] == "fail"
    assert row["observed"].startswith("error: OverflowError")


def test_integral_entries_go_red_on_a_gram_entry_theta_does_not_divide(
        monkeypatch):
    # herm(a_4, a_5) = theta becomes 1, which theta does not divide, so s_5
    # is no longer integral; the step matrices are not composed at all
    gram = [list(row) for row in cli.la.GRAM]
    gram[3][4] = EisensteinInt(1)
    monkeypatch.setattr(cli.la, "GRAM", tuple(map(tuple, gram)))
    ok, observed, _, details = cli.check_triflection_algebra(
        cli.Context(0, False))
    assert not ok and details == {"first_failure": "integral_entries 5"}
    assert observed == {"integral_entries": False}


def test_mod_theta_row_names_a_rank_failure(monkeypatch):
    monkeypatch.setattr(cli.f3, "rank", lambda m: trigonal.RANK - 1)
    ok, observed, _, details = cli.check_mod_theta(cli.Context(0, False))
    assert not ok and details == {"first_failure": "rank"}
    assert observed["rank"] == trigonal.RANK - 1


def _basis_vector_20_equal_to_19(gram):
    m = np.identity(20, dtype=np.int64)
    m[19] = m[18]
    return (m @ np.array(gram) @ m.T).tolist()


def _hyperbolic_planes(gram):
    return np.kron(np.identity(10, dtype=np.int64), [[0, 1], [1, 0]]).tolist()


@pytest.mark.parametrize("degenerate, abs_det, signature", [
    # a radical direction: the last trailing row is zero and drops out
    (_basis_vector_20_equal_to_19, 0, [17, 2]),
    # U^10, unimodular with every diagonal entry 0: no swap can repair a
    # zero pivot, so each one takes e_k += e_o
    (_hyperbolic_planes, 1, [10, 10]),
], ids=["singular", "zero_diagonal"])
def test_the_realification_row_reports_a_degenerate_gram(
        monkeypatch, degenerate, abs_det, signature):
    # the chain Gram's diagonal is 2, so neither repair of a zero pivot in
    # `_det_and_signature` runs on it; they decide what the row reports
    # when the Gram is degenerate, and the row fails without raising
    gram = degenerate(cli.la.realified_gram())
    monkeypatch.setattr(cli.la, "realified_gram", lambda: gram)
    ok, observed, expected, _ = cli.check_realification(cli.Context(0, False))
    assert not ok
    assert observed == {"is_even": True, "abs_det": abs_det,
                        "signature": signature}
    assert expected == {"is_even": True, "abs_det": 1, "signature": [18, 2]}


def test_a_failed_bijection_build_runs_once_per_verify(monkeypatch, tmp_path):
    calls = []

    def broken():
        calls.append(None)
        raise RuntimeError("no equivariant bijection found")

    monkeypatch.setattr(cli.co, "build_bijection", broken)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "correspondence", "--out", str(out)]) == 1
    assert len(calls) == 1
    rows = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
    both = [rows[name] for name in ("equivariant_bijection", "orbit_trichotomy")]
    assert [r["status"] for r in both] == ["fail", "fail"]
    assert both[0]["observed"] == both[1]["observed"] \
        == "error: RuntimeError: no equivariant bijection found"


def test_a_swapped_bijection_names_its_first_failing_edge(monkeypatch,
                                                          tmp_path):
    corr = cli.Context(0, False).corr()
    ok, observed, _, details = cli.check_equivariant_bijection(
        cli.Context(0, False))
    assert ok and set(observed) == {"edges_verified", "mutually_inverse"}
    assert set(details) == {"summary", "candidates_pruned",
                            "candidates_passing", "base_pair"}
    # two entries of forward swapped, backward still its inverse: only the
    # edges through the two points can fail
    forward = corr.forward.copy()
    forward[[0, 1]] = forward[[1, 0]]
    broken = dataclasses.replace(corr, forward=forward,
                                 backward=inverse_permutation(forward))
    monkeypatch.setattr(cli.Context, "corr", lambda self: broken)
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "all", "--out", str(out)]) == 1
    rows = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
    row = rows["equivariant_bijection"]
    # the failing edges, generator by generator and point by point
    f, failures = forward.tolist(), []
    for i in range(1, 11):
        s = cli.sp.get_table().all_transvection_perms()[i - 1].tolist()
        h = mo.get_table().all_hurwitz_perms()[i - 1].tolist()
        failures += [{"generator": i, "point": p, "forward_of_image": f[s[p]],
                      "image_of_forward": h[f[p]]}
                     for p in range(len(f)) if f[s[p]] != h[f[p]]]
    assert failures and row["status"] == "fail"
    assert row["observed"] == {"edges_verified": 295240 - len(failures),
                               "mutually_inverse": True}
    assert row["details"]["first_failure"] == failures[0]


def test_a_corrupted_hurwitz_permutation_names_its_first_failing_relation(
        monkeypatch, tmp_path):
    table = mo.get_table()
    mo.orbit_R()                     # the shared tree is built uncorrupted
    # move 3 sends the alternating class a to b and b to c; with p[a] and
    # p[b] swapped, a and c form a 2-cycle, so move 3 no longer has order 3
    perms = table.all_hurwitz_perms().copy()
    a = table.index_of_codes(mo.parse_tuple_string("010101010101"))
    b = perms[2, a]
    perms[2, [a, b]] = perms[2, [b, a]]
    monkeypatch.setattr(table, "_hurwitz_perms", perms)
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "all", "--out", str(out)]) == 1
    rows = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
    row = rows["hurwitz_action"]
    assert row["status"] == "fail"
    assert row["details"] == {"first_failure": "order_three 3"}
    assert row["observed"]["order_divides_three"] is False


@pytest.mark.parametrize("seed", [2, 4])
def test_minus6_row_passes_on_seeds_that_walk_back(monkeypatch, seed):
    # these seeds sample vectors outside the ball that decompose_minus6
    # grows from a_1 + a_2, so their row also certifies the walk back
    la, seen = cli.la, []
    decompose = la.decompose_minus6
    monkeypatch.setattr(la, "decompose_minus6",
                        lambda eps: seen.append(eps) or decompose(eps))
    rows = cli.run_checks("lattice", seed, False)
    row = next(r for r in rows if r["name"] == "minus6_certificates")
    assert row["status"] == "pass"
    ball = la._seed_ball(la.SEARCH_BOUND // 2)
    assert any(eps not in ball for eps in seen)


def test_minus6_row_fails_on_a_split_that_breaks_its_identities(monkeypatch):
    # a walk that drops its last letter builds a split whose sum is not eps;
    # the check is explicit, so it holds under `python -O` too
    la = cli.la
    eps = la.apply_lattice_word([(3, 1), (7, -1), (2, 1)], la.MINUS6_SEED)
    walk = la.apply_lattice_word
    monkeypatch.setattr(la, "apply_lattice_word",
                        lambda word, z: walk(word[:-1], z))
    with pytest.raises(ArithmeticError, match=r"x \+ y != eps"):
        la.decompose_minus6(eps)
    rows = cli.run_checks("lattice", 0, False)
    row = next(r for r in rows if r["name"] == "minus6_certificates")
    assert row["status"] == "fail"
    assert row["observed"].startswith("error: ArithmeticError")


def test_export_digests(tmp_path):
    for args, digest in EXPORT_SHA256.items():
        out = tmp_path / "export"
        assert cli.main(["export", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args


def test_verify_lattice_and_classify_cross_check_build_no_tables():
    # a fresh interpreter, so the table caches are observably untouched
    code = (
        "import trigonal.cli as cli, trigonal.monodromy as mo, "
        "trigonal.sympf3 as sp\n"
        "assert cli._parser.cache_info().currsize == 0, 'parser built at import'\n"
        "rows = cli.run_checks('lattice', seed=0, optional=False)\n"
        "assert [r['name'] for r in rows] == ['triflection_algebra', "
        "'realification_certificate', 'minus6_certificates', "
        "'discrepancy_notes'], rows\n"
        "assert all(r['status'] == 'pass' for r in rows), rows\n"
        "assert cli.main(['classify', '001111111111', '1', "
        "'--cross-check']) == 0\n"
        "assert mo.get_table.cache_info().currsize == 0 == "
        "sp.get_table.cache_info().currsize, 'tables were built'\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "RM\ncross-check (line side): SG\n"


def imported_trigonal_and_numpy(importtime_stderr: str) -> set[str]:
    """The modules of this package and of numpy that `python -X importtime`
    reported importing."""
    names = {line.rsplit("|", 1)[-1].strip()
             for line in importtime_stderr.splitlines()
             if line.startswith("import time:")}
    return {n for n in names if n.split(".")[0] in ("trigonal", "numpy")}


@pytest.mark.parametrize("argv", [
    ["-c", "import trigonal.cli"],
    ["-m", "trigonal.cli", "classify", "001111111111", "1", "--cross-check"],
    ["-m", "trigonal.cli", "--help"],
    ["-m", "trigonal.cli", "classify", "--help"],
    ["-c", "import trigonal.cli as cli\n"
           "assert not hasattr(cli, '__wrapped__')"],
])
def test_classify_and_help_import_no_numpy_and_no_table_module(argv):
    # the one-row rules live in `rules`, and `cli` loads numpy and the
    # table modules only for `verify` and `export`; a dunder probe, as
    # `inspect` and pytest's collection make, loads them neither
    proc = fresh_python("-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = imported_trigonal_and_numpy(proc.stderr)
    # under -m, cli.py runs as __main__, which importtime does not list
    assert "trigonal.rules" in loaded
    assert loaded <= {"trigonal", "trigonal.cli", "trigonal.rules"}
    if "classify" in argv and "--help" not in argv:
        assert proc.stdout == "RM\ncross-check (line side): SG\n"


def test_the_rules_import_nothing_else():
    code = (
        "import sys\n"
        "import trigonal.rules\n"
        "loaded = {m for m in sys.modules if m.split('.')[0] in "
        "('trigonal', 'numpy')}\n"
        "assert loaded == {'trigonal', 'trigonal.rules'}, sorted(loaded)\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", [
    "rows = cli.run_checks('lattice', 0, False)\n"
    "assert all(r['status'] == 'pass' for r in rows), rows\n",
    "ctx = cli.Context(0, False)\n"
    "assert cli.check_r_count(ctx)[0] and cli.check_discrepancy_notes(ctx)[0]\n",
    "assert cli.main(['export', 'gram', '--out', sys.argv[1]]) == 0\n",
])
def test_a_table_reader_works_as_the_first_call(first, tmp_path):
    # each of them loads the table modules that `import trigonal.cli`
    # leaves out
    out = tmp_path / "gram.json"
    proc = fresh_python("-c", "import sys\nimport trigonal.cli as cli\n"
                        + first, str(out))
    assert proc.returncode == 0, proc.stderr
    if out.exists():
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == EXPORT_SHA256[("gram",)]


def test_a_classify_before_verify_leaves_its_report_the_same(tmp_path):
    reports = []
    for prelude in ("", "assert cli.main(['classify', '001111111111', '1', "
                        "'--cross-check']) == 0\n"):
        out = tmp_path / f"report{len(reports)}.json"
        proc = fresh_python("-c", "import sys\nimport trigonal.cli as cli\n"
                            + prelude + "assert cli.main(['verify', "
                            "'monodromy', '--out', sys.argv[1]]) == 0\n",
                            str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        for c in report["checks"]:
            del c["runtime_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert [c["status"] for c in reports[0]["checks"]] == ["pass"] * 3


def test_a_replaced_bsgs_order_is_the_one_the_order_row_calls(tmp_path):
    # perfbench's idiom: read the name, then replace it, before the first
    # `verify`; the load that `verify` makes must not bind it again
    code = (
        "import sys\n"
        "import trigonal.cli as cli\n"
        "calls = []\n"
        "real = cli.bsgs_order\n"
        "def counted(*args):\n"
        "    calls.append(len(args))\n"
        "    return real(*args)\n"
        "cli.bsgs_order = counted\n"
        "assert cli.main(['verify', 'symplectic', '--optional', '--out', "
        "sys.argv[1]]) == 0\n"
        "assert calls == [3], calls\n"
    )
    proc = fresh_python("-c", code, str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_the_report_and_the_dot_export_do_not_depend_on_the_hash_seed(
        hash_seed, tmp_path):
    out = tmp_path / "out"
    proc = fresh_python("-m", "trigonal.cli", "verify", "all", "--out",
                        str(out), PYTHONHASHSEED=hash_seed)
    assert proc.returncode == 1, proc.stderr
    assert report_digest(json.loads(out.read_text())) == REPORT_SHA256[False]
    args = ("orbits", "--format", "dot")
    proc = fresh_python("-m", "trigonal.cli", "export", *args, "--out",
                        str(out), PYTHONHASHSEED=hash_seed)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[args]


def test_benchmark_driver_finds_every_name_it_reaches():
    # perfbench/inproc.py wraps and calls package names by attribute, so a
    # removed or renamed name breaks the benchmark; run its set-up path
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (
        "import sys; sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import inproc\n"
        "cli = inproc.import_cli()\n"
        "tr = inproc.Tracer('verify')\n"
        "inproc.instrument(tr)\n"
        "inproc.build_tables(tr, len(inproc.TABLE_STAGES))\n"
        "assert [s['name'] for s in tr.spans] == list(inproc.TABLE_STAGES)\n"
        "assert inproc.classify(cli, '001111111111', 1) == "
        "(0, 'RM\\ncross-check (line side): SG\\n')\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_replays_run_to_ok(tmp_path):
    # the traced replays also reach the layer microbenchmark, the counters
    # the wrapped calls report, the cli.CHECKS name check and the report
    # oracle; run the verify, certify and query replays for one operation,
    # and write each one's spans as JSON, as the replay process does
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (
        "import sys; sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import json\n"
        "from pathlib import Path\n"
        "import inproc\n"
        f"inproc.OUT = Path({str(tmp_path)!r})\n"
        "tr = inproc.Tracer('verify')\n"
        "statuses, _ = inproc.replay_verify(tr, 1, 0.0, False)\n"
        "assert statuses == ['ok'], statuses\n"
        "json.dumps(tr.finish())\n"
        "tr = inproc.Tracer('certify')\n"
        "statuses, _ = inproc.replay_verify(tr, 1, 0.0, True)\n"
        "assert statuses == ['ok'], statuses\n"
        "spans = tr.finish()\n"
        "json.dumps(spans)\n"
        "metrics = {k: v['value'] for k, v in "
        "inproc.layer_metrics(spans).items()}\n"
        "assert metrics['correspondence.words_used'] == 64, metrics\n"
        "assert metrics['schreier.bfs_depth.classes'] == 26, metrics\n"
        "assert metrics['schreier.bsgs_certified_share'] == 1.0, metrics\n"
        "tr = inproc.Tracer('query')\n"
        "statuses, _ = inproc.replay_query(tr, 1, 0.0)\n"
        "assert statuses and set(statuses) == {'ok'}, statuses\n"
        "json.dumps(tr.finish())\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


#: a failing `@given` test, then a passing one
HYPOTHESIS_FAILURE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failure through a module whose imports warn;
    # under `filterwarnings = error` that warning must not turn into an
    # INTERNALERROR that stops the run before the next test.  The run uses
    # this repo's ini options, in tmp_path, which keeps `.hypothesis/`
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "pyproject.toml").write_text(
        (root / "pyproject.toml").read_text())
    (tmp_path / "test_given.py").write_text(HYPOTHESIS_FAILURE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "test_given.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


#: per rank below 10: the base pair at alpha_2 + alpha_4 + ..., and the
#: SHA-256 of `export bijection`
SMALL_RANKS = {
    4: ([0, 1, 0, 1], "001111",
        "947ad7f21520547525626e4fee4f819fd77cf0cf73a9e7366c678992641e66a0"),
    6: ([0, 1, 0, 1, 0, 1], "00111111",
        "0ed212e4e7e6411ab6db7879010025076abfd9e1b882fa7f0954322e8b807ed2"),
    8: ([0, 1, 0, 1, 0, 1, 0, 1], "0011111111",
        "965cd5080ab434fa626b45c6a51396ba3ad2c5828072e3f73bfcde0eb08da59f"),
}

#: fresh-interpreter run of the whole program at the rank argv[1], set
#: before the package reads it: `verify all --optional` and two `export
#: bijection` runs, through the file argv[2], whether the closed form
#: t P mod 3 of every class row spans the point that the bijection's
#: `backward` gives, and whether the columns that `rules` states are those
#: of the arrays `SYMP_GRAM` and P
AT_RANK = """
import hashlib, json, pathlib, sys
import trigonal
trigonal.RANK = int(sys.argv[1])
import trigonal.cli as cli
from trigonal import correspondence as co, monodromy as mo, rules, sympf3 as sp
out = pathlib.Path(sys.argv[2])
code = cli.main(["verify", "all", "--optional", "--out", str(out)])
checks = json.loads(out.read_text())["checks"]
digests = []
for _ in range(2):
    assert cli.main(["export", "bijection", "--out", str(out)]) == 0
    digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
keys = (mo.get_table().codes @ co.P % 3).astype("int64") @ sp.POW3
spans = (sp.get_table().point_index[keys]
         == co.build_bijection().backward).all()
padded = [c + [0] * (mo.TUPLE_LEN - len(c)) for c in rules.P_COLUMNS]
columns = (rules.SYMP_COLUMNS == sp.SYMP_GRAM.T.tolist()
           and padded == co.P.T.tolist())
print(json.dumps({"code": code, "checks": checks, "digests": digests,
                  "point_vectors_span_backward": bool(spans),
                  "rules_columns_equal_the_arrays": columns}))
"""


@pytest.mark.parametrize("rank", sorted(SMALL_RANKS))
def test_the_whole_program_runs_at_a_smaller_rank(rank, tmp_path):
    proc = fresh_python("-c", AT_RANK, str(rank), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    rows = {r["name"]: r for r in run["checks"]}
    assert run["code"] == 1
    assert [name for name, r in rows.items() if r["status"] == "fail"] \
        == ["orbit_trichotomy"]
    assert rows["R_count"]["observed"] == (3 ** rank - 1) // 2
    assert rows["sp10_order"]["status"] == "pass"
    bijection = rows["equivariant_bijection"]
    assert bijection["status"] == "pass"
    point, klass, digest = SMALL_RANKS[rank]
    base = bijection["details"]["base_pair"]
    assert (base["point"], base["class"]) == (point, klass)
    assert run["digests"] == [digest, digest]
    # the closed form's matrix P is derived from the rank: its points are
    # the searched bijection's at this rank too
    assert run["point_vectors_span_backward"]
    # `rules` states the symplectic columns and P's without numpy, and
    # they are the arrays' columns at every rank
    assert run["rules_columns_equal_the_arrays"]


#: fresh-interpreter closure at rank 4, set as `AT_RANK` sets a rank: the
#: signed transvections as permutations of the 80 signed points, +p -> p
#: and -p -> p + 40, multiplied out breadth first with no stabilizer chain
RANK_4_CLOSURE = """
import json
import numpy as np
import trigonal
trigonal.RANK = 4
import trigonal.cli as cli
from trigonal import sympf3 as sp
from trigonal.schreier import bsgs_order
perms, signs = sp.get_table().transvections()
n = sp.N_POINTS
# +p goes to +q, or to -q where the sign is set, and -p to the other one
plus = perms + n * signs
gens = np.hstack((plus, (plus + n) % (2 * n))).astype(np.uint8)
identity = np.arange(2 * n, dtype=np.uint8)
elements = {identity.tobytes()}
frontier = [identity]
while frontier:
    found = []
    for row in np.concatenate([g[np.array(frontier)] for g in gens]):
        if row.tobytes() not in elements:
            elements.add(row.tobytes())
            found.append(row)
    frontier = found
order, certified, _ = bsgs_order(perms, cli.SP10_ORDER, signs)
print(json.dumps([len(elements), cli.SP10_ORDER, order, bool(certified)]))
"""


def test_the_rank_4_group_order_equals_a_naive_closure():
    # |Sp_4(F_3)| = 3^4 (3^2 - 1)(3^4 - 1) = 51840, reached three ways
    proc = fresh_python("-c", RANK_4_CLOSURE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [51840, 51840, 51840, True]


def test_an_odd_rank_or_one_below_4_is_refused_at_import():
    # set as `AT_RANK` sets a rank; the first module that sizes its tables
    # from the rank raises, and a refused import can be tried again
    code = (
        "import trigonal\n"
        "for rank in (9, 2):\n"
        "    trigonal.RANK = rank\n"
        "    try:\n"
        "        import trigonal.cli\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"rank {rank} is not supported: the package supports even ranks "
        "from 4 up" for rank in (9, 2)]


#: fresh-interpreter prelude that records every `orbit_bfs` call, on either
#: side, as (side, seed): it wraps the name in every package module that
#: holds it, schreier's own included
COUNT_TREES = (
    "import sys\n"
    "import trigonal.cli as cli, trigonal.correspondence as co, "
    "trigonal.monodromy as mo, trigonal.schreier as schreier\n"
    "assert not hasattr(co, 'orbit_bfs'), 'correspondence builds a tree'\n"
    "calls = []\n"
    "def counted(gens, seed, bfs=schreier.orbit_bfs):\n"
    "    side = 'classes' if gens is mo.get_table().all_hurwitz_perms() "
    "else 'other'\n"
    "    calls.append((side, seed))\n"
    "    return bfs(gens, seed)\n"
    "for name, module in list(sys.modules.items()):\n"
    "    if name.startswith('trigonal') and hasattr(module, 'orbit_bfs'):\n"
    "        module.orbit_bfs = counted\n"
)


def test_verify_all_builds_the_base_class_tree_once():
    # the Hurwitz check, the bijection search and its transport share one
    # class tree; every other orbit, the symplectic row's point orbit
    # included, is counted without a tree
    code = COUNT_TREES + (
        "rows = cli.run_checks('all', 0, False)\n"
        "failed = [r['name'] for r in rows if r['status'] == 'fail']\n"
        "assert failed == ['orbit_trichotomy'], rows\n"
        "assert calls == [('classes', mo.get_table().base_class())], calls\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_export_bijection_builds_only_the_base_class_tree(tmp_path):
    out = str(tmp_path / "bijection.json")
    code = COUNT_TREES + (
        f"assert cli.main(['export', 'bijection', '--out', {out!r}]) == 0\n"
        "assert calls == [('classes', mo.get_table().base_class())], calls\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    assert digest == EXPORT_SHA256[("bijection",)]


def test_verify_and_exports_leave_numpy_ma_unimported(tmp_path):
    # importing numpy.ma costs a cold run about 11 ms and fractions about
    # 3 ms (with decimal), and no command needs either
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from trigonal import cli\n"
        f"assert cli.main(['verify', 'all', '--out', {out!r}]) == 1\n"
        f"assert cli.main(['export', 'bijection', '--out', {out!r}]) == 0\n"
        f"assert cli.main(['export', 'orbits', '--out', {out!r}]) == 0\n"
        "assert cli.main(['export', 'orbits', '--format', 'dot', "
        f"'--out', {out!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        "assert 'fractions' not in sys.modules, 'fractions was imported'\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_monodromy_imports_nothing_from_the_point_side():
    # the F_3 coding of the transpositions is stated in monodromy itself,
    # not borrowed from the lattice or its reduction mod theta
    code = (
        "import sys\n"
        "import trigonal.monodromy\n"
        "loaded = {'trigonal.lattice', 'trigonal.sympf3', "
        "'trigonal.eisenstein'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_f3_imports_no_other_trigonal_module():
    # both sides read the F_3 layer, so it reads neither side
    code = (
        "import sys\n"
        "import trigonal.f3\n"
        "loaded = {m for m in sys.modules if m.startswith('trigonal.')}\n"
        "assert loaded == {'trigonal.f3'}, sorted(loaded)\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_lattice_imports_no_permutation_layer():
    # the lattice reads its generator indices from the F_3 layer
    code = (
        "import sys\n"
        "import trigonal.lattice\n"
        "assert 'trigonal.schreier' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


#: the `src/trigonal` functions that no command calls, each with the reason
#: it stays; a new function that only tests call fails the survey below
UNCALLED = {
    "cli.__getattr__": "the tables' names read from outside, such as "
                       "`cli.mo`; the commands load them directly",
    "cli._cannot_write": "the error line of an unwritable output",
    "cli.console_main": "the process entry point around `main`",
    "lattice.compose": "perfbench's micro-probe only (ROADMAP item 14)",
    "lattice.triflection":
        "perfbench's span and micro-probe only (ROADMAP item 14)",
    "lattice.word_matrix":
        "perfbench's span and micro-probe only (ROADMAP item 14)",
    "sympf3.ProjectiveTable.vector_perm":
        "the tests' dense reference for the signed action, and perfbench's "
        "`sympf3.vector_perms` stage (ROADMAP item 14)",
    "sympf3.classify_line": "perfbench's query replay wraps it only "
                            "(ROADMAP item 14)",
}

#: fresh-interpreter survey: every `src/trigonal` function, found with ast,
#: that `verify all --optional`, the five exports and two `classify
#: --cross-check` runs never call; profiling starts before the import, since
#: module bodies call functions too
CALL_SURVEY = """
import ast, contextlib, io, json, pathlib, sys, tempfile
called = set()
def hook(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(hook)
import trigonal.cli as cli
with tempfile.TemporaryDirectory() as tmp:
    out = str(pathlib.Path(tmp) / "out")
    assert cli.main(["verify", "all", "--optional", "--out", out]) == 1
    for what in (["gram"], ["classes"], ["bijection"], ["orbits"],
                 ["orbits", "--format", "dot"]):
        assert cli.main(["export", *what, "--out", out]) == 0, what
with contextlib.redirect_stdout(io.StringIO()):
    for pos in ("1", "0"):
        argv = ["classify", "001111111111", pos, "--cross-check"]
        assert cli.main(argv) == 0, pos
sys.setprofile(None)

def defined(body, prefix):
    # (first line of its code object, qualified name) of each function
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from defined(node.body, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield first, prefix + node.name
            yield from defined(node.body, prefix + node.name + ".<locals>.")

src = pathlib.Path(cli.__file__).parent
uncalled = sorted(
    f"{path.stem}.{name}" for path in src.glob("*.py")
    for line, name in defined(ast.parse(path.read_text()).body, "")
    if (str(path), line) not in called)
print(json.dumps(uncalled))
"""


def test_commands_call_every_function_but_the_pinned_ones():
    proc = fresh_python("-c", CALL_SURVEY)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(UNCALLED)


def test_entry_point_exit_codes():
    proc = fresh_python("-m", "trigonal.cli", "classify", "001111111111", "1")
    assert (proc.returncode, proc.stdout) == (0, "RM\n")
    proc = fresh_python("-m", "trigonal.cli", "classify", "011111111111", "0")
    assert proc.returncode == 2
    assert "not the identity" in proc.stderr
    assert "Traceback" not in proc.stderr
    # an argument left over after the command: argv read from sys.argv
    # goes to the top-level parser too
    proc = fresh_python("-m", "trigonal.cli", "classify", "001111111111", "1",
                        "--frobnicate")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_entry_point_verify_all_writes_the_pinned_report(tmp_path):
    out = tmp_path / "report.json"
    proc = fresh_python("-m", "trigonal.cli", "verify", "all",
                        "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert report_digest(json.loads(out.read_text())) == REPORT_SHA256[False]
    assert proc.stderr.endswith("12 checks, 1 failed\n")


def test_entry_point_verify_all_under_python_O_writes_the_pinned_report(
        tmp_path):
    # -O strips assert statements; no certificate may rest on one
    out = tmp_path / "report.json"
    proc = fresh_python("-O", "-m", "trigonal.cli", "verify", "all",
                        "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert report_digest(json.loads(out.read_text())) == REPORT_SHA256[False]


def test_entry_point_export_to_stdout_is_the_pinned_export():
    proc = fresh_python("-m", "trigonal.cli", "export", "bijection")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() \
        == EXPORT_SHA256[("bijection",)]


def test_entry_point_unwritable_out_exits_2(tmp_path):
    out = tmp_path / "missing" / "report.json"
    proc = fresh_python("-m", "trigonal.cli", "verify", "all", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr


def test_only_the_entry_function_freezes_the_heap(tmp_path):
    out = str(tmp_path / "report.json")
    code = (
        "import gc, sys\n"
        "from trigonal import cli\n"
        f"assert cli.main(['verify', 'monodromy', '--out', {out!r}]) == 0\n"
        "assert cli.main(['classify', '001111111111', '1']) == 0\n"
        "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
        "sys.argv = ['trigonal', 'classify', '001111111111', '1']\n"
        "assert cli.console_main() == 0\n"
        "assert gc.get_freeze_count() > 0\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "RM\nRM\n"


def test_console_script_is_the_function_main_module_calls():
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    script, = re.findall(r'^trigonal = "trigonal\.cli:(\w+)"$', pyproject,
                         re.M)
    source = (root / "src" / "trigonal" / "cli.py").read_text()
    called, = re.findall(r'^if __name__ == "__main__":\n'
                         r'    sys\.exit\((\w+)\(\)\)\n\Z', source, re.M)
    assert script == called == cli.console_main.__name__


def test_verify_scope_exit_codes(capsys):
    assert run(capsys, ["verify", "lattice"])[0] == 0
    assert run(capsys, ["verify", "monodromy"])[0] == 0
    code, out, _ = run(capsys, ["verify", "correspondence"])
    assert code == 1  # contains the honest trichotomy failure
    assert json.loads(out)["scope"] == "correspondence"


def test_verify_jobs_is_an_unrecognized_flag(capsys):
    code, out, err = run(capsys, ["verify", "lattice", "--jobs", "1"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --jobs" in err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_verify_jobs_below_one_exit_2(capsys, jobs):
    # values the removed N >= 1 check used to reject still exit 2, now as
    # an unknown flag rather than through that check
    code, out, err = run(capsys, ["verify", "lattice", "--jobs", jobs])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --jobs" in err
    assert "must be at least 1" not in err


@pytest.mark.parametrize("args, empty", [
    (["verify", "lattice"], False), (["export", "gram"], False),
    (["export", "bijection"], False), (["verify", "lattice"], True),
    (["export", "gram"], True)],
    ids=["verify", "export", "export_bijection", "verify_empty",
         "export_empty"])
def test_unwritable_out_exits_2(capsys, monkeypatch, tmp_path, args, empty):
    # the path is opened before any check runs or any table is built; an
    # empty path is a path that cannot be opened, not a request for stdout
    work = []

    def probe(*_):
        work.append(True)
        raise AssertionError("work done before --out was opened")

    monkeypatch.setattr(cli, "CHECKS", (("probe", 0, None, probe),))
    monkeypatch.setattr(cli.mo, "get_table", probe)
    monkeypatch.setattr(cli.sp, "get_table", probe)
    target = "" if empty else str(tmp_path / "missing" / "out.json")
    code, out, err = run(capsys, [*args, "--out", target])
    assert work == []
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot write {target}: ")
    assert not os.path.exists(target)


class FullStream:
    """A stream whose `fails` method raises ENOSPC, as on a full device.

    `fails` is "write", "flush", "close", "later_write" (the LATER_WRITE-th
    write fails, after the ones before it went through) or None (nothing
    fails).  Like a buffered file, it keeps what a failed write or flush did
    not write, and then its close, which flushes, fails as well.  It stands
    for a file opened by `--out` and, through `buffer`, for stdout and its
    byte buffer.  `written` counts the bytes of the writes that went through.
    """

    def __init__(self, name: str, fails: str | None):
        self.name = name
        self.fails = fails
        self.pending = False
        self.buffer = self
        self.writes = 0
        self.written = 0

    def _call(self, method: str):
        if method == self.fails or (method == "close" and self.pending):
            self.pending = True
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        self.writes += 1
        if self.writes == LATER_WRITE:
            self._call("later_write")
        self._call("write")
        self.written += len(data)
        return len(data)

    def flush(self):
        self._call("flush")

    def close(self):
        self._call("close")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


#: the write that fails in the "later_write" cases: one that carries a
#: rendered block of either orbit export, well past its first chunk
LATER_WRITE = 10

#: commands that write one chunk, and the orbit exports, which write many
ONE_CHUNK = {"export": ["export", "gram"], "verify": ["verify", "lattice"],
             "classify": ["classify", "001111111111", "1"]}
STREAMED = {"export_orbits": ["export", "orbits"],
            "export_orbits_dot": ["export", "orbits", "--format", "dot"]}


def write_error_cases(commands, failures):
    """(args, fails) for each command with each failure, and for the
    streamed exports also with a failure on a later chunk."""
    cases = [pytest.param(args, fails, id=f"{name}-{fails}")
             for name, args in {**commands, **STREAMED}.items()
             for fails in failures]
    return cases + [pytest.param(args, "later_write", id=f"{name}-later_write")
                    for name, args in STREAMED.items()]


@pytest.mark.parametrize("args, fails", write_error_cases(
    {k: ONE_CHUNK[k] for k in ("export", "verify")},
    ["write", "flush", "close"]))
def test_write_error_on_out_exits_2(capsys, monkeypatch, args, fails):
    monkeypatch.setattr(cli, "open",
                        lambda path, mode: FullStream(path, fails),
                        raising=False)
    code, out, err = run(capsys, [*args, "--out", "full.json"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: cannot write full.json: {os.strerror(errno.ENOSPC)}"]


@pytest.mark.parametrize("args, fails",
                         write_error_cases(ONE_CHUNK, ["write", "flush"]))
def test_write_error_on_stdout_exits_2(capsys, monkeypatch, args, fails):
    # stdout is flushed, never closed, so only write and flush can fail
    monkeypatch.setattr(sys, "stdout", FullStream("<stdout>", fails))
    code = cli.main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}"]


def test_export_gram_values(tmp_path):
    p = tmp_path / "gram.json"
    assert cli.main(["export", "gram", "--out", str(p)]) == 0
    g = json.loads(p.read_text())["gram"]
    assert g[0][0] == [-3, 0]
    assert g[0][1] == [-1, 2]
    assert g[1][0] == [1, -2]
    assert g[0][2] == [0, 0]


def test_export_bijection_shape(capsys):
    code, out, _ = run(capsys, ["export", "bijection"])
    assert code == 0
    blob = json.loads(out)
    assert blob["generators_checked"] == 10
    assert blob["edges_verified"] == 295240
    assert len(blob["forward"]) == 29524
    assert sorted(blob["forward"]) == list(range(29524))
    assert blob["base_pair"]["class"] == "001111111111"


def test_export_orbits_dot(tmp_path):
    p = tmp_path / "orbits.dot"
    assert cli.main(["export", "orbits", "--format", "dot",
                     "--out", str(p)]) == 0
    text = p.read_text()
    assert text.startswith("digraph")
    assert "cluster_projective" in text and "cluster_classes" in text
    # a spanning forest on 2 x 29524 nodes has 2 x 29523 edges
    assert text.count("->") == 2 * 29523


def reference_orbit_tree_json(res, side: str, seed: int) -> dict:
    """The orbit forest as JSON, built one element at a time."""
    return {"side": side, "seed": int(seed), "size": int(res.size),
            "parent": [int(x) for x in res.parent],
            "generator": [None if g < 0 else int(g) + 1
                          for g in res.parent_gen]}


def reference_orbits_dot(trees, seeds: dict) -> bytes:
    """The DOT forest, one formatted line per tree edge, with each side's
    root marked at seeds[side]."""
    lines = ["digraph schreier_forest {"]
    for res, side in trees:
        prefix = side[0]
        lines.append(f'  subgraph cluster_{side} {{ label="{side}";')
        lines.append(f'    {prefix}{seeds[side]} [shape=doublecircle];')
        for child in range(res.parent.size):
            p = int(res.parent[child])
            if p < 0:
                continue
            g = int(res.parent_gen[child]) + 1
            lines.append(f'    {prefix}{p} -> {prefix}{child} [label="{g}"];')
        lines.append("  }")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_orbit_exports_equal_the_per_element_reference():
    # the seeds are stated here, not read off the trees: point 0 and the
    # base class, which each tree must carry as its root
    seeds = {"projective": 0, "classes": mo.get_table().base_class()}
    assert mo.orbit_R().order[0] == seeds["classes"]
    assert cli.sp.get_table().orbit_of_points().order[0] == 0
    trees = cli._orbit_trees()
    assert [side for _, side in trees] == ["projective", "classes"]
    for res, side in trees:
        assert (b"".join(cli._orbit_tree_json(res, side)) + b"\n"
                == cli._json_bytes(
                    reference_orbit_tree_json(res, side, seeds[side])))
    assert b"".join(cli._orbits_json(trees)) == cli._json_bytes(
        {side: reference_orbit_tree_json(res, side, seeds[side])
         for res, side in trees})
    assert b"".join(cli._orbits_dot(trees)) == reference_orbits_dot(trees,
                                                                    seeds)


#: what the block renderer must spell: the root's -1, 0 (null in a generator
#: list), one and two digits, and the largest class index
RENDER_VALUES = np.array([-1, 0, 9, 10, mo.N_CLASSES - 1])
#: lengths around the block boundaries
RENDER_LENGTHS = [1, cli.BLOCK - 1, cli.BLOCK, cli.BLOCK + 1,
                  2 * cli.BLOCK + 1]


def cycled(length: int, start: int = 0) -> np.ndarray:
    """`length` entries cycling through RENDER_VALUES from index `start`."""
    return np.resize(np.roll(RENDER_VALUES, -start), length)


@pytest.mark.parametrize("null", [False, True], ids=["ints", "null"])
@pytest.mark.parametrize("length", RENDER_LENGTHS)
def test_json_ints_equal_json_dumps(tables, length, null):
    for start in range(RENDER_VALUES.size):     # length 1 meets every value
        values = cycled(length, start)
        expected = json.dumps(
            [None if null and v == 0 else v for v in values.tolist()],
            separators=(",", ":")).encode()
        assert b"".join(cli._json_ints(values, null=null)) == expected
        assert b"".join(cli._json_ints(values - 1, shift=1,
                                       null=null)) == expected


@pytest.mark.parametrize("length", RENDER_LENGTHS)
def test_render_equals_the_per_element_format(tables, length):
    a, b, c = (cycled(length, start).tolist() for start in range(3))
    edges = "".join(f'    p{x} -> p{y} [label="{z}"];\n'
                    for x, y, z in zip(a, b, c))
    assert cli._render((b"    p", b" -> p", b' [label="', b'"];\n'),
                       *map(np.array, (a, b, c))) == edges.encode()
    nulls = "".join(f"<{'null' if x == 0 else x}>" for x in a)
    assert cli._render((b"<", b">"), np.array(a), null=True) == nulls.encode()


@pytest.mark.parametrize("length", RENDER_LENGTHS)
def test_orbit_exports_of_any_length_equal_the_reference(tables, length):
    # forests with seeds (-1, generator null) among edges of every width
    seeds = {"projective": 0, "classes": 0}
    trees = [(SimpleNamespace(parent=cycled(length, start),
                              parent_gen=np.resize([-1, 0, 8, 9], length),
                              order=np.array([seeds[side]]),
                              size=length), side)
             for start, side in enumerate(["projective", "classes"])]
    assert b"".join(cli._orbits_json(trees)) == cli._json_bytes(
        {side: reference_orbit_tree_json(res, side, seeds[side])
         for res, side in trees})
    assert b"".join(cli._orbits_dot(trees)) == reference_orbits_dot(trees,
                                                                    seeds)


#: in a fresh interpreter, since the tables are cached per process: the
#: tracemalloc peak of the default checks above the import, and the bytes
#: of the arrays that the two tables and the base class tree keep
MEMORY_SURVEY = """
import json, tracemalloc
import numpy as np
from trigonal import cli, monodromy as mo, sympf3 as sp
tracemalloc.start()
cli.run_checks("all", 0, False)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
mot = mo.get_table()
kept = [value for owner in (mot, sp.get_table(), mo.orbit_R())
        for value in vars(owner).values() if isinstance(value, np.ndarray)]
print(json.dumps([peak, sum(array.nbytes for array in kept)]))
"""


def test_verify_keeps_its_index_arrays_int32():
    # the peak was 5.48 MiB with every index and key array int32, and
    # 8.41 MiB when the permutations, keys and trees were int64
    proc = fresh_python("-c", MEMORY_SURVEY)
    assert proc.returncode == 0, proc.stderr
    peak, kept = json.loads(proc.stdout)
    assert peak < 6.3e6, peak
    # int32: each side's permutations and keys, both line indexes over
    # F_3^rank and the tree's order and parent; narrower, per point: the
    # class codes, the point rows, the sign masks, the tree's int8
    # generators and its depths in the narrowest type that holds n
    n, rank = mo.N_CLASSES, mo.N_MOVES
    index_entries = 2 * (rank + 1) * n + 2 * 3 ** rank + 2 * n
    depth_bytes = np.min_scalar_type(-1 - n).itemsize
    narrow_bytes = ((rank + 2) + rank + rank + 1 + depth_bytes) * n
    assert kept <= 4 * index_entries + narrow_bytes, kept


@pytest.mark.parametrize("args, divisor", [(["orbits"], 3),
                                           (["orbits", "--format", "dot"], 4)],
                         ids=["json", "dot"])
def test_orbit_exports_hold_one_block_of_text(tables, monkeypatch, args,
                                               divisor):
    # with the tables and trees built, writing an orbit export to a sink
    # allocates at most a fraction of its length at once: whole text
    # rendered before the first write would take 3.5 to 14 times its length
    trees = cli._orbit_trees()
    monkeypatch.setattr(cli, "_orbit_trees", lambda: trees)
    sink = FullStream("sink", None)
    monkeypatch.setattr(cli, "open", lambda path, mode: sink, raising=False)
    cli._parser()
    tracemalloc.start()
    try:
        code = cli.main(["export", *args, "--out", "sink"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.written / divisor, (peak, sink.written)


def test_export_dot_rejected_elsewhere(capsys):
    code, _, err = run(capsys, ["export", "gram", "--format", "dot"])
    assert code == 2
    assert "orbits" in err


def test_export_unknown_target(capsys):
    assert run(capsys, ["export", "everything"])[0] == 2


def test_classify_examples(capsys):
    for pos, label in (("0", "H"), ("1", "RM"), ("5", "SG"), ("11", "RM")):
        assert run(capsys, ["classify", "001111111111", pos]) == \
            (0, f"{label}\n", "")


def test_classify_cross_check(capsys):
    code, out, _ = run(capsys, ["classify", "001111111111", "1",
                                "--cross-check"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "RM"
    assert lines[1] == "cross-check (line side): SG"
    _, out, _ = run(capsys, ["classify", "001111111111", "0", "--cross-check"])
    assert "unavailable at slots 0 and 11" in out


def classify_exit(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `trigonal ARGV`, without capsys, so
    hypothesis can call it many times in one test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse rejected the invocation
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(st.text("0123x", min_size=10, max_size=14), st.integers(-2, 13),
       st.booleans())
def test_classify_any_text_exits_0_or_2(text, pos, cross):
    code, out, err = classify_exit(["classify", text, str(pos)]
                                   + ["--cross-check"] * cross)
    assert code in (0, 2), (code, out, err)
    assert "Traceback" not in err
    assert (code == 0) == bool(out)


@settings(deadline=None)
@given(st.integers(0, mo.N_CLASSES - 1), st.integers(0, 5),
       st.integers(1, 10))
def test_classify_cross_check_exchanges_rm_and_sg(idx, relabel, pos):
    t = mo.get_table()
    codes = ALPHABET_PERMS[relabel][t.codes[idx]]
    code, out, err = classify_exit(["classify", "".join(map(str, codes)),
                                    str(pos), "--cross-check"])
    assert (code, err) == (0, "")
    # the array form of the rule, not the one-row form the command runs
    label = mo.CONFLUENCE_CLASSES[
        int(mo.confluence_labels(t.codes[idx], pos)[0])]
    swapped = {"H": "H", "RM": "SG", "SG": "RM"}[label]
    assert out == f"{label}\ncross-check (line side): {swapped}\n"


def test_classify_input_errors(capsys):
    code, _, err = run(capsys, ["classify", "000000000000", "0"])
    assert code == 2
    assert "monodromy not surjective" in err
    code, _, err = run(capsys, ["classify", "011111111111", "0"])
    assert code == 2
    assert "not the identity" in err
    code, _, err = run(capsys, ["classify", "00111111111x", "0"])
    assert code == 2
    assert "a monodromy tuple is 12 characters over {0,1,2}" in err
    code, _, err = run(capsys, ["classify", "001111111111", "12"])
    assert code == 2
    assert "position" in err
    # a negative slot is refused too, not read from the end of the row
    assert run(capsys, ["classify", "001111111111", "-1"]) \
        == (2, "", "error: position must be in 0..11, got -1\n")
    # twelve characters, one of them not one byte in UTF-8, or a lone
    # surrogate as argv holds an undecodable byte
    for text in ("00111111111\u0661", "00111111111\udc80"):
        assert run(capsys, ["classify", text, "1", "--cross-check"]) \
            == (2, "", "error: a monodromy tuple is 12 characters over "
                       "{0,1,2}\n")


def test_invocation_errors_exit_2(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, ["verify", "nowhere"])[0] == 2
    assert run(capsys, [])[0] == 2


CROSS_CHECK = (["classify", "001111111111", "1", "--cross-check"],
               (0, "RM\ncross-check (line side): SG\n", ""))


def test_main_builds_its_parser_once(capsys, tmp_path):
    cli._parser.cache_clear()
    assert cli._parser() is cli._parser()
    argvs = (["verify", "lattice", "--out", str(tmp_path / "report.json")],
             ["export", "gram", "--out", str(tmp_path / "gram.json")],
             CROSS_CHECK[0])
    assert [run(capsys, argvs[k % 3])[0] for k in range(20)] == [0] * 20
    assert cli._parser.cache_info().misses == 1


def test_a_command_is_parsed_once(capsys, monkeypatch):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, CROSS_CHECK[0]) == CROSS_CHECK[1]
    assert parsed == ["trigonal classify"]
    # an argument left over: the top-level parser reports it
    code, out, err = run(capsys, CROSS_CHECK[0] + ["--frobnicate"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: trigonal [-h]")
    assert err.endswith("error: unrecognized arguments: --frobnicate\n")


@pytest.fixture
def commands_seen(monkeypatch):
    """The namespaces that the commands receive, without `command`, in
    order: `verify` and `export` stubbed to return 0, `classify` run.  The
    parser binds the commands when it is built, so it is rebuilt around
    the stubs and dropped again before they are undone."""
    seen = []

    def recorded(command):
        def fn(args):
            seen.append({k: v for k, v in vars(args).items()
                         if k != "command"})
            return command(args)
        return fn

    monkeypatch.setattr(cli, "cmd_verify", recorded(lambda args: 0))
    monkeypatch.setattr(cli, "cmd_export", recorded(lambda args: 0))
    monkeypatch.setattr(cli, "cmd_classify", recorded(cli.cmd_classify))
    cli._parser.cache_clear()
    yield seen
    cli._parser.cache_clear()


@pytest.mark.parametrize("argv", [
    [],
    ["-h"], ["--help"], ["--", "classify", "001111111111", "1"],
    ["class", "001111111111", "1"], ["frobnicate"],
    ["classify", "001111111111", "1", "--cross-check"],
    ["classify", "001111111111", "1", "--cross"],
    ["classify", "--", "001111111111", "5"],
    ["classify", "--cross-check", "--", "001111111111", "1"],
    ["classify", "001111111111"],
    ["classify", "001111111111", "-1"],
    ["classify", "001111111111", "1", "--frobnicate"],
    ["verify"], ["verify", "lattice", "--se", "3"], ["verify", "--opt"],
    ["verify", "all", "--seed=4", "--out", "report.json"],
    ["verify", "nowhere"], ["verify", "--seed", "x"],
    ["verify", "--frobnicate"],
    ["export", "orbits", "--format", "dot", "--out", "orbits.dot"],
    ["export", "everything"], ["export"], ["export", "gram", "--out"],
    ["export", "gram", "--frobnicate"],
    *([command, flag] for command in ("verify", "export", "classify")
      for flag in ("-h", "--help", "--h")),
], ids=" ".join)
def test_main_parses_as_the_top_level_parser_does(commands_seen, capsys,
                                                  argv):
    def top_level(argv):
        args = cli._parser()[0].parse_args(argv)
        return args.fn(args)

    def outcome(entry):
        commands_seen.clear()
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr(), list(commands_seen)

    assert outcome(cli.main) == outcome(top_level)


@pytest.mark.parametrize("argv", [
    ["verify", "lattice", "--frobnicate"],
    ["export", "everything"],
    ["classify", "001111111111", "one"],
], ids=["unknown_flag", "bad_choice", "non_integer_position"])
def test_rejected_invocation_leaves_the_parser_usable(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: trigonal ")
    assert run(capsys, CROSS_CHECK[0]) == CROSS_CHECK[1]


def test_classify_help_is_the_same_on_every_call(capsys, monkeypatch):
    # wide enough that argparse wraps no help line
    monkeypatch.setenv("COLUMNS", "200")
    first = run(capsys, ["classify", "--help"])
    assert first == run(capsys, ["classify", "--help"])
    code, out, _ = first
    assert code == 0
    for text in ("12 characters over {0,1,2}", "slot pair 0..11",
                 "bijection (slots 1..10; builds no table)"):
        assert text in out


def test_pyproject_version_is_the_package_version():
    # a regex, since tomllib is missing on Python 3.10
    pyproject = (Path(__file__).resolve().parent.parent
                 / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', pyproject, re.M) \
        == [__version__]


def test_sp10_constant_matches_formula():
    order = 3 ** 25
    for k in (2, 4, 6, 8, 10):
        order *= 3 ** k - 1
    assert cli.SP10_ORDER == order
