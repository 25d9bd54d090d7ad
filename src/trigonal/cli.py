"""Command-line driver: verification suites, exports and tuple classification.

Subcommands
-----------
verify [scope]   run the check suites (scope: all, lattice, symplectic,
                 monodromy, correspondence) and emit a JSON report; exit 0
                 iff no check failed, 1 on a failed check
export WHAT      write a deterministic artifact (gram, bijection, orbits,
                 classes) as JSON, or the two orbit Schreier trees as DOT; the
                 orbit exports are rendered and written BLOCK rows at a time
classify T POS   classify a 12-character monodromy tuple at a slot pair;
                 --cross-check adds the line-side label of the tuple's point,
                 from the closed form of the bijection (slots 1..10 only;
                 builds no table)

Exit codes: 0 success, 1 failed verification check, 2 invocation, input or
output error (a write, flush or close that fails prints one error line).
All structured output is UTF-8 JSON; report checks carry runtime_ms,
which is the only field that varies between identical runs.

`main` builds its argument parser once per process, on its first call and
not at import, and parses once: argv goes to the named command's own
parser, and to the top-level one only when that cannot finish it alone.
This module imports only the standard library and `rules`, the one-row
rules in pure Python, so `classify` and `--help` load no numpy and no table
module; `verify` and `export` load them through `_load_tables`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import sys
import time
from random import Random

from . import __version__, rules


@functools.cache
def _load_tables() -> None:
    """Bind numpy, the table modules and the two schreier kernels as globals
    of this module, once: `classify` and `--help` need none of them, so
    `import trigonal.cli` loads no numpy.  A second call binds nothing, so
    a name replaced after the first one (perfbench wraps `bsgs_order` and
    replaces `CHECKS` before its first `verify`) stays replaced.

    `Context` and `cmd_export` call this, and `__getattr__` does for a
    reader from outside, such as `cli.mo`.  A helper that reads these
    names, such as `_h_variant_holds`, raises NameError when it is called
    before any of them."""
    global np, co, f3, la, mo, sp
    global THETA, EisensteinInt, divides, bsgs_order, orbit_sizes
    import numpy as np

    from . import correspondence as co
    from . import f3
    from . import lattice as la
    from . import monodromy as mo
    from . import sympf3 as sp
    from .eisenstein import THETA, EisensteinInt, divides
    from .schreier import bsgs_order, orbit_sizes


def __getattr__(name: str):
    """A name that `_load_tables` binds, read from outside (PEP 562): the
    first such read loads the tables' modules.  A missing dunder name, such
    as the `__bases__` or `__wrapped__` that pytest's collection and
    `inspect` probe for, loads nothing and raises AttributeError."""
    if not (name.startswith("__") and name.endswith("__")):
        _load_tables()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None


#: order of Sp_2m(F_3) = 3^(m^2) * prod_{k=1..m} (3^2k - 1), with 2m = DIM
SP10_ORDER = 3 ** ((rules.DIM // 2) ** 2) * math.prod(
    3 ** (2 * k) - 1 for k in range(1, rules.DIM // 2 + 1))

CONVENTIONS = {
    "eisenstein": "tau^2 = tau - 1; an Eisenstein integer a + b*tau is "
                  "serialized as [a, b]; theta = -1 + 2*tau",
    "gram": "chain Gram: herm(a_i, a_i) = -3, herm(a_i, a_{i+1}) = theta, "
            "herm(a_{i+1}, a_i) = -theta; herm is linear in the first and "
            "conjugate-linear in the second argument",
    "triflection": "s_i(x) = x + tau * skew(x, a_i) * a_i with "
                   "skew = theta^{-1} * herm",
    "transposition_codes": "0 = (12), 1 = (23), 2 = (13); a class is stored "
                           "as the lexicographically least simultaneous "
                           "relabeling",
    "hurwitz_move": "the move at slots (i, i+1) sends (u, v) to (v, v*u*v), "
                    "i = 1..10",
    "point_order": "projective points are ranked by the base-3 key of their "
                   "canonical vector (first nonzero coordinate 1), with "
                   "coordinate 0 least significant",
}


def _index_note_sizes(n_classes: int) -> list[tuple[int, int]]:
    """NOTE_INDEX's (e, (3^e-1)/2): class orbit size, hyperplane points."""
    return [(rules.DIM, n_classes),
            (rules.DIM - 1, (3 ** (rules.DIM - 1) - 1) // 2)]


NOTE_INDEX = (
    "informational: by orbit-stabilizer, the index of a class stabilizer "
    "equals the orbit size (3^{}-1)/2 = {}; the alternative value "
    "(3^{}-1)/2 = {} equals the number of points on a perpendicular "
    "hyperplane, not the index, and the computed orbit size is the one "
    "reported.").format(*[x for size in _index_note_sizes(
        (3 ** rules.DIM - 1) // 2) for x in size])
NOTE_H_VARIANT = (
    "informational: the degenerate H configuration is implemented as "
    "t0 = t1 != t2 = ... = t11 (constant run starting at slot 2); a variant "
    "wording starts the constant run at slot 3 and omits slot 2, and is "
    "classified identically at slot 0.")
NOTE_LABEL_PAIRING = (
    "informational: the confluence labels and the line labels agree exactly "
    "up to exchanging RM and SG on the line side; per slot, the {SG} "
    "distinct-pair classes match the {SG} non-perpendicular lines and the "
    "{RM} non-degenerate equal-pair classes match the {RM} perpendicular "
    "lines (see the orbit_trichotomy check).").format(
        **rules.LINE_CLASS_COUNTS)

REPORT_NOTES = [NOTE_INDEX, NOTE_H_VARIANT, NOTE_LABEL_PAIRING]

SCOPES = ("all", "lattice", "symplectic", "monodromy", "correspondence")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            ).encode("utf-8")


# ---------------------------------------------------------------------------
# shared lazy state for the check suites


class Context:
    """The run's seed and options, and the bijection built once per run:
    a build that raises is not retried, and raises again for each check."""

    def __init__(self, seed: int, optional: bool):
        _load_tables()
        self.seed = seed
        self.optional = optional
        self._corr: co.Correspondence | Exception | None = None

    def corr(self) -> co.Correspondence:
        if self._corr is None:
            try:
                self._corr = co.build_bijection()
            except Exception as exc:
                self._corr = exc
        if isinstance(self._corr, Exception):
            raise self._corr
        return self._corr


# ---------------------------------------------------------------------------
# check functions: each returns (ok, observed, expected, details);
# ok may be None for a skipped check


def check_r_count(ctx: Context):
    t = mo.get_table()
    observed = int(t.codes.shape[0])
    ok = observed == mo.N_CLASSES and t.raw_count == mo.N_RAW
    return ok, observed, mo.N_CLASSES, {"raw_tuples": int(t.raw_count),
                                        "raw_tuples_expected": mo.N_RAW}


def check_proj_count(ctx: Context):
    observed = int(sp.get_table().reps.shape[0])
    return observed == sp.N_POINTS, observed, sp.N_POINTS, None


def _families(checks) -> tuple[dict, dict | None]:
    """From (family, label, holds) triples in check order: whether each
    family holds, and details naming the first failing label (None when
    every check holds, so a passing row carries no details)."""
    observed, first = {}, None
    for family, label, holds in checks:
        observed[family] = observed.get(family, True) and bool(holds)
        if first is None and not holds:
            first = label
    return observed, None if first is None else {"first_failure": first}


def _braid_relations(gens, compose, one, order_family: str):
    """The A-chain presentation of the generators gens[0], gens[1], ...
    (generator i is gens[i - 1]) as (family, label, holds) triples in check
    order: each has order dividing three (family `order_family`), and in
    family braid_relations adjacent ones braid and the others commute.
    `compose(p, q)` is the product p after q, `one` the identity."""
    def same(lhs, rhs):
        return bool((functools.reduce(compose, lhs)
                     == functools.reduce(compose, rhs)).all())

    for i, s in enumerate(gens, 1):
        yield order_family, f"order_three {i}", same([s] * 3, [one])
    for i, (s, t) in enumerate(zip(gens, gens[1:]), 1):
        yield ("braid_relations", f"braid {i},{i + 1}",
               same([s, t, s], [t, s, t]))
    for i, s in enumerate(gens, 1):
        for j, t in enumerate(gens[i + 1:], i + 2):
            yield "braid_relations", f"commute {i},{j}", same([s, t], [t, s])


def _triflection_relations():
    """The algebra of the ten triflections as identities between products
    of their 20x20 integer matrices on the Z-basis, in check order.

    Integrality comes first, from the Gram matrix: s_i(a_j) = a_j + tau *
    (herm(a_j, a_i) / theta) * a_i and tau is a unit, so s_i has integer
    entries exactly when theta divides column i of GRAM.  Without it there
    are no integer matrices to compose, and nothing else is checked."""
    integral = [all(divides(THETA, row[g]) for row in la.GRAM)
                for g in range(la.RANK)]
    for i, holds in enumerate(integral, 1):
        yield "integral_entries", f"integral_entries {i}", holds
    if not all(integral):
        return
    s = [la.step_matrix(i, 1) for i in range(1, la.RANK + 1)]
    # each relation multiplies at most three generators, so one bound,
    # checked before any product, makes every product of the presentation
    # exact; the inverses and the form keep their own guard, `la.matmul`
    la.require_int64_products(s, 3)
    one = np.identity(2 * la.RANK, dtype=np.int64)
    yield from _braid_relations(s, np.matmul, one, "order_three")
    for i, si in enumerate(s, 1):
        yield ("order_three", f"inverse {i}",
               bool((la.matmul(si, la.step_matrix(i, -1)) == one).all()))
        yield ("preserves_form", f"preserves_form {i}",
               la.preserves_realified_form(si))


def check_triflection_algebra(ctx: Context):
    observed, details = _families(_triflection_relations())
    expected = {"order_three": True, "preserves_form": True,
                "integral_entries": True, "braid_relations": True}
    return observed == expected, observed, expected, details


def _mod_theta_checks():
    """Each triflection reduces to its transvection, as the congruence
    Red * R(s_i) = T_i * Red (mod 3) on the Z-basis: column 2j of R(s_i) is
    s_i(a_j) and column 2j+1 is tau*s_i(a_j), so it says reduce(s_i(a_j)) =
    T_i e_j for every j; then the reduced form is alternating."""
    red = sp.reduction_matrix()
    for i in range(1, sp.DIM + 1):
        tv = sp.transvection(i).astype(np.int64)
        step = la.matmul(red, la.step_matrix(i, 1))
        congruent = ((step - la.matmul(tv, red)) % 3 == 0).all()
        yield ("reduce_triflection_equals_transvection_reduce",
               f"generator {i}", bool(congruent))
    g = sp.SYMP_GRAM.astype(np.int64)
    yield "antisymmetric", "antisymmetric", bool((((g + g.T) % 3) == 0).all())
    yield "zero_diagonal", "zero_diagonal", bool((np.diag(g) % 3 == 0).all())


def check_mod_theta(ctx: Context):
    observed, details = _families(_mod_theta_checks())
    observed["rank"] = f3.rank(sp.SYMP_GRAM)
    if observed["rank"] != sp.DIM and details is None:
        details = {"first_failure": "rank"}
    expected = {"reduce_triflection_equals_transvection_reduce": True,
                "antisymmetric": True, "zero_diagonal": True, "rank": sp.DIM}
    return observed == expected, observed, expected, details


def check_hurwitz_action(ctx: Context):
    t = mo.get_table()
    perms = t.all_hurwitz_perms()
    ident = np.arange(mo.N_CLASSES, dtype=perms.dtype)
    observed, details = _families(_braid_relations(
        perms, np.take, ident, "order_divides_three"))
    observed["trivial_and_order_three_points"] = all(
        bool((p == ident).any()) and bool((p != ident).any()) for p in perms)
    observed["orbit_from_base"] = mo.orbit_R().size
    alternating = t.index_of_codes(
        mo.parse_tuple_string(mo.alternating_tuple(mo.TUPLE_LEN)))
    observed["orbit_from_alternating"] = orbit_sizes(perms, alternating)[0]
    expected = {"order_divides_three": True,
                "trivial_and_order_three_points": True,
                "braid_relations": True,
                "orbit_from_base": mo.N_CLASSES,
                "orbit_from_alternating": mo.N_CLASSES}
    return observed == expected, observed, expected, details


def check_symplectic_transitivity(ctx: Context):
    points, vectors = sp.get_table().orbit_of_nonzero_vectors()
    observed = {"point_orbit": points, "nonzero_vector_orbit": vectors}
    expected = {"point_orbit": sp.N_POINTS,
                "nonzero_vector_orbit": sp.N_VECTORS - 1}
    return observed == expected, observed, expected, None


def check_equivariant_bijection(ctx: Context):
    corr = ctx.corr()
    forward, backward = corr.forward, corr.backward
    ident = np.arange(co.N, dtype=forward.dtype)
    failures = co.failing_edges(forward)
    first = next(failures, None)
    failing = 0 if first is None else 1 + sum(1 for _ in failures)
    inverse = bool((np.take(backward, forward) == ident).all()
                   and (np.take(forward, backward) == ident).all())
    observed = {"edges_verified": sp.DIM * co.N - failing,
                "mutually_inverse": inverse}
    expected = {"edges_verified": sp.DIM * co.N, "mutually_inverse": True}
    details = {"summary": corr.summary(),
               "candidates_pruned": corr.candidates_pruned,
               "candidates_passing": corr.candidates_passing,
               "base_pair": corr.base_pair()}
    if first is not None:
        details["first_failure"] = first
    return observed == expected, observed, expected, details


def check_orbit_trichotomy(ctx: Context):
    corr = ctx.corr()
    # the line labels relative to the base point are exactly the orbits of
    # its stabilizer (acceptance criterion 8 enumerates them)
    sizes = sp.label_counts(sp.line_class_vector(corr.base_point))
    cross = co.cross_validate_classification(corr)
    observed = {"stabilizer_orbit_sizes": sizes,
                "agreements": cross["agreements"],
                "total_checks": cross["total_checks"]}
    expected = {"stabilizer_orbit_sizes": dict(sp.LINE_CLASS_COUNTS),
                "agreements": sp.DIM * co.N,
                "total_checks": sp.DIM * co.N}
    details = {
        "agreements_rm_sg_swapped": cross["agreements_rm_sg_swapped"],
        "first_disagreement": cross["first_disagreement"],
        "note": cross.get("note"),
        "excluded_positions": cross["excluded_positions"],
    }
    return observed == expected, observed, expected, details


def check_realification(ctx: Context):
    cert = la.realify_and_certify()
    observed = {"is_even": bool(cert["is_even"]),
                "abs_det": int(cert["abs_det"]),
                "signature": list(cert["signature"])}
    expected = {"is_even": True, "abs_det": la.realified_abs_det(la.RANK),
                "signature": list(la.realified_signature(la.RANK))}
    return observed == expected, observed, expected, None


def check_minus6(ctx: Context):
    rng = Random(f"{ctx.seed}:minus6")
    eps0 = la.MINUS6_SEED
    decomposed = 0
    samples = 100
    for _ in range(samples):
        word = [(rng.randint(1, la.RANK), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 8))]
        if la.decompose_minus6(la.apply_lattice_word(word, eps0)) is not None:
            decomposed += 1
    w = la.minus6_witness(eps0)
    observed = {
        "decomposed": decomposed,
        "sampled": samples,
        "witness_index": None if w is None else w.index,
        "witness_value": None if w is None else w.value.to_json(),
        "witness_not_divisible_by_3":
            bool(w and not divides(EisensteinInt(3, 0), w.value)),
        "hexaflection_nonintegral": bool(w and w.hexaflection_nonintegral),
    }
    expected = {
        "decomposed": samples,
        "sampled": samples,
        "witness_index": 3,
        "witness_value": THETA.to_json(),
        "witness_not_divisible_by_3": True,
        "hexaflection_nonintegral": True,
    }
    return observed == expected, observed, expected, None


def check_sp10_order(ctx: Context):
    if not ctx.optional:
        return None, None, str(SP10_ORDER), {"reason": "enable with --optional"}
    perms, signs = sp.get_table().transvections()
    order, certified, _ = bsgs_order(perms, SP10_ORDER, signs)
    ok = certified and order == SP10_ORDER
    return ok, str(order), str(SP10_ORDER), {"certified": bool(certified)}


def _h_variant_holds() -> bool:
    """Whether NOTE_H_VARIANT states `confluence_labels` on the non-constant
    (a, a, b, c, ..., c): H at slot 0 exactly where t0 = t1 != t2 = ... =
    t11, which product one makes the variant's t0 = t1, t3 = ... = t11.
    The rows are non-constant rows of letters, so the raw ones are those
    with product one."""
    abc = f3.all_rows(3)
    rows = np.repeat(abc[abc.min(axis=1) < abc.max(axis=1)],
                     [2, 1, mo.TUPLE_LEN - 3], axis=1)
    h = mo.confluence_labels(rows, 0) == 0
    t0, t1, t2, t3 = rows[:, :4].T
    variant = (t0 == t1) & (rows[:, 3:] == t3[:, None]).all(axis=1)
    stated = variant & (t1 != t2) & (t2 == t3)
    raw = [mo.broken_rules(row) < 0 for row in rows.tolist()]
    return bool((h == stated).all() and (h == variant)[raw].all())


def check_discrepancy_notes(ctx: Context):
    index_ok = NOTE_INDEX in REPORT_NOTES and all(
        f"(3^{e}-1)/2 = {v}" in NOTE_INDEX and v == (3 ** e - 1) // 2
        for e, v in _index_note_sizes(mo.N_CLASSES))
    h_variant_ok = NOTE_H_VARIANT in REPORT_NOTES and _h_variant_holds()
    observed = {"index_note_present": index_ok,
                "h_variant_note_present": h_variant_ok}
    expected = {"index_note_present": True, "h_variant_note_present": True}
    return observed == expected, observed, expected, None


#: registry rows: (name, criterion number, scope, function); scope None
#: means the check is included in every scope
CHECKS = (
    ("R_count", 1, "monodromy", check_r_count),
    ("proj_count", 2, "symplectic", check_proj_count),
    ("triflection_algebra", 3, "lattice", check_triflection_algebra),
    ("mod_theta_compatibility", 4, "symplectic", check_mod_theta),
    ("hurwitz_action", 5, "monodromy", check_hurwitz_action),
    ("symplectic_transitivity", 6, "symplectic",
     check_symplectic_transitivity),
    ("equivariant_bijection", 7, "correspondence",
     check_equivariant_bijection),
    ("orbit_trichotomy", 8, "correspondence", check_orbit_trichotomy),
    ("realification_certificate", 9, "lattice", check_realification),
    ("minus6_certificates", 10, "lattice", check_minus6),
    ("sp10_order", 11, "symplectic", check_sp10_order),
    ("discrepancy_notes", 12, None, check_discrepancy_notes),
)


def run_checks(scope: str, seed: int, optional: bool) -> list[dict]:
    ctx = Context(seed, optional)
    rows = []
    for name, criterion, check_scope, fn in CHECKS:
        if scope != "all" and check_scope not in (None, scope):
            continue
        start = time.perf_counter()
        try:
            ok, observed, expected, details = fn(ctx)
        except Exception as exc:       # an honest crash is a failed check
            ok = False
            observed = f"error: {type(exc).__name__}: {exc}"
            expected, details = None, None
        ms = int(round(1000 * (time.perf_counter() - start)))
        status = "skipped" if ok is None else ("pass" if ok else "fail")
        row = {"name": name, "criterion": criterion, "status": status,
               "observed": observed, "expected": expected, "runtime_ms": ms}
        if details is not None:
            row["details"] = details
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cannot_write(name: str, exc: OSError) -> int:
    print(f"error: cannot write {name}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _open_out(out_path: str | None):
    """The output stream as a context manager: stdout when no path is given,
    else out_path opened now (an empty one too: it names no file, so it
    cannot be opened).

    Commands call this before doing any work, so an unwritable path costs
    nothing, and hand the result to `_write`.  Returns None, after printing
    the error line, when out_path cannot be opened.
    """
    if out_path is None:
        return contextlib.nullcontext(sys.stdout.buffer)
    try:
        return open(out_path, "wb")
    except OSError as exc:
        _cannot_write(out_path, exc)
        return None


def _write(out, chunks) -> int:
    """Write the chunks to `out` one at a time, flush it and leave its
    context (closing a file).

    Returns 2, after printing the error line, if a write, the flush or the
    close fails.  Closing flushes again whatever a failed write left in the
    buffer, so the close is guarded too.
    """
    try:
        with out as fh:
            for chunk in chunks:
                fh.write(chunk)
                del chunk       # freed before the next chunk is rendered
            fh.flush()
    except OSError as exc:
        return _cannot_write(getattr(fh, "name", "<stdout>"), exc)
    return 0


def cmd_verify(args) -> int:
    out = _open_out(args.out)
    if out is None:
        return 2
    checks = run_checks(args.scope, args.seed, args.optional)
    failed = sum(1 for c in checks if c["status"] == "fail")
    report = {
        "tool": "trigonal",
        "version": __version__,
        "scope": args.scope,
        "seed": args.seed,
        "optional_enabled": bool(args.optional),
        "conventions": CONVENTIONS,
        "checks": checks,
        "notes": REPORT_NOTES,
        "failed": failed,
    }
    if _write(out, [_json_bytes(report)]):
        return 2
    for c in checks:
        print(f"{c['status'].upper():7s} {c['name']} "
              f"({c['runtime_ms']} ms)", file=sys.stderr)
    print(f"{len(checks)} checks, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


#: rows that `_render` turns into text at a time: the orbit exports hold
#: one block of text, never a Python int per tree entry
BLOCK = 2048


def _render(pieces: tuple[bytes, ...], *columns: np.ndarray,
            null: bool = False) -> bytes:
    """Rows `pieces[0] col0 pieces[1] col1 ... pieces[-1]` as bytes, one row
    per entry of the integer columns, each integer in ASCII decimal (a 0 as
    `null` when `null` is set).

    Each field is right-aligned in a fixed-width uint8 grid padded with zero
    bytes, which the final compaction drops.
    """
    widths = [len(str(max(int(c.max(initial=0)), -int(c.min(initial=0))))) + 1
              for c in columns]               # one more column for a sign
    if null:
        widths = [max(w, len(b"null")) for w in widths]
    grid = np.zeros((len(columns[0]), sum(map(len, pieces)) + sum(widths)),
                    dtype=np.uint8)
    at = 0
    for piece, col, width in zip(pieces, columns, widths):
        grid[:, at:at + len(piece)] = np.frombuffer(piece, dtype=np.uint8)
        at += len(piece) + width
        field = grid[:, at - width:at]
        rest = np.abs(col)
        for j in range(width - 1, 0, -1):     # units first; 0 pads
            digit = rest % 10 + ord("0")
            field[:, j] = digit if j == width - 1 else np.where(rest, digit, 0)
            rest //= 10
        neg = np.flatnonzero(col < 0)
        if neg.size:                          # the sign left of the top digit
            field[neg, (field[neg] == 0).sum(axis=1) - 1] = ord("-")
        if null:
            field[col == 0] = np.frombuffer(b"null".rjust(width, b"\0"),
                                            dtype=np.uint8)
    grid[:, at:] = np.frombuffer(pieces[-1], dtype=np.uint8)
    return grid[grid != 0].tobytes()


def _json_ints(values: np.ndarray, shift: int = 0, null: bool = False):
    """The JSON list of the integers `values + shift` (a 0 as null when
    `null` is set), as chunks of at most BLOCK entries."""
    yield b"["
    for start in range(0, values.size, BLOCK):     # no comma before the first
        yield _render((b",", b""), values[start:start + BLOCK] + shift,
                      null=null)[0 if start else 1:]
    yield b"]"


def _orbit_tree_json(res, side: str):
    """One tree as compact JSON with sorted keys, in chunks: the generator
    that reached each point (1-based, null for the seed and off the orbit),
    its parent (-1 there) and the seed, the tree's root."""
    yield b'{"generator":'
    yield from _json_ints(res.parent_gen, shift=1, null=True)
    yield b',"parent":'
    yield from _json_ints(res.parent)
    yield (f',"seed":{int(res.order[0])},"side":{json.dumps(side)},'
           f'"size":{int(res.size)}}}').encode()


def _orbits_json(trees):
    """`export orbits`: both trees keyed by side, as `_json_bytes` would
    write them, in chunks."""
    sep = b"{"
    for res, side in sorted(trees, key=lambda tree: tree[1]):
        yield sep + json.dumps(side).encode() + b":"
        yield from _orbit_tree_json(res, side)
        sep = b","
    yield b"}\n"


def _orbits_dot(trees):
    """`export orbits --format dot`: both trees as one DOT digraph, one
    cluster per side and one edge line per tree edge, in chunks."""
    yield b"digraph schreier_forest {\n"
    for res, side in trees:
        prefix = side[0]
        yield (f'  subgraph cluster_{side} {{ label="{side}";\n'
               f'    {prefix}{res.order[0]} [shape=doublecircle];\n').encode()
        edge = (f"    {prefix}".encode(), f" -> {prefix}".encode(),
                b' [label="', b'"];\n')
        for start in range(0, res.parent.size, BLOCK):
            parent = res.parent[start:start + BLOCK]
            child = np.flatnonzero(parent >= 0)
            yield _render(edge, parent[child], child + start,
                          res.parent_gen[start:start + BLOCK][child] + 1)
        yield b"  }\n"
    yield b"}\n"


def _orbit_trees():
    return ((sp.get_table().orbit_of_points(), "projective"),
            (mo.orbit_R(), "classes"))


def cmd_export(args) -> int:
    if args.format == "dot" and args.what != "orbits":
        print(f"error: DOT output is only available for 'orbits', "
              f"not {args.what!r}", file=sys.stderr)
        return 2
    out = _open_out(args.out)
    if out is None:
        return 2
    _load_tables()
    if args.what == "gram":
        chunks = [_json_bytes(
            {"gram": [[c.to_json() for c in row] for row in la.GRAM]})]
    elif args.what == "classes":
        t = mo.get_table()
        chunks = [_json_bytes({"count": int(t.codes.shape[0]),
                               "classes": mo.code_strings(t.codes)})]
    elif args.what == "bijection":
        chunks = [_json_bytes(co.build_bijection().to_json())]
    else:                                 # orbits; argparse restricts `what`
        trees = _orbit_trees()            # built before the first byte
        render = _orbits_dot if args.format == "dot" else _orbits_json
        chunks = render(trees)
    return _write(out, chunks)


#: row i - 1 is alpha_i, the basis vector of the line a cross-check reads,
#: as Python lists for the one-row label
_BASIS = [[int(i == j) for j in range(rules.DIM)] for i in range(rules.DIM)]


def cmd_classify(args) -> int:
    try:
        codes = rules.parse_tuple_string(args.tuple)
        lines = [rules.classify_confluence_codes(codes, args.position)]
    except (ValueError, IndexError) as exc:     # bad tuple or bad slot
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cross_check and not 1 <= args.position <= rules.DIM:
        lines.append("cross-check: unavailable at slots 0 and "
                     f"{rules.TUPLE_LEN - 1} (no generator acts there)")
    elif args.cross_check:
        # the trichotomy is symmetric, so the label of [alpha_i] relative to
        # the tuple's point is that of the point relative to [alpha_i], the
        # orientation of the cross-validation
        label = rules.line_labels(rules.point_vectors(codes),
                                  _BASIS[args.position - 1])
        lines.append(f"cross-check (line side): {rules.LINE_CLASSES[label]}")
    text = "".join(f"{line}\n" for line in lines)
    return _write(contextlib.nullcontext(sys.stdout), [text])


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level argument parser and its commands' own parsers, keyed by
    command name, built on the first `main` call, not at import."""
    parser = argparse.ArgumentParser(
        prog="trigonal",
        description="exact certificates for the lattice, monodromy and "
                    "bijection tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("scope", nargs="?", default="all", choices=SCOPES)
    p_verify.add_argument("--out", metavar="PATH",
                          help="write the JSON report here instead of stdout")
    p_verify.add_argument("--optional", action="store_true",
                          help="enable the Sp10(F3) group-order check")
    p_verify.add_argument("--seed", type=int, default=0, metavar="N",
                          help="seed for the randomized checks")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="write deterministic artifacts")
    p_export.add_argument("what",
                          choices=("gram", "bijection", "orbits", "classes"))
    p_export.add_argument("--format", default="json", choices=("json", "dot"))
    p_export.add_argument("--out", metavar="PATH")
    p_export.set_defaults(fn=cmd_export)

    p_classify = sub.add_parser("classify",
                                help="confluence class of a tuple at a slot")
    p_classify.add_argument("tuple",
                            help=f"{rules.TUPLE_LEN} characters over "
                                 "{0,1,2}")
    p_classify.add_argument("position", type=int,
                            help=f"slot pair 0..{rules.TUPLE_LEN - 1}")
    p_classify.add_argument("--cross-check", action="store_true",
                            help="also report the line-side label of the "
                                 "tuple's point, from the closed form of the "
                                 f"bijection (slots 1..{rules.DIM}; builds no "
                                 "table)")
    p_classify.set_defaults(fn=cmd_classify)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run the command that argv (default `sys.argv[1:]`) names, parsing
    once: its own parser reads what follows its name.  An argv that this
    cannot finish (none, no command first, arguments left over) goes to the
    top-level parser, so help, usage and errors are argparse's own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
    if command is None or rest:
        args = parser.parse_args(argv)
    return args.fn(args)


def console_main() -> int:
    """The process entry point: `python -m trigonal.cli` and the `trigonal`
    script.  Runs `main`, whose command has written, flushed and closed its
    output when it returns, then moves every tracked object to the
    collector's permanent generation, so that interpreter shutdown skips
    full collections of what the command loaded, which nothing reads any
    more: after `verify` or `export` the tables and numpy's objects (a
    `classify` loads neither).  `main` itself never freezes, so in-process
    callers keep a normal collector."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
