"""In-process parts of the trigonal benchmark, each run in a fresh interpreter.

    python3 perfbench/inproc.py query --seed N --seconds S
        the untraced `query` client.  It answers the seeded classify stream
        with `cli.main(["classify", T, P, "--cross-check"])`.  Once the first
        valid query is answered it prints `first` and the time.perf_counter()
        reading (a system-wide monotonic clock on Linux).  It then answers
        queries for S seconds (none when S is 0), timing the reference kernel
        of calibrate.py after the first answer and after every query, and
        prints one JSON line.

    python3 perfbench/inproc.py replay --workload W [--label L] --seed N
                                       --seconds S --spans PATH [--untraced]
        the traced run.  It replays one operation of workload W (on `export`,
        the export L) with a span around each call into a public function of
        the package.  When that operation is done it prints `replayed` and
        the clock reading.  It writes the spans to PATH when the run ends and
        prints the oracle outcomes as one JSON line.  With --untraced the same
        operation runs without spans; the difference in wall time is the
        tracing overhead.

Spans are timed from outside the package: the replay wraps public functions
(module attributes and class methods the CLI reaches through its module
imports) for the duration of the run.  A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def rss_mb() -> tuple[float, float]:
    """(peak, current) resident set size of this process."""
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            resident_pages * resource.getpagesize() / 2 ** 20)


def classify(cli, t: str, pos: int) -> tuple[int, str]:
    """One `trigonal classify T P --cross-check`; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["classify", t, str(pos), "--cross-check"])
    return code, out.getvalue()


def import_cli():
    """trigonal.cli from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    from trigonal import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"trigonal imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def run_query(seed: int, seconds: float) -> None:
    cli = import_cli()
    stream = oracle.query_stream(seed)
    untimed, valid = [], False
    while not valid:                     # set-up ends with the first valid answer
        t, pos, valid = next(stream)
        untimed.append(oracle.check_classify(t, pos, valid, *classify(cli, t, pos)))
    print("first", time.perf_counter(), flush=True)
    from calibrate import kernel_seconds   # after the set-up it must not shorten
    times, refs, statuses = [], [kernel_seconds()], []
    deadline = time.perf_counter() + seconds
    while seconds and (not times or time.perf_counter() < deadline):
        t, pos, valid = next(stream)
        start = time.perf_counter()
        code, out = classify(cli, t, pos)
        times.append(time.perf_counter() - start)
        refs.append(kernel_seconds())
        statuses.append(oracle.check_classify(t, pos, valid, code, out))
    print(json.dumps({"times": times, "refs": refs, "statuses": statuses,
                      "untimed_statuses": untimed}), flush=True)


# -- tracing -------------------------------------------------------------------


class Tracer:
    """Spans kept in memory until the run ends; `op` tags the operation a
    span belongs to, so per-operation totals can be formed."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = "setup"

    @contextlib.contextmanager
    def span(self, name: str, calls: int = 1):
        if not self.enabled:
            yield {}
            return
        rec = {"name": name, "op": self.op, "workload": self.workload,
               "parent": self._stack[-1] if self._stack else None,
               "calls": calls, "rss0": rss_mb()}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            (peak0, now0), (peak1, now1) = rec.pop("rss0"), rss_mb()
            rec["rss_growth_mb"] = max(peak1 - peak0, now1 - now0)
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a function that runs it inside a span."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    rec.update(on_result(result))
                return result
        setattr(owner, attr, traced)

    def finish(self) -> list[dict]:
        """Add each span's duration and self time."""
        for rec in self.spans:
            rec["duration"] = rec["end"] - rec["start"]
            rec["self"] = rec["duration"]
        for rec in self.spans:
            if rec["parent"] is not None:
                self.spans[rec["parent"]]["self"] -= rec["duration"]
        return self.spans


#: per-layer metric -> (span name, unit).  Unit s: per-operation total self
#: time, median over the operations that made the call; us: mean self time
#: per call; MB: the largest growth in one span of the process's peak RSS or
#: of its current RSS, whichever grew more (a table that stays under an
#: earlier peak still shows what it keeps resident).
SPAN_METRICS = {
    "import.trigonal_cli_s": ("import.trigonal_cli", "s"),
    "eisenstein.mul_us": ("eisenstein.mul", "us"),
    "eisenstein.add_us": ("eisenstein.add", "us"),
    "lattice.compose_us": ("lattice.compose", "us"),
    "lattice.word_matrix_s": ("lattice.word_matrix", "s"),
    "lattice.decompose_minus6_s": ("lattice.decompose_minus6", "s"),
    "lattice.realify_and_certify_s": ("lattice.realify_and_certify", "s"),
    "monodromy.class_table_s": ("monodromy.class_table", "s"),
    "monodromy.hurwitz_perms_s": ("monodromy.hurwitz_perms", "s"),
    "monodromy.class_table_rss_mb": ("monodromy.class_table", "MB"),
    "monodromy.parse_tuple_us": ("monodromy.parse_tuple", "us"),
    "monodromy.index_of_codes_us": ("monodromy.index_of_codes", "us"),
    "sympf3.classify_line_us": ("sympf3.classify_line", "us"),
    "sympf3.projective_table_s": ("sympf3.projective_table", "s"),
    "sympf3.transvection_perms_s": ("sympf3.transvection_perms", "s"),
    "sympf3.vector_perms_s": ("sympf3.vector_perms", "s"),
    "sympf3.vector_perms_rss_mb": ("sympf3.vector_perms", "MB"),
    "schreier.orbit_bfs.classes_s": ("schreier.orbit_bfs.classes", "s"),
    "schreier.orbit_bfs.points_s": ("schreier.orbit_bfs.points", "s"),
    "schreier.orbit_bfs.vectors_s": ("schreier.orbit_bfs.vectors", "s"),
    "schreier.bsgs_order_s": ("schreier.bsgs_order", "s"),
    "schreier.bsgs_rss_mb": ("schreier.bsgs_order", "MB"),
    "correspondence.build_bijection_s": ("correspondence.build_bijection", "s"),
    "correspondence.cross_validate_s": ("correspondence.cross_validate", "s"),
    "correspondence.to_json_s": ("correspondence.to_json", "s"),
}
CHECK_ROWS = ("R_count", "proj_count", "triflection_algebra",
              "mod_theta_compatibility", "hurwitz_action",
              "symplectic_transitivity", "equivariant_bijection",
              "orbit_trichotomy", "realification_certificate",
              "minus6_certificates", "sp10_order", "discrepancy_notes")
SPAN_METRICS.update({f"cli.check.{row}_s": (f"cli.check.{row}", "s")
                     for row in CHECK_ROWS})
SPAN_METRICS.update({f"cli.export.{label}_s": (f"cli.export.{label}", "s")
                     for label in sorted(oracle.EXPORTS)})

#: per-layer metric -> (span name, counter field, unit); the value is the
#: counter on the first span of that name
COUNT_METRICS = {
    "monodromy.raw_tuples": ("monodromy.class_table", "raw_tuples", "count"),
    "schreier.bfs_depth.classes": ("schreier.orbit_bfs.classes", "depth", "count"),
    "schreier.bfs_depth.points": ("schreier.orbit_bfs.points", "depth", "count"),
    "correspondence.words_used": ("correspondence.build_bijection", "words_used", "count"),
    "correspondence.candidates_pruned": ("correspondence.build_bijection",
                                         "candidates_pruned", "count"),
    "correspondence.candidate_yield": ("correspondence.build_bijection",
                                       "candidate_yield", "ratio"),
    "correspondence.edges_verified": ("correspondence.build_bijection",
                                      "edges_verified", "count"),
}


def layer_metrics(spans: list[dict]) -> dict:
    out = {}
    for metric, (name, unit) in SPAN_METRICS.items():
        recs = [r for r in spans if r["name"] == name]
        if unit == "MB":
            value = max((r["rss_growth_mb"] for r in recs), default=0.0)
        elif unit == "us":
            calls = sum(r["calls"] for r in recs)
            value = 1e6 * sum(r["self"] for r in recs) / calls if calls else 0.0
        else:
            per_op: dict = {}
            for r in recs:
                per_op[r["op"]] = per_op.get(r["op"], 0.0) + r["self"]
            value = statistics.median(per_op.values()) if per_op else 0.0
        out[metric] = {"value": value, "unit": unit}
    for metric, (name, field, unit) in COUNT_METRICS.items():
        recs = [r for r in spans if r["name"] == name and field in r]
        out[metric] = {"value": recs[0][field] if recs else 0, "unit": unit}
    bsgs = [r for r in spans if r["name"] == "schreier.bsgs_order"]
    out["schreier.bsgs_certified_share"] = {
        "value": sum(r["certified"] for r in bsgs) / len(bsgs) if bsgs else 0.0,
        "unit": "ratio"}
    return out


def instrument(tr: Tracer) -> None:
    """Wrap the public calls the CLI makes across module boundaries."""
    if not tr.enabled:
        return
    from trigonal import cli, correspondence as co, lattice as la
    from trigonal import monodromy as mo, sympf3 as sp

    def bijection_counts(corr):
        return {"words_used": corr.words_used,
                "candidates_pruned": corr.candidates_pruned,
                "candidate_yield": corr.candidates_passing / corr.candidates_pruned,
                "edges_verified": corr.edges_verified}

    def depth(res):
        return {"depth": int(res.depth.max())}

    tr.wrap(la, "word_matrix", "lattice.word_matrix")
    tr.wrap(la, "decompose_minus6", "lattice.decompose_minus6")
    tr.wrap(la, "realify_and_certify", "lattice.realify_and_certify")
    tr.wrap(mo, "orbit_R", "schreier.orbit_bfs.classes", depth)
    tr.wrap(mo, "parse_tuple_string", "monodromy.parse_tuple")
    tr.wrap(mo.ClassTable, "index_of_codes", "monodromy.index_of_codes")
    tr.wrap(sp.ProjectiveTable, "orbit_of_points", "schreier.orbit_bfs.points", depth)
    tr.wrap(sp.ProjectiveTable, "orbit_of_nonzero_vectors",
            "schreier.orbit_bfs.vectors")
    tr.wrap(sp, "classify_line", "sympf3.classify_line")
    tr.wrap(co, "build_bijection", "correspondence.build_bijection",
            bijection_counts)
    tr.wrap(co, "cross_validate_classification", "correspondence.cross_validate")
    tr.wrap(co.Correspondence, "to_json", "correspondence.to_json")
    tr.wrap(cli, "bsgs_order", "schreier.bsgs_order",
            lambda r: {"certified": bool(r[1])})
    if tuple(row[0] for row in cli.CHECKS) != CHECK_ROWS:
        sys.exit("cli.CHECKS no longer matches the cli.check.* metrics")
    cli.CHECKS = tuple((name, crit, scope, _traced_row(tr, name, fn))
                       for name, crit, scope, fn in cli.CHECKS)


def _traced_row(tr: Tracer, name: str, fn):
    def row(ctx):
        with tr.span(f"cli.check.{name}"):
            return fn(ctx)
    return row


#: the table and generator builds, in the order the replays make them
TABLE_STAGES = ("monodromy.class_table", "monodromy.hurwitz_perms",
                "sympf3.projective_table", "sympf3.transvection_perms",
                "sympf3.vector_perms")
#: how many of them each export needs; the traced export makes no others
EXPORT_STAGES = {"gram": 0, "classes": 1, "bijection": 4, "orbits": 4, "orbits_dot": 4}


def build_tables(tr: Tracer, count: int) -> None:
    """The first `count` builds, each in its own span, before any check runs."""
    from trigonal import monodromy as mo, sympf3 as sp
    builds = (mo.get_table,
              lambda: mo.get_table().all_hurwitz_perms(),
              sp.get_table,
              lambda: sp.get_table().all_transvection_perms(),
              lambda: [sp.get_table().vector_perm(i) for i in range(1, sp.DIM + 1)])
    for name, build in list(zip(TABLE_STAGES, builds))[:count]:
        with tr.span(name) as rec:
            built = build()
        if name == "monodromy.class_table":
            rec["raw_tuples"] = built.raw_count


def _import(tr: Tracer):
    with tr.span("import.trigonal_cli"):
        return import_cli()


def replay_verify(tr: Tracer, seed: int, seconds: float,
                  optional: bool) -> tuple[list, list]:
    """One `verify all [--optional] --seed S` operation, then layer extras."""
    deadline = time.perf_counter() + seconds
    seeds = oracle.verify_seeds(seed)
    s0 = next(seeds)
    tr.op = "op0"
    cli = _import(tr)
    instrument(tr)
    build_tables(tr, len(TABLE_STAGES))
    path = OUT / "report.tmp"
    argv = ["verify", "all", "--seed", str(s0), "--out", str(path)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--optional"] * optional)
    print("replayed", time.perf_counter(), flush=True)
    status = oracle.check_report(code, path.read_bytes(), optional)
    path.unlink()
    log = [{"seed": s0, "status": status}]
    if not tr.enabled:
        return [status], log

    tr.op = "extras"
    _layer_microbench(tr, seed)
    if optional:                         # the order certificate on further seeds
        k = 0
        while time.perf_counter() < deadline:
            k += 1
            tr.op = f"sp10_{k}"
            s = next(seeds)
            with tr.span("cli.check.sp10_order"):
                ok, *_ = cli.check_sp10_order(cli.Context(s, True))
            log.append({"seed": s, "sp10_order": bool(ok)})
    return [status], log


def _layer_microbench(tr: Tracer, seed: int) -> None:
    """EisensteinInt * and + and lattice.compose over seeded operands."""
    from random import Random
    from trigonal import lattice as la
    from trigonal.eisenstein import EisensteinInt
    rng = Random(f"eisenstein:{seed}")
    xs = [EisensteinInt(rng.randint(-999, 999), rng.randint(-999, 999))
          for _ in range(4000)]
    pairs = list(zip(xs, reversed(xs)))
    with tr.span("eisenstein.mul", calls=len(pairs)):
        for x, y in pairs:
            _ = x * y
    with tr.span("eisenstein.add", calls=len(pairs)):
        for x, y in pairs:
            _ = x + y
    mats = [la.triflection(i) for i in range(1, la.RANK + 1)]
    mpairs = [(rng.choice(mats), rng.choice(mats)) for _ in range(50)]
    with tr.span("lattice.compose", calls=len(mpairs)):
        for m, n in mpairs:
            la.compose(m, n)


def replay_export(tr: Tracer, label: str) -> tuple[list, list]:
    """One `export` operation: import, the tables it needs, then the export."""
    tr.op = label
    cli = _import(tr)
    instrument(tr)
    build_tables(tr, EXPORT_STAGES[label])
    path = OUT / f"export-{label}.tmp"
    with tr.span(f"cli.export.{label}"), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["export", *oracle.EXPORTS[label][0], "--out", str(path)])
    print("replayed", time.perf_counter(), flush=True)
    status = oracle.check_export(label, code, path.read_bytes())
    path.unlink()
    return [status], []


def replay_query(tr: Tracer, seed: int, seconds: float) -> tuple[list, list]:
    """The query stream: untraced for half the time, then traced."""
    cli = _import(tr)
    build_tables(tr, EXPORT_STAGES["bijection"])     # what build_bijection needs
    stream = oracle.query_stream(seed)
    statuses, plain = [], []
    half = time.perf_counter() + seconds / 2
    while time.perf_counter() < half or not plain:
        t, pos, valid = next(stream)
        start = time.perf_counter()
        result = classify(cli, t, pos)
        plain.append(time.perf_counter() - start)
        statuses.append(oracle.check_classify(t, pos, valid, *result))
    print("replayed", time.perf_counter(), flush=True)
    instrument(tr)
    end, k = time.perf_counter() + seconds / 2, 0
    while time.perf_counter() < end or k == 0:
        t, pos, valid = next(stream)
        k += 1
        tr.op = f"q{k}"
        with tr.span("cli.classify"):
            result = classify(cli, t, pos)
        statuses.append(oracle.check_classify(t, pos, valid, *result))
    return statuses, [{"untraced_query_p50_s": statistics.median(plain)}]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("query", "replay"))
    ap.add_argument("--workload", choices=("verify", "certify", "export", "query"))
    ap.add_argument("--label", choices=sorted(oracle.EXPORTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--untraced", action="store_true",
                    help="replay without spans, to measure the tracing overhead")
    args = ap.parse_args()
    if args.mode == "query":
        run_query(args.seed, args.seconds)
        return
    tr = Tracer(args.workload, enabled=not args.untraced)
    if args.workload == "export":
        statuses, log = replay_export(tr, args.label)
    elif args.workload == "query":
        statuses, log = replay_query(tr, args.seed, args.seconds)
    else:
        statuses, log = replay_verify(tr, args.seed, args.seconds,
                                      args.workload == "certify")
    args.spans.write_text(json.dumps(tr.finish()))
    print(json.dumps({"statuses": statuses, "log": log}), flush=True)


if __name__ == "__main__":
    main()
