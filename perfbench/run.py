"""The trigonal benchmark: one command, closed-loop workloads, oracle-checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from the
checkout's `src/` and nowhere else.  One client runs at a time and nothing
runs in threads.  Workloads (see perfbench/README.md for why each exists):

    verify   one cold process of `trigonal verify all --seed S` per operation
    export   one cold process of `trigonal export W` per operation, W cycling
             in a seeded order over the five exports
    query    one in-process `cli.main(["classify", T, P, "--cross-check"])`
             per operation, on warm tables
    certify  one cold process of `trigonal verify all --optional --seed S`;
             not in BENCHMARK.json, because its time depends on the seed

With `--trace 0` the last line of standard output is the result with the
end-to-end metrics, whose times are in calibrated seconds (calibrate.py);
with `--trace 1` a separate traced replay gives the per-layer metrics.  The full record, with the environment, every sample
count and the per-operation log, is written to `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inproc
import oracle
from calibrate import REF_NOMINAL_S, calibrate, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
INPROC = Path(__file__).resolve().parent / "inproc.py"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
#: a cold operation still running after this long is a benchmark error
OP_TIMEOUT_S = 170
#: cold `import trigonal.cli` processes behind one `setup_s`
SETUP_REPEATS = 5
#: fresh query clients behind one `setup_s` (the last one is then timed)
QUERY_CLIENTS = 3
#: a percentile is reported only when at least ten samples lie beyond it
P90_MIN_SAMPLES = 100

UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB", "fail_share": "ratio"}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure; it exits non-zero without a result."""


def cold(args: list[str]) -> tuple[float, int, bytes]:
    """Run the program in a fresh interpreter; (wall seconds, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV,
                          capture_output=True, timeout=OP_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def cli_args(*argv: str) -> list[str]:
    return ["-m", "trigonal.cli", *argv]


def verify_args(s: int, optional: bool) -> list[str]:
    return cli_args("verify", "all", "--seed", str(s), *["--optional"] * optional)


def import_setup() -> tuple[list, list]:
    """Cold processes that only import trigonal.cli, with kernel times around
    each; (wall times, kernel times)."""
    walls, refs = [], [kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        wall, code, _ = cold(["-c", "import trigonal.cli"])
        if code != 0:
            raise BenchmarkError("`import trigonal.cli` failed")
        walls.append(wall)
        refs.append(kernel_seconds())
    return walls, refs


def child(args: list[str], marker: str, timeout: float) -> tuple[float, dict]:
    """Run an inproc.py child to the end; never leave it running.  Returns the
    seconds from spawning it to its `marker` line, and its last line as JSON."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(INPROC), *args], cwd=ROOT,
                            env=ENV, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    marks = [float(line.split()[1]) for line in lines if line.startswith(marker + " ")]
    if proc.returncode != 0 or not marks:
        raise BenchmarkError(f"inproc.py {args[0]} exited with {proc.returncode}")
    return marks[0] - start, json.loads(lines[-1])


def until(seconds: float):
    """Closed loop: yield operation numbers until `seconds` have passed; the
    operation in flight at the deadline completes and counts."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        yield k
        k += 1


# -- untraced workloads ----------------------------------------------------------
# Each returns a Run.  A kernel time is taken before the first operation and
# after every operation (see calibrate.py).


@dataclass
class Run:
    setup: list                          # calibrated set-up times
    setup_wall: list
    walls: list                          # wall time of each timed operation
    refs: list                           # kernel times around the operations
    statuses: list                       # oracle outcome of every operation
    log: list = field(default_factory=list)


def run_verify(seed: int, seconds: float, optional: bool) -> Run:
    setup_wall, setup_refs = import_setup()
    seeds = oracle.verify_seeds(seed)
    walls, refs, statuses, log = [], [kernel_seconds()], [], []
    for k in until(seconds):
        s = next(seeds)
        wall, code, out = cold(verify_args(s, optional))
        refs.append(kernel_seconds())
        status = oracle.check_report(code, out, optional)
        if k == 0:
            oracle.self_test_report(out, optional)
        walls.append(wall)
        statuses.append(status)
        try:
            report = json.loads(out)
            sp10 = next(c for c in report["checks"] if c["name"] == "sp10_order")
            failing, sp10_ms = oracle.failing_rows(report), sp10["runtime_ms"]
        except (ValueError, KeyError, TypeError, StopIteration):
            failing, sp10_ms = None, None      # a WRONG report; the status says so
        log.append({"seed": s, "seconds": wall, "exit": code, "status": status,
                    "failing_rows": failing, "sp10_order_runtime_ms": sp10_ms})
    return Run(calibrate(setup_wall, setup_refs), setup_wall, walls, refs, statuses, log)


def run_export(seed: int, seconds: float) -> Run:
    setup_wall, setup_refs = import_setup()
    order = oracle.export_order(seed)
    walls, refs, statuses, log, tested = [], [kernel_seconds()], [], [], set()
    for _ in until(seconds):
        label = next(order)
        wall, code, out = cold(cli_args("export", *oracle.EXPORTS[label][0]))
        refs.append(kernel_seconds())
        status = oracle.check_export(label, code, out)
        if label not in tested:
            oracle.self_test_export(label, out)
            tested.add(label)
        walls.append(wall)
        statuses.append(status)
        log.append({"export": label, "seconds": wall, "bytes": len(out), "status": status})
    return Run(calibrate(setup_wall, setup_refs), setup_wall, walls, refs, statuses, log)


def run_query(seed: int, seconds: float) -> Run:
    """Each fresh client answers the stream up to its first valid query (that
    is its set-up); only the last client goes on to the timed loop."""
    oracle.self_test_classify()
    setup, setup_wall, statuses = [], [], []
    for k in range(QUERY_CLIENTS):
        timed = seconds if k == QUERY_CLIENTS - 1 else 0
        before = kernel_seconds()
        wall, summary = child(["query", "--seed", str(seed), "--seconds", str(timed)],
                              "first", timed + OP_TIMEOUT_S)
        setup_wall.append(wall)
        setup += calibrate([wall], [before, summary["refs"][0]])
        statuses += summary["untimed_statuses"]
    return Run(setup, setup_wall, summary["times"], summary["refs"],
               statuses + summary["statuses"])


# -- traced run --------------------------------------------------------------------


def replay(workload: str, seed: int, seconds: float, label: str | None = None):
    """A traced replay child and the same replay untraced.  Returns the extra
    wall time to the end of the replayed operation (per query on `query`),
    the outcomes, the operation log and the spans."""
    spans_path = OUT / f"spans-{os.getpid()}.tmp"
    args = ["replay", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--spans", str(spans_path)]
    args += ["--label", label] if label else []
    timeout = seconds + 2 * OP_TIMEOUT_S
    wall, traced = child(args, "replayed", timeout)
    spans = json.loads(spans_path.read_text())
    spans_path.unlink()
    if workload == "query":              # one process runs both, see inproc.py
        traced_p50 = statistics.median(r["end"] - r["start"] for r in spans
                                  if r["name"] == "cli.classify")
        return traced_p50 - traced["log"][0]["untraced_query_p50_s"], \
            traced["statuses"], traced["log"], spans
    plain, untraced = child(args + ["--untraced"], "replayed", timeout)
    return wall - plain, untraced["statuses"] + traced["statuses"], traced["log"], spans


def run_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from traced replays, plus the tracing overhead."""
    if workload == "export":
        parts, statuses, overhead = [], [], 0.0
        for label in sorted(oracle.EXPORTS):
            extra, got, log, spans = replay(workload, seed, seconds, label)
            overhead += extra
            statuses += got
            parts.append(spans)
    else:
        overhead, statuses, log, spans = replay(workload, seed, seconds)
        parts = [spans]

    merged = []
    for spans in parts:                  # renumber parents across processes
        base = len(merged)
        merged += [dict(r, parent=None if r["parent"] is None else base + r["parent"])
                   for r in spans]
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps(merged))
    metrics = inproc.layer_metrics(merged)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, statuses, log, {"spans_file": spans_file.name, "spans": len(merged)}


# -- reporting -----------------------------------------------------------------------


def provenance(args) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "trigonal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "git_commit": commit, "source_sha256": source.hexdigest()}


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(gated metrics, further metrics); the further ones are reported but not
    listed in BENCHMARK.json, see perfbench/README.md."""
    times = calibrate(run.walls, run.refs)
    completed = sum(s == oracle.OK for s in run.statuses[-len(times):])
    gated = {"setup_s": statistics.median(run.setup),
             "op_p50_s": statistics.median(times),
             "ops_per_s": completed / sum(times),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    more = {"fail_share": sum(s != oracle.OK for s in run.statuses) / len(run.statuses),
            "wall.setup_s": statistics.median(run.setup_wall),
            "wall.op_p50_s": statistics.median(run.walls),
            "wall.ops_per_s": completed / sum(run.walls)}
    if len(times) >= P90_MIN_SAMPLES:
        more["op_p90_s"] = statistics.quantiles(times, n=10)[8]
        more["wall.op_p90_s"] = statistics.quantiles(run.walls, n=10)[8]
    return gated, more


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "export", "query", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "trigonal" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'trigonal'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # one CPU for this process and every child, so that the kernel times and
    # the operations share the CPU's speed (see calibrate.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        oracle.self_test_streams(args.seed)
        record = {"environment": provenance(args)}
        if args.trace:
            metrics, statuses, log, extra = run_traced(args.workload, args.seed,
                                                       args.seconds)
            record.update(extra)
        else:
            if args.workload in ("verify", "certify"):
                run = run_verify(args.seed, args.seconds, args.workload == "certify")
            elif args.workload == "export":
                run = run_export(args.seed, args.seconds)
            else:
                run = run_query(args.seed, args.seconds)
            statuses, log = run.statuses, run.log
            gated, more = end_to_end(run)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in gated.items()}
            record["further_metrics"] = {
                k: {"value": v, "unit": UNITS[k.removeprefix("wall.")]}
                for k, v in more.items()}
            record["samples"] = {"setup_s": len(run.setup), "op_p50_s": len(run.walls),
                                 "op_p90_s": len(run.walls) if "op_p90_s" in more else 0}
            record["kernel_s"] = {"nominal": REF_NOMINAL_S,
                                  "median": statistics.median(run.refs)}
    except (BenchmarkError, oracle.SelfTestError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    result = {"correct": oracle.WRONG not in statuses, "attempted": len(statuses),
              "failed": sum(s != oracle.OK for s in statuses), "metrics": metrics}
    record.update(result=result, operations=log)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for key, m in {**metrics, **record.get("further_metrics", {})}.items():
        print(f"{args.workload:8s} {key:40s} {m['value']:>14.6g} {m['unit']}")
    if "samples" in record:
        print(f"{args.workload:8s} samples {record['samples']}")
    print(f"record: .perfbench-out/{name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
