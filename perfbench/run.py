#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the repository root. NAME is systems-replay, sharded-mix,
server-durable, or all (the three in turn). The first run configures
and builds perfbench/ (and with it the RelC library) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
reuse the build.

With --trace 0 the workload runs untraced and the last line of standard
output is a JSON object with the end-to-end metrics. With --trace 1
the run is split: the first half untraced, the second with a span
around every call the benchmark makes into a layer, and the last line
carries the per-layer metrics instead, plus the traced and untraced
end-to-end figures side by side (trace.*). Every line before it is a
human-readable report; the full report, with its meta stamp, and the
spans are written under <build dir>/perfbench-out/.

The run exits 1 if any output check failed (the result line then says
"correct": false) and 2 on a bad command line or a missing source tree.
README.md beside this file defines every workload and metric.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("systems-replay", "sharded-mix", "server-durable")

# BENCHMARK.json's end_to_end list: every workload reports all of them.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
]

# The named end-to-end metrics of each workload, printed in the report
# (and, for --workload all, in the result line).
NAMED = {
    "systems-replay": [("engine_mops", "Mops/s"), ("codegen_mops", "Mops/s")],
    "sharded-mix": [
        ("sharded_ops_s", "1/s"),
        ("sharded_write_p99_us", "us"),
        ("gen_sharded_ops_s", "1/s"),
        ("gen_sharded_write_p99_us", "us"),
    ],
    "server-durable": [
        ("server_ops_s", "1/s"),
        ("txn_p50_us", "us"),
        ("txn_p99_us", "us"),
        ("read_p50_us", "us"),
        ("read_p99_us", "us"),
    ],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_ratio", "ratio")]

# The sample counts behind each workload's timings, also printed.
SAMPLES = {
    "systems-replay": [("samples.rounds", "count")],
    "sharded-mix": [("samples.intervals", "count"), ("samples.writes", "count")],
    "server-durable": [("samples.txns", "count"), ("samples.reads", "count"),
                       ("samples.transfers", "count")],
}


def _per_layer():
    """BENCHMARK.json's per_layer list, as (name, unit, owning workload);
    None owns a metric every workload reports."""
    out = []
    sysr = "systems-replay"
    for s in ("ipcap", "thttpd", "ztopo", "scheduler", "graph"):
        out += [("systems.%s.mops" % s, "Mops/s", sysr),
                ("systems.%s.allocs_per_op" % s, "count", sysr),
                ("systems.%s.parity_x" % s, "x", sysr)]
    out.append(("systems.ztopo.evict_us", "us", sysr))
    for op in ("add", "remove", "set_state", "charge", "probe"):
        out.append(("systems.scheduler.%s_ns" % op, "ns", sysr))
    for op in ("insert", "remove", "update", "query"):
        out.append(("codegen.sched.%s_ns" % op, "ns", sysr))
    out += [("codegen.sched.mops", "Mops/s", sysr),
            ("codegen.sched.allocs_per_op", "count", sysr),
            ("codegen.sched.parity_x", "x", sysr)]
    for s in ("ipcap", "thttpd", "ztopo", "scheduler", "graph"):
        out.append(("baselines.%s.mops" % s, "Mops/s", sysr))
    mix = "sharded-mix"
    for layer in ("concurrent", "gen_concurrent"):
        out += [("%s.read_p50_ns" % layer, "ns", mix),
                ("%s.read_p99_ns" % layer, "ns", mix),
                ("%s.transfer_p50_ns" % layer, "ns", mix),
                ("%s.transfer_p99_ns" % layer, "ns", mix),
                ("%s.open_close_p99_ns" % layer, "ns", mix)]
        for c in ("read", "transfer", "open_close"):
            out.append(("%s.allocs_per_op.%s" % (layer, c), "count", mix))
        out += [("%s.write_p99_after_snapshot_us" % layer, "us", mix),
                ("%s.write_p99_steady_us" % layer, "us", mix),
                ("%s.snapshot_acquire_us" % layer, "us", mix),
                ("%s.snapshot_scan_ms" % layer, "ms", mix),
                ("%s.abort_ratio" % layer, "ratio", mix)]
    out.append(("concurrent.arena_bytes", "bytes", mix))
    srv = "server-durable"
    out += [("wire.ping_p50_us", "us", srv),
            ("wire.ping_p99_us", "us", srv),
            ("group_commit.fold_mean", "txns", srv),
            ("group_commit.max_group", "txns", srv),
            ("wal.syncs_per_txn", "count", srv),
            ("wal.bytes_per_txn", "bytes", srv),
            ("wal.recovery_s", "s", srv),
            ("server.checkpoint_ms", "ms", srv),
            ("server.txn_during_ckpt_p99_us", "us", srv),
            ("server.arena_bytes", "bytes", srv),
            ("server.abort_ratio", "ratio", srv)]
    for m in ("ops_s", "lat_p50_us", "lat_p99_us"):
        unit = "1/s" if m == "ops_s" else "us"
        out += [("trace.%s_untraced" % m, unit, None),
                ("trace.%s_traced" % m, unit, None)]
    out += [("trace.overhead_pct", "%", None), ("trace.spans", "count", None)]
    return out


PER_LAYER = _per_layer()


class Failure(Exception):
    """A run that cannot produce a result; exits with .code."""

    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def parse_args(argv):
    def seed(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError("seed must be a non-negative integer")
        return int(text)

    def seconds(text):
        if not text.isdigit() or not 1 <= int(text) <= 3600:
            raise argparse.ArgumentTypeError("seconds must be an integer in 1..3600")
        return int(text)

    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one perfbench workload (see perfbench/README.md).")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=seed)
    p.add_argument("--seconds", type=seconds, default=38)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--corrupt-expected", action="store_true",
                   help="self-test: perturb one expected value, so the "
                        "output check must fail")
    return p.parse_args(argv)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build():
    """Configures and builds the driver; returns its path. Build output
    goes to standard error, so standard output stays the report."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Failure("no RelC source tree at %s" % ROOT, 2)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", out, "--target", "perfbench_driver",
                    "-j", jobs])
    return os.path.join(out, "perfbench_driver")


def run_logged(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise Failure("command failed: %s" % " ".join(cmd))


def source_rev():
    """The git revision when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_workload(driver, workload, args):
    out = os.path.join(build_dir(), "perfbench-out",
                       "%s-seed%d-trace%s" % (workload, args.seed, args.trace))
    os.makedirs(out, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", out]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        # A 38-second run takes about 43; the limit keeps a hung run
        # well inside three minutes.
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=args.seconds * 3 + 50)
    except subprocess.TimeoutExpired:
        raise Failure("%s did not finish in time" % workload)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise Failure("%s: driver exited with %d" % (workload, r.returncode))
    res = json.loads(lines[-1])
    res["meta"]["rev"] = source_rev()
    res["spans"] = os.path.join(out, "spans.bin") if args.trace == "1" else None
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(res, f, indent=1)
    return res


def value(res, name):
    m = res["metrics"].get(name)
    return None if m is None else m["value"]


def report(workload, res, args):
    """The human-readable lines."""
    print("# %s: meta %s" % (workload, json.dumps(res["meta"], sort_keys=True)))
    print("# %s: correct=%s attempted=%d failed=%d" % (
        workload, str(res["correct"]).lower(), res["attempted"], res["failed"]))
    for err in res["errors"]:
        print("# %s: CHECK FAILED: %s" % (workload, err))
    names = NAMED[workload] + COMMON + SAMPLES[workload]
    if args.trace == "1":
        names = names + [(n, u) for n, u, w in PER_LAYER if w in (workload, None)]
    for name, unit in names:
        v = value(res, name)
        shown = "not measured" if v is None else "%.6g %s" % (v, unit)
        print("%-20s %-44s %s" % (workload, name, shown))


def result_line(workload, res, args):
    """The contract's result object for one workload."""
    metrics, missing = {}, []
    if args.trace == "0":
        wanted = [(n, u, workload) for n, u in END_TO_END]
    else:
        wanted = PER_LAYER
    for name, unit, owner in wanted:
        v = value(res, name)
        if v is None and owner in (workload, None):
            missing.append(name)
        # A per-layer metric of a layer this workload never calls reads 0.
        metrics[name] = {"value": 0 if v is None else v, "unit": unit}
    if missing:
        raise Failure("%s did not report %s" % (workload, ", ".join(missing)))
    return {"correct": bool(res["correct"]), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv):
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        driver = build()
        if args.workload != "all":
            res = run_workload(driver, args.workload, args)
            report(args.workload, res, args)
            line = result_line(args.workload, res, args)
        else:
            line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for w in WORKLOADS:
                res = run_workload(driver, w, args)
                report(w, res, args)
                line["correct"] = line["correct"] and bool(res["correct"])
                line["attempted"] += res["attempted"]
                line["failed"] += res["failed"]
                for name, unit in NAMED[w] + COMMON:
                    line["metrics"]["%s.%s" % (w, name)] = {
                        "value": value(res, name), "unit": unit}
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return e.code
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
