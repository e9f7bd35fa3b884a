#!/usr/bin/env python3
"""End-to-end benchmark of the PerfDMF pipeline.

    python3 perfbench/run.py --workload ingest|explore --seed N \
        --seconds S --trace 0|1

Builds perfbench_driver from the checkout's sources (Release, into
.bench_build or $CARGO_TARGET_DIR), runs one workload, checks its outputs
and prints every metric by name with its unit. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, taken from a run that traces every other op or block
of ops.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ingest", "explore")
# Set-ups per run, as the driver's per-workload constants (workloads.cpp)
# fix them; setup_s is their median and check() confirms the count.
SETUPS = {"ingest": 25, "explore": 3}
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
EXPLORE_KINDS = ("kmeans", "hierarchical", "correlation", "pca",
                 "descriptive", "imbalance")

# name -> unit; the order is the print order. The latency percentiles
# op_p50_ms and op_p90_ms are printed but not part of the result: both
# loops keep a fixed number of ops in flight, so mean latency is that
# number over ops_per_s, and on explore the percentiles jump between
# modes of its latency distribution from run to run (spreads of 0.23 and
# 0.25 over ten seeds, against 0.13 for ops_per_s).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "rows_per_s": "rows/s",
    "disk_bytes_per_row": "B/row",
    "peak_rss_mb": "MB",
    "ok_op_ratio": "ratio",
}

PER_LAYER = {
    "op.mean_ms": "ms",
    "op.remainder_ms": "ms",
    "io.parse_ms": "ms",
    "io.points_per_s": "points/s",
    "api.save_trial_ms": "ms",
    "api.self_ms": "ms",
    "api.load_trial_ms": "ms",
    "sqldb.statement_ms": "ms",
    "sqldb.statements_per_row": "count",
    "sqldb.rows_examined_per_row_returned": "ratio",
    "sqldb.rows_returned": "count",
    "sqldb.plan_cache_hit_ratio": "ratio",
    "sqldb.plan_cache_lookups": "count",
    "sqldb.lock_wait_ms": "ms",
    "sqldb.wal_bytes_per_row": "B/row",
    "sqldb.mvcc_versions_per_row": "count",
    "sqldb.fsyncs_per_op": "count",
    "sqldb.fsync_ms": "ms",
    "sqldb.close_s": "s",
    "sqldb.reopen_s": "s",
    "sqldb.result_insert_ms": "ms",
    "analysis.compute_ms": "ms",
    **{f"analysis.{kind}_ms": "ms" for kind in EXPLORE_KINDS},
    "explorer.request_ms": "ms",
    "explorer.queue_wait_ms": "ms",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}

# Per-layer metrics read from telemetry counters: "unavailable" (null)
# when the engine was built with telemetry compiled out.
FROM_COUNTERS = {
    "api.self_ms", "api.load_trial_ms", "sqldb.statement_ms",
    "sqldb.statements_per_row", "sqldb.plan_cache_hit_ratio",
    "sqldb.plan_cache_lookups", "sqldb.lock_wait_ms",
    "sqldb.wal_bytes_per_row", "sqldb.mvcc_versions_per_row",
    "sqldb.fsyncs_per_op", "sqldb.fsync_ms", "sqldb.result_insert_ms",
    "analysis.compute_ms", "explorer.request_ms", "explorer.queue_wait_ms",
    "op.remainder_ms",
    *{f"analysis.{kind}_ms" for kind in EXPLORE_KINDS},
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_driver():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"engine sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", "3"])
    with open(out / "build.log", "w") as build_log:
        for step in steps:
            done = subprocess.run(step, stdout=build_log,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                raise RuntimeError(f"build failed: {' '.join(step)} "
                                   f"(see {out / 'build.log'})")
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, ops=0):
    """Run one workload; returns the driver's raw JSON document."""
    work = build_dir() / "work" / f"{workload}-{os.getpid()}"
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / f"{workload}-seed{seed}.json"
    command = [str(driver), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(work)]
    if ops:
        command += ["--ops", str(ops)]
    if trace:
        command += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode != 0:
        raise RuntimeError(f"driver exited with {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        raw["spans"] = load_spans(spans)
    return raw


def load_spans(path):
    """The driver's Chrome trace as span dicts (times in ms)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "id": e["args"]["id"],
             "parent": e["args"]["parent"], "op": e["args"]["op"],
             "start": e["ts"] / 1000.0, "end": (e["ts"] + e["dur"]) / 1000.0}
            for e in events]


def counter(raw, name, field="value", over="counters"):
    """A registry delta over the whole run, or with over="traced_counters"
    over its traced ops only."""
    entry = raw[over].get(name)
    return entry[field] if entry else 0


def histogram_mean_ms(raw, name):
    """Mean of a microsecond histogram over the traced ops, in ms."""
    count = counter(raw, name, "count", "traced_counters")
    return (counter(raw, name, "sum", "traced_counters") / count / 1000.0
            if count else 0.0)


def per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(raw):
    """End-to-end metrics of an untraced run."""
    ms = raw["op_ms"]
    attempted, failed = stats.failure_counts(raw["op_ok"])
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "ops_per_s": (attempted - failed) / raw["wall_s"],
        "op_p50_ms": stats.median(ms),
        "op_p90_ms": stats.percentile(ms, 90),
        "rows_per_s": raw["rows"] / raw["wall_s"],
        "disk_bytes_per_row": per(raw["disk_bytes"], raw["disk_rows"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_op_ratio": stats.ok_ratio(attempted, failed),
    }


def per_layer(raw):
    """Per-layer metrics of a traced run, and the op-time decomposition
    they come from. Times are means over the traced ops, from their spans
    and from the registry deltas over them; counts per row or per op are
    taken over the whole run."""
    workload = raw["workload"]
    ops = len(raw["op_ms"])
    traced = [ms for ms, t in zip(raw["op_ms"], raw["op_traced"]) if t]
    untraced = [ms for ms, t in zip(raw["op_ms"], raw["op_traced"]) if not t]
    rows = raw["rows"]
    spans = raw["spans"]
    own = stats.self_times(spans)
    traced_ops = max(len(traced), 1)

    def span_ms(name):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name) / traced_ops

    def self_ms(layer):
        return sum(own[s["id"]] for s in spans
                   if s["name"].startswith(layer + ".")) / traced_ops

    def per_op_ms(name):
        return counter(raw, name, "sum", "traced_counters") / 1000.0 / traced_ops

    statement_ms = per_op_ms("sqldb.statement.total_micros")
    fsync_ms = per_op_ms("sqldb.wal.fsync_micros")
    hits = counter(raw, "sqldb.plan_cache.hits")
    lookups = hits + counter(raw, "sqldb.plan_cache.misses")
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "io.parse_ms": span_ms("io.load_profile"),
        "api.save_trial_ms": span_ms("api.save_trial"),
        "api.load_trial_ms": histogram_mean_ms(raw, "api.trial.load_micros"),
        "sqldb.statement_ms": statement_ms,
        "sqldb.statements_per_row":
            per(counter(raw, "sqldb.statement.total_micros", "count"), rows),
        "sqldb.rows_examined_per_row_returned":
            per(raw["explain"]["examined"], raw["explain"]["qualifying"]),
        "sqldb.rows_returned": raw["explain"]["qualifying"],
        "sqldb.plan_cache_hit_ratio": per(hits, lookups),
        "sqldb.plan_cache_lookups": lookups,
        "sqldb.lock_wait_ms": per_op_ms("sqldb.lock.wait_micros"),
        "sqldb.wal_bytes_per_row": per(counter(raw, "sqldb.wal.bytes"), rows),
        "sqldb.mvcc_versions_per_row":
            per(counter(raw, "mvcc.versions_installed"), rows),
        "sqldb.fsyncs_per_op":
            counter(raw, "sqldb.wal.fsync_micros", "count") / ops,
        "sqldb.fsync_ms": fsync_ms,
        "sqldb.close_s": raw["close_s"],
        "sqldb.reopen_s": stats.median(raw["reopen_s"]),
        "explorer.request_ms":
            histogram_mean_ms(raw, "explorer.request_micros"),
    })
    if m["io.parse_ms"]:
        m["io.points_per_s"] = (raw["points_parsed"] / ops) / (
            m["io.parse_ms"] / 1000.0)
    m["op.mean_ms"] = sum(traced) / max(len(traced), 1)
    clients = raw["clients"]
    if traced and untraced:
        m["trace.ops_per_s_traced"] = clients * 1000.0 / (sum(traced) / len(traced))
        m["trace.ops_per_s_untraced"] = (clients * 1000.0 /
                                         (sum(untraced) / len(untraced)))
        m["trace.overhead_ops_per_s"] = (m["trace.ops_per_s_untraced"] -
                                         m["trace.ops_per_s_traced"])

    # Disjoint layer times per op; the remainder is what none covers.
    if workload == "ingest":
        m["api.self_ms"] = self_ms("api") - statement_ms - fsync_ms
        layers = {"io": m["io.parse_ms"], "api": m["api.self_ms"],
                  "sqldb.statement": statement_ms, "sqldb.fsync": fsync_ms}
    else:
        mean_ms = m["op.mean_ms"]
        m["explorer.queue_wait_ms"] = mean_ms - m["explorer.request_ms"]
        m["sqldb.result_insert_ms"] = per(raw["result_insert_us"] / 1000.0,
                                          raw["result_inserts"])
        fixed = (m["explorer.queue_wait_ms"] + m["api.load_trial_ms"] +
                 m["sqldb.result_insert_ms"] + fsync_ms)
        m["analysis.compute_ms"] = mean_ms - fixed
        for index, kind in enumerate(raw["kinds"]):
            kind_ms = [ms for ms, k, t in zip(raw["op_ms"], raw["op_kind"],
                                              raw["op_traced"])
                       if k == index and t]
            if kind_ms:
                m[f"analysis.{kind}_ms"] = sum(kind_ms) / len(kind_ms) - fixed
        layers = {"explorer.queue_wait": m["explorer.queue_wait_ms"],
                  "api.load_trial": m["api.load_trial_ms"],
                  "sqldb.result_insert": m["sqldb.result_insert_ms"],
                  "sqldb.fsync": fsync_ms,
                  "analysis.compute": m["analysis.compute_ms"]}
    m["op.remainder_ms"] = m["op.mean_ms"] - sum(layers.values())
    return m, layers


def check(raw, workload):
    """Structural checks of the run on top of the driver's per-op checks."""
    problems = list(raw["errors"])
    if not raw["op_ms"]:
        problems.append("no op completed")
    if len(raw["setup_s"]) != SETUPS[workload]:
        problems.append("set-up ran %d times" % len(raw["setup_s"]))
    if raw["rows"] <= 0 or raw["disk_rows"] <= 0:
        problems.append("no rows stored or read")
    if (workload == "explore" and raw["trace"] and raw["result_inserts"] == 0
            and raw["stamp"]["telemetry_compiled_in"]):
        problems.append("no result insert on the engine trace")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        driver = build_driver()
        raw = run_driver(driver, args.workload, args.seed, args.seconds,
                         args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as error:
        log(f"perfbench: {error}")
        return 1

    attempted, failed = stats.failure_counts(raw["op_ok"])
    problems = check(raw, args.workload)
    telemetry = raw["stamp"]["telemetry_compiled_in"]
    print("stamp: " + json.dumps(raw["stamp"], sort_keys=True))
    print(f"workload: {args.workload} ({raw['clients']} client(s) in flight, "
          f"closed loop), {attempted} ops, {failed} failed, "
          f"failed_op_ratio {failed / attempted:.6f}")
    for problem in problems:
        print(f"check failed: {problem}")

    if args.trace:
        values, layers = per_layer(raw)
        units = PER_LAYER
        total = values["op.mean_ms"]
        parts = " + ".join(f"{name} {ms:.3f}" for name, ms in layers.items())
        if telemetry:
            print(f"op time {total:.3f} ms = {parts} + remainder "
                  f"{values['op.remainder_ms']:.3f} ms")
        else:
            print(f"op time {total:.3f} ms; its decomposition is unavailable "
                  "(telemetry compiled out)")
    else:
        values = end_to_end(raw)
        units = END_TO_END
        print(f"op_p50_ms {values['op_p50_ms']:.6g} ms (not in the result)")
        print(f"op_p90_ms {values['op_p90_ms']:.6g} ms (not in the result; "
              f"{stats.samples_beyond(raw['op_ms'], 90)} of {attempted} "
              "samples beyond it)")
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if args.trace and not telemetry and name in FROM_COUNTERS:
            print(f"{name} unavailable (telemetry compiled out)")
            metrics[name] = {"value": None, "unit": unit}
            continue
        print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
