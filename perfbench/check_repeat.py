#!/usr/bin/env python3
"""Checks that the deterministic work counts of `ingest` repeat exactly.

    python3 perfbench/check_repeat.py [--seed N] [--ops N]

Runs the single-client ingest workload twice with the same seed and a
fixed number of ops, and compares the counts a later change may claim a
gain on: statements, WAL bytes and MVCC versions per stored row, fsyncs
per op, and archive bytes per stored row. Exits 1 when any differs.
"""

import argparse
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

COUNTS = ("sqldb.statements_per_row", "sqldb.wal_bytes_per_row",
          "sqldb.mvcc_versions_per_row", "sqldb.fsyncs_per_op",
          "disk_bytes_per_row")


def counts(driver, seed, ops):
    raw = run.run_driver(driver, "ingest", seed, 0, 1, ops=ops)
    layer, _ = run.per_layer(raw)
    layer["disk_bytes_per_row"] = run.end_to_end(raw)["disk_bytes_per_row"]
    return {name: layer[name] for name in COUNTS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=3)
    args = parser.parse_args()
    driver = run.build_driver()
    first = counts(driver, args.seed, args.ops)
    second = counts(driver, args.seed, args.ops)
    same = True
    for name in COUNTS:
        equal = first[name] == second[name]
        same = same and equal
        print(f"{name:32s} {first[name]!r:>24} {second[name]!r:>24} "
              f"{'same' if equal else 'DIFFERENT'}")
    print("deterministic counts repeat" if same else "counts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
