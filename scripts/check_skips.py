#!/usr/bin/env python3
"""Fail a check.sh stage on any GTEST_SKIP not named in tests/expected_skips.txt.

    scripts/check_skips.py <stage> <build-dir> <gtest-json-dir>

Reads the per-binary gtest JSON reports that GTEST_OUTPUT=json:<dir>/
made during the stage's ctest run, and the ctest label of each binary
from `ctest --show-only=json-v1`. Prints how many cases each label ran
and skipped, then lists every skipped case; exits 1 when a skipped case
is not expected for <stage> (a test that silently skips is a test that
does not check anything), or when no report was written at all.
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent.parent / "tests" / "expected_skips.txt"


def expected_skips(stage):
    """Case names listed for `stage` (lines: '<stage> <Suite.Case>')."""
    names = set()
    for line in EXPECTED.read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if len(fields) == 2 and fields[0] == stage:
            names.add(fields[1])
    return names


def labels_by_test(build_dir):
    shown = subprocess.run(
        ["ctest", "--test-dir", build_dir, "--show-only=json-v1"],
        check=True, capture_output=True, text=True).stdout
    out = {}
    for test in json.loads(shown).get("tests", []):
        labels = []
        for prop in test.get("properties", []):
            if prop.get("name") == "LABELS":
                labels = prop.get("value", [])
        out[test["name"]] = labels or ["(none)"]
    return out


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    stage, build_dir, report_dir = sys.argv[1:]
    allowed = expected_skips(stage)
    labels = labels_by_test(build_dir)
    cases = defaultdict(int)
    skipped_by_label = defaultdict(int)
    skipped = []
    reports = sorted(Path(report_dir).glob("*.json"))
    for report in reports:
        binary = report.stem
        for suite in json.loads(report.read_text()).get("testsuites", []):
            for case in suite.get("testsuite", []):
                name = f"{suite['name']}.{case['name']}"
                for label in labels.get(binary, ["(none)"]):
                    cases[label] += 1
                    if case.get("result") == "SKIPPED":
                        skipped_by_label[label] += 1
                if case.get("result") == "SKIPPED":
                    skipped.append(name)
    print(f"--- {stage}: gtest cases per ctest label ---")
    for label in sorted(cases):
        print(f"  {label:<14} {cases[label]:5d} cases, "
              f"{skipped_by_label[label]} skipped")
    unexpected = [name for name in skipped if name not in allowed]
    for name in skipped:
        tag = "expected" if name in allowed else "UNEXPECTED"
        print(f"  skipped ({tag}): {name}")
    if not reports:
        print(f"no gtest reports in {report_dir}")
        return 1
    if unexpected:
        print(f"{len(unexpected)} unexpected skip(s) in stage {stage}; "
              f"name them in {EXPECTED.name} only if the skip is intended")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
