#!/usr/bin/env python3
"""Summarize a --coverage build's gcov data as build-cov/coverage.json.

Usage: scripts/coverage_json.py [BUILD_DIR]   (default: build-cov)

Runs `gcov --json-format --stdout` on every .gcda under BUILD_DIR (the
test binaries' objects included, so inline functions in headers count)
and merges the results per source line: a line is covered when any
translation unit executed it. Only files under the repository's src/
are reported. The JSON holds line coverage per src/ module and per file,
the overall total, and every project function no test executed
("zero_hit_functions"), the list dead-code deletion works from.
"""
import gzip
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep


def gcov_documents(build_dir, gcda):
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        cwd=build_dir, capture_output=True, check=True).stdout
    if out[:2] == b"\x1f\x8b":  # some gcov versions gzip even on stdout
        out = gzip.decompress(out)
    for line in out.decode().splitlines():
        if line.strip():
            yield json.loads(line)


def percent(covered, total):
    return round(100.0 * covered / total, 2) if total else None


def main():
    build_dir = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "build-cov")
    line_counts = defaultdict(lambda: defaultdict(int))  # file -> line -> hits
    function_counts = defaultdict(int)  # (file, name, line) -> hits
    for dirpath, _, names in os.walk(build_dir):
        for name in names:
            if not name.endswith(".gcda"):
                continue
            for doc in gcov_documents(build_dir, os.path.join(dirpath, name)):
                cwd = doc.get("current_working_directory", build_dir)
                for f in doc["files"]:
                    path = os.path.normpath(os.path.join(cwd, f["file"]))
                    if not path.startswith(SRC):
                        continue
                    rel = os.path.relpath(path, ROOT)
                    for line in f["lines"]:
                        line_counts[rel][line["line_number"]] += line["count"]
                    for fn in f["functions"]:
                        key = (rel, fn["demangled_name"], fn["start_line"])
                        function_counts[key] += fn["execution_count"]

    files = {}
    modules = defaultdict(lambda: [0, 0])
    for rel, lines in sorted(line_counts.items()):
        total, covered = len(lines), sum(1 for c in lines.values() if c > 0)
        files[rel] = {"lines": total, "covered": covered,
                      "percent": percent(covered, total)}
        module = rel.split(os.sep)[1]
        modules[module][0] += total
        modules[module][1] += covered
    total = sum(m[0] for m in modules.values())
    covered = sum(m[1] for m in modules.values())
    report = {
        "total": {"lines": total, "covered": covered,
                  "percent": percent(covered, total)},
        "modules": {name: {"lines": t, "covered": c, "percent": percent(c, t)}
                    for name, (t, c) in sorted(modules.items())},
        "files": files,
        "zero_hit_functions": [
            {"file": f, "function": name, "line": line}
            for (f, name, line), hits in sorted(function_counts.items())
            if hits == 0],
    }
    out_path = os.path.join(build_dir, "coverage.json")
    with open(out_path, "w") as out:
        json.dump(report, out, indent=1)
    print(f"coverage: {covered}/{total} lines ({report['total']['percent']}%)"
          f" over src/, {len(report['zero_hit_functions'])} zero-hit"
          f" functions -> {out_path}")
    for name, m in report["modules"].items():
        print(f"  {name:10s} {m['covered']:6d}/{m['lines']:6d}  {m['percent']}%")


if __name__ == "__main__":
    main()
