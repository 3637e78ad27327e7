#!/usr/bin/env python3
"""Tests for tools/bench_diff.py.

Drives the script as a subprocess on the two fixture files in
tests/fixtures/bench_diff/ (four pairs of sweep-analytic result lines)
and checks:

  * medians, quartiles, ratios and pair wins of the report;
  * a pair with an incorrect run, or where the change failed more
    operations, is listed and left out of every statistic;
  * the WORSE flag follows each metric's `better` and `bound`;
  * exit 0 whatever the comparison shows, exit 2 on an unknown workload,
    a malformed line, a missing metric, unpaired files or bad usage.

Run from anywhere: python3 tools/bench_diff_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_diff.py")
FIXTURES = os.path.join(HERE, os.pardir, "tests", "fixtures", "bench_diff")
PARENT = os.path.join(FIXTURES, "parent.jsonl")
CHANGE = os.path.join(FIXTURES, "change.jsonl")


def run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True)


def check(condition, message):
    if not condition:
        print("FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def row(stdout, metric):
    for line in stdout.splitlines():
        if line.split(" ", 1)[0] == metric:
            return line.split()
    check(False, f"no row for {metric} in:\n{stdout}")
    return []


def test_report():
    result = run("sweep-analytic", PARENT, CHANGE)
    check(result.returncode == 0, f"exit {result.returncode}: "
          f"{result.stderr}")
    out = result.stdout
    check("4 pairs, 3 compared\n  pair 3 left out: change incorrect\n"
          in out, "header lines:\n" + out)
    # ops_per_s over pairs 1, 2 and 4: parent 100,110,105; change
    # 210,205,220. Pair 3 (parent 90, incorrect change 80) counts nowhere.
    ops = row(out, "ops_per_s")
    check(ops[2:5] == ["105", "[102.5,", "107.5]"], f"parent {ops}")
    check(ops[5:8] == ["210", "[207.5,", "215]"], f"change {ops}")
    check(ops[8] == "2.000", f"ratio {ops}")
    check(ops[9] == "3/4", f"wins {ops}")
    check(ops[10] == "yes" and ops[11] == "ok", f"flags {ops}")
    # cpu_s (lower is better) grew 34% against a 25% bound.
    cpu = row(out, "cpu_s")
    check(cpu[9] == "0/4", f"cpu wins {cpu}")
    check(cpu[11] == "WORSE", f"cpu flag {cpu}")
    # peak_rss_mb (lower is better) more than halved: a win in every
    # compared pair, not a flag; the left-out pair is no win.
    rss = row(out, "peak_rss_mb")
    check(rss[9] == "3/4" and rss[11] == "ok", f"rss {rss}")
    # setup_s did not move: no gap beyond the parent's spread.
    setup = row(out, "setup_s")
    check(setup[10] == "no" and setup[11] == "ok", f"setup {setup}")


def rewrite(source, target, edit):
    """Copy a fixture file, applying edit(line number, result) to each."""
    with open(source) as handle:
        lines = handle.read().splitlines()
    with open(target, "w") as handle:
        for number, line in enumerate(lines, 1):
            result = json.loads(line)
            edit(number, result)
            handle.write(json.dumps(result) + "\n")


def test_left_out_pairs(tmp):
    def more_failures(number, result):
        if number == 1:
            result["failed"] = 5
    failing = os.path.join(tmp, "failing.jsonl")
    rewrite(CHANGE, failing, more_failures)
    out = run("sweep-analytic", PARENT, failing).stdout
    check("4 pairs, 2 compared\n"
          "  pair 1 left out: change failed 5 operations, parent 0\n"
          "  pair 3 left out: change incorrect\n" in out,
          "failed operations:\n" + out)
    check(row(out, "ops_per_s")[9] == "2/4", "wins over 2 pairs:\n" + out)

    def all_incorrect(number, result):
        result["correct"] = False
    incorrect = os.path.join(tmp, "incorrect.jsonl")
    rewrite(PARENT, incorrect, all_incorrect)
    result = run("sweep-analytic", incorrect, CHANGE)
    check(result.returncode == 0, "no usable pair still exits 0")
    check("4 pairs, 0 compared\n  pair 1 left out: parent incorrect\n"
          in result.stdout and "ops_per_s" not in result.stdout,
          "no usable pair:\n" + result.stdout)


def test_bad_input(tmp):
    check(run("no-such-workload", PARENT, CHANGE).returncode == 2,
          "unknown workload must exit 2")
    check(run("sweep-analytic", PARENT).returncode == 2,
          "missing argument must exit 2")
    check(run("sweep-analytic", PARENT,
              os.path.join(tmp, "absent.jsonl")).returncode == 2,
          "missing file must exit 2")

    garbage = os.path.join(tmp, "garbage.jsonl")
    with open(garbage, "w") as handle:
        handle.write("hybench sweep-analytic seed=1 trace=0\n")
    check(run("sweep-analytic", PARENT, garbage).returncode == 2,
          "a non-JSON line must exit 2")

    missing = os.path.join(tmp, "missing_metric.jsonl")
    rewrite(PARENT, missing,
            lambda number, result: result["metrics"].pop("setup_s"))
    check(run("sweep-analytic", PARENT, missing).returncode == 2,
          "a line without every end-to-end metric must exit 2")

    with open(PARENT) as handle:
        lines = handle.read().splitlines()

    unpaired = os.path.join(tmp, "unpaired.jsonl")
    with open(unpaired, "w") as handle:
        handle.write("\n".join(lines[:3]) + "\n")
    check(run("sweep-analytic", PARENT, unpaired).returncode == 2,
          "files of different lengths must exit 2")

    empty = os.path.join(tmp, "empty.jsonl")
    with open(empty, "w") as handle:
        handle.write("\n")
    check(run("sweep-analytic", empty, empty).returncode == 2,
          "files without result lines must exit 2")


def main():
    test_report()
    with tempfile.TemporaryDirectory() as tmp:
        test_left_out_pairs(tmp)
        test_bad_input(tmp)
    print("bench_diff_test: OK")


if __name__ == "__main__":
    main()
