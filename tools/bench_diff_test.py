#!/usr/bin/env python3
"""Tests for tools/bench_diff.py.

Drives the script as a subprocess on the fixture files in
tests/fixtures/bench_diff/ (four pairs of sweep-analytic `--trace 0`
result lines, and three pairs of `--trace 1` ones) and checks:

  * medians, quartiles, ratios and pair wins of the report;
  * a pair with an incorrect run, or where the change failed more
    operations, is listed and left out of every statistic;
  * the WORSE flag follows each metric's `better` and `bound`;
  * traced lines are compared on the per-layer metrics, which are never
    flagged, and the metrics that are 0 in every run are only listed;
  * exit 0 whatever the comparison shows, exit 2 on an unknown workload,
    a malformed line, a missing metric, unpaired files, a traced file
    against an untraced one or bad usage.

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
PARENT_TRACE = os.path.join(FIXTURES, "parent_trace.jsonl")
CHANGE_TRACE = os.path.join(FIXTURES, "change_trace.jsonl")


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


def test_trace_report():
    result = run("sweep-analytic", PARENT_TRACE, CHANGE_TRACE)
    check(result.returncode == 0, f"exit {result.returncode}: "
          f"{result.stderr}")
    out = result.stdout
    check(out.startswith("bench_diff sweep-analytic: 3 pairs, 3 compared\n"),
          "header line:\n" + out)
    check("ops_per_s" not in out, "end-to-end metrics in a traced "
          "report:\n" + out)
    # Synthetic profiling busy time: parent 0.77, 0.80, 0.75; change
    # 0.40, 0.42, 0.39.
    busy = row(out, "apps.synthetic_profile.busy_s")
    check(busy[2:5] == ["0.77", "[0.76,", "0.785]"], f"parent {busy}")
    check(busy[5:8] == ["0.4", "[0.395,", "0.41]"], f"change {busy}")
    check(busy[8:12] == ["0.519", "3/3", "yes", "-"], f"busy {busy}")
    # Call counts do not move: ratio 1, no win, no gap.
    calls = row(out, "apps.synthetic_profile.calls")
    check(calls[8:12] == ["1.000", "0/3", "no", "-"], f"calls {calls}")
    # A per-layer metric that doubled has no bound to break.
    put = row(out, "store.put.p50_us")
    check(put[8] == "2.000" and put[11] == "-", f"store.put {put}")
    check("WORSE" not in out, "a per-layer metric flagged:\n" + out)
    # Metrics that are 0 in every run are listed, not compared.
    check("0 in every run, not compared: apps.paper_profile.busy_s, "
          in out, "zero metrics:\n" + out)
    for line in out.splitlines():
        check(not line.startswith("serve.hit.p50_ms"),
              "a zero metric compared:\n" + out)
    # One traced file against an untraced one is not a pairing.
    check(run("sweep-analytic", PARENT, CHANGE_TRACE).returncode == 2,
          "untraced against traced must exit 2")
    check(run("sweep-analytic", PARENT_TRACE, CHANGE).returncode == 2,
          "traced against untraced must exit 2")


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
    test_trace_report()
    with tempfile.TemporaryDirectory() as tmp:
        test_left_out_pairs(tmp)
        test_bad_input(tmp)
    print("bench_diff_test: OK")


if __name__ == "__main__":
    main()
