#!/usr/bin/env python3
"""Compare two sets of hybench runs of one workload, metric by metric.

    python3 tools/bench_diff.py WORKLOAD PARENT CHANGE

PARENT and CHANGE each hold the final JSON line of `hybench/run.py` runs,
one run per line, in pair order: line i of PARENT and line i of CHANGE
were run back to back. A pair is left out of every statistic, and listed,
when either run is not `correct` or the change failed more operations
than the parent. Lines of `--trace 0` runs carry the end-to-end metrics
of the repository's BENCHMARK.json, lines of `--trace 1` runs its
per-layer metrics; both files must hold the same kind. For every such
metric it prints, over the remaining pairs, each side's median and
quartiles, the change/parent ratio of the medians, how many of all pairs
the change won, whether the median gap is larger than the parent's
interquartile range, and WORSE when an end-to-end metric's median is
worse than the parent's by more than its bound (per-layer metrics have
no bound, so they are never flagged). A metric that is 0 in every run of
both files is listed instead of compared.

Exit codes: 0 whatever the comparison shows (this tool reports, it never
gates), 2 on malformed input or usage.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

# The spread is the one hybench reports. Importing run.py only defines its
# constants and functions; writing no bytecode keeps hybench/ untouched.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT))
from hybench.run import quartiles  # noqa: E402


class InputError(Exception):
    """An input file or BENCHMARK.json cannot be used."""


def load_benchmark(path):
    """The workload names, the end-to-end metrics and the per-layer ones,
    each metric as (name, unit, better, bound); per-layer bounds are
    None."""
    try:
        spec = json.loads(Path(path).read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        end_to_end = [(m["name"], m["unit"], m["better"],
                       float(m["bound"])) for m in spec["end_to_end"]]
        per_layer = [(m["name"], m["unit"], m["better"], None)
                     for m in spec["per_layer"]]
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise InputError(f"{path}: not a benchmark declaration ({error})")
    for name, _, better, _ in end_to_end + per_layer:
        if better not in ("higher", "lower"):
            raise InputError(f"{path}: metric {name} has better={better!r}")
    return workloads, end_to_end, per_layer


def metrics_of(path, end_to_end, per_layer):
    """The metrics a result file reports: the end-to-end ones unless its
    first line lacks the first of them, as `--trace 1` lines do.
    load_runs reports whatever else is wrong with the file."""
    try:
        first = next(line for line in Path(path).read_text().splitlines()
                     if line.strip())
        if end_to_end[0][0] not in json.loads(first)["metrics"]:
            return per_layer
    except (OSError, StopIteration, ValueError, KeyError, TypeError):
        pass
    return end_to_end


def load_runs(path, metrics):
    """One {metric: value} dict (plus "correct", "failed") per non-blank
    line."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as error:
        raise InputError(f"{path}: {error}")
    runs = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            result = json.loads(line)
            run = {name: float(result["metrics"][name]["value"])
                   for name, _, _, _ in metrics}
            run["correct"] = bool(result["correct"])
            run["failed"] = int(result["failed"])
        except (ValueError, KeyError, TypeError) as error:
            raise InputError(f"{path}:{number}: not a hybench result line "
                             f"({error!r})")
        runs.append(run)
    if not runs:
        raise InputError(f"{path}: no result lines")
    return runs


def left_out(parent, change):
    """{pair number: reason} for the pairs no statistic may use."""
    reasons = {}
    for number, (p, c) in enumerate(zip(parent, change), 1):
        if not p["correct"]:
            reasons[number] = "parent incorrect"
        elif not c["correct"]:
            reasons[number] = "change incorrect"
        elif c["failed"] > p["failed"]:
            reasons[number] = (f"change failed {c['failed']} operations, "
                               f"parent {p['failed']}")
    return reasons


def compare(metrics, pairs, total):
    """One row per metric over the (parent, change) runs in `pairs`; wins
    are counted over those and reported out of all `total` pairs. Returns
    the rows and the names of the metrics that are 0 in every run."""
    rows = []
    zero = []
    for name, unit, better, bound in metrics:
        a = [p[name] for p, _ in pairs]
        b = [c[name] for _, c in pairs]
        if not any(a) and not any(b):
            zero.append(name)
            continue
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        ratio = b_med / a_med if a_med != 0 else float("inf")
        if bound is None:
            worse = False
        elif better == "higher":
            worse = b_med < a_med * (1.0 - bound)
        else:
            worse = b_med > a_med * (1.0 + bound)
        rows.append({
            "metric": name, "unit": unit, "better": better, "bound": bound,
            "parent": (a_q1, a_med, a_q3), "change": (b_q1, b_med, b_q3),
            "ratio": ratio, "wins": wins, "pairs": total,
            "gap_over_iqr": abs(b_med - a_med) > a_q3 - a_q1,
            "worse": worse,
        })
    return rows, zero


def fmt(value):
    return f"{value:.4g}"


def report(workload, pairs, reasons, rows, zero):
    print(f"bench_diff {workload}: {pairs} pairs, "
          f"{pairs - len(reasons)} compared")
    for number, reason in reasons.items():
        print(f"  pair {number} left out: {reason}")
    if zero:
        print(f"  0 in every run, not compared: {', '.join(zero)}")
    if not rows:
        return
    width = max([16] + [len(row["metric"]) for row in rows])
    header = (f"{'metric':{width}s} {'unit':6s} "
              f"{'parent median [q1, q3]':31s} "
              f"{'change median [q1, q3]':31s} {'ratio':>7s} {'wins':>6s} "
              f"{'gap>IQR':>7s}  flag")
    print(header)
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        parent_text = f"{fmt(p_med)} [{fmt(p_q1)}, {fmt(p_q3)}]"
        change_text = f"{fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}]"
        if row["bound"] is None:
            flag = "-"
        elif row["worse"]:
            flag = (f"WORSE (bound {row['bound']:g}, "
                    f"{row['better']} is better)")
        else:
            flag = "ok"
        print(f"{row['metric']:{width}s} {row['unit']:6s} {parent_text:31s} "
              f"{change_text:31s} {row['ratio']:7.3f} "
              f"{row['wins']:>2d}/{row['pairs']:<3d} "
              f"{'yes' if row['gap_over_iqr'] else 'no':>7s}  {flag}")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("workload")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)  # Usage errors exit 2 here.
    try:
        workloads, end_to_end, per_layer = load_benchmark(BENCHMARK)
        if args.workload not in workloads:
            raise InputError(f"unknown workload {args.workload!r} "
                             f"(expected one of {', '.join(workloads)})")
        metrics = metrics_of(args.parent, end_to_end, per_layer)
        parent = load_runs(args.parent, metrics)
        change = load_runs(args.change, metrics)
        if len(parent) != len(change):
            raise InputError(f"{len(parent)} parent runs but "
                             f"{len(change)} change runs: not in pairs")
    except InputError as error:
        print(f"bench_diff: {error}", file=sys.stderr)
        return 2
    reasons = left_out(parent, change)
    pairs = [pair for number, pair in enumerate(zip(parent, change), 1)
             if number not in reasons]
    rows, zero = compare(metrics, pairs, len(parent)) if pairs else ([], [])
    report(args.workload, len(parent), reasons, rows, zero)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
