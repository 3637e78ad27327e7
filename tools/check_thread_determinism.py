#!/usr/bin/env python3
"""Thread-count determinism of every parallel bench, in one place.

Usage: check_thread_determinism.py BENCH_DIR

BENCH_DIR holds the built bench binaries (build/bench). Each command below
runs at --threads 1 and at --threads 4, each run in a fresh scratch
directory, and every file the two runs write must exist in both and match
byte for byte. Every run must exit 0: dse_campaign exits 1 when an oracle
fails, so this also holds every smoke sweep to a clean oracle record.

Beyond the byte comparison it checks, on the --threads 1 runs:

  * the auto-tier smoke agrees with the cycle-tier smoke on every
    escalated row and every sim-free verdict
    (tools/check_tier_equivalence.py; the default tier is cycle);
  * the search smoke CSV carries the searched_* columns;
  * search_campaign --smoke records 8/8 workloads that dominate or match
    Algorithm 1 and 8/8 that are thread bit-identical in BENCH_PR10.json.

Exits 0 when everything holds, 1 listing every failure otherwise.
"""

import filecmp
import json
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = ("1", "4")

# name -> bench binary and its arguments (--threads is appended).
COMMANDS = {
    "report_all": ["report_all"],
    "fault-smoke": ["fault_campaign", "--smoke"],
    "dse-cycle": ["dse_campaign", "--smoke"],
    "dse-auto": ["dse_campaign", "--smoke", "--tier=auto"],
    "dse-multi-board": ["dse_campaign", "--smoke", "--boards", "2",
                        "--board-topology", "chain"],
    "dse-search": ["dse_campaign", "--smoke", "--search", "anneal",
                   "--search-iterations", "16"],
    "topology-smoke": ["topology_sweep", "--smoke"],
    "search-smoke": ["search_campaign", "--smoke"],
}


def written_files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file())


def run(bench_dir, argv, threads, cwd):
    """Run one command in `cwd`; returns an error string or None."""
    proc = subprocess.run(
        [str(bench_dir / argv[0]), *argv[1:], "--threads", threads],
        cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=600)
    if proc.returncode != 0:
        return (f"exit {proc.returncode} at --threads {threads}: "
                f"{proc.stderr.strip()[-400:]}")
    return None


def compare(name, dirs):
    """Byte-compare every file the runs in `dirs` wrote."""
    failures = []
    listings = [written_files(d) for d in dirs]
    if listings[0] != listings[1]:
        failures.append(f"{name}: the runs wrote different files: "
                        f"{listings[0]} vs {listings[1]}")
    for rel in sorted(set(listings[0]) & set(listings[1])):
        if not filecmp.cmp(dirs[0] / rel, dirs[1] / rel, shallow=False):
            failures.append(f"{name}: {rel} differs between --threads "
                            f"{THREADS[0]} and --threads {THREADS[1]}")
    return failures


def extra_checks(out):
    """The checks beyond byte identity, on the --threads 1 outputs."""
    failures = []
    smoke_csv = "bench_results/dse_smoke.csv"
    tier = subprocess.run(
        [sys.executable, str(Path(__file__).with_name(
            "check_tier_equivalence.py")),
         str(out["dse-auto"][0] / smoke_csv),
         str(out["dse-cycle"][0] / smoke_csv)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if tier.returncode != 0:
        failures.append("tier equivalence (auto vs cycle smoke): " +
                        tier.stdout.strip())
    header = (out["dse-search"][0] / smoke_csv).read_text().split("\n", 1)[0]
    if "searched_solution" not in header.split(","):
        failures.append("dse-search: the smoke CSV has no "
                        "searched_solution column")
    record = json.loads(
        (out["search-smoke"][0] / "BENCH_PR10.json").read_text())
    for key in ("dominates_or_matches", "threads_bit_identical"):
        if record.get(key) != 8:
            failures.append(f"search-smoke: BENCH_PR10.json {key} is "
                            f"{record.get(key)}, expected 8")
    return failures


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench_dir = Path(sys.argv[1]).resolve()
    failures = []
    with tempfile.TemporaryDirectory(prefix="thread_determinism_") as tmp:
        out = {}
        for name, argv in COMMANDS.items():
            dirs = [Path(tmp) / f"{name}.t{t}" for t in THREADS]
            errors = []
            for threads, cwd in zip(THREADS, dirs):
                cwd.mkdir()
                error = run(bench_dir, argv, threads, cwd)
                if error is not None:
                    errors.append(f"{name}: {error}")
            failures += errors or compare(name, dirs)
            out[name] = dirs
            print(f"{name}: {'FAILED' if errors else 'ran'}")
        if not failures:
            failures += extra_checks(out)
    for failure in failures:
        print(f"thread-determinism: {failure}")
    if failures:
        return 1
    print(f"thread-determinism: OK ({len(COMMANDS)} commands at --threads "
          f"{' and '.join(THREADS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
