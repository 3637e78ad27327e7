#!/usr/bin/env python3
"""HybridIC benchmark: four workloads, host-time end-to-end metrics, and a
traced per-layer run.

    python3 hybench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the programs
under test (dse_campaign, hybridic_serve, report_all) and the traced
mirror (hybench_mirror) into .bench_build/ (or $CARGO_TARGET_DIR), and
compiles the speed probe. With --trace 0 it runs the workload untraced in
passes until --seconds have elapsed and reports the end-to-end metrics,
scaled to a reference host speed; with --trace 1 it runs one
untraced pass plus the traced mirror of the same inputs, proves their
outputs equal, and reports the per-layer metrics. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See hybench/README.md for the workloads and metric definitions.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAMS = {
    "dse_campaign": "bench/dse_campaign",
    "hybridic_serve": "examples/hybridic_serve",
    "report_all": "bench/report_all",
    "hybench_mirror": "hybench_mirror",
}
# The load (hybench_mirror replays the same numbers).
THREADS = 4            # Load-generator threads: the sweeps' --threads.
SWEEP_ANALYTIC_DESIGNS = 2000
SWEEP_CYCLE_DESIGNS = 30
# The cycle sweep always runs the default campaign: its per-design host
# cost has a coefficient of variation of ~1.4, so the designs/s of any
# sample small enough for one run swings by tens of percent between
# campaign seeds and would drown every program change. --seed still picks
# the analytic sweep's designs and the serve stream.
SWEEP_CYCLE_CAMPAIGN_SEED = 1
SERVE_REQUESTS = 640              # Measured requests per pass.
SERVE_MIN_PASSES = 2              # Keeps >= 10 samples beyond the p99.
SERVE_REQUESTS_PER_CPU = 32       # Requests before client and server move.
SETUP_PROBES_PER_PASS = 3
ROTATE_PERIOD_S = 0.05
SPEED_PROBE_UNITS = 6             # Units per CPU in one speed-probe round.
# Seconds per speed-probe unit on the reference host: timings are scaled
# to it (README.md, "Host-speed normalisation").
SPEED_REF_S = 0.028
PROGRAM_TIMEOUT_S = 150
MB = float(1 << 20)

WORKLOADS = ("sweep-analytic", "sweep-cycle", "serve-mix", "paper-apps")
UNITS = {
    "ops_per_s": "ops/s", "cpu_s": "s", "request_p50_ms": "ms",
    "request_p99_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance.

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "hybridic"


def build(out_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no HybridIC sources next to {HERE.name}/ "
                         f"(expected {ROOT}/CMakeLists.txt and src/)")
    include = HERE / "hybench.cmake"
    cache = out_dir / "CMakeCache.txt"
    build_log = out_dir.parent / "build.log"
    if cache.is_file() and cmake_cache(out_dir).get(
            "CMAKE_HOME_DIRECTORY") != str(ROOT):
        shutil.rmtree(out_dir)  # A tree configured for another checkout.
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not cache.is_file() or str(include) not in cache.read_text():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DCMAKE_PROJECT_hybridic_INCLUDE={include}"])
    steps.append(["cmake", "--build", str(out_dir), "-j",
                  str(len(os.sched_getaffinity(0))), "--target",
                  *PROGRAMS.keys()])
    with open(build_log, "a") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    bins = {name: out_dir / rel for name, rel in PROGRAMS.items()}
    bins["speed_probe"] = build_speed_probe(out_dir, build_log)
    return bins


def build_speed_probe(out_dir, build_log):
    """Compile speed_probe.cpp with fixed flags, outside the CMake project,
    so that no change to the repository's build can change it. The binary
    is named by the source's digest and reused while that stays."""
    source = HERE / "speed_probe.cpp"
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    probe = out_dir.parent / f"speed_probe-{digest}"
    if not probe.is_file():
        compiler = cmake_cache(out_dir).get("CMAKE_CXX_COMPILER") or "c++"
        with open(build_log, "a") as sink:
            if subprocess.run([compiler, "-O2", "-std=c++17", "-o",
                               str(probe), str(source)], stdout=sink,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("speed probe build failed, see "
                                 f"{build_log}")
    return probe


def cmake_cache(out_dir):
    entries = {}
    for line in (out_dir / "CMakeCache.txt").read_text().splitlines():
        match = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
        if match:
            entries[match.group(1)] = match.group(2)
    return entries


def first_line(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True,
                             cwd=ROOT).stdout
    except OSError:
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def source_digest():
    """SHA-256 over the sources the programs are built from (a checkout
    need not be a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "bench", "examples", "hybench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def filesystem_of(path):
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def provenance(out_dir, args, work_root):
    cache = cmake_cache(out_dir)
    flags = " ".join(v for k, v in sorted(cache.items())
                     if k.startswith("CMAKE_CXX_FLAGS")
                     or k.endswith("LINKER_FLAGS"))
    if cache.get("HYBRIDIC_SANITIZE") or "-fsanitize" in flags:
        raise BenchError("refusing to time a sanitizer build "
                         f"(HYBRIDIC_SANITIZE='{cache.get('HYBRIDIC_SANITIZE')}')")
    build_type = cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    revision = (first_line(["git", "rev-parse", "HEAD"])
                if (ROOT / ".git").exists() else "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "build_type": build_type,
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", "") + " " + cache.get(
            f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                "--version"]),
        "git_revision": revision if re.fullmatch(r"[0-9a-f]{40}", revision)
        else "none (not a git checkout)",
        "source_sha256": source_digest(),
        "seed": args.seed,
        "threads": THREADS,
        "work_dir": str(work_root),
        "work_dir_fs": filesystem_of(work_root),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Running the programs under test.

def rotate_cpus(pid, stop):
    """Until `stop` is set, move every thread of `pid` to the next CPU
    every ROTATE_PERIOD_S, so a job that runs on one thread sees every
    CPU's speed in one pass, not the speed of the CPU it happened to land
    on (on the host this was tuned on, one virtual CPU ran report_all in
    1.0 s of CPU time and another in 1.6 s). Thread j, in thread-id order,
    goes to CPU (j + tick) mod nproc: the main thread, which only waits
    for the batch, shares a CPU with the last of nproc workers, and no two
    workers ever share one."""
    cpus = sorted(os.sched_getaffinity(0))
    tick = 0
    while not stop.wait(ROTATE_PERIOD_S):
        tick += 1
        try:
            tasks = sorted(int(t.name)
                           for t in Path(f"/proc/{pid}/task").iterdir())
            for j, task in enumerate(tasks):
                os.sched_setaffinity(task, {cpus[(j + tick) % len(cpus)]})
        except OSError:
            pass  # A thread (or the program) has just exited.


def run_program(argv, cwd, rotate=False):
    """Run to completion; returns (exit code, wall s, cpu s, peak RSS MB,
    stdout). Per-child rusage via wait4, so the numbers are the program's
    own, not the harness's. `rotate` moves the program over the CPUs
    (rotate_cpus)."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path = cwd / "stdout.txt"
    with open(out_path, "w") as out, open(cwd / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(PROGRAM_TIMEOUT_S, proc.kill)
        watchdog.start()
        stop = threading.Event()
        rotator = threading.Thread(target=rotate_cpus, args=(proc.pid, stop))
        if rotate:
            rotator.start()
        # Wait without reaping, so the pid stays the program's until the
        # rotator has stopped touching it.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        stop.set()
        if rotate:
            rotator.join()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / MB, out_path.read_text())


def host_speed(probe):
    """Seconds per speed-probe unit on this host right now: one copy of the
    probe pinned to each CPU, all at once, each reporting the median of its
    units (so a unit the scheduler interrupted does not count), averaged
    over the CPUs. Every workload spreads its work over all of them: the
    sweeps with one thread per CPU, the others by moving over the CPUs."""
    copies = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            copies.append(subprocess.Popen(
                [str(probe), str(SPEED_PROBE_UNITS)], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True))
            os.sched_setaffinity(copies[-1].pid, {cpu})
    finally:
        outputs = [proc.communicate()[0] for proc in copies]
    if any(proc.returncode != 0 for proc in copies):
        raise BenchError("speed probe failed: exit "
                         f"{[proc.returncode for proc in copies]}")
    return statistics.mean(statistics.median(float(v) for v in out.split())
                           for out in outputs)


def sha256_file(*paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class Checks:
    """Named output checks; every failure is kept for the report."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok


def load_pins():
    return json.loads((HERE / "pins.json").read_text())


# ---- Sweeps ---------------------------------------------------------------

def sweep_argv(bins, tier, count, seed, pass_dir, store):
    argv = [bins["dse_campaign"], "--tier", tier, "--threads", THREADS,
            "--count", count, "--seed", seed]
    if store:
        argv += ["--store", pass_dir / "store",
                 "--journal", pass_dir / "journal.log"]
    return argv


def check_sweep_csv(path, count, checks):
    """One row per design; no error, quarantine, oracle failure or band
    violation. Returns the number of failed rows."""
    if not checks.expect(path.is_file(), f"{path.name} missing"):
        return count
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    checks.expect(len(body) == count, f"{len(body)} rows, expected {count}")
    first = header.index("measured_kernel_s") + 1
    oracles = range(first, header.index("tier"))
    col = {name: header.index(name)
           for name in ("error", "quarantined", "band_violation")}
    failed = 0
    for row in body:
        bad = (row[col["error"]] != "" or row[col["quarantined"]] != "0"
               or row[col["band_violation"]] == "1"
               or any(row[i] == "0" for i in oracles))
        failed += bad
    checks.expect(failed == 0, f"{failed} failed rows in {path.name}")
    return failed + max(0, count - len(body))


def sweep_pass(bins, tier, count, seed, pass_dir, checks, store):
    # The cycle sweep ends on a few long designs, one thread each, so it is
    # rotated over the CPUs like report_all; the analytic sweep's 2000
    # short jobs keep all four CPUs busy to the end.
    code, wall, cpu, rss, out = run_program(
        sweep_argv(bins, tier, count, seed, pass_dir, store), pass_dir,
        rotate=tier == "cycle")
    checks.expect(code == 0, f"dse_campaign exit {code}")
    checks.expect("band_violations=0" in out, "band violations reported")
    if store:
        match = re.search(r"^store puts=\d+ hits=\d+ misses=\d+ corrupt=(\d+)",
                          out, re.M)
        checks.expect(match is not None and match.group(1) == "0",
                      "store reported corrupt entries")
    csv_path = pass_dir / "bench_results" / "dse_campaign.csv"
    failed = check_sweep_csv(csv_path, count, checks)
    digest = sha256_file(csv_path) if csv_path.is_file() else ""
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "ops": count,
            "failed": failed, "digest": digest, "stdout": out}


def sweep_setup(bins, tier, seed, pass_dir, checks):
    """CPU time of process start and the evaluator's θ probe: the same
    campaign with zero designs."""
    code, _, cpu, _, _ = run_program(
        sweep_argv(bins, tier, 0, seed, pass_dir, False), pass_dir)
    checks.expect(code == 0, f"dse_campaign --count 0 exit {code}")
    return cpu


# ---- Serve ----------------------------------------------------------------

def serve_requests(bins, seed, work):
    path = work / "requests.tsv"
    subprocess.run([str(bins["hybench_mirror"]), "--emit-requests", str(path),
                    "--seed", str(seed)], check=True)
    return [tuple(line.split("\t", 1))
            for line in path.read_text().splitlines()]


def proc_cpu_s(pid):
    """On-CPU time of every thread of `pid`, in ns resolution."""
    return sum(int((task / "schedstat").read_text().split()[0])
               for task in Path(f"/proc/{pid}/task").iterdir()) * 1e-9


def host_cpu_ticks():
    """(steal, wanted, total) ticks of all CPUs since boot, from /proc/stat.
    `wanted` is the time the CPUs ran or wanted to run: user, nice, system,
    irq, softirq and steal, the time the hypervisor ran other guests on
    them instead."""
    user, nice, system, idle, iowait, irq, softirq, steal = (
        int(t) for t in
        Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9])
    wanted = user + nice + system + irq + softirq + steal
    return steal, wanted, wanted + idle + iowait


def proc_peak_rss_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / MB
    return 0.0


def serve_pass(bins, requests, pass_dir, checks, pass_index):
    """One hybridic_serve process, one connection, closed loop: warm the
    pool (set-up), then the measured stream, then {"op":"stats"}.

    Client and server share one CPU at a time: in a closed loop only one
    of them runs at a time, and a reply then never waits for another
    (idle) virtual CPU to wake up, which made the latency of a 1 ms
    request swing by a fifth from run to run. Every
    SERVE_REQUESTS_PER_CPU requests both move to the next CPU, so a pass
    sees every CPU's speed, as the four-thread sweeps do; on the host this
    was tuned on, one virtual CPU ran the same pass in 2.0 s of CPU time
    and another in 3.4 s."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    order = sorted(cpus)
    start = time.perf_counter()
    with open(pass_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen([str(bins["hybridic_serve"])], cwd=pass_dir,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, bufsize=0)
        try:
            replies, latencies, kinds = [], [], []

            def ask(line):
                proc.stdin.write(line.encode() + b"\n")
                reply = proc.stdout.readline()
                if not reply:
                    raise BenchError("hybridic_serve closed its output")
                return reply

            failed = 0
            for index, (kind, line) in enumerate(requests):
                if index % SERVE_REQUESTS_PER_CPU == 0:
                    target = order[(pass_index
                                    + index // SERVE_REQUESTS_PER_CPU)
                                   % len(order)]
                    os.sched_setaffinity(0, {target})
                    os.sched_setaffinity(proc.pid, {target})
                if kind != "warm" and not kinds:
                    # Set-up is the server's CPU time so far: process
                    # start, the θ probe and the warm-up pool.
                    cpu0 = proc_cpu_s(proc.pid)
                    measure_start = time.perf_counter()
                sent = time.perf_counter_ns()
                raw = ask(line)
                if kind != "warm":
                    latencies.append((time.perf_counter_ns() - sent) * 1e-6)
                    kinds.append(kind)
                reply = json.loads(raw)
                ok = reply.get("ok") is True and reply.get("id") == \
                    json.loads(line)["id"]
                failed += not ok
                replies.append(raw)
            wall = time.perf_counter() - measure_start
            cpu = proc_cpu_s(proc.pid) - cpu0
            stats = json.loads(ask('{"id":"stats","op":"stats"}'))
            rss = proc_peak_rss_mb(proc.pid)
            proc.stdin.close()
            code = proc.wait(timeout=30)
        finally:
            os.sched_setaffinity(0, cpus)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    checks.expect(failed == 0, f"{failed} replies not ok")
    checks.expect(stats.get("served") == len(requests) + 1
                  and stats.get("failed") == 0,
                  f"stats reply {stats} after {len(requests) + 1} requests")
    checks.expect(code == 0, f"hybridic_serve exit {code}")
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "ops": len(latencies), "failed": failed, "setup_s": cpu0,
            "setup_wall_s": measure_start - start,
            "latencies_ms": latencies, "kinds": kinds,
            "replies": replies,
            "digest": hashlib.sha256(b"".join(replies)).hexdigest()}


# ---- Paper apps -----------------------------------------------------------

PAPER_APPS = ("canny", "jpeg", "klt", "fluid")


def paper_outputs(pass_dir):
    results = pass_dir / "bench_results"
    return [results / "REPORT.md"] + [results / f"{app}_design.json"
                                      for app in PAPER_APPS]


def paper_pass(bins, pass_dir, checks):
    code, wall, cpu, rss, out = run_program(
        [bins["report_all"], "--threads", 1], pass_dir, rotate=True)
    checks.expect(code == 0, f"report_all exit {code}")
    verified = "all four applications verified" in out
    checks.expect(verified, "report_all did not self-verify every app")
    outputs = paper_outputs(pass_dir)
    present = all(p.is_file() for p in outputs)
    checks.expect(present, "report_all outputs missing")
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "ops": len(PAPER_APPS),
            "failed": 0 if code == 0 and verified else len(PAPER_APPS),
            "digest": sha256_file(*outputs) if present else "",
            "stdout": out}


def paper_setup(bins, pass_dir, checks):
    """report_all has no set-up phase of its own: the CPU time of process
    start, as an invocation that only parses its flags (--help is a usage
    exit)."""
    code, _, cpu, _, _ = run_program([bins["report_all"], "--help"],
                                     pass_dir)
    checks.expect(code in (0, 2), f"report_all --help exit {code}")
    return cpu


def model_error_table(report):
    """Table III of REPORT.md: simulated speed-ups beside the paper's."""
    lines, in_table = [], False
    for line in report.read_text().splitlines():
        if line.startswith("## Table III"):
            in_table = True
        elif line.startswith("## "):
            in_table = False
        elif in_table and line.startswith("| ") and "x (" in line:
            cells = [c.strip() for c in line.strip("|").split("|")]
            pairs = [re.match(r"([\d.]+)x \(([\d.]+)x\)", c).groups()
                     for c in cells[1:]]
            errors = [f"{m}x vs {p}x ({(float(m) / float(p) - 1) * 100:+.0f}%)"
                      for m, p in pairs]
            lines.append(f"  {cells[0]:6s} " + " | ".join(errors))
    return lines


# ---------------------------------------------------------------------------
# Untraced runs: passes of fixed work until the time budget is spent.

def sweep_tier(workload):
    return "analytic" if workload == "sweep-analytic" else "cycle"


def sweep_count(workload):
    return (SWEEP_ANALYTIC_DESIGNS if workload == "sweep-analytic"
            else SWEEP_CYCLE_DESIGNS)


def campaign_seed(workload, seed):
    return SWEEP_CYCLE_CAMPAIGN_SEED if workload == "sweep-cycle" else seed


def one_pass(workload, bins, seed, pass_dir, checks, requests=None,
             traced=False, pass_index=0):
    seed = campaign_seed(workload, seed)
    if workload.startswith("sweep-"):
        # Only the traced run gives the analytic sweep its store and
        # journal, see README.md "Deliberate limits, and why".
        return sweep_pass(bins, sweep_tier(workload), sweep_count(workload),
                          seed, pass_dir, checks,
                          traced and workload == "sweep-analytic")
    if workload == "serve-mix":
        return serve_pass(bins, requests, pass_dir, checks, pass_index)
    return paper_pass(bins, pass_dir, checks)


def one_setup(workload, bins, seed, pass_dir, checks):
    seed = campaign_seed(workload, seed)
    if workload.startswith("sweep-"):
        return sweep_setup(bins, sweep_tier(workload), seed, pass_dir, checks)
    return paper_setup(bins, pass_dir, checks)


def pinned_digest(workload, seed):
    seed = campaign_seed(workload, seed)
    pin = load_pins().get(workload, {})
    sizes = {"sweep-analytic": SWEEP_ANALYTIC_DESIGNS,
             "sweep-cycle": SWEEP_CYCLE_DESIGNS,
             "serve-mix": SERVE_REQUESTS, "paper-apps": 0}[workload]
    if workload != "paper-apps" and (pin.get("seed") != seed
                                     or pin.get("size") != sizes):
        return None
    return pin.get("sha256")


def check_digests(workload, seed, passes, checks):
    """Every pass gives the same output bytes, equal to the pin when the
    seed has one. Returns how the digest was checked."""
    digests = {p["digest"] for p in passes}
    checks.expect(len(digests) == 1, "passes disagree on their outputs")
    pin = pinned_digest(workload, seed)
    if pin is None:
        return "no pin for this seed: oracle and ok checks only"
    matches = checks.expect(digests == {pin},
                            f"output digest != pinned {pin[:16]}")
    return "pinned, matches" if matches else "pinned, MISMATCH"


def run_untraced(workload, bins, seed, seconds, work, checks):
    """Passes of fixed work until `seconds` have elapsed, with a round of
    the speed probe before the first pass and after every pass. Returns the
    passes, each with its set-up samples, and the probe rounds."""
    requests = (serve_requests(bins, seed, work)
                if workload == "serve-mix" else None)
    passes = []
    min_passes = SERVE_MIN_PASSES if workload == "serve-mix" else 1
    speeds = [host_speed(bins["speed_probe"])]
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        pass_dir = work / f"pass{len(passes)}"
        setups = []
        if workload != "serve-mix":
            # Set-up probes before every pass, each in a fresh directory,
            # so they sample the same stretch of the run as the passes;
            # the first also pages the binary in.
            for _ in range(SETUP_PROBES_PER_PASS):
                setups.append(one_setup(
                    workload, bins, seed,
                    work / f"setup{len(passes)}-{len(setups)}", checks))
        steal0, wanted0, _ = host_cpu_ticks()
        result = one_pass(workload, bins, seed, pass_dir, checks, requests,
                          pass_index=len(passes))
        steal1, wanted1, _ = host_cpu_ticks()
        result["stolen"] = (steal1 - steal0) / max(1, wanted1 - wanted0)
        if workload == "serve-mix":
            setups.append(result["setup_s"])
        result["setups"] = setups
        if workload == "paper-apps" and not passes:
            result["model_error"] = model_error_table(
                paper_outputs(pass_dir)[0])
        result.pop("replies", None)
        passes.append(result)
        shutil.rmtree(pass_dir, ignore_errors=True)
        speeds.append(host_speed(bins["speed_probe"]))
    return passes, speeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, passes, speeds):
    """The end-to-end metrics, scaled to the reference host speed (README.md,
    "Host-speed normalisation"). A pass's scale is SPEED_REF_S over the
    mean of the two probe rounds around it; every time the pass measured is
    multiplied, and every rate divided, by it. Wall-clock figures also
    leave out the share of the pass the hypervisor stole from the CPUs
    (CPU times never contain it). The report shows the raw figures too."""
    scales = [2 * SPEED_REF_S / (before + after)
              for before, after in zip(speeds, speeds[1:])]
    # Per pass, the factor for wall-clock times: the scale times the share
    # of the pass the hypervisor left to this machine's CPUs.
    walls = [k * (1 - p["stolen"]) for p, k in zip(passes, scales)]
    raw = {
        "ops_per_s": [p["ops"] / p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "setup_s": [v for p in passes for v in p["setups"]],
    }
    scaled = {
        "ops_per_s": [v / w for v, w in zip(raw["ops_per_s"], walls)],
        "cpu_s": [v * k for v, k in zip(raw["cpu_s"], scales)],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": [v * k for p, k in zip(passes, scales)
                    for v in p["setups"]],
    }
    if workload == "serve-mix":
        latencies = [x for p in passes for x in p["latencies_ms"]]
        scaled_latencies = [x * w for p, w in zip(passes, walls)
                            for x in p["latencies_ms"]]
        unit_of_latency = "request"
    else:
        latencies = [p["wall_s"] * 1e3 for p in passes]
        scaled_latencies = [x * w for x, w in zip(latencies, walls)]
        unit_of_latency = "invocation"
    rows = {name: quartiles(values) for name, values in scaled.items()}
    metrics = {name: rows[name][1] for name in rows}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines = [f"host speed: {statistics.median(speeds) * 1e3:.3f} ms per "
             f"probe unit (median of {len(speeds)} rounds; reference "
             f"{SPEED_REF_S * 1e3:.3f} ms); each round: "
             + " ".join(f"{v * 1e3:.3f}" for v in speeds),
             "stolen share of each pass: "
             + " ".join(f"{p['stolen']:.4f}" for p in passes),
             f"{len(passes)} measured passes, {len(raw['setup_s'])} set-ups; "
             "scaled median [q1, q3] over passes, then the raw median:"]
    for name in scaled:
        q1, med, q3 = rows[name]
        lines.append(f"  {name:15s} {med:12.4f} {UNITS[name]:6s} "
                     f"[{q1:.4f}, {q3:.4f}]  raw "
                     f"{statistics.median(raw[name]):.4f}  each raw: "
                     + " ".join(f"{v:.4g}" for v in raw[name]))
    for name, q in (("request_p50_ms", 50), ("request_p99_ms", 99)):
        metrics[name], beyond = percentile(scaled_latencies, q)
        lines.append(f"  {name:15s} {metrics[name]:12.4f} ms     raw "
                     f"{percentile(latencies, q)[0]:.4f}  over "
                     f"{len(latencies)} {unit_of_latency} samples"
                     + (f", {beyond} beyond p99" if q == 99 else ""))
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"  {'failed_ratio':15s} {ratio:12.4f} 1      "
                 f"({failed} of {attempted} operations)")
    return metrics, attempted, failed, lines


# ---------------------------------------------------------------------------
# The traced run.

PER_LAYER = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "per_layer"] if (HERE.parent / "BENCHMARK.json").is_file() else []


def run_mirror(bins, workload, seed, out):
    code, _, _, _, _ = run_program(
        [bins["hybench_mirror"], "--workload", workload, "--seed", seed,
         "--out", out], out)
    if code != 0:
        raise BenchError(f"hybench_mirror exit {code}: "
                         + (out / "stderr.txt").read_text()[-2000:])
    return json.loads((out / "layers.json").read_text())


def work_counters(text):
    """{"line.field": value} of the counter lines the programs print:
    dse_campaign's profile_cache, estimate_l2 and store lines and
    report_all's [batch] line. Timings (decimals) are left out."""
    counters = {}
    for line in text.splitlines():
        head = line.split(" ", 1)[0]
        if head in ("profile_cache", "estimate_l2", "store", "[batch]"):
            for key, value in re.findall(r"(\S+)=([\d/]+)(?=\s|$)", line):
                counters[f"{head}.{key}"] = value
    if counters.get("profile_cache.evictions", "0") != "0":
        # Which entries the LRU keeps depends on how the threads interleave.
        counters.pop("profile_cache.resident_bytes")
    return counters


def mirror_fidelity(workload, untraced, pass_dir, mirror_dir, checks):
    """The traced mirror's outputs, and the work counters behind them,
    equal the untraced program's. hybridic_serve prints no work counters;
    its replies are compared field by field."""
    if workload != "serve-mix":
        program = work_counters(untraced["stdout"])
        mirrored = work_counters((mirror_dir / "counters.txt").read_text())
        checks.expect(bool(program) and mirrored == program,
                      f"mirror work counters {mirrored} != program's "
                      f"{program}")
    if workload.startswith("sweep-"):
        checks.expect(sha256_file(mirror_dir / "mirror.csv")
                      == untraced["digest"], "mirror CSV != program CSV")
    elif workload == "serve-mix":
        mirrored = [json.loads(line) for line in
                    (mirror_dir / "replies.jsonl").read_text().splitlines()]
        served = [json.loads(raw) for raw in untraced["replies"]]
        mismatched = sum(a != b for a, b in zip(mirrored, served))
        checks.expect(len(mirrored) == len(served) and mismatched == 0,
                      f"{mismatched} replies differ from the mirror")
    else:
        results = pass_dir / "bench_results"
        report = (results / "REPORT.md").read_text()
        for app in PAPER_APPS:
            checks.expect((mirror_dir / f"{app}_design.json").read_bytes()
                          == (results / f"{app}_design.json").read_bytes(),
                          f"{app} design JSON differs from the mirror")
        rows = (mirror_dir / "tables.md").read_text().splitlines()
        checks.expect(all(row in report for row in rows),
                      "Table III/IV rows differ from the mirror")


def layer_metrics(workload, layers, untraced, stdout):
    spans = layers["spans"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("apps.synthetic_profile", "core.design_interconnect",
                 "sys.run_designed", "tiers.estimate", "search.anneal",
                 "store.put"):
        m[f"{name}.calls"] = span(name, "calls")
    for name in ("apps.synthetic_profile", "apps.paper_profile",
                 "core.design_interconnect", "sys.make_design_input",
                 "sys.run_designed", "sys.run_baseline",
                 "sys.run_crossbar_system", "sys.run_frames",
                 "tiers.estimate", "search.anneal", "dse.oracle_determinism",
                 "dse.oracles_other"):
        m[f"{name}.busy_s"] = span(name, "self_s")
    m["apps.synthetic_profile.p50_ms"] = span("apps.synthetic_profile",
                                              "p50_s") * 1e3
    m["sys.run_designed.p50_ms"] = span("sys.run_designed", "p50_s") * 1e3
    m["search.anneal.p50_ms"] = span("search.anneal", "p50_s") * 1e3
    for name in ("core.design_interconnect", "tiers.estimate",
                 "tiers.congruence_signature", "tiers.analytic_estimate",
                 "dse.encode_outcome", "store.put", "store.journal_append"):
        m[f"{name}.p50_us"] = span(name, "p50_s") * 1e6
    for app in PAPER_APPS:
        m[f"apps.paper_profile.{app}_ms"] = \
            layers["paper_profile_s"].get(app, 0) * 1e3
    hits = layers.get("profile_cache_hits", 0)
    m["apps.profile_cache.hit_ratio"] = ratio(
        hits, hits + layers.get("profile_cache_misses", 0))
    m["apps.profile_cache.resident_mb"] = \
        layers.get("profile_cache_resident_bytes", 0) / MB
    events = layers.get("trace_events", 0)
    m["sys.trace_events"] = events
    run_busy = sum(span(n, "self_s") for n in (
        "sys.run_software", "sys.run_baseline", "sys.run_designed",
        "sys.run_crossbar_system"))
    m["sys.ns_per_trace_event"] = ratio(run_busy * 1e9, events)
    m["sys.batch_utilization"] = ratio(
        layers.get("batch_job_s", 0),
        layers.get("batch_threads", 0) * layers.get("batch_wall_s", 0))
    hits = layers.get("congruence_hits", 0)
    m["tiers.congruence_cache.hit_ratio"] = ratio(
        hits, hits + layers.get("congruence_misses", 0))
    proposed = layers.get("search_proposed", 0)
    m["search.accept_ratio"] = ratio(layers.get("search_accepted", 0),
                                     proposed)
    m["search.illegal_ratio"] = ratio(
        layers.get("search_rejected_illegal", 0), proposed)
    m["search.memo_hit_ratio"] = ratio(layers.get("search_cache_hits", 0),
                                       proposed)
    corrupt = re.search(r"^store puts=\d+ hits=\d+ misses=\d+ corrupt=(\d+)",
                        stdout, re.M)
    m["store.corrupt"] = (int(corrupt.group(1)) if corrupt else 0) + \
        layers.get("store_corrupt", 0)
    for kind in ("hit", "miss", "search"):
        samples = [x for x, k in zip(untraced.get("latencies_ms", []),
                                     untraced.get("kinds", [])) if k == kind]
        m[f"serve.{kind}.p50_ms"] = percentile(samples, 50)[0] if samples \
            else 0.0
        if kind == "search":
            m["serve.search.p90_ms"] = percentile(samples, 90)[0] \
                if samples else 0.0
    overheads = []
    if workload == "serve-mix":
        compute = layers["requests"]
        ids = [f"m{i}" for i in range(len(untraced["latencies_ms"]))]
        overheads = [(lat - compute[i] * 1e3) * 1e3
                     for lat, i in zip(untraced["latencies_ms"], ids)]
    m["serve.overhead_us"] = statistics.median(overheads) if overheads \
        else 0.0
    m["trace.overhead_ratio"] = ratio(layers["wall_s"], untraced["wall_s"])
    m["trace.coverage"] = layers["coverage"]
    return m


def run_traced(workload, bins, seed, work, checks):
    requests = (serve_requests(bins, seed, work)
                if workload == "serve-mix" else None)
    pass_dir = work / "untraced"
    untraced = one_pass(workload, bins, seed, pass_dir, checks, requests,
                        traced=True)
    if workload == "serve-mix":
        # Compare like with like: the mirror replays warm-up + stream.
        untraced["wall_s"] += untraced["setup_wall_s"]
    digest_status = check_digests(workload, seed, [untraced], checks)
    mirror_dir = work / "mirror"
    layers = run_mirror(bins, workload, campaign_seed(workload, seed),
                        mirror_dir)
    mirror_fidelity(workload, untraced, pass_dir, mirror_dir, checks)
    stdout = untraced.get("stdout", "")
    metrics = layer_metrics(workload, layers, untraced, stdout)
    kept = work.parent / f"trace-{workload}-{seed}"
    shutil.rmtree(kept, ignore_errors=True)
    kept.mkdir(parents=True)
    shutil.copy(mirror_dir / "trace.json", kept / "trace.json")
    shutil.copy(mirror_dir / "layers.json", kept / "layers.json")
    lines = [f"output digest {untraced['digest']} ({digest_status})",
             f"traced mirror: {layers['wall_s']:.3f} s vs untraced "
             f"{untraced['wall_s']:.3f} s; Chrome trace and layer summary "
             f"in {kept}"]
    for name, value in metrics.items():
        count = sample_count(name, layers, untraced)
        lines.append(f"  {name:36s} {value:14.6g}"
                     + (f"  ({count} samples)" if count is not None else ""))
    return metrics, untraced["ops"], untraced["failed"], lines


def sample_count(metric, layers, untraced):
    """Sample count behind a percentile metric, or None."""
    match = re.match(r"(.+)\.p\d+_(?:ms|us)$", metric)
    if not match:
        return None
    layer = match.group(1)
    if layer.startswith("serve."):
        return untraced.get("kinds", []).count(layer.split(".")[1])
    return layers["spans"].get(layer, {}).get("calls", 0)


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        out_dir = build_dir()
        # Compiler and program temporaries stay inside the checkout too.
        tmp = out_dir.parent / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        bins = build(out_dir)
        work = out_dir.parent / "runs" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        info = provenance(out_dir, args, work)
        checks = Checks()
        steal0, _, total0 = host_cpu_ticks()
        try:
            if args.trace:
                metrics, attempted, failed, lines = run_traced(
                    args.workload, bins, args.seed, work, checks)
            else:
                passes, speeds = run_untraced(
                    args.workload, bins, args.seed, args.seconds, work, checks)
                info["speed_probe"] = bins["speed_probe"].name
                info["host_speed_ms"] = round(
                    statistics.median(speeds) * 1e3, 3)
                digest_status = check_digests(args.workload, args.seed,
                                              passes, checks)
                metrics, attempted, failed, lines = end_to_end(
                    args.workload, passes, speeds)
                lines.append(f"output digest {passes[0]['digest']} "
                             f"({digest_status})")
                if args.workload == "paper-apps":
                    lines.append("Table III speed-ups, simulated vs paper "
                                 "(model error): vs SW app | vs SW kernels "
                                 "| vs baseline app | vs baseline kernels")
                    lines += passes[0]["model_error"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        # CPU time the hypervisor gave to other guests: raw wall-clock
        # figures slow down by about this share (end_to_end takes each
        # pass's share out), CPU times do not.
        steal1, _, total1 = host_cpu_ticks()
        info["host_steal_share"] = round(
            (steal1 - steal0) / max(1, total1 - total0), 4)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log(f"hybench: {error}")
        return 2

    print(f"hybench {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    print("provenance: " + json.dumps(info, sort_keys=True))
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    if checks.failures and failed == 0:
        failed = attempted
    wanted = ([m["name"] for m in PER_LAYER] if args.trace else list(UNITS))
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    units.update(UNITS)
    result = {
        "correct": not checks.failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics.get(name, 0.0),
                           "unit": units.get(name, "1")}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
