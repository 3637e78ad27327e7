#!/usr/bin/env python3
"""Round-trip smoke for the hybridic_serve JSON-lines front end.

Starts the server, walks requests through every branch of the error
taxonomy — served, usage, config (a zero kernel count and terabyte
edges), timeout (quarantined) — sends hostile lines that must each be a
usage error, checks the stats counters, checks determinism (the same
request twice yields the same bytes), and verifies the orderly EOF
shutdown (exit 0).

Usage: python3 tools/serve_smoke.py /path/to/hybridic_serve
"""

import json
import os
import subprocess
import sys


def check(condition, message):
    if not condition:
        print("FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print("usage: serve_smoke.py /path/to/hybridic_serve",
              file=sys.stderr)
        return 2
    binary = os.path.abspath(sys.argv[1])

    requests = [
        {"id": "ok-1", "seed": 5, "kernels": 4},
        {"id": "ok-1-again", "seed": 5, "kernels": 4},
        {"id": "bad-key", "seed": 5, "bogus": 1},
        {"id": "bad-config", "kernels": 0},
        {"id": "huge-edges", "min_edge_bytes": 1000000000000,
         "max_edge_bytes": 1000000000000},
        {"id": "wedged", "kernels": 8, "tier": "cycle",
         "timeout_s": 0.0001},
    ]
    # Raw lines the JSON dialect or the request decoder must reject with
    # usage/2 (json.dumps cannot spell most of them).
    hostile = [
        '{"id": "negative", "seed": -1}',
        '{"id": "duplicate", "seed": 1, "seed": 2}',
        '{"id": "overflow", "edge_p": 1e999}',
        '{"id": "nested", "seed": {"x": 1}}',
        '{"id": "escape", "board_topology": "\\q"}',
        '{"id": "junk", "seed": 1} junk',
    ]
    lines_in = ([json.dumps(r) for r in requests] + hostile +
                [json.dumps({"id": "stats", "op": "stats"})])
    stdin = "".join(line + "\n" for line in lines_in)
    proc = subprocess.run([binary], input=stdin, capture_output=True,
                          text=True, timeout=600)
    check(proc.returncode == 0,
          "serve exit {} != 0 on EOF: {}".format(proc.returncode,
                                                 proc.stderr))
    lines = proc.stdout.splitlines()
    check(len(lines) == len(lines_in),
          "expected {} responses, got {}".format(len(lines_in), len(lines)))
    replies = [json.loads(line) for line in lines]

    ok = replies[0]
    check(ok["id"] == "ok-1" and ok["ok"] is True,
          "design request failed: " + lines[0])
    check("analytic_designed_s" in ok and "solution" in ok,
          "design response missing fields: " + lines[0])

    # Determinism: identical config, identical numbers (only the echoed
    # id differs).
    again = dict(replies[1])
    check(again.pop("id") == "ok-1-again", "bad echo on second request")
    first = dict(replies[0])
    first.pop("id")
    check(first == again, "same request produced different responses:\n"
          + lines[0] + "\n" + lines[1])

    usage = replies[2]
    check(usage["ok"] is False and usage["error"] == "usage"
          and usage["exit_code"] == 2,
          "unknown key not a usage error: " + lines[2])

    config = replies[3]
    check(config["ok"] is False and config["error"] == "config"
          and config["exit_code"] == 3,
          "kernels=0 not a config error: " + lines[3])

    huge = replies[4]
    check(huge["ok"] is False and huge["error"] == "config"
          and huge["exit_code"] == 3 and "max_edge_bytes" in huge["message"],
          "terabyte edges not a config error naming the field: " + lines[4])

    wedged = replies[5]
    check(wedged["ok"] is False and wedged["error"] == "timeout"
          and wedged["exit_code"] == 4,
          "expired watchdog not a timeout error: " + lines[5])
    check("watchdog" in wedged["message"],
          "timeout message does not name the watchdog: " + lines[5])

    first_hostile = len(requests)
    for offset, line in enumerate(hostile):
        reply = replies[first_hostile + offset]
        check(reply["ok"] is False and reply["error"] == "usage"
              and reply["exit_code"] == 2,
              "hostile line not a usage error: " + line + " -> "
              + lines[first_hostile + offset])

    stats = replies[-1]
    check(stats["ok"] is True and stats["requests"] == 13
          and stats["served"] == 3 and stats["failed"] == 9
          and stats["quarantined"] == 1,
          "counter mismatch: " + lines[-1])

    check("eof shutdown" in proc.stderr,
          "missing shutdown summary on stderr: " + proc.stderr)
    print("serve_smoke: all tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
