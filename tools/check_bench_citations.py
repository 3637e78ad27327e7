#!/usr/bin/env python3
"""Fail when a BENCH file that CHANGES.md cites is missing from the tree.

Usage: check_bench_citations.py REPO_ROOT

Every `BENCH_PR<n>.json` named anywhere in REPO_ROOT/CHANGES.md must exist
at REPO_ROOT: a recorded number that cannot be opened backs no claim.
Exits 0 when all exist, 1 listing the missing ones otherwise.
"""

import re
import sys
from pathlib import Path


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(sys.argv[1])
    changes = (root / "CHANGES.md").read_text(encoding="utf-8")
    cited = sorted(set(re.findall(r"BENCH_PR\d+\.json", changes)),
                   key=lambda name: int(re.search(r"\d+", name).group()))
    missing = [name for name in cited if not (root / name).is_file()]
    for name in missing:
        print(f"bench-citations: CHANGES.md cites {name}, which is not in "
              f"the tree")
    if missing:
        return 1
    print(f"bench-citations: OK ({len(cited)} cited: {', '.join(cited)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
