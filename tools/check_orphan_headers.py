#!/usr/bin/env python3
"""Fail when a header under src/ has no includer.

A header that nothing includes is code no program can reach: the models,
policies and statistics it declares are built, tested and documented, yet
never run. This collects every `#include "..."` under src/, bench/,
examples/ and hybench/ and reports each header under src/ that no live
file includes (src/ is on every target's include path, so a header is
named by its path below src/). A .cpp including its own header does not
count, and an orphan is dead code: its own includes, and those of its
.cpp, do not count either, so a header reached only through an orphan
(say, an unused umbrella header) is an orphan too.

Usage: python3 tools/check_orphan_headers.py [repo root]
Exit 0 when every header has an includer, 1 listing each orphan.
"""

import re
import sys
from pathlib import Path

SCANNED = ("src", "bench", "examples", "hybench")
SUFFIXES = (".cpp", ".hpp", ".cc", ".h")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    headers = {p.relative_to(src).as_posix() for p in src.rglob("*.hpp")}
    # includer file -> (its own header under src/ or None, headers it names)
    includes = {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            own = None
            if src in path.parents:
                own = path.relative_to(src).with_suffix(".hpp").as_posix()
            names = set(INCLUDE.findall(path.read_text(errors="replace")))
            includes[path] = (own, names - {own})
    orphans = set()
    while True:
        live = set()
        for own, names in includes.values():
            if own not in orphans:
                live |= names
        found = headers - live
        if found == orphans:
            break
        orphans = found
    for orphan in sorted(orphans):
        print(f"orphan header: src/{orphan} (no live file under "
              f"{', '.join(s + '/' for s in SCANNED)} includes it)")
    if orphans:
        return 1
    print(f"orphan headers: OK ({len(headers)} headers under src/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
