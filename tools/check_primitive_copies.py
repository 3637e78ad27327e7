#!/usr/bin/env python3
"""Fail when a private copy of a shared primitive grows back.

src/util/ holds the one implementation of FNV-1a and splitmix64
(hash.hpp), of the hex, hex-float and 17-digit decimal codecs and the
strict number parsers (text.hpp), of the JSON dialect (json.hpp), of the
flag grammar (cli.hpp) and of the seconds-to-picoseconds rounding
(units.hpp). This scans every C++ source outside src/util/,
tests/ and hybench/ with comments stripped, and reports each line that
spells one of those primitives' telltale tokens.

Usage: python3 tools/check_primitive_copies.py [repo root]
Exit 0 when clean, 1 with one "path:line: token" report per hit.
"""

import os
import re
import sys

SUFFIXES = (".cpp", ".hpp", ".cc", ".h")
EXCLUDED = ("src/util", "tests", "hybench")

TOKENS = [
    ("FNV-1a prime", re.compile(r"0x100000001b3", re.I)),
    ("splitmix64 multiplier", re.compile(r"0xbf58476d1ce4e5b9", re.I)),
    ('"%a" format', re.compile(r'"%a"')),
    ("%016llx format", re.compile(r"%016llx")),
    ("precision(17)", re.compile(r"precision\(17\)")),
    ("max_digits10", re.compile(r"max_digits10")),
    ("std::sto*", re.compile(r"std::sto")),
    ("class FlatJsonParser", re.compile(r"class\s+FlatJsonParser")),
    ("seconds->ps rounding", re.compile(r"\*\s*1e12\s*\+\s*0\.5")),
]


def strip_comments(text):
    """`text` with // and /* */ comments blanked; string and character
    literals (where "%a" lives) are kept. Newlines survive, so line
    numbers do too."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def sources(root):
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith((".", "build"))
            and (d if rel == "." else rel + "/" + d) not in EXCLUDED)
        for name in sorted(filenames):
            if name.endswith(SUFFIXES):
                yield os.path.join(dirpath, name)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    hits = 0
    for path in sources(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            code = strip_comments(f.read())
        for number, line in enumerate(code.split("\n"), 1):
            for label, pattern in TOKENS:
                if pattern.search(line):
                    hits += 1
                    print("{}:{}: {} outside src/util/".format(
                        os.path.relpath(path, root), number, label))
    if hits:
        print("check_primitive_copies: {} hit(s); use src/util/ "
              "instead".format(hits), file=sys.stderr)
        return 1
    print("check_primitive_copies: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
