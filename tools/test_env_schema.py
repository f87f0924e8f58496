#!/usr/bin/env python3
"""Env schema gate: every PTO_* knob is declared once and documented once.

Registered in ctest as `env_schema` (tests/CMakeLists.txt). Fails when
  - `getenv(` appears in src/, bench/ or tests/ outside src/common/env.cpp
    (every knob must be read through pto::env), or
  - the knob names in src/common/env.cpp's table differ from the first
    column of README.md's environment table (section "Environment
    variables").

Usage: test_env_schema.py [repo-root]   (default: the parent of tools/)
"""

import os
import re
import sys
import unittest

ROOT = (os.path.abspath(sys.argv.pop(1)) if len(sys.argv) > 1
        else os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ENV_CPP = os.path.join("src", "common", "env.cpp")
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc")
ROW_RE = re.compile(r'\{\s*Id::k\w+,\s*"(PTO_[A-Z0-9_]+)"')
README_ROW_RE = re.compile(r'^\|\s*`(PTO_[A-Z0-9_]+)`\s*\|')


def read(rel):
    with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
        return f.read()


def getenv_sites():
    """(path, line number) of every `getenv(` outside env.cpp."""
    hits = []
    for top in ("src", "bench", "tests"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if not name.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), ROOT)
                if rel == ENV_CPP:
                    continue
                for no, line in enumerate(read(rel).splitlines(), 1):
                    if "getenv(" in line:
                        hits.append(f"{rel}:{no}")
    return hits


def table_knobs():
    return ROW_RE.findall(read(ENV_CPP))


def readme_knobs():
    """First-column names of the table under '## Environment variables'."""
    names, in_section = [], False
    for line in read("README.md").splitlines():
        if line.startswith("## "):
            in_section = line.strip() == "## Environment variables"
            continue
        if in_section:
            m = README_ROW_RE.match(line)
            if m:
                names.append(m.group(1))
    return names


class EnvSchema(unittest.TestCase):
    def test_no_getenv_outside_env_module(self):
        self.assertEqual(getenv_sites(), [],
                         "read PTO_* knobs through pto::env (common/env.h)")

    def test_table_has_one_row_per_knob(self):
        knobs = table_knobs()
        self.assertGreater(len(knobs), 0, "no rows parsed from " + ENV_CPP)
        dups = sorted({k for k in knobs if knobs.count(k) > 1})
        self.assertEqual(dups, [], "knobs declared twice")

    def test_readme_documents_exactly_the_table(self):
        table, readme = set(table_knobs()), readme_knobs()
        self.assertGreater(len(readme), 0, "no README environment table")
        dups = sorted({k for k in readme if readme.count(k) > 1})
        self.assertEqual(dups, [], "knobs documented twice in README")
        self.assertEqual(sorted(table - set(readme)), [],
                         "knobs missing from README's environment table")
        self.assertEqual(sorted(set(readme) - table), [],
                         "README documents knobs the table does not declare")


if __name__ == "__main__":
    unittest.main()
