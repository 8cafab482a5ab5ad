#!/usr/bin/env python3
"""Check that the runtime's LAMELLAR_* variables are listed alike everywhere.

    python3 tools/check_env_docs.py [repo root]

Three lists must name the same variables:
  * the ones RuntimeConfig::from_env reads (src/common/config.cpp);
  * the runtime half of kKnownEnvVars in the same file, the names the
    unknown-variable warning accepts;
  * the first column of the README "Environment variables" tables.
Prints every name that some list lacks and exits 1; otherwise prints the
shared list and exits 0.
"""

import pathlib
import re
import sys

NAME = re.compile(r"LAMELLAR_[A-Z0-9_]+")
CELL = re.compile(r"(?<!\\)\|")  # a table cell border, not an escaped \|


def between(text, start, end):
    """The text after `start` up to the next `end`, or to the end."""
    i = text.index(start) + len(start)
    j = text.find(end, i)
    return text[i:] if j < 0 else text[i:j]


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    config = (root / "src" / "common" / "config.cpp").read_text()
    readme = (root / "README.md").read_text()
    env_section = between(readme, "## Environment variables", "\n## ")
    lists = {
        "RuntimeConfig::from_env": set(NAME.findall(between(
            config, "RuntimeConfig RuntimeConfig::from_env() {", "\n}\n"))),
        "kKnownEnvVars runtime knobs": set(NAME.findall(between(
            config, "// Runtime knobs (RuntimeConfig::from_env).",
            "// Bench / example / test parameters."))),
        "README Environment variables tables": {
            name
            for line in env_section.splitlines() if line.startswith("| `")
            for name in NAME.findall(CELL.split(line)[1])
        },
    }
    names = set().union(*lists.values())
    bad = False
    for name in sorted(names):
        missing = [where for where, found in lists.items() if name not in found]
        if missing:
            bad = True
            print(f"{name}: missing from {', '.join(missing)}")
    if bad:
        print("LAMELLAR_* variable lists disagree; update all three")
        return 1
    print(f"env docs ok: {len(names)} runtime variables listed alike")
    return 0


if __name__ == "__main__":
    sys.exit(main())
