#!/usr/bin/env python3
"""Check that README.md and the code agree on the ESP_* environment knobs.

Usage (from anywhere):  python3 tools/check_env_knobs.py

Two directions, exit 1 on any problem:
  - every ESP_* name read under src/ (a string literal such as
    env_flag("ESP_TENANT")) must appear inside a backtick span somewhere
    in README.md;
  - every README knob-table row (a line starting with | `ESP_...`) must
    name a variable the code still reads: src/, or the bench and tool
    harnesses under bench/, tools/ and examples/ (C++/Python literals,
    or $NAME / ${NAME} in shell scripts), whose knobs share the tables.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
LITERAL = re.compile(r'"(ESP_[A-Z0-9_]+)"')
SHELL = re.compile(r"\$\{?(ESP_[A-Z0-9_]+)")
CODE = (".cpp", ".hpp", ".h", ".cc", ".py", ".sh")


def reads(top):
    """{name: first 'path:line'} of every ESP_* variable read under top."""
    out = {}
    for path in sorted((ROOT / top).rglob("*")):
        if path.suffix not in CODE or path.resolve() == Path(__file__).resolve():
            continue
        pattern = SHELL if path.suffix == ".sh" else LITERAL
        rel = path.relative_to(ROOT).as_posix()
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for name in pattern.findall(line):
                out.setdefault(name, f"{rel}:{n}")
    return out


def readme_knobs():
    """(names inside any backtick span, {table-row name: README line})."""
    text = README.read_text()
    mentioned = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        mentioned.update(re.findall(r"ESP_[A-Z0-9_]+", span))
    rows = {}
    for n, line in enumerate(text.splitlines(), 1):
        m = re.match(r"\|\s*`(ESP_[A-Z0-9_]+)`", line)
        if m:
            rows.setdefault(m.group(1), n)
    return mentioned, rows


def main():
    src = reads("src")
    harness = {}
    for top in ("bench", "tools", "examples"):
        harness.update(reads(top))
    mentioned, rows = readme_knobs()
    bad = 0
    for name in sorted(set(src) - mentioned):
        print(f"{src[name]}: {name}: read under src/ but not documented "
              f"in {README.name}")
        bad += 1
    for name in sorted(set(rows) - set(src) - set(harness)):
        print(f"{README.name}:{rows[name]}: {name}: knob-table row for a "
              f"variable nothing reads")
        bad += 1
    print(f"{len(src)} knob(s) read under src/, {len(rows)} README "
          f"knob-table row(s), {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
