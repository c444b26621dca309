#!/usr/bin/env python3
"""List every thread_local under src/ and check it against the allowlist.

Usage (from anywhere):  python3 tools/check_thread_locals.py

Ranks run as fibers, several to a carrier thread, so a thread_local is
shared by every rank on that carrier. Each one must be listed in
tools/thread_locals.allow with a reason it is safe. Exits 1 when a
thread_local is missing from the list or a listed one no longer exists.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "thread_locals.allow"
DECL = re.compile(r"\bthread_local\b(.*)")


def declared_name(rest):
    """The variable a `thread_local ...` declaration introduces."""
    head = re.split(r"=|\{|;|\(", rest, maxsplit=1)[0]
    ids = re.findall(r"[A-Za-z_]\w*", head)
    return ids[-1] if ids else "?"


def found():
    out = []
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
            continue
        rel = path.relative_to(ROOT).as_posix()
        for n, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//", 1)[0]
            m = DECL.search(code)
            if m:
                out.append((rel, declared_name(m.group(1)), n))
    return out


def allowed():
    out = {}
    for line in ALLOW.read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            sys.exit(f"{ALLOW}: entry without a reason: {line!r}")
        out[(parts[0], parts[1])] = parts[2]
    return out


def main():
    decls = found()
    allow = allowed()
    bad = 0
    for rel, name, n in decls:
        reason = allow.get((rel, name))
        status = "ok" if reason else "NOT IN ALLOWLIST"
        bad += reason is None
        print(f"{rel}:{n}: {name}: {status}" + (f" ({reason})" if reason else ""))
    seen = {(rel, name) for rel, name, _ in decls}
    for key in sorted(set(allow) - seen):
        print(f"{key[0]}: {key[1]}: listed in {ALLOW.name} but not found")
        bad += 1
    if bad:
        print(f"{bad} problem(s): give every thread_local a reason in "
              f"{ALLOW.relative_to(ROOT)} or move it onto the rank")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
