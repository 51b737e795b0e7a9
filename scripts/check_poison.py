#!/usr/bin/env python3
"""Enforce that library code never swallows a poisoned mutex.

A `std` mutex is poisoned when a thread panics while holding it. Code
that treats the poisoned lock as "not acquired" silently skips its
critical section (`if let Ok(g) = m.lock() { .. }`, `m.lock().ok()`) or
drops the result unread (`let _ = m.lock();`), so the panic's damage
spreads without a trace. This check fails on those three forms in the
non-test code of every `crates/*/src`. A site that must survive poison
writes `unwrap_or_else(PoisonError::into_inner)` and says beside it why
the guarded data is valid at every step; that form stays allowed.

Non-test code is as in check_no_library_threads.py: outside
`#[cfg(test)] mod ... { }` blocks, `//` comments stripped, and the
`#[cfg(test)]`-only files listed in TEST_ONLY_FILES skipped whole. A
statement may span lines (rustfmt breaks long method chains), so the
patterns match across line breaks but not across `;` or `{`.

Usage: check_poison.py [ROOT]
"""

import pathlib
import re
import sys

from check_no_library_threads import non_test_lines

# Files that are `#[cfg(test)] mod` at their declaration in lib.rs.
TEST_ONLY_FILES = {
    "crates/locks/src/test_support.rs",
    "crates/locks/src/proptests.rs",
    "crates/clht/src/proptests.rs",
}

SWALLOWS = [
    re.compile(r"\.lock\(\)\s*\.ok\(\)"),
    re.compile(r"\bif\s+let\s+Ok\s*\([^;{]*?\)\s*=[^;{]*?\.lock\(\)"),
    re.compile(r"\blet\s+_\s*=[^;{]*?\.lock\(\)"),
]


def swallow_sites(path):
    lines = list(non_test_lines(path.read_text()))
    text = "\n".join(code for _, code in lines)
    starts = []  # offset in `text` where each kept line begins
    offset = 0
    for _, code in lines:
        starts.append(offset)
        offset += len(code) + 1
    sites = set()
    for pattern in SWALLOWS:
        for match in pattern.finditer(text):
            index = max(i for i, s in enumerate(starts) if s <= match.start())
            sites.add((lines[index][0], lines[index][1].strip()))
    return sorted(sites)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    violations = []
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        rel = str(path.relative_to(root))
        if rel in TEST_ONLY_FILES:
            continue
        for lineno, code in swallow_sites(path):
            violations.append(f"{rel}:{lineno}: {code}")
    if violations:
        print("Mutex poison swallowed by library code (see scripts/check_poison.py):")
        for v in violations:
            print(f"  {v}")
        print(
            f"\n{len(violations)} violation(s). Propagate the poison (`expect`), "
            "or recover with `unwrap_or_else(PoisonError::into_inner)` and say "
            "why the data is valid."
        )
        return 1
    print("check_poison: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
