#!/usr/bin/env python3
"""Enforce that linking GLS starts no thread nobody asked for.

The paper's GLK spawns a background load monitor on first use; this
reproduction derives the same signal from its runnable registry instead
(crates/runtime/src/sysload.rs), so a process that links the library
runs exactly the threads its own code starts. This check keeps it that
way: non-test code of the library crates may not contain
`thread::spawn` or `thread::Builder` at all. There is no allowlist: a
caller that wants a background thread starts it itself.

Non-test code is everything outside a `#[cfg(test)] mod ... { }` block
(rustfmt puts the block's closing brace at the `mod` line's indentation,
which is how its end is found), with `//` comments — doc comments
included — stripped, and the `#[cfg(test)]`-only files listed in
TEST_ONLY_FILES skipped whole.

Usage: check_no_library_threads.py [ROOT]
"""

import pathlib
import re
import sys

# Crates a user links; the harness, workload and model crates are tools
# that start threads by design.
LIBRARY_SRC_DIRS = [
    "crates/runtime/src",
    "crates/locks/src",
    "crates/clht/src",
    "crates/sync/src",
    "crates/core/src",
]

# Files that are `#[cfg(test)] mod` at their declaration in lib.rs.
TEST_ONLY_FILES = {
    "crates/locks/src/test_support.rs",
    "crates/locks/src/proptests.rs",
}

SPAWN = re.compile(r"\bthread::(spawn|Builder)\b")
LINE_COMMENT = re.compile(r"(^|[^:])//.*$")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
MOD_OPEN = re.compile(r"^(\s*)(pub(\([a-z]+\))?\s+)?mod\s+\w+\s*\{\s*$")
ATTR_OR_BLANK = re.compile(r"^\s*(#\[.*\])?\s*$")


def non_test_lines(text):
    """Yields (lineno, code) for lines outside `#[cfg(test)] mod` blocks,
    with comments stripped."""
    pending_cfg_test = False
    closing = None  # the line that ends the current test block
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = LINE_COMMENT.sub(r"\1", raw)
        if closing is not None:
            if line.rstrip() == closing:
                closing = None
            continue
        if CFG_TEST.match(line):
            pending_cfg_test = True
            continue
        if pending_cfg_test:
            opened = MOD_OPEN.match(line)
            if opened:
                closing = opened.group(1) + "}"
                pending_cfg_test = False
                continue
            # Further attributes (and their comments) may sit between the
            # cfg and the `mod`; anything else was a cfg(test) on one item.
            if not ATTR_OR_BLANK.match(line):
                pending_cfg_test = False
        yield lineno, line


def spawn_sites(path):
    return [
        (lineno, line.strip())
        for lineno, line in non_test_lines(path.read_text())
        if SPAWN.search(line)
    ]


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    violations = []
    for src in LIBRARY_SRC_DIRS:
        for path in sorted((root / src).rglob("*.rs")):
            rel = str(path.relative_to(root))
            if rel in TEST_ONLY_FILES:
                continue
            for lineno, code in spawn_sites(path):
                violations.append(f"{rel}:{lineno}: {code}")
    if violations:
        print("Thread started by library code (see scripts/check_no_library_threads.py):")
        for v in violations:
            print(f"  {v}")
        print(
            f"\n{len(violations)} violation(s). Derive the value where it is "
            "read, or let the caller own the thread."
        )
        return 1
    print("check_no_library_threads: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
