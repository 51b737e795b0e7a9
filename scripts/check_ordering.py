#!/usr/bin/env python3
"""Enforce the workspace's `Ordering::SeqCst` allowlist.

SeqCst is almost never what a lock protocol wants: it hides missing
acquire/release pairs behind a global total order the hardware pays for
on every access, and it makes the *intended* synchronisation edge
impossible to read off the code. Every atomic in the lock crates is
expected to name the edge it implements (Acquire/Release/AcqRel) or to
be explicitly order-free (Relaxed).

Two files are the exceptions, each with its reason recorded below: the
CLHT resize flag, whose publication must be totally ordered against the
bucket in-progress bits of concurrent helpers, and the model explorer's
ordering classifier, which implements every C11 ordering rather than
picking one. The debug mode's deadlock check needs none: its lock-order
graph is checked and extended under one mutex.

Any other `SeqCst` in workspace Rust sources fails CI. To add one,
either fix the ordering (usual case) or add the file to ALLOWLIST with a
written reason. The allowlist itself is checked for drift: an entry
whose file is missing, or whose file no longer contains any SeqCst,
fails the run so exemptions cannot outlive the code they excuse.

Usage: check_ordering.py [ROOT]
"""

import pathlib
import re
import sys

# file (relative to repo root) -> why SeqCst is the correct order there
ALLOWLIST = {
    "crates/clht/src/table.rs": (
        "resizing flag: publication must be totally ordered against bucket "
        "in-progress bits across helper threads during a resize"
    ),
    "crates/model/src/sched.rs": (
        "ordering classifier: the happens-before recorder pattern-matches "
        "every C11 ordering — including SeqCst — to decide which accesses "
        "publish or join clocks; it implements orderings, it does not pick one"
    ),
}

# Directories that are not workspace sources.
SKIP_DIRS = {"target", "vendor", ".git"}

SEQCST = re.compile(r"\bSeqCst\b")
LINE_COMMENT = re.compile(r"(^|[^:])//.*$")


def strip_comments(line):
    """Drop `//`/`///`/`//!` comment text (good enough: the workspace has
    no SeqCst inside string literals or block comments)."""
    return LINE_COMMENT.sub(r"\1", line)


def check_allowlist_drift(root):
    """An allowlist entry that no longer earns its keep is itself a
    violation: the file is gone (stale entry hides future SeqCst under a
    recycled path) or it no longer contains any SeqCst (the exemption
    outlived the code it excused)."""
    drift = []
    for rel, reason in sorted(ALLOWLIST.items()):
        path = root / rel
        if not path.is_file():
            drift.append(f"{rel}: allowlisted but the file does not exist")
            continue
        lines = path.read_text().splitlines()
        if not any(SEQCST.search(strip_comments(line)) for line in lines):
            drift.append(
                f"{rel}: allowlisted ({reason.split(':')[0]}) but contains "
                "no SeqCst — drop the entry"
            )
    return drift


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    violations = []
    for path in sorted(root.rglob("*.rs")):
        rel = path.relative_to(root)
        if SKIP_DIRS & set(rel.parts):
            continue
        if str(rel) in ALLOWLIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if SEQCST.search(strip_comments(line)):
                violations.append(f"{rel}:{lineno}: {line.strip()}")
    drift = check_allowlist_drift(root)
    if drift:
        print("Allowlist drift (see scripts/check_ordering.py):")
        for d in drift:
            print(f"  {d}")
        if not violations:
            print(f"\n{len(drift)} stale allowlist entr(y/ies).")
            return 1
    if violations:
        print("SeqCst outside the allowlist (see scripts/check_ordering.py):")
        for v in violations:
            print(f"  {v}")
        print(
            f"\n{len(violations)} violation(s). Name the synchronisation edge "
            "(Acquire/Release/AcqRel/Relaxed) or allowlist the file with a "
            "written reason."
        )
        return 1
    print(f"check_ordering: OK ({len(ALLOWLIST)} allowlisted files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
