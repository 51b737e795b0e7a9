#!/usr/bin/env python3
"""Validate the schema of the BENCH_*.json benchmark artifacts.

Every artifact — and every *point* inside it — must record the host
topology (`hardware_contexts`) and the worker placement
(`pin_policy`, `pinned`). A trajectory point without these fields is
uninterpretable: a single-context CI smoke run and a 48-context dedicated
box would be indistinguishable, which is exactly the measurement bug this
schema exists to prevent. CI fails if the fields are absent.

Usage: validate_bench_schema.py FILE.json [FILE.json ...]
"""

import json
import sys

TOPOLOGY_FIELDS = ("hardware_contexts", "pin_policy", "pinned")
POINT_ARRAYS = ("points", "private_locks_ns_per_op", "shared_lock_mops")
PIN_POLICIES = ("round_robin", "unpinned")


def fail(message):
    print(f"schema error: {message}", file=sys.stderr)
    sys.exit(1)


def check_topology(owner, obj, path):
    for key in TOPOLOGY_FIELDS:
        if key not in obj:
            fail(f"{path}: {owner} is missing {key!r}")
    if not isinstance(obj["hardware_contexts"], int) or obj["hardware_contexts"] < 1:
        fail(f"{path}: {owner} has a bogus hardware_contexts value")
    if obj["pin_policy"] not in PIN_POLICIES:
        fail(f"{path}: {owner} has unknown pin_policy {obj['pin_policy']!r}")
    if not isinstance(obj["pinned"], bool):
        fail(f"{path}: {owner} has a non-boolean pinned flag")


def validate(path):
    with open(path) as f:
        doc = json.load(f)
    check_topology("the top level", doc, path)
    arrays = [key for key in POINT_ARRAYS if key in doc]
    if not arrays:
        fail(f"{path}: no recognized point arrays (expected one of {POINT_ARRAYS})")
    total = 0
    for key in arrays:
        points = doc[key]
        if not isinstance(points, list) or not points:
            fail(f"{path}: {key!r} must be a non-empty array")
        for index, point in enumerate(points):
            check_topology(f"{key}[{index}]", point, path)
        total += len(points)
    print(f"{path}: OK ({total} points across {len(arrays)} array(s))")


def main(argv):
    if not argv:
        fail("no artifact paths given")
    for path in argv:
        validate(path)


if __name__ == "__main__":
    main(sys.argv[1:])
