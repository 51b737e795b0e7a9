#!/usr/bin/env python3
"""Validate the schema of a GLS telemetry snapshot JSON export.

`GlsService::telemetry_snapshot().to_json()` is hand-rolled (the workspace
builds offline, without serde), so CI parses a real emitted snapshot here
and checks every field the exporter promises: the versioned envelope, the
per-lock profiles with their latency histogram summaries, and the
service-wide cache / parking-lot / deadlock counters.
A field silently dropped or renamed by a refactor fails CI instead of
failing whoever scrapes the snapshots.

Usage: validate_snapshot_schema.py FILE.json [FILE.json ...]
"""

import json
import sys

TOP_LEVEL = {
    "version": int,
    "mode": str,
    "lock_count": int,
    "retired_count": int,
    "locks": list,
    "cache": dict,
    "parking_lot": dict,
    "glk_transitions": int,
    "deadlock": dict,
}
MODES = ("normal", "debug", "profile")
HISTOGRAM_FIELDS = ("count", "mean", "min", "max", "p50", "p99", "p999")
LOCK_FIELDS = {
    "addr": int,
    "algorithm": str,
    "acquisitions": int,
    "avg_queue": (int, float),
    "avg_lock_latency": (int, float),
    "avg_cs_latency": (int, float),
    "lock_latency": dict,
    "cs_latency": dict,
    "transitions": int,
}
CACHE_FIELDS = {"hits": int, "misses": int, "invalidations": int, "hit_rate": (int, float)}
PARKING_FIELDS = {"buckets": int, "parked": int, "growth_events": int, "requeued_waiters": int}
DEADLOCK_FIELDS = {"candidates": int, "confirmed": int}


def fail(message):
    print(f"snapshot schema error: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, spec, where, path):
    for key, types in spec.items():
        if key not in obj:
            fail(f"{path}: {where} is missing {key!r}")
        if not isinstance(obj[key], types):
            fail(f"{path}: {where}.{key} has type {type(obj[key]).__name__}")
        if isinstance(obj[key], (int, float)) and not isinstance(obj[key], bool):
            if obj[key] < 0:
                fail(f"{path}: {where}.{key} is negative")


def check_histogram(hist, where, path):
    check_fields(hist, {k: (int, float) for k in HISTOGRAM_FIELDS}, where, path)
    if hist["count"] > 0 and hist["max"] < hist["min"]:
        fail(f"{path}: {where} has max < min")
    if not hist["p50"] <= hist["p99"] <= hist["p999"]:
        fail(f"{path}: {where} quantiles are not monotone")


def validate(path):
    with open(path) as f:
        doc = json.load(f)
    check_fields(doc, TOP_LEVEL, "the top level", path)
    if doc["version"] != 3:
        fail(f"{path}: unknown snapshot version {doc['version']}")
    unknown = sorted(set(doc) - set(TOP_LEVEL) - {"sampling_budget"})
    if unknown:
        fail(f"{path}: the top level has keys version 3 does not define: {unknown}")
    if doc["mode"] not in MODES:
        fail(f"{path}: unknown mode {doc['mode']!r}")
    budget = doc.get("sampling_budget", "MISSING")
    if budget == "MISSING":
        fail(f"{path}: the top level is missing 'sampling_budget'")
    if budget is not None and (not isinstance(budget, int) or budget < 1):
        fail(f"{path}: sampling_budget must be null or a positive integer")
    if doc["lock_count"] != len(doc["locks"]):
        fail(f"{path}: lock_count {doc['lock_count']} != {len(doc['locks'])} locks")
    for index, lock in enumerate(doc["locks"]):
        where = f"locks[{index}]"
        check_fields(lock, LOCK_FIELDS, where, path)
        check_histogram(lock["lock_latency"], f"{where}.lock_latency", path)
        check_histogram(lock["cs_latency"], f"{where}.cs_latency", path)
    check_fields(doc["cache"], CACHE_FIELDS, "cache", path)
    if not 0 <= doc["cache"]["hit_rate"] <= 1:
        fail(f"{path}: cache.hit_rate outside [0, 1]")
    check_fields(doc["parking_lot"], PARKING_FIELDS, "parking_lot", path)
    check_fields(doc["deadlock"], DEADLOCK_FIELDS, "deadlock", path)
    print(f"{path}: OK ({doc['lock_count']} locks, mode={doc['mode']})")


def main(argv):
    if not argv:
        fail("no snapshot paths given")
    for path in argv:
        validate(path)


if __name__ == "__main__":
    main(sys.argv[1:])
