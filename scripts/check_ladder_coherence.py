#!/usr/bin/env python3
"""Fail unless the rungs of one `--ladder` run (stdin) are coherent:
locks.ticket_pair_ns < glk.pair_ns < service.pair_ns, and the RAII guard
costs at most 5 ns more than lock + unlock. Rungs are interleaved, so these
differences are the steady part of a run (benchmark/README.md)."""
import sys

lines = (line.split() for line in sys.stdin if line[:1].isalpha())
r = {fields[0]: float(fields[1]) for fields in lines if len(fields) == 2}
checks = {
    "locks.ticket_pair_ns < glk.pair_ns": r["locks.ticket_pair_ns"] < r["glk.pair_ns"],
    "glk.pair_ns < service.pair_ns": r["glk.pair_ns"] < r["service.pair_ns"],
    "service.guard_pair_ns <= service.pair_ns + 5": r["service.guard_pair_ns"] <= r["service.pair_ns"] + 5,
}
for check, holds in checks.items():
    print(("ok   " if holds else "FAIL ") + check)
sys.exit(0 if all(checks.values()) else 1)
