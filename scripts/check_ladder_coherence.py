#!/usr/bin/env python3
"""Fail unless the rungs of one `--ladder` run (stdin) are coherent:
locks.ticket_pair_ns < glk.pair_ns < service.pair_ns, the RAII guard
costs at most 5 ns more than lock + unlock, the thread cache costs at
most 2 ns (a noise margin: it should save time) at both 8 and 128 addresses
per thread, and a read_lock + read_unlock pair through the service costs at
most 1.3 times a lock + unlock pair: an rw entry is one futex rw word, whose
read side takes one CAS and releases with one RMW, and has no mode to
re-check.
Rungs are interleaved, so these differences are the steady part of a run
(benchmark/README.md).

With two workers or more (the `workers=` field of the ladder's header), GLK
must also hand over within twice a bare ticket lock's handoff: in ticket
mode it adds no write beyond the ticket lock's own line. With one worker the
handoff rungs measure no handover, and that check is skipped."""
import re
import sys

text = sys.stdin.read().splitlines()
lines = (line.split() for line in text if line[:1].isalpha())
r = {fields[0]: float(fields[1]) for fields in lines if len(fields) == 2}
header = next((line for line in text if line.startswith("# ladder")), "")
workers = int(m.group(1)) if (m := re.search(r"\bworkers=(\d+)", header)) else 0
checks = {
    "locks.ticket_pair_ns < glk.pair_ns": r["locks.ticket_pair_ns"] < r["glk.pair_ns"],
    "glk.pair_ns < service.pair_ns": r["glk.pair_ns"] < r["service.pair_ns"],
    "service.guard_pair_ns <= service.pair_ns + 5": r["service.guard_pair_ns"] <= r["service.pair_ns"] + 5,
    "cache.saving_ns.ws8 >= -2": r["cache.saving_ns.ws8"] >= -2,
    "cache.saving_ns.ws128 >= -2": r["cache.saving_ns.ws128"] >= -2,
    "glk_rw.read_pair_ns <= 1.3 * service.pair_ns": r["glk_rw.read_pair_ns"]
    <= 1.3 * r["service.pair_ns"],
}
handoff = "glk.handoff_ns <= 2 * locks.ticket_handoff_ns"
if workers >= 2:
    checks[handoff] = r["glk.handoff_ns"] <= 2 * r["locks.ticket_handoff_ns"]
else:
    print(f"skip {handoff} (workers={workers}, needs >= 2)")
for check, holds in checks.items():
    print(("ok   " if holds else "FAIL ") + check)
sys.exit(0 if all(checks.values()) else 1)
