#!/usr/bin/env python3
"""CI gate: a --journal-out search journal must match its documented schema.

This is the *syntactic* half of journal checking — every line parses,
the envelope fields are present and well-typed, seq numbers are dense,
the file is framed by journal-begin/journal-end, the schema version is
one this validator knows, and every record of a known kind carries that
kind's documented payload fields (docs/observability.md). The
*semantic* half (front membership vs. estimates and prunes, closed
sweeps, dominator provenance) is `dahlia-dse-report
--assert-consistent`; CI runs both over the same fig7 journal.

Usage:
  bench/check_journal.py JOURNAL.jsonl [--self-test]

--self-test additionally verifies the gate has teeth by corrupting the
parsed journal in several ways (broken framing, a seq gap, a missing
payload field) and failing unless each corruption is detected.

Exits non-zero listing every violation.
"""

import argparse
import json
import re
import sys

# Schema 2 removed fields (see docs/observability.md); the required sets
# below are the schema-2 ones, which schema-1 records also carry. Kinds
# that schema 2 dropped are skipped as unknown.
KNOWN_SCHEMAS = {1, 2}

KIND_RE = re.compile(r"^[a-z][a-z0-9-]*$")

# Payload fields every record of a kind must carry (a superset is fine:
# adding fields is backward compatible by construction).
REQUIRED_FIELDS = {
    "journal-begin": {"schema"},
    "journal-end": {"events"},
    "sweep-begin": {"space", "explored", "strategy", "threads"},
    "sweep-end": {"explored", "accepted", "pruned", "front"},
    "enumerated": {"config"},
    "verdict": {"config", "accepted", "cache_hit"},
    "estimate": {"config", "fidelity", "cache_hit"},
    "prune": {"config", "reason", "dominator", "bound_fidelity"},
    "front-enter": {"config", "front"},
    "front-evict": {"config", "front", "by"},
    "progress": {"phase", "done", "total", "front_size"},
    # Distributed DSE (src/cluster/Cluster.cpp, docs/cluster.md).
    "cluster-begin": {"workers", "shards", "space", "strategy", "limit"},
    "cluster-end": {"ok", "shards_done", "retries", "reassignments",
                    "worker_deaths", "front", "front_hash"},
    "shard-dispatch": {"shard", "worker", "attempt"},
    "shard-reassign": {"shard", "to_worker", "attempt"},
    "shard-done": {"shard", "worker", "points", "ms"},
    "shard-retry": {"shard", "worker", "attempt", "reason"},
    "worker-dead": {"worker", "failures"},
    "cache-sync": {"workers", "verdicts", "estimates"},
}


def parse_journal(path):
    """Returns (records, failures) — records as parsed JSON objects."""
    records, failures = [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                failures.append(f"line {lineno}: unparseable JSON: {e}")
                continue
            if not isinstance(rec, dict):
                failures.append(f"line {lineno}: not a JSON object")
                continue
            records.append(rec)
    return records, failures


def check(records):
    """Returns a list of violations ([] = journal is schema-clean)."""
    failures = []
    if not records:
        return ["journal is empty"]

    for i, rec in enumerate(records):
        where = f"record {i}"
        for field, types in (("seq", int), ("ts_us", int), ("kind", str)):
            if not isinstance(rec.get(field), types) or \
                    isinstance(rec.get(field), bool):
                failures.append(
                    f"{where}: envelope field {field!r} missing or "
                    f"mistyped: {rec.get(field)!r}")
        kind = rec.get("kind")
        if isinstance(kind, str):
            if not KIND_RE.match(kind):
                failures.append(f"{where}: malformed kind {kind!r}")
            missing = REQUIRED_FIELDS.get(kind, set()) - rec.keys()
            if missing:
                failures.append(
                    f"{where}: kind {kind!r} lacks documented fields "
                    f"{sorted(missing)}")

    first_seq = records[0].get("seq")
    if isinstance(first_seq, int):
        for i, rec in enumerate(records):
            if rec.get("seq") != first_seq + i:
                failures.append(
                    f"record {i}: seq {rec.get('seq')!r} breaks dense "
                    f"numbering (expected {first_seq + i})")
                break

    if records[0].get("kind") != "journal-begin":
        failures.append(
            f"first record is {records[0].get('kind')!r}, not "
            f"journal-begin")
    elif records[0].get("schema") not in KNOWN_SCHEMAS:
        failures.append(
            f"journal-begin schema {records[0].get('schema')!r} is not "
            f"one this validator knows ({sorted(KNOWN_SCHEMAS)})")
    if records[-1].get("kind") != "journal-end":
        failures.append(
            f"last record is {records[-1].get('kind')!r}, not "
            f"journal-end (truncated journal?)")
    elif records[-1].get("events") != len(records):
        failures.append(
            f"journal-end counts {records[-1].get('events')!r} events "
            f"but the file holds {len(records)}")
    return failures


def self_test(records):
    """The gate must detect framing, sequencing, and field corruption."""
    problems = []
    if check(list(records)):
        problems.append("self-test: the pristine journal does not pass")

    headless = list(records[1:])
    if not check(headless):
        problems.append("self-test: removing journal-begin not detected")

    truncated = list(records[:-1])
    if not check(truncated):
        problems.append("self-test: removing journal-end not detected")

    gapped = [dict(r) for r in records]
    gapped[len(gapped) // 2]["seq"] += 1000
    if not check(gapped):
        problems.append("self-test: a seq gap was not detected")

    stripped = [dict(r) for r in records]
    for rec in stripped:
        needed = REQUIRED_FIELDS.get(rec.get("kind"), set())
        victim = next(iter(sorted(needed - {"schema", "events"})), None)
        if victim:
            del rec[victim]
            break
    else:
        problems.append("self-test: no record with a strippable field")
        return problems
    if not check(stripped):
        problems.append("self-test: a missing payload field not detected")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("journal")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    records, failures = parse_journal(args.journal)
    failures += check(records)
    if args.self_test and not failures:
        failures += self_test(records)

    for f in failures:
        print(f"FAIL {args.journal}: {f}", file=sys.stderr)
    if failures:
        return 1
    kinds = sorted({r["kind"] for r in records})
    print(f"journal gate OK: {args.journal}: {len(records)} records, "
          f"schema {records[0]['schema']}, {len(kinds)} kinds"
          f"{', self-test passed' if args.self_test else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
