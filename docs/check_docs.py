#!/usr/bin/env python3
"""CI gate: the docs/ tree may not drift from the code.

Checks three machine-verifiable contracts:

  * every service op the server knows (the string literals handled in
    src/service/Protocol.cpp) appears in docs/protocol.md;
  * every flag `dahliac`, `dahlia-serve`, `dahlia-dse-merge`,
    `dahlia-fuzz`, and `dahlia-fuzz-proto` accept (their --help output,
    or the usage strings in their sources when --bin-dir is not given)
    appears in docs/cli.md;
  * conversely, every flag docs/cli.md mentions is one of those, or one
    the figure harnesses with documented flags (`fig7_dse_gemm_blocked`,
    `service_throughput`, `cluster_throughput`, `sim_accuracy`) compare
    their arguments against — so a removed flag cannot leave a stale row;
  * every metric name registered under src/ (the string literals passed
    to metrics::counter/gauge/histogram) appears in
    docs/observability.md;
  * every search-journal event kind emitted under src/ (the string
    literals passed to eventlog::emit) appears in
    docs/observability.md and has an entry in eventlog::kKindSchemas
    (src/support/EventLog.h), the one declaration of each kind's
    required payload fields;
  * every metric and journal event kind the cluster layer (src/cluster/)
    registers ALSO appears in docs/cluster.md — the distributed-DSE doc
    must describe its own observable surface, not defer to a grep of
    observability.md.

Usage:
  docs/check_docs.py [--bin-dir build] [--repo .] [--self-test]

--self-test additionally verifies the gate has teeth: it replays the
checks against doc text with one op, one flag, one metric, and one
event kind removed, with one stale flag added, and with one kind
dropped from the schema table, and fails if that tampering is NOT
detected. CI runs both.

Exits non-zero listing every violation.
"""

import argparse
import os
import re
import subprocess
import sys


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def protocol_ops(repo):
    """The op names Request::fromJson accepts / opName prints."""
    src = read(os.path.join(repo, "src", "service", "Protocol.cpp"))
    # The one {Op, name} table: {Op::Check, "check"}, etc.
    ops = set(re.findall(r'\{Op::\w+, "([a-z][a-z0-9-]*)"\}', src))
    if not ops:
        sys.exit("check_docs: found no ops in Protocol.cpp — "
                 "did the parser move?")
    return ops


FLAG_RE = re.compile(r"(?<![-\w])(--[a-z][a-z-]*|-o)(?![\w-])")


def binary_flags(repo, bin_dir, name, source):
    """Flags from `NAME --help` (preferred) or the source's usage text."""
    if bin_dir:
        exe = os.path.join(bin_dir, name)
        if not os.path.exists(exe):
            sys.exit(f"check_docs: {exe} not found (build first, or drop "
                     f"--bin-dir to scrape sources)")
        out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"check_docs: `{name} --help` exited "
                     f"{out.returncode}: {out.stderr.strip()}")
        text = out.stdout + out.stderr
    else:
        # The usage string in the source; it is what --help prints.
        src = read(os.path.join(repo, source))
        m = re.search(r'"usage: .*?;', src, re.S)
        if not m:
            sys.exit(f"check_docs: no usage string in {source}")
        text = m.group(0)
    flags = set(FLAG_RE.findall(text))
    if not flags:
        sys.exit(f"check_docs: extracted no flags for {name}")
    return flags


HARNESS_FLAG_RE = re.compile(r'"(--[a-z][a-z-]*)"')

# Figure harnesses whose flags docs/cli.md documents. They have no
# --help; their argument loops compare against these string literals.
HARNESSES = {
    "fig7_dse_gemm_blocked": "bench/fig7_dse_gemm_blocked.cpp",
    "service_throughput": "bench/service_throughput.cpp",
    "cluster_throughput": "bench/cluster_throughput.cpp",
    "sim_accuracy": "bench/sim_accuracy.cpp",
}


def harness_flags(repo):
    """Every flag literal a figure harness's source compares against."""
    flags = set()
    for source in HARNESSES.values():
        flags |= set(HARNESS_FLAG_RE.findall(read(os.path.join(repo,
                                                               source))))
    if not flags:
        sys.exit("check_docs: extracted no figure-harness flags")
    return flags


def check_stale_flags(known_flags, cli_md):
    """Flags cli.md documents that no binary or harness accepts."""
    return [f"docs/cli.md: flag '{flag}' is documented but no binary or "
            f"harness accepts it"
            for flag in sorted(set(FLAG_RE.findall(cli_md)) - known_flags)]


METRIC_RE = re.compile(
    r'metrics::(?:counter|gauge|histogram)\(\s*"([a-z][a-z0-9_.]*)"')


def metric_names(repo):
    """Every metric name registered by code under src/.

    Test- and bench-only metric names do not need documentation; the
    library's registrations are the operational surface.
    """
    names = set()
    src_root = os.path.join(repo, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fname in filenames:
            if fname.endswith((".cpp", ".h")):
                names |= set(METRIC_RE.findall(
                    read(os.path.join(dirpath, fname))))
    if not names:
        sys.exit("check_docs: found no metrics::counter/gauge/histogram "
                 "registrations under src/ — did the registry move?")
    return names


EVENT_RE = re.compile(r'eventlog::emit\(\s*"([a-z][a-z0-9-]*)"')


def event_kinds(repo):
    """Every journal event kind emitted by code under src/."""
    kinds = set()
    src_root = os.path.join(repo, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fname in filenames:
            if fname.endswith((".cpp", ".h")):
                kinds |= set(EVENT_RE.findall(
                    read(os.path.join(dirpath, fname))))
    if not kinds:
        sys.exit("check_docs: found no eventlog::emit sites under src/ — "
                 "did the journal move?")
    return kinds


SCHEMA_RE = re.compile(r'\{"([a-z][a-z0-9-]*)",\s*\{')


def schema_kinds(repo):
    """The kinds eventlog::kKindSchemas declares required fields for."""
    header = read(os.path.join(repo, "src", "support", "EventLog.h"))
    table = header[header.find("kKindSchemas[] = {"):]
    kinds = set(SCHEMA_RE.findall(table[:table.find("};")]))
    if not kinds:
        sys.exit("check_docs: found no kKindSchemas entries in "
                 "src/support/EventLog.h — did the table move?")
    return kinds


def check_schema_table(events, schemas):
    """Emitted kinds with no kKindSchemas entry."""
    return [f"src/support/EventLog.h: journal event kind '{kind}' is "
            f"emitted under src/ but has no kKindSchemas entry"
            for kind in sorted(events - schemas)]


def cluster_surface(repo):
    """Metric names + journal event kinds registered under src/cluster/."""
    names = set()
    root = os.path.join(repo, "src", "cluster")
    for dirpath, _dirnames, filenames in os.walk(root):
        for fname in filenames:
            if fname.endswith((".cpp", ".h")):
                text = read(os.path.join(dirpath, fname))
                names |= set(METRIC_RE.findall(text))
                names |= set(EVENT_RE.findall(text))
    if not names:
        sys.exit("check_docs: found no metrics or journal kinds under "
                 "src/cluster/ — did the cluster layer move?")
    return names


def check_cluster_doc(cluster_names, cluster_md):
    failures = []
    documented = set(re.findall(r"`([a-z][a-z0-9-_.]*)`", cluster_md))
    for name in sorted(cluster_names):
        if name not in documented:
            failures.append(
                f"docs/cluster.md: cluster metric/journal kind '{name}' "
                f"is registered in src/cluster/ but not documented")
    return failures


def check(ops, flags_by_bin, metrics, events, protocol_md, cli_md,
          observability_md):
    """Returns a list of violations ([] = docs cover everything)."""
    failures = []
    documented_ops = set(re.findall(r"`([a-z][a-z0-9-]*)`", protocol_md))
    for op in sorted(ops):
        if op not in documented_ops:
            failures.append(
                f"docs/protocol.md: op '{op}' is handled by Protocol.cpp "
                f"but not documented")
    documented_flags = set(FLAG_RE.findall(cli_md))
    for name, flags in sorted(flags_by_bin.items()):
        for flag in sorted(flags):
            if flag not in documented_flags:
                failures.append(
                    f"docs/cli.md: flag '{flag}' of {name} is missing")
    documented_metrics = set(
        re.findall(r"`([a-z][a-z0-9_.]*)`", observability_md))
    for metric in sorted(metrics):
        if metric not in documented_metrics:
            failures.append(
                f"docs/observability.md: metric '{metric}' is registered "
                f"under src/ but not documented")
    documented_events = set(
        re.findall(r"`([a-z][a-z0-9-]*)`", observability_md))
    for kind in sorted(events):
        if kind not in documented_events:
            failures.append(
                f"docs/observability.md: journal event kind '{kind}' is "
                f"emitted under src/ but not documented")
    return failures


def self_test(ops, flags_by_bin, metrics, events, protocol_md, cli_md,
              observability_md):
    """The gate must detect a removed op, flag, metric, and event kind."""
    problems = []
    victim_op = sorted(ops)[-1]
    tampered = protocol_md.replace(f"`{victim_op}`", "`redacted`")
    if not check(ops, {}, set(), set(), tampered, cli_md,
                 observability_md):
        problems.append(
            f"self-test: removing op '{victim_op}' from protocol.md was "
            f"not detected")
    name, flags = sorted(flags_by_bin.items())[0]
    victim_flag = sorted(flags)[-1]
    tampered = cli_md.replace(victim_flag, "--redacted")
    if not check(set(), flags_by_bin, set(), set(), protocol_md, tampered,
                 observability_md):
        problems.append(
            f"self-test: removing flag '{victim_flag}' from cli.md was "
            f"not detected")
    victim_metric = sorted(metrics)[-1]
    tampered = observability_md.replace(f"`{victim_metric}`", "`redacted`")
    if not check(set(), {}, metrics, set(), protocol_md, cli_md, tampered):
        problems.append(
            f"self-test: removing metric '{victim_metric}' from "
            f"observability.md was not detected")
    victim_kind = sorted(events)[-1]
    tampered = observability_md.replace(f"`{victim_kind}`", "`redacted`")
    if not check(set(), {}, set(), events, protocol_md, cli_md, tampered):
        problems.append(
            f"self-test: removing journal event kind '{victim_kind}' "
            f"from observability.md was not detected")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--bin-dir", default=None,
                    help="directory with built binaries; omit to scrape "
                         "the usage strings from the sources instead")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    ops = protocol_ops(args.repo)
    flags_by_bin = {
        "dahliac": binary_flags(args.repo, args.bin_dir, "dahliac",
                                "examples/dahliac.cpp"),
        "dahlia-serve": binary_flags(args.repo, args.bin_dir,
                                     "dahlia-serve",
                                     "examples/dahlia_serve.cpp"),
        "dahlia-dse-merge": binary_flags(args.repo, args.bin_dir,
                                         "dahlia-dse-merge",
                                         "examples/dahlia_dse_merge.cpp"),
        "dahlia-fuzz": binary_flags(args.repo, args.bin_dir, "dahlia-fuzz",
                                    "bench/fuzz_differential.cpp"),
        "dahlia-fuzz-proto": binary_flags(args.repo, args.bin_dir,
                                          "dahlia-fuzz-proto",
                                          "bench/fuzz_protocol.cpp"),
        "dahlia-dse-report": binary_flags(args.repo, args.bin_dir,
                                          "dahlia-dse-report",
                                          "examples/dahlia_dse_report.cpp"),
        "dahlia-dse-cluster": binary_flags(args.repo, args.bin_dir,
                                           "dahlia-dse-cluster",
                                           "examples/dahlia_dse_cluster.cpp"),
    }
    metrics = metric_names(args.repo)
    events = event_kinds(args.repo)
    protocol_md = read(os.path.join(args.repo, "docs", "protocol.md"))
    cli_md = read(os.path.join(args.repo, "docs", "cli.md"))
    observability_md = read(
        os.path.join(args.repo, "docs", "observability.md"))

    cluster_names = cluster_surface(args.repo)
    cluster_md = read(os.path.join(args.repo, "docs", "cluster.md"))

    known_flags = harness_flags(args.repo).union(*flags_by_bin.values())

    failures = check(ops, flags_by_bin, metrics, events, protocol_md,
                     cli_md, observability_md)
    failures += check_stale_flags(known_flags, cli_md)
    failures += check_cluster_doc(cluster_names, cluster_md)
    schemas = schema_kinds(args.repo)
    failures += check_schema_table(events, schemas)
    if args.self_test:
        failures += self_test(ops, flags_by_bin, metrics, events,
                              protocol_md, cli_md, observability_md)
        # The cluster.md leg must have teeth too: deleting one documented
        # cluster name must be detected.
        victim = sorted(cluster_names)[0]
        tampered = cluster_md.replace(f"`{victim}`", "`redacted`")
        if not check_cluster_doc(cluster_names, tampered):
            failures.append(
                f"self-test: removing '{victim}' from cluster.md was "
                f"not detected")
        # An emitted kind missing from the schema table must be caught.
        victim = sorted(events)[0]
        if not check_schema_table(events, schemas - {victim}):
            failures.append(
                f"self-test: dropping '{victim}' from kKindSchemas was "
                f"not detected")
        # And the reverse flag leg: a row for a flag nothing accepts.
        tampered = cli_md + "\n| `--stale-flag` | removed long ago |\n"
        if not check_stale_flags(known_flags, tampered):
            failures.append(
                "self-test: a stale '--stale-flag' row in cli.md was not "
                "detected")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    nflags = sum(len(f) for f in flags_by_bin.values())
    mode = "binaries" if args.bin_dir else "sources"
    print(f"docs gate OK: {len(ops)} ops, {nflags} flags, "
          f"{len(metrics)} metrics, and {len(events)} journal event "
          f"kinds documented and schema-declared (checked against {mode}"
          f"{', self-test passed' if args.self_test else ''})")


if __name__ == "__main__":
    main()
