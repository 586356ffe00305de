#!/usr/bin/env python3
"""Diff a fresh google-benchmark JSON run against a committed baseline.

Usage:
    tools/bench_compare.py BASELINE.json FRESH.json [--tolerance 0.30]
    tools/bench_compare.py --self-test

For every benchmark present in both files, compares real_time (after
normalizing time units) and fails — exit 1 — if the fresh run regressed by
more than the tolerance band. Benchmarks present on only one side are
reported but never fail the gate (suites are allowed to grow).

Memory is gated too: wherever both reports carry a `peak_rss_mb` counter
for the same benchmark, the fresh value may exceed the baseline by at most
RSS_LIMIT (20%). Unlike timings, peak RSS barely jitters between runs, so
the band is tighter.

Malformed input (missing file, invalid JSON, entries without the
name/real_time keys) exits 2 with a one-line diagnostic naming the file and
the defect, so a truncated bench run reads as "bad input", not a Python
traceback or a silently empty comparison.

The default tolerance is deliberately loose (30%): micro timings on shared
CI machines jitter, and the gate exists to catch order-of-magnitude
regressions (an accidental O(n^2), a lost zero-alloc path), not percent
noise. Speedups never fail.

Each comparison is annotated with the recorded machine context (num_cpus,
load_avg) from both files' google-benchmark "context" blocks. When the two
runs disagree on num_cpus the script prints a warning — but does not fail —
because timing ratios between machines of different widths are not
comparable for the parallel/sharded rows (a 1-CPU runner cannot show the
multi-core shard-scaling curve at all; see EXPERIMENTS.md "Shard scaling").
"""

import argparse
import json
import sys


class BenchFileError(Exception):
    """A benchmark JSON file that cannot be compared, with the reason."""


_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Largest allowed fresh / baseline ratio of a peak_rss_mb counter.
RSS_LIMIT = 1.20


def load_times(path):
    """name -> real_time in ns, aggregates and error runs excluded.

    Raises BenchFileError (never KeyError/JSONDecodeError) on any defect.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise BenchFileError(f"{path}: cannot read ({err.strerror})")
    except json.JSONDecodeError as err:
        raise BenchFileError(f"{path}: invalid JSON at line {err.lineno}")
    if not isinstance(data, dict) or not isinstance(
            data.get("benchmarks"), list):
        raise BenchFileError(
            f"{path}: not a google-benchmark report (no 'benchmarks' list)")
    times = {}
    for index, entry in enumerate(data["benchmarks"]):
        if not isinstance(entry, dict):
            raise BenchFileError(
                f"{path}: benchmarks[{index}] is not an object")
        if entry.get("run_type") == "aggregate" or "error_occurred" in entry:
            continue
        missing = [key for key in ("name", "real_time") if key not in entry]
        if missing:
            raise BenchFileError(
                f"{path}: benchmarks[{index}] lacks {'/'.join(missing)} — "
                "truncated or non-benchmark JSON?")
        try:
            real_time = float(entry["real_time"])
        except (TypeError, ValueError):
            raise BenchFileError(
                f"{path}: benchmarks[{index}] ({entry['name']}) has "
                f"non-numeric real_time {entry['real_time']!r}")
        unit = _UNIT_TO_NS.get(entry.get("time_unit", "ns"), 1.0)
        times[entry["name"]] = real_time * unit
    return times


def load_peak_rss(path):
    """name -> peak_rss_mb for the entries that carry the counter.

    Call after load_times has validated the file; a non-numeric counter
    raises BenchFileError.
    """
    with open(path) as fh:
        data = json.load(fh)
    peaks = {}
    for index, entry in enumerate(data["benchmarks"]):
        if entry.get("run_type") == "aggregate" or "error_occurred" in entry:
            continue
        if "peak_rss_mb" not in entry:
            continue
        try:
            peaks[entry["name"]] = float(entry["peak_rss_mb"])
        except (TypeError, ValueError):
            raise BenchFileError(
                f"{path}: benchmarks[{index}] ({entry['name']}) has "
                f"non-numeric peak_rss_mb {entry['peak_rss_mb']!r}")
    return peaks


def load_context(path):
    """Machine context ({"num_cpus": int, "load_avg": [..]}) recorded in the
    report, best-effort: missing/odd context yields an empty dict rather
    than an error, since old baselines predate the annotation."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}
    context = data.get("context") if isinstance(data, dict) else None
    if not isinstance(context, dict):
        return {}
    out = {}
    if isinstance(context.get("num_cpus"), int):
        out["num_cpus"] = context["num_cpus"]
    load_avg = context.get("load_avg")
    if isinstance(load_avg, list) and all(
            isinstance(x, (int, float)) for x in load_avg):
        out["load_avg"] = [float(x) for x in load_avg]
    return out


def describe_context(label, context):
    """One annotation line per side, e.g. 'baseline: 8 cpus, load 0.12'."""
    cpus = context.get("num_cpus")
    load = context.get("load_avg")
    parts = [f"{cpus} cpus" if cpus is not None else "cpus unrecorded",
             "load " + "/".join(f"{x:.2f}" for x in load) if load
             else "load unrecorded"]
    return f"  [{label}] {', '.join(parts)}"


def cpu_mismatch_warning(base_context, fresh_context):
    """The warning line when both sides recorded num_cpus and they differ;
    None otherwise. Advisory only — never turns into an exit code."""
    base_cpus = base_context.get("num_cpus")
    fresh_cpus = fresh_context.get("num_cpus")
    if base_cpus is None or fresh_cpus is None or base_cpus == fresh_cpus:
        return None
    return (f"WARNING: num_cpus mismatch (baseline {base_cpus}, fresh "
            f"{fresh_cpus}) — parallel/sharded timings are not comparable "
            "across machine widths; treat those rows as informational")


def compare(base, fresh, tolerance):
    """Prints the per-benchmark table; returns the regressions list."""
    regressions = []
    for name in sorted(base):
        if name not in fresh:
            print(f"  [only-baseline] {name}")
            continue
        old, new = base[name], fresh[name]
        ratio = new / old if old > 0 else float("inf")
        marker = " "
        if ratio > 1.0 + tolerance:
            marker = "!"
            regressions.append((name, ratio))
        print(f"  [{marker}] {name}: {old:12.0f}ns -> {new:12.0f}ns "
              f"({ratio:6.2f}x)")
    for name in sorted(set(fresh) - set(base)):
        print(f"  [only-fresh] {name}")
    return regressions


def compare_rss(base, fresh, limit=RSS_LIMIT):
    """Prints the peak-RSS table for benchmarks both sides measured;
    returns the (name, ratio) pairs whose fresh peak exceeds base * limit."""
    regressions = []
    for name in sorted(set(base) & set(fresh)):
        old, new = base[name], fresh[name]
        ratio = new / old if old > 0 else float("inf")
        marker = " "
        if ratio > limit:
            marker = "!"
            regressions.append((name, ratio))
        print(f"  [{marker}] {name}: peak_rss_mb {old:10.1f} -> {new:10.1f} "
              f"({ratio:6.2f}x)")
    return regressions


def self_test():
    """Exercises the load/compare paths against in-process fixtures.

    Run by tools/ci.sh before the real comparison so a hardening regression
    in this script fails the gate on its own, without needing a malformed
    bench file to show up organically.
    """
    import os
    import tempfile

    def write(content):
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        handle.write(content)
        handle.close()
        return handle.name

    good = write(json.dumps({"benchmarks": [
        {"name": "BM_A", "real_time": 100.0, "time_unit": "ns"},
        {"name": "BM_B", "real_time": 2.0, "time_unit": "us"},
        {"name": "BM_agg", "real_time": 1.0, "run_type": "aggregate"},
    ]}))
    cases = [
        ("missing file", os.path.join(tempfile.gettempdir(),
                                      "fdlsp-no-such-bench.json"),
         "cannot read"),
        ("invalid JSON", write("{not json"), "invalid JSON"),
        ("wrong shape", write('{"context": {}}'), "no 'benchmarks' list"),
        ("missing keys", write('{"benchmarks": [{"iterations": 3}]}'),
         "lacks name/real_time"),
        ("bad real_time", write(
            '{"benchmarks": [{"name": "BM_X", "real_time": "fast"}]}'),
         "non-numeric real_time"),
    ]
    failures = []
    for label, path, needle in cases:
        try:
            load_times(path)
            failures.append(f"{label}: accepted malformed input")
        except BenchFileError as err:
            if needle not in str(err):
                failures.append(f"{label}: diagnostic {str(err)!r} "
                                f"lacks {needle!r}")
    times = load_times(good)
    if times != {"BM_A": 100.0, "BM_B": 2000.0}:
        failures.append(f"good file parsed to {times!r}")
    if compare({"BM_A": 100.0}, {"BM_A": 140.0}, 0.30) != \
            [("BM_A", 1.4)]:
        failures.append("30% tolerance failed to flag a 1.4x slowdown")
    if compare({"BM_A": 100.0}, {"BM_A": 120.0}, 0.30):
        failures.append("30% tolerance flagged a 1.2x slowdown")
    if compare({"BM_A": 100.0}, {"BM_B": 100.0}, 0.30):
        failures.append("disjoint benchmark sets treated as a regression")

    # Peak-RSS gate.
    with_rss = write(json.dumps({"benchmarks": [
        {"name": "BM_A", "real_time": 1.0, "peak_rss_mb": 64.5},
        {"name": "BM_B", "real_time": 1.0},
    ]}))
    if load_peak_rss(with_rss) != {"BM_A": 64.5}:
        failures.append(f"peak_rss_mb parsed to {load_peak_rss(with_rss)!r}")
    bad_rss = write(json.dumps({"benchmarks": [
        {"name": "BM_A", "real_time": 1.0, "peak_rss_mb": "big"}]}))
    try:
        load_peak_rss(bad_rss)
        failures.append("non-numeric peak_rss_mb accepted")
    except BenchFileError as err:
        if "non-numeric peak_rss_mb" not in str(err):
            failures.append(f"peak_rss_mb diagnostic {str(err)!r}")
    if compare_rss({"BM_A": 100.0}, {"BM_A": 125.0}) != [("BM_A", 1.25)]:
        failures.append("20% RSS limit failed to flag a 1.25x peak")
    if compare_rss({"BM_A": 100.0}, {"BM_A": 115.0}):
        failures.append("20% RSS limit flagged a 1.15x peak")
    if compare_rss({"BM_A": 100.0}, {"BM_B": 900.0}):
        failures.append("RSS compared across different benchmarks")
    os.unlink(with_rss)
    os.unlink(bad_rss)

    # Machine-context annotation path.
    with_context = write(json.dumps({
        "context": {"num_cpus": 4, "load_avg": [0.25, 0.5, 0.75]},
        "benchmarks": [],
    }))
    context = load_context(with_context)
    if context != {"num_cpus": 4, "load_avg": [0.25, 0.5, 0.75]}:
        failures.append(f"context parsed to {context!r}")
    if load_context(good) != {}:
        failures.append("file without context did not yield empty context")
    if "4 cpus" not in describe_context("fresh", context):
        failures.append("describe_context omits the cpu count")
    if "unrecorded" not in describe_context("baseline", {}):
        failures.append("describe_context hides missing context")
    if cpu_mismatch_warning({"num_cpus": 1}, {"num_cpus": 4}) is None:
        failures.append("1-vs-4 cpu mismatch produced no warning")
    if cpu_mismatch_warning({"num_cpus": 4}, {"num_cpus": 4}) is not None:
        failures.append("matching cpu counts produced a spurious warning")
    if cpu_mismatch_warning({}, {"num_cpus": 4}) is not None:
        failures.append("unrecorded baseline cpus produced a warning")
    os.unlink(with_context)

    for label, path, _ in cases[1:]:
        os.unlink(path)
    os.unlink(good)
    if failures:
        print("self-test FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative slowdown (default 0.30)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the malformed-input handling and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.fresh is None:
        parser.error("baseline and fresh files are required "
                     "(or use --self-test)")

    try:
        base = load_times(args.baseline)
        fresh = load_times(args.fresh)
        base_rss = load_peak_rss(args.baseline)
        fresh_rss = load_peak_rss(args.fresh)
    except BenchFileError as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2

    base_context = load_context(args.baseline)
    fresh_context = load_context(args.fresh)
    print("machine context:")
    print(describe_context("baseline", base_context))
    print(describe_context("fresh", fresh_context))
    warning = cpu_mismatch_warning(base_context, fresh_context)
    if warning:
        print(warning)
    print()

    regressions = compare(base, fresh, args.tolerance)
    rss_regressions = compare_rss(base_rss, fresh_rss)
    if regressions or rss_regressions:
        if regressions:
            print(f"\n{len(regressions)} regression(s) beyond "
                  f"{args.tolerance:.0%} tolerance:")
            for name, ratio in regressions:
                print(f"  {name}: {ratio:.2f}x slower")
        if rss_regressions:
            print(f"\n{len(rss_regressions)} peak-RSS regression(s) beyond "
                  f"{RSS_LIMIT - 1:.0%}:")
            for name, ratio in rss_regressions:
                print(f"  {name}: {ratio:.2f}x peak_rss_mb")
        return 1
    print(f"\nOK: no regression beyond {args.tolerance:.0%} "
          f"({len(base)} baseline benchmarks checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
