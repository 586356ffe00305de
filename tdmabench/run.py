#!/usr/bin/env python3
"""Pipeline benchmark: sensor field -> distance-2 arc coloring -> TDMA frame.

Usage (from the repository root):

    python3 tdmabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 tdmabench/run.py --workload all --seed N --seconds S --trace 0|1

Builds the benchmark and the library modules it links from source (CMake,
into $CARGO_TARGET_DIR or .bench_build), then runs each workload in its own
process. Lines starting with "# " are for people; the last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). A traced run also writes its spans to
<build>/spans/<workload>-seed<N>.json.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# One run measures for --seconds and then finishes its last iteration; a
# field-sync iteration takes a few seconds, so this leaves ample room.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO / base
    return base / "tdmabench"


def build(targets=("tdmabench",)):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    # A configure that failed leaves a cache but no Makefile: configure again.
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    cmd = ["cmake", "--build", str(out), "-j", "4"]
    for target in targets:
        cmd += ["--target", target]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return out


def load_spec():
    with open(REPO / "BENCHMARK.json") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not METRIC_NAME.fullmatch(metric["name"]):
                raise ValueError(f"bad metric name {metric['name']!r}")
    return spec


def run_workload(binary, workload, seed, seconds, trace, spans_dir):
    """Runs one workload in its own process; returns its parsed JSON line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def result_line(raw, spec, trace):
    """The result line: the metrics BENCHMARK.json names, checked."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    produced = raw["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = produced.get(metric["name"])
        if got is None:
            raise RuntimeError(f"metric {metric['name']} was not produced")
        if got["unit"] != metric["unit"]:
            raise RuntimeError(f"metric {metric['name']} has unit "
                               f"{got['unit']}, expected {metric['unit']}")
        if not math.isfinite(got["value"]):
            raise RuntimeError(f"metric {metric['name']} is not finite")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": raw["failed"] == 0 and raw["attempted"] > 0,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def print_summary(raw, spec, result, trace):
    ctx = raw["context"]
    print(f"# workload {ctx['workload']}  seed {ctx['seed']}  "
          f"nproc {ctx['nproc']}  loadavg {ctx['loadavg'][0]:.2f}  "
          f"build {ctx['build_type']}  pool threads {ctx['pool_threads']}  "
          f"iterations {raw['iterations']}")
    failed_frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    print(f"# checks: {raw['attempted']} attempted, {raw['failed']} failed "
          f"(failed_frac {failed_frac:.4f}) {' '.join(raw['failures'])}")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        better = metric["better"]
        print(f"#   {metric['name']:<32} {value:>16.6g} {metric['unit']:<8} "
              f"({better} is better)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        out = build()
        binary = out / "tdmabench"
        workloads = names if args.workload == "all" else [args.workload]
        for workload in workloads:
            raw = run_workload(binary, workload, args.seed, args.seconds,
                               args.trace, out / "spans")
            result = result_line(raw, spec, args.trace)
            print_summary(raw, spec, result, args.trace)
            print(json.dumps(result), flush=True)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as error:
        log(f"tdmabench: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
