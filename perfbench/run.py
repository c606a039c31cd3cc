#!/usr/bin/env python3
"""Run one workload of the qmoney benchmark, or all of them.

    python3 perfbench/run.py --workload attack-scale --seed 101 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from anywhere; it imports qmoney from the src/ directory next to
perfbench/ and fails if that is missing.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  The timed end-to-end metrics are
scaled to a reference host speed (see calibrate.py).  The lines before
it record the machine, the sample counts and the raw figures.
--workload all runs every workload untraced, each in a fresh
interpreter, and prints the raw end-to-end figures under the names the
roadmap uses.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("mc-sweep", "attack-scale", "remote-attack")


def _import_bench():
    if not (SRC / "qmoney" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qmoney sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmoney

    if Path(qmoney.__file__).resolve().parent != SRC / "qmoney":
        sys.exit(f"perfbench: imported qmoney from {qmoney.__file__}, not from {SRC}")
    import bench

    return bench


def _run_one(args) -> int:
    bench = _import_bench()
    spec = bench.load_spec()
    if args.trace:
        run = bench.measure_traced(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        run = bench.measure(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    out = bench.result(run, wanted)
    print("# machine " + json.dumps(bench.machine_facts()))
    print("# samples " + json.dumps(run["samples"]))
    print(json.dumps(out))
    return 0


def _run_all(args) -> int:
    """Every workload in its own interpreter, then the roadmap's nine
    end-to-end metrics by name, as measured."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"# {workload} " + lines[-2].removeprefix("# "))
        results[workload] = json.loads(lines[-1])
        results[workload]["samples"] = json.loads(lines[-2].removeprefix("# samples "))
        for name, metric in results[workload]["metrics"].items():
            print(f"{workload:14s} {name:16s} {metric['value']:14.3f} {metric['unit']}")

    def value(workload, name):
        return results[workload]["metrics"][name]["value"]

    def raw(workload, name):
        return results[workload]["samples"]["raw_" + name]

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    named = {
        "setup_s": (max(raw(w, "setup_s") for w in WORKLOADS), "s"),
        "peak_rss_mb": (max(value(w, "peak_rss_mb") for w in WORKLOADS), "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
        "sweep_trials_per_s": (raw("mc-sweep", "ops_per_s"), "1/s"),
        "sweep_trials_per_s_w2": (raw("mc-sweep", "sweep_trials_per_s_w2"), "1/s"),
        "attack_queries_per_s": (raw("attack-scale", "ops_per_s"), "1/s"),
        "remote_queries_per_s": (raw("remote-attack", "ops_per_s"), "1/s"),
        "remote_rtt_p50_us": (raw("remote-attack", "latency_p50_us"), "us"),
        "remote_rtt_p99_us": (raw("remote-attack", "latency_p99_us"), "us"),
    }
    for name, (val, unit) in named.items():
        print(f"{name:24s} {val:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in named.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced only")
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
