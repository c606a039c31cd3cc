#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at toy size, traced and untraced, and checks that
each metric of BENCHMARK.json is emitted with its unit and a positive
value.  Then it corrupts results on purpose (a wrong learned symbol, a
wrong sweep count, a workers=2 CSV that differs from workers=1) and
checks that each corruption raises the failed count.  Exits 0 on
success.  Takes about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import run

bench = run._import_bench()

from qmoney import attacks, harness  # noqa: E402  (needs the path set by run)

SEED = 7
SECONDS = 0.3


def _fast_phases() -> None:
    bench.W2_SECONDS = 0.2
    bench.PROBE_SECONDS = 0.2
    bench.IMPORT_REPS = 1


def _check_metrics(out: dict, wanted: list[dict], label: str) -> None:
    names = [m["name"] for m in wanted]
    got = list(out["metrics"])
    if got != names:
        raise AssertionError(f"{label}: metrics {got} != {names}")
    for m in wanted:
        metric = out["metrics"][m["name"]]
        if metric["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} unit {metric['unit']} != {m['unit']}")
        value = metric["value"]
        if not isinstance(value, float) or not math.isfinite(value):
            raise AssertionError(f"{label}: {m['name']} = {value!r}")
        # tracing overhead is a difference and may come out negative
        if value <= 0 and m["name"] != "trace.overhead_pct":
            raise AssertionError(f"{label}: {m['name']} = {value!r} is not positive")
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        raise AssertionError(f"{label}: checks failed: {out['failed']} of {out['attempted']}")


def check_emitted(spec: dict) -> None:
    for workload in run.WORKLOADS:
        out = bench.result(bench.measure(workload, SEED, SECONDS, bench.TOY), spec["end_to_end"])
        _check_metrics(out, spec["end_to_end"], f"{workload} untraced")
        out = bench.result(bench.measure_traced(workload, SEED, SECONDS, bench.TOY),
                           spec["per_layer"])
        _check_metrics(out, spec["per_layer"], f"{workload} traced")
        print(f"ok  {workload}: every metric emitted with its unit")


def _corrupt_learned(original):
    def attack(*args, **kwargs):
        transcript, handle = original(*args, **kwargs)
        first = transcript.learned[0]
        transcript.learned[0] = next(s for s in type(first) if s is not first)
        return transcript, handle
    return attack


def _corrupt_successes(original):
    def run_experiment(config):
        return [dataclasses.replace(r, successes=r.trials) for r in original(config)]
    return run_experiment


def _corrupt_parallel_csv(original):
    def run_experiment(config):
        rows = original(config)
        if config.workers > 1:
            rows = [dataclasses.replace(r, success_rate=r.success_rate + 1e-9) for r in rows]
        return rows
    return run_experiment


def check_detects(spec: dict) -> None:
    cases = [
        (attacks, "adaptive_attack", _corrupt_learned, ("attack-scale", "remote-attack")),
        (harness, "run_experiment", _corrupt_successes, ("mc-sweep",)),
        (harness, "run_experiment", _corrupt_parallel_csv, ("mc-sweep",)),
    ]
    for module, attr, corrupt, workloads in cases:
        original = getattr(module, attr)
        setattr(module, attr, corrupt(original))
        try:
            for workload in workloads:
                out = bench.result(bench.measure(workload, SEED, SECONDS, bench.TOY),
                                   spec["end_to_end"])
                ratio = out["failed"] / out["attempted"]
                if out["correct"] or ratio <= 0:
                    raise AssertionError(f"{workload}: {corrupt.__name__} went unnoticed")
                print(f"ok  {workload}: {corrupt.__name__} raises failed_ratio to {ratio:.3f}")
        finally:
            setattr(module, attr, original)


def main() -> int:
    _fast_phases()
    spec = bench.load_spec()
    check_emitted(spec)
    check_detects(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
