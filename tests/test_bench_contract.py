"""The benchmark's contract with the lab: each traced workload emits every
per-layer metric that BENCHMARK.json names.

The tracer reads a layer's metric from the runtime names it wraps.  A
change that stops calling one of them (a sweep trial that no longer
builds a `Mint`, say) drops that metric, and the benchmark's traced run
then stops with a KeyError.  These runs are toy-sized; they check that
each metric is there and finite, not its sign or its size.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402  (needs the path set above)

SPEC = bench.load_spec()


@pytest.fixture
def short_phases(monkeypatch, tmp_path):
    # the benchmark self-test's phase lengths; the trace goes to tmp_path
    monkeypatch.setattr(bench, "W2_SECONDS", 0.2)
    monkeypatch.setattr(bench, "PROBE_SECONDS", 0.2)
    monkeypatch.setattr(bench, "IMPORT_REPS", 1)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_per_layer_metric(short_phases, workload):
    out = bench.result(bench.measure_traced(workload, 7, 0.3, bench.TOY), SPEC["per_layer"])
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: metric["value"] for name, metric in out["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values()), values
    assert out["correct"] and out["failed"] == 0, out
