"""Workloads, checks and metrics of the qmoney benchmark.

Every workload is a closed loop driven from this process through the
lab's public API: harness.run_experiment, attacks.adaptive_attack with a
LocalSession, and wire.MintServer / wire.RemoteMint.  Inputs come from
the seed alone, and every timed result is checked before the run reports.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import tracing
from calibrate import REFERENCE_KERNEL_S, kernel_seconds
from qmoney import attacks, harness
from qmoney.attacks import LocalSession, StrategyKind
from qmoney.harness import ExperimentConfig, render_csv
from qmoney.mint import Mint, MintPolicy
from qmoney.wire import MintServer, RemoteMint, remote_adaptive_attack

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

RA = MintPolicy.RETURN_ALWAYS
DOI = MintPolicy.DESTROY_ON_INVALID

# The criteria 3 + 4 mix: baselines under the returning mint, the
# adaptive attack under the destroying one.
SWEEP_ROWS = (
    *((StrategyKind.GUESS_RANDOM_SYMBOLS, RA, n) for n in (1, 2, 4, 8)),
    *((StrategyKind.MEASURE_RANDOM_BASIS_COPY, RA, n) for n in (1, 2, 4, 8)),
    *((StrategyKind.ADAPTIVE_ORACLE, DOI, n) for n in (1, 2, 4)),
)
# A sweep row whose success rate is further than this many standard
# errors from the analytic rate counts as failed.
SIGMAS = 4.0

IMPORT_REPS = 7
SETUP_REPS = 3
PROBE_SECONDS = 1.0
# Longest traced phase: a traced sweep records about 10^5 spans a second,
# all kept in memory until the run ends.
TRACE_SECONDS = 2.0
# Untimed units of the workload before the timed run: sweep rounds,
# attacks, or remote mint-attack-release rounds.  They leave the CPUs
# busy and at speed when timing starts, and peak_rss_mb is read right
# after them, so that it covers a fixed amount of work whatever the speed.
WARMUP_UNITS = {"mc-sweep": 40, "attack-scale": 1, "remote-attack": 10}
# Length of mc-sweep's workers=2 pass.  Its rate swings by a quarter
# between runs on two shared virtual CPUs, too much to bound, so it is
# reported but not a benchmark metric.
W2_SECONDS = 3.0


@dataclass(frozen=True)
class Scale:
    attack_n: int
    remote_n: int
    transcript_n: int
    row_trials: int
    chunk_queries: int


FULL = Scale(attack_n=4096, remote_n=256, transcript_n=32, row_trials=50, chunk_queries=256)
TOY = Scale(attack_n=64, remote_n=16, transcript_n=8, row_trials=20, chunk_queries=16)


@dataclass
class Phase:
    """What one timed loop produced: a rate per chunk of work, a latency
    per call into the lab, the host's speed next to each chunk, and the
    checks made on its results."""

    # raw and speed-scaled, per chunk
    rates: list[float] = field(default_factory=list)
    norm_rates: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    # seconds per call, raw and speed-scaled
    latencies: array = field(default_factory=lambda: array("d"))
    norm_latencies: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    _kernel_s: float | None = None

    def start(self) -> None:
        """Time the kernel once before the first chunk."""
        self._kernel_s = kernel_seconds()

    def end_chunk(self, count: int, seconds: float) -> None:
        """Close a chunk of `count` operations that took `seconds`, and
        the latencies recorded since the last chunk: time the kernel and
        scale them by the host's speed, the mean of the kernel's times
        before and after the chunk."""
        after = kernel_seconds()
        speed = REFERENCE_KERNEL_S / ((self._kernel_s + after) / 2)
        self._kernel_s = after
        self.speeds.append(speed)
        self.rates.append(count / seconds)
        self.norm_rates.append(count / seconds / speed)
        self.norm_latencies.extend(x * speed for x in self.latencies[len(self.norm_latencies):])

    def add_checks(self, *phases: "Phase") -> None:
        for p in phases:
            self.attempted += p.attempted
            self.failed += p.failed

    def rate(self, raw: bool = False) -> float:
        return statistics.median(self.rates if raw else self.norm_rates)

    def latency_us(self, q: int, raw: bool = False) -> float:
        """The q-th percentile over every call of the phase."""
        samples = self.latencies if raw else self.norm_latencies
        return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e6


def units(seconds: float | None = None, count: int | None = None):
    """Numbers the units of work of a loop: `count` of them, or as many
    as start within `seconds`, and always at least one."""
    deadline = None if seconds is None else perf_counter() + seconds
    k = 0
    while True:
        yield k
        k += 1
        if k == count or (deadline is not None and perf_counter() >= deadline):
            return


def _mix(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


# -- mc-sweep ------------------------------------------------------------


def _sweep_config(row, trials: int, seed: int, workers: int) -> ExperimentConfig:
    strategy, policy, n = row
    return ExperimentConfig(strategy=strategy, policy=policy, n_values=[n], trials=trials,
                            seed=seed, workers=workers)


def sweep(seed: int, loop, scale: Scale, workers: int) -> Phase:
    """Rounds over SWEEP_ROWS, one run_experiment call per row.  Each
    round is one rate sample and one latency sample: the rows cost too
    differently for a percentile over single calls to be steady.

    Checks: each row, summed over the phase, lies within SIGMAS standard
    errors of its analytic rate; at workers > 1 every call's CSV also
    equals the CSV of the same call at workers=1, computed afterwards."""
    phase = Phase()
    successes = [0] * len(SWEEP_ROWS)
    trials = [0] * len(SWEEP_ROWS)
    analytic = [0.0] * len(SWEEP_ROWS)
    csvs = []
    phase.start()
    for rnd in loop:
        round_seed = _mix(seed, rnd)
        start = perf_counter()
        results = [harness.run_experiment(_sweep_config(row, scale.row_trials, round_seed, workers))
                   for row in SWEEP_ROWS]
        elapsed = perf_counter() - start
        phase.latencies.append(elapsed)
        phase.end_chunk(len(SWEEP_ROWS) * scale.row_trials, elapsed)
        for idx, rows in enumerate(results):
            (row,) = rows
            successes[idx] += row.successes
            trials[idx] += row.trials
            analytic[idx] = row.analytic_rate
            if workers > 1:
                csvs.append((idx, round_seed, render_csv(rows)))
    rounds = len(phase.rates)
    phase.attempted += rounds * len(SWEEP_ROWS)
    for idx in range(len(SWEEP_ROWS)):
        p = analytic[idx]
        se = math.sqrt(p * (1.0 - p) / trials[idx])
        if abs(successes[idx] / trials[idx] - p) > SIGMAS * se:
            phase.failed += rounds
    for idx, round_seed, csv in csvs:
        expected = harness.run_experiment(
            _sweep_config(SWEEP_ROWS[idx], scale.row_trials, round_seed, 1))
        phase.failed += csv != render_csv(expected)
    return phase


# -- attack-scale --------------------------------------------------------


class _TimedLocalSession(LocalSession):
    """LocalSession that times every call, and closes a chunk of the
    phase after every `chunk` verify queries."""

    def __init__(self, mint, rng, phase: Phase, chunk: int):
        super().__init__(mint, RA, rng)
        self._phase = phase
        self._chunk = chunk
        self._queries = 0
        self.chunk_start = perf_counter()

    def verify(self, serial, handle):
        t0 = perf_counter()
        result = super().verify(serial, handle)
        t1 = perf_counter()
        self._phase.latencies.append(t1 - t0)
        self._queries += 1
        if self._queries % self._chunk == 0:
            self._phase.end_chunk(self._chunk, t1 - self.chunk_start)
            self.chunk_start = perf_counter()
        return result

    def apply_x(self, handle, i):
        t0 = perf_counter()
        result = super().apply_x(handle, i)
        self._phase.latencies.append(perf_counter() - t0)
        return result

    def measure(self, handle, i, basis):
        t0 = perf_counter()
        result = super().measure(handle, i, basis)
        self._phase.latencies.append(perf_counter() - t0)
        return result


def seeded_bill(seed: int, k: int, n: int):
    rng = random.Random(_mix(seed, k))
    mint = Mint(rng=rng)
    secret, handle = mint.mint_bill(n)
    return mint, rng, secret, handle


def attack_scale(seed: int, loop, scale: Scale) -> Phase:
    """Adaptive attacks on fresh seeded bills, one after another.  Each
    chunk of chunk_queries verify queries is one rate sample; n is a
    multiple of it, so no chunk spans two attacks."""
    phase = Phase()
    n, chunk = scale.attack_n, scale.chunk_queries
    phase.start()
    for k in loop:
        mint, rng, secret, handle = seeded_bill(seed, k, n)
        session = _TimedLocalSession(mint, rng, phase, chunk)
        session.chunk_start = perf_counter()
        transcript, _ = attacks.adaptive_attack(session, secret.serial, handle, n)
        phase.attempted += 1
        phase.failed += not (transcript.queries_used == n and transcript.bill_recovered
                             and transcript.learned == list(secret.symbols))
    return phase


# -- remote-attack -------------------------------------------------------


class _TimedRemoteMint(RemoteMint):
    """RemoteMint that times each request round trip at the client into
    the list `latencies`."""

    def __init__(self, host, port):
        super().__init__(host, port)
        self.latencies = array("d")

    def request(self, msg):
        t0 = perf_counter()
        resp = super().request(msg)
        self.latencies.append(perf_counter() - t0)
        return resp


class Wire:
    """One in-process MintServer on loopback and one client session.

    Client and server threads share one CPU while the Wire is open.  On
    two CPUs every round trip also pays for waking the other CPU from
    idle.  On a shared virtual machine that cost varies from run to run
    in a way the calibration kernel, timed on one CPU, does not follow
    (see perfbench/README.md).
    """

    def __init__(self, seed: int):
        self._cpus = os.sched_getaffinity(0)
        # threads inherit the affinity of the thread that starts them
        os.sched_setaffinity(0, {min(self._cpus)})
        t0 = perf_counter()
        self.server = MintServer("127.0.0.1", 0, Mint(rng=random.Random(seed)), RA,
                                 random.Random(seed))
        self.server.start()
        t1 = perf_counter()
        self.client = _TimedRemoteMint(*self.server.address)
        t2 = perf_counter()
        self.setup_s, self.connect_s = t2 - t0, t2 - t1

    def close(self) -> float:
        """Close the session and stop the server; returns the stop time."""
        self.client.close()
        t0 = perf_counter()
        self.server.stop()
        stop_s = perf_counter() - t0
        os.sched_setaffinity(0, self._cpus)
        return stop_s


def check_transcript(wire: Wire, seed: int, n: int) -> bool:
    """Criterion 5 on a fresh server: the remote n-qubit transcript equals
    the local one from the same seed."""
    local_mint = Mint(rng=random.Random(seed))
    secret, handle = local_mint.mint_bill(n)
    session = LocalSession(local_mint, RA, random.Random(seed))
    local, _ = attacks.adaptive_attack(session, secret.serial, handle, n)
    remote, client = remote_adaptive_attack(*wire.server.address, n=n)
    try:
        return (client.sent_counts["verify"] == n
                and remote.queries_used == local.queries_used == n
                and remote.serial == local.serial
                and remote.learned == local.learned
                and remote.bill_recovered and local.bill_recovered
                and [(r.qubit, r.outcome, r.symbol) for r in remote.records]
                == [(r.qubit, r.outcome, r.symbol) for r in local.records])
    finally:
        client.close()


def remote_attack(wire: Wire, loop, scale: Scale) -> Phase:
    """Mint a fresh bill over the wire, attack it, release it; each round
    is one rate sample and each request one latency sample."""
    phase = Phase()
    client, n = wire.client, scale.remote_n
    client.latencies = phase.latencies
    phase.start()
    for _ in loop:
        start = perf_counter()
        serial, handle = client.mint_bill(n)
        transcript, final = attacks.adaptive_attack(client, serial, handle, n)
        client.release(final)
        phase.end_chunk(transcript.queries_used, perf_counter() - start)
        secret = wire.server.mint.secret(serial)
        phase.attempted += 1
        phase.failed += not (transcript.queries_used == n and transcript.bill_recovered
                             and transcript.learned == list(secret.symbols))
    return phase


# -- set-up --------------------------------------------------------------


# The kernel runs twice before the import: once to warm up, once timed.
_IMPORT_PROBE = ("import time, calibrate; calibrate.kernel(); k = calibrate.kernel_seconds(); "
                 "t = time.perf_counter(); import qmoney; print(time.perf_counter() - t, k)")


def import_seconds() -> tuple[float, float]:
    """Median time to import qmoney in a fresh interpreter, raw and
    scaled by the host's speed, which each interpreter measures with the
    kernel just before its import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(Path(__file__).parent))))
    raw, scaled = [], []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        seconds, kernel_s = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_KERNEL_S / kernel_s)
    return statistics.median(raw), statistics.median(scaled)


class Setup:
    """Builds a workload's inputs SETUP_REPS times, keeps the last, and
    records the median build time plus the fresh-interpreter import,
    raw and scaled by the host's speed.  Each build is scaled by the
    mean of the kernel's times before and after it."""

    def __init__(self, workload: str, seed: int, scale: Scale):
        self.import_s, norm_import_s = import_seconds()
        self.wire: Wire | None = None
        self.connect_s: list[float] = []
        self.stop_s: list[float] = []
        builds, norm_builds = [], []
        kernel_s = kernel_seconds()
        for rep in range(SETUP_REPS):
            if workload == "remote-attack":
                if self.wire is not None:
                    self.stop_s.append(self.wire.close())
                self.wire = Wire(seed)
                build_s = self.wire.setup_s
                self.connect_s.append(self.wire.connect_s)
            else:
                t0 = perf_counter()
                if workload == "attack-scale":
                    seeded_bill(seed, 0, scale.attack_n)
                else:
                    [_sweep_config(row, scale.row_trials, _mix(seed, 0), 1) for row in SWEEP_ROWS]
                build_s = perf_counter() - t0
            after = kernel_seconds()
            builds.append(build_s)
            norm_builds.append(build_s * REFERENCE_KERNEL_S / ((kernel_s + after) / 2))
            kernel_s = after
        self.raw_setup_s = self.import_s + statistics.median(builds)
        self.setup_s = norm_import_s + statistics.median(norm_builds)

    def close(self) -> None:
        if self.wire is not None:
            self.stop_s.append(self.wire.close())
            self.wire = None


def run_phase(workload: str, setup: Setup, seed: int, loop, scale: Scale) -> Phase:
    if workload == "mc-sweep":
        return sweep(seed, loop, scale, workers=1)
    if workload == "attack-scale":
        return attack_scale(seed, loop, scale)
    return remote_attack(setup.wire, loop, scale)


# -- results -------------------------------------------------------------


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "network": "loopback only, no system-wide tracing",
    }


def measure(workload: str, seed: int, seconds: float, scale: Scale = FULL) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup = Setup(workload, seed, scale)
    checks = Phase()
    try:
        if workload == "remote-attack":
            checks.attempted += 1
            checks.failed += not check_transcript(setup.wire, seed, scale.transcript_n)
        warmup = run_phase(workload, setup, seed + 1, units(count=WARMUP_UNITS[workload]), scale)
        # ru_maxrss only rises, so this is the peak up to here
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        main = run_phase(workload, setup, seed, units(seconds), scale)
        checks.add_checks(warmup, main)
        if workload == "mc-sweep":
            # the same rounds at workers=2, for the CSV check and the
            # roadmap's sweep_trials_per_s_w2
            w2 = sweep(seed, units(W2_SECONDS), scale, workers=2)
            checks.add_checks(w2)
    finally:
        setup.close()
    values = {
        "setup_s": setup.setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": main.rate(),
        "latency_p50_us": main.latency_us(50),
        "latency_p90_us": main.latency_us(90),
    }
    samples = {
        "rate_samples": len(main.rates),
        "latency_samples": len(main.norm_latencies),
        # the host's speed against the reference, median over chunks
        "speed": statistics.median(main.speeds),
        # as measured, unscaled
        "raw_setup_s": setup.raw_setup_s,
        "raw_ops_per_s": main.rate(raw=True),
        "raw_latency_p50_us": main.latency_us(50, raw=True),
        "raw_latency_p90_us": main.latency_us(90, raw=True),
        # reported, not bounded: it moved by a quarter between runs
        "raw_latency_p99_us": main.latency_us(99, raw=True),
    }
    if workload == "mc-sweep":
        samples["raw_sweep_trials_per_s_w2"] = w2.rate(raw=True)
    return {"checks": checks, "values": values, "samples": samples}


def _probe(workload: str, seed: int, scale: Scale, values: dict, checks: Phase) -> None:
    """Trace a short run of another workload and take from it the layer
    metrics the main workload never exercised."""
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        if workload == "remote-attack":
            wire = Wire(seed)
            try:
                probe = remote_attack(wire, units(PROBE_SECONDS), scale)
            finally:
                stop_s = wire.close()
        else:
            probe = sweep(seed, units(PROBE_SECONDS), scale, workers=1)
    finally:
        uninstall()
    checks.add_checks(probe)
    layers = tracing.layer_metrics(tracer.spans)
    if workload == "remote-attack":
        layers["wire.connect_s"] = wire.connect_s
        layers["wire.stop_s"] = stop_s
    for name, value in layers.items():
        values.setdefault(name, value)


def measure_traced(workload: str, seed: int, seconds: float, scale: Scale = FULL) -> dict:
    """Traced run: the per-layer metrics.  Equal phases run untraced and
    traced on the same inputs, so the difference is the tracing overhead;
    short traced probes of other workloads fill in the layers this one
    never calls."""
    setup = Setup(workload, seed, scale)
    checks = Phase()
    tracer = tracing.Tracer()
    half = min(seconds / 2, TRACE_SECONDS)
    try:
        plain = run_phase(workload, setup, seed, units(half), scale)
        uninstall = tracing.install(tracer)
        try:
            traced = run_phase(workload, setup, seed, units(half), scale)
        finally:
            uninstall()
    finally:
        setup.close()
    checks.add_checks(plain, traced)

    values = tracing.layer_metrics(tracer.spans)
    values["trace.overhead_pct"] = (1.0 - traced.rate() / plain.rate()) * 100.0
    values["cli.import_s"] = setup.import_s
    if setup.connect_s:
        values["wire.connect_s"] = statistics.median(setup.connect_s)
        # the server that served the workload; the spares never polled
        values["wire.stop_s"] = setup.stop_s[-1]
    if workload != "mc-sweep":
        _probe("mc-sweep", seed, scale, values, checks)
    if workload != "remote-attack":
        _probe("remote-attack", seed, scale, values, checks)
    w1 = sweep(seed, units(PROBE_SECONDS), scale, workers=1)
    w2 = sweep(seed, units(PROBE_SECONDS), scale, workers=2)
    values["harness.parallel_speedup"] = w2.rate() / w1.rate()
    checks.add_checks(w1, w2)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    samples = {"spans": len(tracer.spans)}
    return {"checks": checks, "values": values, "samples": samples}


def result(run: dict, spec_metrics: list[dict]) -> dict:
    """The benchmark's result object, metrics in the order and units of
    BENCHMARK.json; a metric the run did not produce raises KeyError."""
    checks = run["checks"]
    metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]}
               for m in spec_metrics}
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
