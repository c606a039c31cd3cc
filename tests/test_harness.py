import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from support import read_results_csv

from qmoney import harness
from qmoney.attacks import StrategyKind
from qmoney.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    analytic_success_rate,
    mint_trial,
    render_csv,
    run_experiment,
    run_trial,
    trial_rng,
    write_results,
)
from qmoney.mint import MintPolicy


def small_config(**overrides):
    base = dict(
        strategy=StrategyKind.ADAPTIVE_ORACLE,
        policy=MintPolicy.RETURN_ALWAYS,
        n_values=[1, 2, 4],
        trials=50,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_adaptive_always_succeeds(self):
        rows = run_experiment(small_config(n_values=[8], trials=100))
        (row,) = rows
        assert row.success_rate == 1.0
        assert row.mean_queries == 8.0
        assert row.successes == 100
        assert row.analytic_rate == 1.0

    def test_baseline_rates_near_analytic(self):
        rows = run_experiment(
            small_config(
                strategy=StrategyKind.MEASURE_RANDOM_BASIS_COPY, n_values=[2], trials=4000
            )
        )
        (row,) = rows
        assert abs(row.success_rate - 0.5625) <= 3 * max(row.std_error, 1e-6)

    def test_destroying_mint_recovery_rate(self):
        rows = run_experiment(
            small_config(policy=MintPolicy.DESTROY_ON_INVALID, n_values=[1], trials=4000)
        )
        (row,) = rows
        assert abs(row.success_rate - 0.5) <= 3 * row.std_error
        assert row.analytic_rate == 0.5

    def test_reproducible_rows(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(trials=0))
        with pytest.raises(ValueError):
            run_experiment(small_config(n_values=[]))
        with pytest.raises(ValueError):
            run_experiment(small_config(policy="shred-everything"))
        # the value of a member is not the member: no trial may run with it
        with pytest.raises(ValueError, match="StrategyKind"):
            run_experiment(small_config(strategy="adaptive"))


SRC = Path(__file__).resolve().parents[1] / "src"


# modules that no import of the lab may load: the network layer, its
# codec and logger, complex math, process pools, the benchmark's numpy,
# the Monte Carlo harness with its dataclasses and their inspect, and the
# tempfile that only a database save needs
_COLD_FORBIDDEN = {"qmoney.wire", "socket", "socketserver", "logging", "json", "cmath",
                   "multiprocessing", "numpy", "qmoney.harness", "dataclasses", "inspect",
                   "tempfile"}


def test_cold_import_loads_only_what_it_uses():
    # the interpreter's own modules, read before the first import, are
    # those of a bare interpreter started the same way
    probe = (
        "import os, sys\n"
        "bare = set(sys.modules)\n"
        "import qmoney\n"
        "package = set(sys.modules) - bare\n"
        "import qmoney.cli\n"
        "cli = set(sys.modules) - bare\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    children = True\n"
        "except ChildProcessError:\n"
        "    children = False\n"
        "lazy_harness = qmoney.run_experiment is qmoney.harness.run_experiment\n"
        "harness = set(sys.modules) - bare\n"
        "for strategy in qmoney.StrategyKind:\n"
        "    for policy in qmoney.MintPolicy.ALL:\n"
        "        qmoney.run_experiment(qmoney.ExperimentConfig(strategy, policy, [1, 3], 20, 5))\n"
        "swept = set(sys.modules) - bare\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    sweep_children = True\n"
        "except ChildProcessError:\n"
        "    sweep_children = False\n"
        "lazy = qmoney.MintServer is qmoney.wire.MintServer\n"
        "wire = set(sys.modules) - bare\n"
        "star = {}\n"
        "exec('from qmoney import *', star)\n"
        "print(repr((sorted(package), sorted(cli), sorted(harness), sorted(swept), sorted(wire),\n"
        "            children, sweep_children, lazy_harness, lazy,\n"
        "            sorted(set(qmoney.__all__) - set(star)),\n"
        "            sorted(set(qmoney.__all__) - set(dir(qmoney))))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    (package, cli, harness_stage, swept, wire, children, sweep_children, lazy_harness, lazy,
     unbound, undir) = ast.literal_eval(out.stdout)
    # `import qmoney` loads the simulator alone
    assert {m for m in package if m.startswith("qmoney")} == {
        "qmoney", "qmoney.qstate", "qmoney.mint", "qmoney.attacks"}
    assert "qmoney.harness" not in package and "qmoney.cli" in cli
    # the package hook loads the harness on first use of one of its names
    assert "qmoney.harness" in harness_stage and "qmoney.wire" not in harness_stage
    # a sweep counts every trial in the calling process
    assert {"multiprocessing", "mmap"}.isdisjoint(swept), sorted(swept)
    assert not sweep_children
    # the server is a plain accept loop
    assert "qmoney.wire" in wire and "socketserver" not in wire
    assert _COLD_FORBIDDEN.isdisjoint(package), sorted(_COLD_FORBIDDEN & set(package))
    assert _COLD_FORBIDDEN.isdisjoint(cli), sorted(_COLD_FORBIDDEN & set(cli))
    assert not children
    assert lazy_harness and lazy and unbound == [] and undir == []


class TestAdaptiveKernel:
    # a returning mint's rows are counted in closed form, held to the mint
    # path by test_adaptive_return_always_rows_in_closed_form
    @pytest.mark.parametrize("policy", [MintPolicy.DESTROY_ON_INVALID])
    def test_kernel_equals_mint_path(self, policy):
        # the mint path is the reference; each trial's stream is built
        # twice, so that both paths read the same draws
        for n in range(1, 9):
            for index in range(2000):
                kernel = run_trial(StrategyKind.ADAPTIVE_ORACLE, policy, n, trial_rng(11, n, index))
                reference = mint_trial(StrategyKind.ADAPTIVE_ORACLE, policy, n,
                                       trial_rng(11, n, index))
                assert kernel == reference, (policy, n, index)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_trial(StrategyKind.ADAPTIVE_ORACLE, "shred-everything", 2, trial_rng(1, 2, 0))


@pytest.mark.parametrize("strategy", list(StrategyKind), ids=lambda s: s.value)
def test_empty_bill_rejected(strategy):
    for trial in (run_trial, mint_trial):
        with pytest.raises(ValueError, match="^bill size n must be >= 1$"):
            trial(strategy, MintPolicy.DESTROY_ON_INVALID, 0, trial_rng(1, 0, 0))


_BASELINES = pytest.mark.parametrize("strategy", [
    StrategyKind.GUESS_RANDOM_SYMBOLS, StrategyKind.MEASURE_RANDOM_BASIS_COPY,
], ids=["guess", "measure-copy"])


class TestBaselineRouting:
    # run_trial computes a baseline trial exactly, with no mint, under
    # either policy; mint_trial under the row's own policy is the
    # reference
    @_BASELINES
    @pytest.mark.parametrize("policy", MintPolicy.ALL)
    def test_routing_equals_mint_path(self, strategy, policy):
        # each trial's stream is built twice, so that both paths read the
        # same draws
        for n in (1, 2, 3, 4, 8):
            for seed in (303, 11, 7):
                for index in range(2000):
                    routed = run_trial(strategy, policy, n, trial_rng(seed, n, index))
                    reference = mint_trial(strategy, policy, n, trial_rng(seed, n, index))
                    assert routed == reference, (strategy, policy, n, seed, index)

    @_BASELINES
    def test_unknown_policy_rejected(self, strategy):
        # run_trial rejects an unknown policy as the mint does
        with pytest.raises(ValueError) as routed:
            run_trial(strategy, "shred-everything", 2, trial_rng(1, 2, 0))
        with pytest.raises(ValueError) as reference:
            mint_trial(strategy, "shred-everything", 2, trial_rng(1, 2, 0))
        assert str(routed.value) == str(reference.value)
        assert "unknown policy 'shred-everything'" in str(routed.value)


class TestTrialRng:
    def test_streams_are_stable(self):
        assert trial_rng(7, 4, 0).random() == trial_rng(7, 4, 0).random()

    def test_streams_are_independent(self):
        draws = {trial_rng(7, 4, i).random() for i in range(100)}
        assert len(draws) == 100

    def test_same_stream_as_random_random(self):
        # seed * _MIX_A alone is the mix when n = index = 0, so inverting
        # _MIX_A gives mixes under 2^32: a one-word Mersenne Twister key
        u64 = 1 << 64
        inverse = pow(harness._MIX_A, -1, u64)
        cases = [(mix * inverse % u64, 0, 0) for mix in (0, 1, 12345, (1 << 32) - 1)]
        cases += [(seed, n, i) for seed in (303, 404) for n in (1, 8) for i in (0, 1, 999)]
        mixes = []
        for seed, n, i in cases:
            mixes.append((seed * harness._MIX_A + n * harness._MIX_B + i * harness._MIX_C) % u64)
            lean, reference = trial_rng(seed, n, i), random.Random(mixes[-1])
            assert lean.getrandbits(128) == reference.getrandbits(128), (seed, n, i)
            assert [lean.random() for _ in range(20)] == [reference.random() for _ in range(20)]
        assert sum(m < 1 << 32 for m in mixes) == 4 and sum(m > 1 << 63 for m in mixes) >= 4


# SHA-256 of the bytes b"%d,%d;" % (success, queries) over trials 0..1999
# of mint_trial at seed 303, as the mint path gave them before it was
# made lean.  The policy changes no baseline outcome.  The pinned CSVs
# below hold only each row's sums, which flips that cancel leave alone.
MINT_TRIAL_DIGESTS = {
    (StrategyKind.GUESS_RANDOM_SYMBOLS, 1): "56eab3d092a800a46b7267466ae01157ebf63c615d98fafaf7f49681df1bd7cf",
    (StrategyKind.GUESS_RANDOM_SYMBOLS, 2): "76037da18767f679f9f6965acc762f8c82c6a937607b6b9cd83bf60f1202676e",
    (StrategyKind.GUESS_RANDOM_SYMBOLS, 4): "c8c9c849aee37a726a397013b05611872b8a15aa039e72c721513a9de1736116",
    (StrategyKind.GUESS_RANDOM_SYMBOLS, 8): "b4734b46275370265ab09855a3f1509908f59f100baea5401ebc6f25c8d90912",
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, 1): "2b30d18de5f471656ab3ae69c3949391ac395ae7fe78d605cad618672c72c730",
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, 2): "895e23278d6ea372a8edc1b575e4ae01e884cc9fa0f072c0cdba688bbf8e4fbc",
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, 4): "d599c00cad8c2034fa151d94a7320ef2054f412cbc2d213df585b5bfd8a1099d",
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, 8): "d54cfe69b9e55fde6f8af608340d0538bd1bbc30a2b36024d5086712c6ff9e91",
}


@pytest.mark.parametrize("policy", MintPolicy.ALL)
def test_mint_trials_are_pinned(policy):
    for (strategy, n), expected in MINT_TRIAL_DIGESTS.items():
        digest = hashlib.sha256()
        for index in range(2000):
            digest.update(b"%d,%d;" % mint_trial(strategy, policy, n, trial_rng(303, n, index)))
        assert digest.hexdigest() == expected, (strategy, policy, n)


def test_adaptive_return_always_rows_in_closed_form():
    def by_trial(strategy, policy, n, seed, trials):
        results = [run_trial(strategy, policy, n, trial_rng(seed, n, index))
                   for index in range(trials)]
        return sum(ok for ok, _ in results), sum(used for _, used in results)

    def counted_trial_by_trial(config):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_count", by_trial)
            return render_csv(run_experiment(config))

    def no_stream(*args):
        raise AssertionError("a closed-form row seeded a trial stream")

    for n in (1, 3, 8):
        for trials in (1, 50, 257):
            config = small_config(n_values=[n], trials=trials, seed=trials)
            expected = counted_trial_by_trial(config)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "trial_rng", no_stream)
                assert render_csv(run_experiment(config)) == expected, (n, trials)


@pytest.mark.parametrize("strategy, policy", [
    (StrategyKind.GUESS_RANDOM_SYMBOLS, MintPolicy.RETURN_ALWAYS),
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, MintPolicy.DESTROY_ON_INVALID),
    (StrategyKind.ADAPTIVE_ORACLE, MintPolicy.DESTROY_ON_INVALID),
])
def test_row_raises_when_kernel_disagrees_with_mint_on_trial_0(monkeypatch, strategy, policy):
    real = harness.run_trial

    def run_trial(strategy, policy, n, rng):
        ok, used = real(strategy, policy, n, rng)
        return not ok, used

    monkeypatch.setattr(harness, "run_trial", run_trial)
    config = small_config(strategy=strategy, policy=policy, n_values=[3], trials=5, seed=303)
    match = f"^{strategy.value} trial 0 under {policy} at n=3, seed 303: "
    with pytest.raises(RuntimeError, match=match):
        run_experiment(config)


def test_row_checks_only_its_trial_0_against_the_mint(monkeypatch):
    real, calls = harness.mint_trial, []

    def mint_trial(strategy, policy, n, rng):
        calls.append((strategy, policy, n))
        return real(strategy, policy, n, rng)

    monkeypatch.setattr(harness, "mint_trial", mint_trial)
    strategy = StrategyKind.MEASURE_RANDOM_BASIS_COPY
    run_experiment(small_config(strategy=strategy, n_values=[1, 4], trials=50))
    # under the row's own policy, once per n
    assert calls == [(strategy, MintPolicy.RETURN_ALWAYS, 1), (strategy, MintPolicy.RETURN_ALWAYS, 4)]


class TestWriteResults:
    def _rows(self):
        return [
            ResultRow(1, "guess", "return-always", 10, 5, 0.5, 1.0, 0.1581, 0.5, 7),
            ResultRow(2, "guess", "return-always", 10, 2, 0.2, 1.0, 0.1264, 0.25, 7),
        ]

    def test_csv_header_and_order(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(self._rows(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("1,guess,return-always,10,5,")

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(self._rows(), path, "csv")
        assert read_results_csv(path) == self._rows()

    def test_json_fields_match(self, tmp_path):
        path = tmp_path / "r.json"
        write_results(self._rows(), path, "json")
        payload = json.loads(path.read_text())
        assert [r["n"] for r in payload] == [1, 2]
        assert set(payload[0]) == set(CSV_HEADER.split(","))

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "r.csv", "csv")


class TestExponentialDecaySlope:
    def test_log_rate_slope_matches_per_qubit_rate(self):
        import math

        trials = 4000
        rows = run_experiment(
            small_config(
                strategy=StrategyKind.GUESS_RANDOM_SYMBOLS,
                n_values=[1, 2, 4],
                trials=trials,
            )
        )
        xs = [r.n for r in rows]
        ys = [math.log(r.success_rate) for r in rows]
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        assert abs(slope - math.log(0.5)) <= 0.1 * abs(math.log(0.5))

    def test_analytic_success_rate_table(self):
        assert analytic_success_rate(StrategyKind.ADAPTIVE_ORACLE, MintPolicy.RETURN_ALWAYS, 9) == 1.0
        assert analytic_success_rate(
            StrategyKind.ADAPTIVE_ORACLE, MintPolicy.DESTROY_ON_INVALID, 3
        ) == pytest.approx(0.125)
        assert analytic_success_rate(
            StrategyKind.GUESS_RANDOM_SYMBOLS, MintPolicy.RETURN_ALWAYS, 2
        ) == pytest.approx(0.25, abs=1e-12)


# A seeded sweep is a reproducible result: these CSVs were rendered
# before the trial code was last optimized, and every later version must
# reproduce them byte for byte.
PINNED_CSV = {
    (StrategyKind.GUESS_RANDOM_SYMBOLS, MintPolicy.RETURN_ALWAYS, (1, 2, 4, 8), 303): """\
n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed
1,guess,return-always,2000,984,0.492,1.0,0.011178908712392278,0.5,303
2,guess,return-always,2000,526,0.263,1.0,0.009844567029585404,0.25,303
4,guess,return-always,2000,121,0.0605,1.0,0.005331029450303197,0.0625,303
8,guess,return-always,2000,6,0.003,1.0,0.0012229063741758812,0.00390625,303
""",
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, MintPolicy.RETURN_ALWAYS, (1, 2, 4, 8), 303): """\
n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed
1,measure-copy,return-always,2000,1501,0.7505,1.0,0.009675994780899791,0.7499999999999998,303
2,measure-copy,return-always,2000,1124,0.562,1.0,0.011094052460665579,0.5624999999999997,303
4,measure-copy,return-always,2000,678,0.339,1.0,0.010584871279330704,0.3164062499999996,303
8,measure-copy,return-always,2000,212,0.106,1.0,0.0068834584330843464,0.10011291503906226,303
""",
    (StrategyKind.ADAPTIVE_ORACLE, MintPolicy.DESTROY_ON_INVALID, (1, 2, 4), 404): """\
n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed
1,adaptive,destroy-on-invalid,2000,1004,0.502,1.0,0.011180250444422075,0.5,404
2,adaptive,destroy-on-invalid,2000,501,0.2505,1.5015,0.009688904736862677,0.25,404
4,adaptive,destroy-on-invalid,2000,127,0.0635,1.8735,0.005452877680637995,0.0625,404
""",
}


def test_seeded_csv_is_pinned():
    for (strategy, policy, n_values, seed), expected in PINNED_CSV.items():
        config = ExperimentConfig(strategy=strategy, policy=policy, n_values=list(n_values),
                                  trials=2000, seed=seed)
        assert render_csv(run_experiment(config)) == expected
