import _random
import ast
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from support import _MIX_C, ScriptedDraw, indexed_rng, read_results_csv

from qmoney import harness
from qmoney.attacks import _OVERLAP, StrategyKind, baseline_attack
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
from qmoney.mint import Mint, MintPolicy
from qmoney.qstate import _NEAR_ONE, _SYMBOL_ORDER, Basis


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

    @pytest.mark.parametrize("overrides, field", [
        (dict(n_values=[True]), "n_values item"),
        (dict(n_values=[1, 2.0]), "n_values item"),
        (dict(trials=True), "trials"),
        (dict(seed=1.5), "seed"),
        (dict(seed=None), "seed"),
        (dict(seed=False), "seed"),
        (dict(workers=None), "workers"),
    ], ids=["n-bool", "n-float", "trials-bool", "seed-float", "seed-none", "seed-bool",
            "workers-none"])
    def test_int_fields_take_ints_only(self, overrides, field):
        # a bool is refused, as the wire refuses one: it would reach the
        # CSV as True.  A float or None would fail inside the trial path
        config = small_config(strategy=StrategyKind.GUESS_RANDOM_SYMBOLS, **overrides)
        with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
            run_experiment(config)


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
        "missing = [name for name in ('run_experiment', 'MintServer')\n"
        "           if not hasattr(qmoney, name)]\n"
        "import qmoney.cli\n"
        "cli = set(sys.modules) - bare\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    children = True\n"
        "except ChildProcessError:\n"
        "    children = False\n"
        "import qmoney.harness\n"
        "harness = set(sys.modules) - bare\n"
        "for strategy in qmoney.StrategyKind:\n"
        "    for policy in qmoney.MintPolicy.ALL:\n"
        "        qmoney.harness.run_experiment(\n"
        "            qmoney.harness.ExperimentConfig(strategy, policy, [1, 3], 20, 5))\n"
        "swept = set(sys.modules) - bare\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    sweep_children = True\n"
        "except ChildProcessError:\n"
        "    sweep_children = False\n"
        "import qmoney.wire\n"
        "wire = set(sys.modules) - bare\n"
        "star = {}\n"
        "exec('from qmoney import *', star)\n"
        "print(repr((sorted(package), sorted(cli), sorted(harness), sorted(swept), sorted(wire),\n"
        "            children, sweep_children, missing,\n"
        "            sorted(set(qmoney.__all__) - set(star)),\n"
        "            sorted(set(qmoney.__all__) - set(dir(qmoney))))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    (package, cli, harness_stage, swept, wire, children, sweep_children, missing,
     unbound, undir) = ast.literal_eval(out.stdout)
    # `import qmoney` loads the simulator alone
    assert {m for m in package if m.startswith("qmoney")} == {
        "qmoney", "qmoney.qstate", "qmoney.mint", "qmoney.attacks"}
    assert "qmoney.harness" not in package and "qmoney.cli" in cli
    # the harness and the wire are reached through their own modules only
    assert missing == ["run_experiment", "MintServer"]
    assert "qmoney.harness" in harness_stage and "qmoney.wire" not in harness_stage
    # a sweep counts every trial in the calling process
    assert {"multiprocessing", "mmap"}.isdisjoint(swept), sorted(swept)
    assert not sweep_children
    # the server is a plain accept loop
    assert "qmoney.wire" in wire and "socketserver" not in wire
    assert _COLD_FORBIDDEN.isdisjoint(package), sorted(_COLD_FORBIDDEN & set(package))
    assert _COLD_FORBIDDEN.isdisjoint(cli), sorted(_COLD_FORBIDDEN & set(cli))
    assert not children
    assert unbound == [] and undir == []


class TestAdaptiveKernel:
    # a returning mint's rows are counted in closed form, held to the mint
    # path by test_adaptive_return_always_rows_in_closed_form
    @pytest.mark.parametrize("policy", [MintPolicy.DESTROY_ON_INVALID])
    def test_kernel_equals_mint_path(self, policy):
        # the mint path is the reference; each trial's stream is built
        # twice, so that both paths read the same draws
        for n in range(1, 9):
            for index in range(2000):
                kernel = run_trial(StrategyKind.ADAPTIVE_ORACLE, policy, n,
                                   indexed_rng(11, n, index))
                reference = mint_trial(StrategyKind.ADAPTIVE_ORACLE, policy, n,
                                       indexed_rng(11, n, index))
                assert kernel == reference, (policy, n, index)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_trial(StrategyKind.ADAPTIVE_ORACLE, "shred-everything", 2, trial_rng(1, 2))


@pytest.mark.parametrize("strategy", list(StrategyKind), ids=lambda s: s.value)
def test_empty_bill_rejected(strategy):
    for trial in (run_trial, mint_trial):
        with pytest.raises(ValueError, match="^bill size n must be >= 1$"):
            trial(strategy, MintPolicy.DESTROY_ON_INVALID, 0, trial_rng(1, 0))


def _edge(p, probe):
    # the draw that meets p as `probe` does: p itself, or one ulp below it.
    # A draw of 1 would take a branch of probability 0, and none lies below 0
    if p == 1.0:
        return 1.0 - 2.0**-53
    return math.nextafter(p, 0.0) if probe.below and p > 0.0 else p


class _AtThreshold(float):
    # a measurement draw that reads as the probability it is compared with,
    # or one ulp below it, and keeps that probability in `seen`
    def __new__(cls, below, seen):
        draw = super().__new__(cls, 0.0)
        draw.below, draw.seen = below, seen
        return draw

    def __lt__(self, p):
        self.seen.append(p)
        return _edge(p, self) < p


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
                    routed = run_trial(strategy, policy, n, indexed_rng(seed, n, index))
                    reference = mint_trial(strategy, policy, n, indexed_rng(seed, n, index))
                    assert routed == reference, (strategy, policy, n, seed, index)

    @_BASELINES
    @pytest.mark.parametrize("policy", MintPolicy.ALL)
    def test_draws_at_the_quarters_pick_as_the_mint_does(self, strategy, policy):
        # a bill of one qubit: its symbol draw, then a guess's symbol draw or
        # measure-copy's basis and measurement draws, then the verify draw,
        # each one of the quarters, one ulp below each, the last float below
        # 1, which only a whole overlap passes, or a half overlap's
        # probability, which that overlap fails.  The kernel reads the bill
        # draw as words, and the largest `random()` output below a quarter q
        # is q - 2**-53, not an ulp below q.  Seeded streams almost never
        # hit these
        edges = [x for q in (0.25, 0.5, 0.75) for x in (math.nextafter(q, 0.0), q)]
        edges += [math.nextafter(1.0, 0.0), abs(harness._GUESS_ROWS[0][2]) ** 2]
        bill_edges = [x for q in (0.25, 0.5, 0.75) for x in (q - 2.0**-53, q)] + [1.0 - 2.0**-53]
        draws = 2 if strategy is StrategyKind.GUESS_RANDOM_SYMBOLS else 3
        for script in itertools.product(bill_edges, *[edges] * draws):
            # two draws of 0.0 are serial 0
            routed = run_trial(strategy, policy, 1, ScriptedDraw([0.0, 0.0, *script]))
            reference = mint_trial(strategy, policy, 1, ScriptedDraw([0.0, 0.0, *script]))
            assert routed == reference, script

    @_BASELINES
    @pytest.mark.parametrize("policy", MintPolicy.ALL)
    def test_large_bill_verify_draws_at_the_mint_probability(self, strategy, policy):
        # with the mint's VALID probability p as the verify draw a trial
        # fails, and one ulp below p it passes: the kernel must compute p to
        # the bit over 16 and 33 factors.  A guess takes its qubit's symbol
        # or one of the other basis (index ^ 2), so its product is never 0
        for n, seed in itertools.product((16, 33), range(20)):
            stream = random.Random(seed)
            draws = [0.0, 0.0, *(stream.random() for _ in range(n))]  # serial 0, then the bill
            if strategy is StrategyKind.GUESS_RANDOM_SYMBOLS:
                draws += [((int(d * 4) ^ stream.choice((0, 2))) + 0.5) / 4 for d in draws[2:]]
            else:
                draws += [stream.random() for _ in range(2 * n)]
            rng = ScriptedDraw(draws)
            mint = Mint(rng)
            secret, handle = mint.mint_bill(n, rng=rng)
            copy, _ = baseline_attack(strategy, mint.registry, handle, n, rng)
            state = mint.registry.consume(copy, n)
            _, _, p = state.measure_projector_detail(secret.symbols, ScriptedDraw([1.0]), False)
            assert 0.0 < p < 1.0, (n, seed)
            for verify, valid in ((p, False), (math.nextafter(p, 0.0), True)):
                for trial in (mint_trial, run_trial):
                    assert trial(strategy, policy, n, ScriptedDraw([*draws, verify])) == (valid, 1), (
                        trial.__name__, n, seed, valid)

    @pytest.mark.parametrize("policy", MintPolicy.ALL)
    def test_measurement_draws_at_the_mint_probability(self, policy):
        # measure-copy's measurement draws, each at the branch probability p
        # that the mint path compares it with, or one ulp below p; the
        # verify draw is 0, which any overlap above ATOL passes.  The mint
        # path runs once with probes in those places to learn each p, then
        # both paths run on the plain draws.  A draw at p gives outcome 1,
        # whose renormalisation by 1 - p doubles the coefficient's rounding
        # error at each mixed-basis qubit: by n = 48 some bill's
        # matched-basis p falls below _NEAR_ONE, so its unlikely outcome, an
        # overlap of 0, hangs on how the kernel rounds each renormalisation
        copy = StrategyKind.MEASURE_RANDOM_BASIS_COPY
        escaped = 0
        for n, seed, below in itertools.product((8, 16, 48), range(25), (False, True)):
            stream = random.Random(seed)
            bill, bases = ([stream.random() for _ in range(n)] for _ in range(2))
            seen = []
            probes = [_AtThreshold(below, seen) for _ in range(n)]
            probed = mint_trial(copy, policy, n, ScriptedDraw(
                [0.0, 0.0, *bill, *itertools.chain(*zip(bases, probes)), 0.0]))
            assert len(seen) == n, (n, seed)
            escaped += any(0.5 < p < _NEAR_ONE for p in seen)
            draws = [0.0, 0.0, *bill, *itertools.chain(*zip(bases, map(_edge, seen, probes))), 0.0]
            for trial in (mint_trial, run_trial):
                assert trial(copy, policy, n, ScriptedDraw(draws)) == probed, (trial.__name__, n, seed)
        assert escaped >= 10, escaped

    @_BASELINES
    def test_unknown_policy_rejected(self, strategy):
        # run_trial rejects an unknown policy as the mint does
        with pytest.raises(ValueError) as routed:
            run_trial(strategy, "shred-everything", 2, trial_rng(1, 2))
        with pytest.raises(ValueError) as reference:
            mint_trial(strategy, "shred-everything", 2, trial_rng(1, 2))
        assert str(routed.value) == str(reference.value)
        assert "unknown policy 'shred-everything'" in str(routed.value)


class TestRowTables:
    # the kernels' rows hold the overlaps they take as floats
    def test_entries_are_the_overlaps_as_floats(self):
        pairs = []
        for s, guess_row, copy_row in zip(_SYMBOL_ORDER, harness._GUESS_ROWS, harness._COPY_ROWS,
                                          strict=True):
            pairs += zip(guess_row, [(s, g) for g in _SYMBOL_ORDER], strict=True)
            for basis, entries in zip((Basis.Z, Basis.X), copy_row, strict=True):
                o0, o1 = basis.symbols
                pairs += zip(entries, [(o0, s), (o1, s), (s, o0), (s, o1)], strict=True)
        assert len(pairs) == 16 + 32
        for entry, (a, b) in pairs:
            assert type(entry) is float, (a, b)
            assert complex(entry) == _OVERLAP[a][b], (a, b)

    def test_an_overlap_with_a_phase_is_refused(self, monkeypatch):
        # a float would drop the phase, so `_real` raises
        zero, one = _SYMBOL_ORDER[:2]
        monkeypatch.setitem(harness._OVERLAP, zero, {**_OVERLAP[zero], one: 0.5 + 0.5j})
        assert harness._real(one, zero) == 0.0
        with pytest.raises(ValueError, match=r"^<ZERO\|ONE> = \(0\.5\+0\.5j\) is not real"):
            harness._real(zero, one)


_WORD_NS = pytest.mark.parametrize("n", [1, 8, 33, 1000])


class TestWordOrder:
    # a baseline kernel reads a trial's serial and bill as one
    # getrandbits(128 + 64n): the Mersenne Twister words that
    # getrandbits(128) and n random() calls read, the first least significant
    @_WORD_NS
    def test_scripted_draw_gives_the_generators_words(self, n):
        # random() drops the low 5 bits of its first word and 6 of its
        # second, so a replay gives the words with those bits clear
        kept = sum((0xFFFFFFE0 | 0xFFFFFFC0 << 32) << 64 * i for i in range(2 + n))
        for seed in range(100):
            real, copy = _random.Random(seed), _random.Random(seed)
            draws = [real.random() for _ in range(2 + n)]
            replayed = ScriptedDraw(draws).getrandbits(128 + 64 * n)
            assert replayed == copy.getrandbits(128 + 64 * n) & kept, (n, seed)
            assert real.random() == copy.random(), (n, seed)

    @_WORD_NS
    def test_top_bytes_are_the_symbol_draws(self, n):
        for seed in range(100):
            words, draws = trial_rng(seed, n), trial_rng(seed, n)
            top = words.getrandbits(128 + 64 * n).to_bytes(16 + 8 * n, "little")[19::8]
            draws.getrandbits(128)
            assert [b >> 6 for b in top] == [int(draws.random() * 4) for _ in range(n)], (n, seed)
            assert words.random() == draws.random(), (n, seed)

    def test_scripted_draw_refuses_what_random_cannot_return(self):
        for d in (math.nextafter(0.25, 0.0), 2.0**-54, 1.0, -2.0**-53, 0):
            with pytest.raises(ValueError, match="is not a random[(][)] output"):
                ScriptedDraw([d]).getrandbits(64)
        with pytest.raises(ValueError, match="whole 64-bit draws"):
            ScriptedDraw([0.5]).getrandbits(32)


class TestTrialRng:
    def test_streams_are_stable(self):
        assert trial_rng(7, 4).random() == trial_rng(7, 4).random()

    def test_streams_are_independent(self):
        draws = {trial_rng(7, n).random() for n in range(1, 101)}
        draws |= {trial_rng(seed, 4).random() for seed in range(100)}
        assert len(draws) == 199

    def test_same_stream_as_random_random(self):
        # seed * _MIX_A alone is the mix when n = index = 0, so inverting
        # _MIX_A gives mixes under 2^32: a one-word Mersenne Twister key
        u64 = 1 << 64
        inverse = pow(harness._MIX_A, -1, u64)
        cases = [(mix * inverse % u64, 0, 0) for mix in (0, 1, 12345, (1 << 32) - 1)]
        cases += [(seed, n, i) for seed in (303, 404) for n in (1, 8) for i in (0, 1, 999)]
        mixes = []
        for seed, n, i in cases:
            mixes.append((seed * harness._MIX_A + n * harness._MIX_B + i * _MIX_C) % u64)
            lean, reference = indexed_rng(seed, n, i), random.Random(mixes[-1])
            if i == 0:
                # a row's stream is its trial 0's old stream
                assert trial_rng(seed, n).getstate() == lean.getstate(), (seed, n)
            assert lean.getrandbits(128) == reference.getrandbits(128), (seed, n, i)
            assert [lean.random() for _ in range(20)] == [reference.random() for _ in range(20)]
        assert sum(m < 1 << 32 for m in mixes) == 4 and sum(m > 1 << 63 for m in mixes) >= 4


class TestRowPath:
    # a row's trials read one stream in order.  A kernel stops early where
    # mint_trial draws on, so each trial is tied to mint_trial run from the
    # state the stream stood in before it: results, not draws, must agree
    @pytest.mark.parametrize("strategy, policy", [
        *((s, p) for s in (StrategyKind.GUESS_RANDOM_SYMBOLS, StrategyKind.MEASURE_RANDOM_BASIS_COPY)
          for p in MintPolicy.ALL),
        (StrategyKind.ADAPTIVE_ORACLE, MintPolicy.DESTROY_ON_INVALID),
    ])
    @pytest.mark.parametrize("trials", [1, 2, 257])
    def test_row_equals_mint_trials_summed(self, strategy, policy, trials):
        # measure-copy renormalises its coefficient once per qubit: by n = 16
        # and 33 its magnitude has drifted up to hundreds and thousands of
        # ulps from 1 before the verify
        for n in (1, 3, 8, 16, 33):
            rng, restored, results = trial_rng(77, n), trial_rng(77, n), []
            for index in range(trials):
                state = rng.getstate()
                kernel = run_trial(strategy, policy, n, rng)
                restored.setstate(state)
                assert kernel == mint_trial(strategy, policy, n, restored), (n, index)
                results.append(kernel)
            expected = sum(ok for ok, _ in results), sum(used for _, used in results)
            assert harness._count(strategy, policy, n, 77, trials) == expected, n


# SHA-256 of the bytes b"%d,%d;" % (success, queries) over trials 0..1999
# of mint_trial at seed 303, each on its own `indexed_rng` stream, as the
# mint path gave them before it was made lean.  The policy changes no
# baseline outcome.  The pinned CSVs below hold only each row's sums,
# which flips that cancel leave alone.
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
            digest.update(b"%d,%d;" % mint_trial(strategy, policy, n, indexed_rng(303, n, index)))
        assert digest.hexdigest() == expected, (strategy, policy, n)


def test_adaptive_return_always_rows_in_closed_form():
    def by_trial(strategy, policy, n, seed, trials):
        rng = trial_rng(seed, n)
        results = [run_trial(strategy, policy, n, rng) for _ in range(trials)]
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


# A seeded sweep is a reproducible result: these CSVs were rendered when a
# row's trials first read one stream in order, and every later version
# must reproduce them byte for byte.
PINNED_CSV = {
    (StrategyKind.GUESS_RANDOM_SYMBOLS, MintPolicy.RETURN_ALWAYS, (1, 2, 4, 8), 303): """\
n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed
1,guess,return-always,2000,970,0.485,1.0,0.01117530760203047,0.5,303
2,guess,return-always,2000,504,0.252,1.0,0.009708140913686821,0.25,303
4,guess,return-always,2000,126,0.063,1.0,0.005432816948876522,0.0625,303
8,guess,return-always,2000,5,0.0025,1.0,0.001116635571706365,0.00390625,303
""",
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, MintPolicy.RETURN_ALWAYS, (1, 2, 4, 8), 303): """\
n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed
1,measure-copy,return-always,2000,1496,0.748,1.0,0.009708140913686821,0.7499999999999998,303
2,measure-copy,return-always,2000,1117,0.5585,1.0,0.011103552359492884,0.5624999999999997,303
4,measure-copy,return-always,2000,620,0.31,1.0,0.010341663309158734,0.3164062499999996,303
8,measure-copy,return-always,2000,216,0.108,1.0,0.0069403169956422026,0.10011291503906226,303
""",
    (StrategyKind.ADAPTIVE_ORACLE, MintPolicy.DESTROY_ON_INVALID, (1, 2, 4), 404): """\
n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed
1,adaptive,destroy-on-invalid,2000,1034,0.517,1.0,0.011173875782377394,0.5,404
2,adaptive,destroy-on-invalid,2000,491,0.2455,1.492,0.009623662244696662,0.25,404
4,adaptive,destroy-on-invalid,2000,126,0.063,1.8465,0.005432816948876522,0.0625,404
""",
}


def test_seeded_csv_is_pinned():
    for (strategy, policy, n_values, seed), expected in PINNED_CSV.items():
        config = ExperimentConfig(strategy=strategy, policy=policy, n_values=list(n_values),
                                  trials=2000, seed=seed)
        assert render_csv(run_experiment(config)) == expected


# The rows of criteria 3 and 4 at seeds fixed before their rates were
# seen: each success rate lies within 3 standard errors of its closed
# form, and each destroying adaptive row's mean_queries within 3 of
# 2 - 2^(1-n).  The byte pins above check only that the streams stay put
STAT_SEEDS = (303, 404, 505)
STAT_TRIALS = 2000
STAT_SIGMAS = 3


def _adaptive_queries(n):
    """(mean, variance) of the queries of the adaptive attack on a
    destroying mint: it stops at qubit i, the bill's first Z-basis symbol,
    with probability 2^-(i+1), or after all n with probability 2^-n."""
    dist = [(i + 1, 0.5 ** (i + 1)) for i in range(n)] + [(n, 0.5 ** n)]
    mean = sum(q * p for q, p in dist)
    return mean, sum(q * q * p for q, p in dist) - mean ** 2


@pytest.mark.parametrize("seed", STAT_SEEDS)
@pytest.mark.parametrize("strategy, policy, n_values", [
    (StrategyKind.GUESS_RANDOM_SYMBOLS, MintPolicy.RETURN_ALWAYS, [1, 2, 4, 8]),
    (StrategyKind.MEASURE_RANDOM_BASIS_COPY, MintPolicy.RETURN_ALWAYS, [1, 2, 4, 8]),
    (StrategyKind.ADAPTIVE_ORACLE, MintPolicy.DESTROY_ON_INVALID, [1, 2, 4]),
], ids=["guess", "measure-copy", "adaptive-destroying"])
def test_criteria_rows_lie_near_closed_form(strategy, policy, n_values, seed):
    rows = run_experiment(ExperimentConfig(strategy=strategy, policy=policy, n_values=n_values,
                                           trials=STAT_TRIALS, seed=seed))
    for row in rows:
        p = analytic_success_rate(strategy, policy, row.n)
        se = math.sqrt(p * (1.0 - p) / STAT_TRIALS)
        assert abs(row.success_rate - p) <= STAT_SIGMAS * se, row
        if strategy is StrategyKind.ADAPTIVE_ORACLE:
            mean, variance = _adaptive_queries(row.n)
            assert mean == 2 - 2 ** (1 - row.n)
            se = math.sqrt(variance / STAT_TRIALS)
            assert abs(row.mean_queries - mean) <= STAT_SIGMAS * se, row
