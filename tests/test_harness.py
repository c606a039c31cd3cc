import ast
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
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

    def test_parallelism_does_not_change_output(self, split, monkeypatch):
        # split three ways, and two ways, where the one worker's range is
        # the whole window; trials 1, 2 and 3 leave some of the three
        # ranges empty, and 50 and 257 split unevenly; with a window of 40
        # slots, 41 and 83 run as two and three windows
        for cpus in ([0, 1, 2], [0, 1]):
            monkeypatch.setattr(harness, "_cpus", lambda: cpus)
            for window, counts in ((harness._WINDOW, (1, 2, 3, 50, 257)),
                                   (40, (41, 2 * 40 + 3))):
                small_window(monkeypatch, window)
                for strategy in StrategyKind:
                    for policy in MintPolicy.ALL:
                        for trials in counts:
                            config = small_config(strategy=strategy, policy=policy,
                                                  n_values=[1, 3, 8], trials=trials, seed=trials)
                            assert render_csv(run_experiment(config)) == one_process_csv(config), (
                                cpus, strategy, policy, trials)
                assert len(harness._pool) == len(cpus) - 1
                assert all(w.conn is not None for w in harness._pool)

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


def drop_pool():
    for w in harness._pool:
        if w.conn is not None:
            w.discard()
    harness._pool.clear()


@pytest.fixture
def split(monkeypatch):
    """run_experiment split three ways, the parent and two workers,
    whatever CPUs the runner has, starting from no workers."""
    drop_pool()
    monkeypatch.setattr(harness, "_cpus", lambda: [0, 1, 2])
    yield
    drop_pool()


def small_window(monkeypatch, slots):
    """Workers forked from here on share a window of `slots` slots."""
    drop_pool()
    monkeypatch.setattr(harness, "_slots", harness._new_window(slots))
    monkeypatch.setattr(harness, "_pool_pid", os.getpid())


def written(slot, gen, timeout=10.0):
    """True once the window's `slot` carries generation `gen`."""
    deadline = time.monotonic() + timeout
    while harness._slots[slot] >> harness._GEN_SHIFT != gen:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def one_process_csv(config):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_cpus", lambda: [0])
        return render_csv(run_experiment(config))


def csv_and_workers(config):
    return render_csv(run_experiment(config)), len(harness._pool)


def guess_config(seed, trials=300):
    return small_config(strategy=StrategyKind.GUESS_RANDOM_SYMBOLS, n_values=[4],
                        trials=trials, seed=seed)


def exited(pid, timeout=10.0):
    """True once pid has exited; an orphan that init has not reaped yet
    counts as exited."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except (ProcessLookupError, FileNotFoundError):
            return True
        time.sleep(0.05)
    return False


class TestWorkers:
    def test_worker_counts_its_range(self, split):
        run_experiment(guess_config(1))
        worker = harness._pool[0]
        task = (StrategyKind.MEASURE_RANDOM_BASIS_COPY, MintPolicy.RETURN_ALWAYS, 5, 9)
        gen, base = harness._next_gen(), 3  # trial i in slot i - 3
        assert worker.post((gen, *task, 10, 70, base))
        slots = harness._slots
        assert written(69 - base, gen)
        # each slot holds the count of the range up to its trial
        for i in range(10, 70):
            s, q = harness._count(*task, 10, i + 1)
            assert slots[i - base] == gen << harness._GEN_SHIFT | s << harness._QUERY_BITS | q
        # nothing outside the range was written
        assert slots[70 - base] >> harness._GEN_SHIFT != gen
        assert slots[9 - base] >> harness._GEN_SHIFT != gen

    def test_worker_skips_a_range_the_caller_has_moved_on_from(self, split):
        run_experiment(guess_config(1))
        worker = harness._pool[0]
        task = (StrategyKind.GUESS_RANDOM_SYMBOLS, MintPolicy.RETURN_ALWAYS, 4, 9)
        slots, base = harness._slots, -1
        os.kill(worker.process.pid, signal.SIGSTOP)
        try:
            stale = harness._next_gen()
            assert worker.post((stale, *task, 0, 60, base))
            harness._next_gen()
        finally:
            os.kill(worker.process.pid, signal.SIGCONT)
        # a later range shows that the worker has read the stale one
        gen = harness._next_gen()
        assert worker.post((gen, *task, 100, 110, base))
        assert written(109 - base, gen)
        assert not any(w >> harness._GEN_SHIFT == stale for w in slots[0 - base:60 - base].tolist())

    def test_generation_wraps_to_a_clean_window(self, split, monkeypatch):
        small_window(monkeypatch, 400)
        slots = harness._slots
        slots[0] = (1 << (64 - harness._GEN_SHIFT)) - 1  # the last generation
        # left from an earlier use of generation 2, in the first slot the
        # caller reads: trial 199, the top of the first worker's range
        slots[199 + 1] = 2 << harness._GEN_SHIFT | 7
        assert harness._next_gen() == 1
        config = guess_config(2)  # 300 trials, in generation 2
        assert render_csv(run_experiment(config)) == one_process_csv(config)

    def test_stale_generation_is_ignored(self, split, monkeypatch):
        parent, real = os.getpid(), harness.run_trial
        counted = Counter()  # trials by n, in each process

        def run_trial(strategy, policy, n, rng):
            counted[n] += 1
            if os.getpid() != parent and n == 5 and counted[n] == 100:
                os.kill(os.getpid(), signal.SIGSTOP)  # in mid-range of the first call
            if os.getpid() == parent and n == 6 and counted[n] == 50:
                for w in harness._pool:
                    os.kill(w.process.pid, signal.SIGCONT)  # in the last call
            return real(strategy, policy, n, rng)

        monkeypatch.setattr(harness, "run_trial", run_trial)
        configs = [small_config(strategy=StrategyKind.GUESS_RANDOM_SYMBOLS, n_values=[n],
                                trials=3000, seed=seed)
                   for n, seed in ((5, 1), (4, 2), (4, 3), (6, 4))]
        expected = [one_process_csv(config) for config in configs]
        counted.clear()
        pids = []
        try:
            for config, csv in zip(configs, expected):
                assert render_csv(run_experiment(config)) == csv
                pids = pids or [w.process.pid for w in harness._pool]
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGCONT)
        # the stopped workers were kept, and count again
        assert [w.process.pid for w in harness._pool] == pids
        for seed in (5, 6):
            config = guess_config(seed)
            assert render_csv(run_experiment(config)) == one_process_csv(config)

    def test_worker_exception_is_raised_in_parent(self, split, monkeypatch):
        real = harness.trial_rng

        def trial_rng(seed, n, index):
            if index == 2500:  # in mid-range of the second worker
                raise ZeroDivisionError(f"trial {index} failed")
            return real(seed, n, index)

        monkeypatch.setattr(harness, "trial_rng", trial_rng)
        with pytest.raises(ZeroDivisionError, match="^trial 2500 failed$"):
            run_experiment(guess_config(1, trials=3000))
        assert len(harness._pool) == 2 and all(w.conn is not None for w in harness._pool)

    def test_unpicklable_exception_keeps_type_name_and_message(self, split, monkeypatch):
        class LocalError(Exception):  # a local class, which pickle cannot carry
            pass

        real = harness.trial_rng

        def trial_rng(seed, n, index):
            if index == 2500:  # in mid-range of the second worker
                raise LocalError(f"trial {index} failed")
            return real(seed, n, index)

        monkeypatch.setattr(harness, "trial_rng", trial_rng)
        with pytest.raises(LocalError, match="^trial 2500 failed$") as info:
            run_experiment(guess_config(1, trials=3000))
        assert info.traceback[-1].name == "trial_rng"
        assert len(harness._pool) == 2 and all(w.conn is not None for w in harness._pool)

    def test_worker_only_failure_leaves_exact_row(self, split, monkeypatch):
        parent, real = os.getpid(), harness.trial_rng

        def trial_rng(seed, n, index):
            # one trial in the middle of each worker's range, and the
            # bottom of the second one
            if os.getpid() != parent and index in (1000, 2000, 2500):
                raise ZeroDivisionError("trial failed in a worker")
            return real(seed, n, index)

        monkeypatch.setattr(harness, "trial_rng", trial_rng)
        pids = []
        for seed in (1, 2, 3):
            config = guess_config(seed, trials=3000)
            assert render_csv(run_experiment(config)) == one_process_csv(config)
            pids = pids or [w.process.pid for w in harness._pool]
        assert len(pids) == 2 and [w.process.pid for w in harness._pool] == pids

    def test_killed_worker_is_replaced(self, split):
        run_experiment(guess_config(1))
        worker = harness._pool[0]
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(10)
        assert not worker.process.is_alive()
        for seed in (2, 3):
            config = guess_config(seed)
            assert render_csv(run_experiment(config)) == one_process_csv(config)
        assert worker.conn is None
        assert worker not in harness._pool and len(harness._pool) == 2

    def test_worker_dying_mid_range_is_counted_by_parent(self, split, monkeypatch):
        parent, real = os.getpid(), harness.run_trial

        def run_trial(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(harness, "run_trial", run_trial)
        config = guess_config(1, trials=3000)
        assert render_csv(run_experiment(config)) == one_process_csv(config)

    def test_broken_pipe_is_counted_by_parent(self, split):
        import multiprocessing

        run_experiment(guess_config(1))
        worker = harness._pool[0]
        pid, old = worker.process.pid, worker.conn
        worker.conn, peer = multiprocessing.Pipe()
        peer.close()
        try:
            for seed in (2, 3):
                config = guess_config(seed)
                assert render_csv(run_experiment(config)) == one_process_csv(config)
        finally:
            old.close()
        assert exited(pid)
        assert worker not in harness._pool and len(harness._pool) == 2

    def test_forked_process_forks_its_own_workers(self, split):
        config = guess_config(1)
        expected = one_process_csv(config)
        run_experiment(config)
        parents_workers = {w.process.pid for w in harness._pool}
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                exact = render_csv(run_experiment(config)) == expected
                mine = {w.process.pid for w in harness._pool}
                code = 0 if exact and len(mine) == 2 and not mine & parents_workers else 2
                drop_pool()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert render_csv(run_experiment(config)) == expected
        assert {w.process.pid for w in harness._pool} == parents_workers

    def test_held_pool_means_counting_in_process(self, split):
        config = guess_config(1)
        with harness._pool_lock:
            assert render_csv(run_experiment(config)) == one_process_csv(config)
        assert harness._pool == []

    def test_daemonic_process_counts_in_process(self, split):
        import multiprocessing

        config = guess_config(1)
        expected = one_process_csv(config)
        # a multiprocessing pool's processes are daemonic and may not fork
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(csv_and_workers, (config,)) == (expected, 0)

    def test_two_threads_get_exact_rows(self, split):
        csvs = {}

        def sweep(seed):
            csvs[seed] = [render_csv(run_experiment(guess_config(seed))) for _ in range(5)]

        threads = [threading.Thread(target=sweep, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        for seed in (1, 2):
            assert csvs[seed] == [one_process_csv(guess_config(seed))] * 5


SRC = Path(__file__).resolve().parents[1] / "src"

# Starts the workers, prints their pids, then runs a sweep too long to end.
# It first restores Python's own SIGINT handler, which a child of a
# process that ignores SIGINT would otherwise lack.
SWEEP_FOREVER = """
import signal
signal.signal(signal.SIGINT, signal.default_int_handler)
import sys
from qmoney import cli, harness
harness._cpus = lambda: [0, 1, 2]
harness.run_experiment(harness.ExperimentConfig(
    strategy=harness.StrategyKind.GUESS_RANDOM_SYMBOLS, policy="return-always",
    n_values=[1], trials=10, seed=1))
print(*(w.process.pid for w in harness._pool), flush=True)
cli.main(["experiment", "sweep", "--strategy", "measure-copy", "--n", "8",
          "--trials", "100000000", "--seed", "1", "--out", sys.argv[1]])
"""


class TestWorkerLifetime:
    @pytest.fixture
    def sweep(self, tmp_path):
        """A child interpreter in a sweep, and its workers' pids; whatever
        is left of them is killed afterwards."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen([sys.executable, "-c", SWEEP_FOREVER, str(tmp_path / "r.csv")],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=env, start_new_session=True)
        workers = []
        try:
            workers.extend(int(pid) for pid in proc.stdout.readline().split())
            assert len(workers) == 2
            time.sleep(0.5)  # well into the sweep
            yield proc, workers
        finally:
            for pid in (proc.pid, *workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.communicate()

    def test_ctrl_c_prints_one_traceback(self, sweep):
        proc, workers = sweep
        # a terminal's Ctrl-C signals the whole process group
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode != 0
        assert err.count("Traceback") == 1 and "KeyboardInterrupt" in err
        assert all(exited(pid) for pid in workers)

    def test_workers_exit_with_their_parent(self, sweep):
        proc, workers = sweep
        proc.kill()
        proc.communicate(timeout=30)
        assert all(exited(pid) for pid in workers)


# modules that no import of the lab may load: the network layer, its
# codec and logger, complex math, the fork pool, the benchmark's numpy,
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
        "lazy = qmoney.MintServer is qmoney.wire.MintServer\n"
        "wire = set(sys.modules) - bare\n"
        "star = {}\n"
        "exec('from qmoney import *', star)\n"
        "print(repr((sorted(package), sorted(cli), sorted(harness), sorted(wire), children,\n"
        "            lazy_harness, lazy,\n"
        "            sorted(set(qmoney.__all__) - set(star)),\n"
        "            sorted(set(qmoney.__all__) - set(dir(qmoney))))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    (package, cli, harness_stage, wire, children, lazy_harness, lazy, unbound,
     undir) = ast.literal_eval(out.stdout)
    # `import qmoney` loads the simulator alone
    assert {m for m in package if m.startswith("qmoney")} == {
        "qmoney", "qmoney.qstate", "qmoney.mint", "qmoney.attacks"}
    assert "qmoney.harness" not in package and "qmoney.cli" in cli
    # the package hook loads the harness on first use of one of its names
    assert "qmoney.harness" in harness_stage and "qmoney.wire" not in harness_stage
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


_BASELINES = pytest.mark.parametrize("strategy", [
    StrategyKind.GUESS_RANDOM_SYMBOLS, StrategyKind.MEASURE_RANDOM_BASIS_COPY,
], ids=["guess", "measure-copy"])


class TestBaselineRouting:
    # run_trial verifies a baseline counterfeit through a destroying mint
    # under either policy; mint_trial under the row's own policy is the
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
        # the routing passes an unknown policy on, and the mint rejects it
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
    def counted_trial_by_trial(config):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_count_split", lambda workers, strategy, policy, n, seed, trials:
                       harness._count(strategy, policy, n, seed, 0, trials))
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
