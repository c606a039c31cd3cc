import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from qmoney import harness
from qmoney.attacks import StrategyKind
from qmoney.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    analytic_success_rate,
    mint_trial,
    read_results_csv,
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

    def test_parallelism_does_not_change_output(self, split):
        # trials 1, 2 and 3 leave some of the three ranges empty, and 50
        # and 257 split unevenly
        for strategy in StrategyKind:
            for policy in MintPolicy.ALL:
                for trials in (1, 2, 3, 50, 257):
                    config = small_config(strategy=strategy, policy=policy, n_values=[1, 3, 8],
                                          trials=trials, seed=trials)
                    assert render_csv(run_experiment(config)) == one_process_csv(config), (
                        strategy, policy, trials)
        assert len(harness._pool) == 2 and all(w.conn is not None for w in harness._pool)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(trials=0))
        with pytest.raises(ValueError):
            run_experiment(small_config(n_values=[]))
        with pytest.raises(ValueError):
            run_experiment(small_config(policy="shred-everything"))


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
        assert worker.post((*task, 10, 70))
        assert worker.conn.poll(10)
        assert worker.answer() == harness._count(*task, 10, 70)

    def test_late_answer_is_dropped(self, split):
        run_experiment(guess_config(1))
        worker = harness._pool[0]
        os.kill(worker.process.pid, signal.SIGSTOP)
        try:
            # the first call posts a range that the stopped worker owes;
            # the second finds it still owing and gives it none
            for seed in (2, 3):
                config = guess_config(seed)
                assert render_csv(run_experiment(config)) == one_process_csv(config)
            assert worker.owed is not None
        finally:
            os.kill(worker.process.pid, signal.SIGCONT)
        assert worker.conn.poll(10)  # the late answer, for seed 2
        for seed in (4, 5):
            config = guess_config(seed)
            assert render_csv(run_experiment(config)) == one_process_csv(config)
        assert harness._pool[0] is worker and worker.conn is not None

    def test_worker_exception_is_raised_in_parent(self, split, monkeypatch):
        parent, real = os.getpid(), harness.run_trial

        def run_trial(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("trial failed in a worker")
            return real(*args)

        monkeypatch.setattr(harness, "run_trial", run_trial)
        # the parent's own range takes far longer than the worker's answer
        with pytest.raises(ZeroDivisionError, match="^trial failed in a worker$"):
            run_experiment(guess_config(1, trials=3000))

    def test_unpicklable_exception_keeps_type_name_and_message(self, split, monkeypatch):
        class LocalError(Exception):
            pass

        parent, real = os.getpid(), harness.run_trial

        def run_trial(*args):
            if os.getpid() != parent:
                raise LocalError("trial failed in a worker")
            return real(*args)

        monkeypatch.setattr(harness, "run_trial", run_trial)
        with pytest.raises(RuntimeError, match="^LocalError: trial failed in a worker$"):
            run_experiment(guess_config(1, trials=3000))

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
SWEEP_FOREVER = """
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


def test_import_starts_no_worker():
    probe = (
        "import os, sys, qmoney\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    children = True\n"
        "except ChildProcessError:\n"
        "    children = False\n"
        "print('multiprocessing' in sys.modules, children)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]


class TestAdaptiveKernel:
    @pytest.mark.parametrize("policy", MintPolicy.ALL)
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


class TestTrialRng:
    def test_streams_are_stable(self):
        assert trial_rng(7, 4, 0).random() == trial_rng(7, 4, 0).random()

    def test_streams_are_independent(self):
        draws = {trial_rng(7, 4, i).random() for i in range(100)}
        assert len(draws) == 100


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

    def test_empty_analytic_field(self, tmp_path):
        row = ResultRow(1, "guess", "return-always", 10, 5, 0.5, 1.0, 0.1581, None, 7)
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_results([row], csv_path, "csv")
        assert csv_path.read_text().splitlines()[1].endswith(",,7")
        write_results([row], json_path, "json")
        assert json.loads(json_path.read_text())[0]["analytic_rate"] is None

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
