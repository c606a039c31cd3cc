# Seeded Monte Carlo experiment runner.
#
# Every trial gets its own RNG stream derived from (seed, n, trial
# index) by hashing, so trials are order-independent and the output
# depends on the seed alone.  An adaptive-attack trial is computed
# exactly from its symbol draws, with no mint; a baseline trial goes
# through the mint (`mint_trial`), which stays the reference for both.
#
# A trial is pure Python and holds the GIL, so `run_experiment` spreads
# each n's trial indices over the CPUs this process may run on, in
# contiguous ranges: the parent counts the first, and forked workers,
# started on first use, kept, and pinned one to a CPU, count the
# others.  Counts are integer sums, so the rows do not depend on the
# split.  The parent never waits on a late worker: once its own range
# is done it counts the worker's range too, from the top, until the
# worker's answer arrives, and a worker that still owes an answer gets
# no new range until that late answer has been read and dropped.  With
# one CPU, no "fork" start method, a call from a worker, or a second
# thread while another holds the workers, the parent counts every trial
# itself.

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import pickle
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from .attacks import (
    LocalSession,
    StrategyKind,
    adaptive_attack,
    analytic_pass_prob,
    baseline_attack,
)
from .mint import Mint, MintPolicy, StateRegistry
from .qstate import VerifyOutcome

CSV_HEADER = "n,strategy,policy,trials,successes,success_rate,mean_queries,std_error,analytic_rate,seed"


@dataclass
class ExperimentConfig:
    strategy: StrategyKind
    policy: str
    n_values: list[int]
    trials: int
    seed: int
    out_path: str | None = None
    out_format: str = "csv"
    # deprecated: accepted and validated for compatibility, and
    # ignored; trials are spread over the CPUs this process may run on
    workers: int = 1

    def validate(self) -> None:
        MintPolicy.check(self.policy)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if any(n < 1 for n in self.n_values):
            raise ValueError("all n values must be >= 1")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.out_format!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class ResultRow:
    n: int
    strategy: str
    policy: str
    trials: int
    successes: int
    success_rate: float
    mean_queries: float
    std_error: float
    analytic_rate: float | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "strategy": self.strategy,
            "policy": self.policy,
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "mean_queries": self.mean_queries,
            "std_error": self.std_error,
            "analytic_rate": self.analytic_rate,
            "seed": self.seed,
        }


_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def trial_rng(seed: int, n: int, index: int) -> random.Random:
    """Independent per-trial stream from a fixed mix of (seed, n, index).

    The multipliers are the splitmix64 constants; the Mersenne Twister
    seeding scrambles the mix further.  Streams are stable across runs
    and platforms.
    """
    mix = (seed * _MIX_A + n * _MIX_B + index * _MIX_C) & _U64
    return random.Random(mix)


def run_trial(strategy: StrategyKind, policy: str, n: int, rng: random.Random) -> tuple[bool, int]:
    """One independent trial with a fresh bill; returns (success, queries).

    Adaptive-attack trials are computed exactly, with the result that
    `mint_trial` gives on the same stream.  Each of the attack's verify
    queries is deterministic: a flipped X-basis qubit still matches its
    symbol up to a phase (VALID), and a flipped Z-basis qubit is
    orthogonal to it (INVALID).  A returning mint hands every bill back,
    so the attack learns all n symbols in n queries; a destroying mint
    eats the bill at its first Z-basis symbol.  That kernel draws what
    `Mint.mint_bill` draws, the serial and then the symbols in
    `random_symbols` order, and stops at the first Z-basis one: symbol
    index `int(d * 4) < 2`, which is `d < 0.5` since `d * 4` is exact.
    """
    if strategy is StrategyKind.ADAPTIVE_ORACLE:
        if policy == MintPolicy.DESTROY_ON_INVALID:
            rng.getrandbits(128)  # the serial
            draw = rng.random
            for i in range(n):
                if draw() < 0.5:
                    return False, i + 1
            return True, n
        if policy == MintPolicy.RETURN_ALWAYS:
            return True, n
    # baselines, and an unknown policy, which the mint rejects
    return mint_trial(strategy, policy, n, rng)


def mint_trial(strategy: StrategyKind, policy: str, n: int, rng: random.Random) -> tuple[bool, int]:
    """`run_trial` through a fresh mint, bill and session: the reference
    that `run_trial`'s adaptive kernel is tested against."""
    registry = StateRegistry()
    mint = Mint(registry, rng)
    secret, handle = mint.mint_bill(n, rng=rng)
    if strategy is StrategyKind.ADAPTIVE_ORACLE:
        session = LocalSession(mint, policy, rng)
        transcript, _ = adaptive_attack(session, secret.serial, handle, n)
        success = transcript.bill_recovered and transcript.learned == list(secret.symbols)
        return success, transcript.queries_used
    copy, _ = baseline_attack(strategy, registry, handle, n, rng)
    res = mint.verify(secret.serial, copy, policy, rng)
    return res.outcome is VerifyOutcome.VALID, 1


def analytic_success_rate(strategy: StrategyKind, policy: str, n: int) -> float:
    if strategy is StrategyKind.ADAPTIVE_ORACLE:
        # full recovery needs every round to survive; a destroying mint
        # kills the attack on any Z-basis symbol
        return 1.0 if policy == MintPolicy.RETURN_ALWAYS else 0.5**n
    return analytic_pass_prob(strategy, n)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    config.validate()
    rows = []
    strategy, policy, seed, trials = config.strategy, config.policy, config.seed, config.trials
    with _borrowed_workers() as workers:
        for n in config.n_values:
            successes, queries = _count_split(workers, strategy, policy, n, seed, trials)
            rate = successes / trials
            mean_queries = queries / trials
            std_error = math.sqrt(rate * (1.0 - rate) / trials)
            rows.append(
                ResultRow(
                    n=n,
                    strategy=strategy.value,
                    policy=policy,
                    trials=trials,
                    successes=successes,
                    success_rate=rate,
                    mean_queries=mean_queries,
                    std_error=std_error,
                    analytic_rate=analytic_success_rate(strategy, policy, n),
                    seed=seed,
                )
            )
    if config.out_path is not None:
        write_results(rows, config.out_path, config.out_format)
    return rows


def _count(strategy: StrategyKind, policy: str, n: int, seed: int, lo: int, hi: int) -> tuple[int, int]:
    """(successes, queries) over trial indices [lo, hi)."""
    successes = queries = 0
    for index in range(lo, hi):
        ok, used = run_trial(strategy, policy, n, trial_rng(seed, n, index))
        successes += ok
        queries += used
    return successes, queries


def _count_split(workers, strategy, policy, n, seed, trials) -> tuple[int, int]:
    """`_count` over [0, trials), split into one contiguous range per
    process: the parent's first, then one per worker."""
    bounds = [trials * k // (len(workers) + 1) for k in range(len(workers) + 2)]
    task = (strategy, policy, n, seed)
    posted = [(w if lo < hi and w.post((*task, lo, hi)) else None, lo, hi)
              for w, lo, hi in zip(workers, bounds[1:], bounds[2:])]
    successes, queries = _count(*task, bounds[0], bounds[1])
    for w, lo, hi in posted:
        s, q = _count(*task, lo, hi) if w is None else _take_over(w, task, lo, hi)
        successes += s
        queries += q
    return successes, queries


def _take_over(worker: "_Worker", task, lo: int, hi: int) -> tuple[int, int]:
    """The worker's count of [lo, hi), or the parent's own if that is done
    first: the parent counts from the top down and checks the worker's
    pipe between trials."""
    strategy, policy, n, seed = task
    successes = queries = 0
    for index in range(hi - 1, lo - 1, -1):
        answer = worker.answer()
        if answer is not None:
            return answer
        ok, used = run_trial(strategy, policy, n, trial_rng(seed, n, index))
        successes += ok
        queries += used
    return successes, queries


def _cpus() -> list[int]:
    """The CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


# The workers, the pid of the process that forked them, and the lock
# that one run_experiment call holds while it uses them.
_pool: list["_Worker"] = []
_pool_pid: int | None = None
_pool_lock = threading.Lock()
_in_worker = False
_tags = itertools.count()


@contextmanager
def _borrowed_workers():
    """The workers for one run_experiment call; none if the parent is to
    count every trial itself."""
    cpus = _cpus()
    if len(cpus) < 2 or _in_worker or not _pool_lock.acquire(blocking=False):
        yield []
        return
    try:
        yield _workers(cpus[1:])
    finally:
        _pool_lock.release()


def _workers(cpus: list[int]) -> list["_Worker"]:
    """A live worker for each of `cpus`, forking those missing; fewer if
    the "fork" start method is not available or a fork fails."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        # forked from the process that started the pool: its pipes are
        # that process's to use
        _forget_pool()
        _pool_pid = os.getpid()
    _pool = [w for w in _pool if w.conn is not None]
    try:
        while len(_pool) < len(cpus):
            _pool.append(_Worker(cpus[len(_pool)]))
    except (ValueError, OSError, AssertionError):
        # AssertionError: multiprocessing lets no daemonic process fork
        pass
    return _pool[:len(cpus)]


def _forget_pool() -> None:
    """Close this process's copies of the pool's pipes, leaving the
    workers to the process that forked them."""
    global _pool
    for w in _pool:
        if w.conn is not None:
            w.conn.close()
    _pool = []


class _Worker:
    """A forked process that counts the trial ranges sent down its pipe.

    `owed` is the sequence tag of the range whose answer has not been
    read yet.  A worker that owes an answer gets no new range; the
    answer, when it comes, is dropped unless the parent is still waiting
    for it.
    """

    __slots__ = ("process", "conn", "owed")

    def __init__(self, cpu: int):
        import multiprocessing  # here, so that importing qmoney does not load it

        ctx = multiprocessing.get_context("fork")  # ValueError where there is no fork
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child_end, self.conn, cpu),
                                   daemon=True)
        self.process.start()
        child_end.close()
        self.owed = None

    def post(self, task) -> bool:
        """Send a range; False if the worker still owes an answer or is gone."""
        self._read()  # drop a late answer that has arrived
        if self.owed is not None or self.conn is None:
            return False
        tag = next(_tags)
        try:
            self.conn.send((tag, *task))
        except OSError:
            self.discard()
            return False
        self.owed = tag
        return True

    def answer(self) -> tuple[int, int] | None:
        """The answer to the range just posted, if it has arrived; a
        worker's exception is raised here."""
        reply = self._read()
        if reply is None:
            return None
        counts, error = reply
        if error is not None:
            raise error
        return counts

    def _read(self):
        """(counts, error) of the owed answer if it has arrived, else None;
        a worker that died, or whose pipe broke, is discarded."""
        if self.owed is None:
            return None
        try:
            if not self.conn.poll():
                return None
            tag, counts, error = self.conn.recv()
        except BaseException as exc:
            # a dead worker, or a message cut short: the pipe is done for
            self.discard()
            if isinstance(exc, (EOFError, OSError)):
                return None
            raise
        if tag != self.owed:
            self.discard()
            return None
        self.owed = None
        return counts, error

    def discard(self) -> None:
        """Close the pipe and stop the process; the next call forks a new one."""
        self.conn.close()
        self.conn = None
        self.owed = None
        self.process.kill()
        self.process.join()


# Trials a worker counts between checks that its parent is alive.
_CHUNK = 64


def _serve(conn, parent_end, cpu: int) -> None:
    """A worker's loop on its own CPU: count each range it is sent, and
    exit when the parent's end of the pipe closes or the parent dies."""
    global _in_worker
    import signal

    # Ctrl-C reaches the whole process group; the parent reports it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _in_worker = True
    parent_end.close()
    _forget_pool()
    # Unpinned, a woken worker was often run on the CPU of the parent
    # that woke it, and the split took longer than one process did.
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no such call, or no such CPU
        pass
    parent = os.getppid()
    while True:
        try:
            tag, strategy, policy, n, seed, lo, hi = conn.recv()
        except (EOFError, OSError):
            return
        try:
            successes = queries = 0
            for start in range(lo, hi, _CHUNK):
                if os.getppid() != parent:
                    return  # orphaned in mid-range
                s, q = _count(strategy, policy, n, seed, start, min(start + _CHUNK, hi))
                successes += s
                queries += q
            reply = (tag, (successes, queries), None)
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # sent as its type's name and its message
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = (tag, None, exc)
        try:
            conn.send(reply)
        except OSError:
            return


def render_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        analytic = "" if r.analytic_rate is None else repr(r.analytic_rate)
        buf.write(
            f"{r.n},{r.strategy},{r.policy},{r.trials},{r.successes},"
            f"{r.success_rate!r},{r.mean_queries!r},{r.std_error!r},{analytic},{r.seed}\n"
        )
    return buf.getvalue()


def write_results(rows: list[ResultRow], path, fmt: str = "csv") -> None:
    if not rows:
        raise ValueError("no result rows to write")
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = json.dumps([r.to_dict() for r in rows], indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_results_csv(path) -> list[ResultRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(
                ResultRow(
                    n=int(rec["n"]),
                    strategy=rec["strategy"],
                    policy=rec["policy"],
                    trials=int(rec["trials"]),
                    successes=int(rec["successes"]),
                    success_rate=float(rec["success_rate"]),
                    mean_queries=float(rec["mean_queries"]),
                    std_error=float(rec["std_error"]),
                    analytic_rate=float(rec["analytic_rate"]) if rec["analytic_rate"] else None,
                    seed=int(rec["seed"]),
                )
            )
        return rows
