# Seeded Monte Carlo experiment runner.
#
# Every trial gets its own RNG stream derived from (seed, n, trial
# index) by hashing, so trials are order-independent and the output
# depends on the seed alone.  An adaptive-attack row against a returning
# mint, whose every trial is (True, n), is counted in closed form; an
# adaptive-attack trial against a destroying mint is computed exactly
# from its symbol draws, with no mint; a baseline trial is verified by a
# destroying mint (see `run_trial`).  `mint_trial` under the row's own
# policy stays the reference for all three.
# `run_experiment` returns the rows, and `write_results` writes them as
# CSV or JSON.
#
# A trial is pure Python and holds the GIL, so `run_experiment` spreads
# each n's trial indices over the CPUs this process may run on, in one
# contiguous range per forked worker; the workers are started on first
# use, kept, and pinned one to a CPU.  Counts are integer sums, so the
# rows do not depend on the split.  The two ends meet in a window of
# shared slots, one per trial, tagged with a generation that each call
# bumps: a worker counts its range from the bottom up, writing into
# each slot its count so far, and the parent counts the same range from
# the top down, marking each slot taken, until it reaches a slot the
# worker wrote.  Neither waits for the other, at most one trial per
# worker is counted twice, and a late worker's slots carry an old
# generation and do not count.  A worker sends nothing back: one whose
# trial raises stops there, and the parent counts that trial itself,
# and so raises what it raises.  With one CPU, no "fork" start method,
# or a second thread while another holds the workers, the parent counts
# every trial itself.

from __future__ import annotations

import _random
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields

from .attacks import (
    LocalSession,
    StrategyKind,
    adaptive_attack,
    analytic_pass_prob,
    baseline_attack,
)
from .mint import Mint, MintPolicy
from .qstate import VerifyOutcome


@dataclass
class ExperimentConfig:
    strategy: StrategyKind
    policy: str
    n_values: list[int]
    trials: int
    seed: int
    # deprecated: accepted and validated for compatibility, and
    # ignored; trials are spread over the CPUs this process may run on
    workers: int = 1

    def validate(self) -> None:
        # a plain string such as "adaptive" would reach the baseline path
        if not isinstance(self.strategy, StrategyKind):
            raise ValueError(f"strategy must be a StrategyKind, got {self.strategy!r}")
        MintPolicy.check(self.policy)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if any(n < 1 for n in self.n_values):
            raise ValueError("all n values must be >= 1")
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
    analytic_rate: float
    seed: int


# the CSV columns are ResultRow's fields, in order
CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


# members as module globals, for the trial paths (see qstate's _VALID)
_ADAPTIVE = StrategyKind.ADAPTIVE_ORACLE
_VALID = VerifyOutcome.VALID
_DESTROY = MintPolicy.DESTROY_ON_INVALID

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def trial_rng(seed: int, n: int, index: int) -> _random.Random:
    """Independent per-trial stream from a fixed mix of (seed, n, index).

    The multipliers are the splitmix64 constants; the Mersenne Twister
    seeding scrambles the mix further.  Streams are stable across runs
    and platforms.  The generator is `random.Random`'s C base: seeded
    with an int it gives the same stream, and it is seeded once, where
    `random.Random(mix)` seeds in `__new__` and again in `__init__`.
    A trial reads only `random()` and `getrandbits()`.
    """
    return _random.Random((seed * _MIX_A + n * _MIX_B + index * _MIX_C) & _U64)


def run_trial(strategy: StrategyKind, policy: str, n: int, rng: _random.Random) -> tuple[bool, int]:
    """One independent trial with a fresh bill; returns (success, queries).

    Adaptive-attack trials against a destroying mint are computed
    exactly, with the result that `mint_trial` gives on the same stream.
    Each of the attack's verify queries is deterministic: a flipped
    X-basis qubit still matches its symbol up to a phase (VALID), and a
    flipped Z-basis qubit is orthogonal to it (INVALID), so a destroying
    mint eats the bill at its first Z-basis symbol.  That kernel draws
    what `Mint.mint_bill` draws, the serial and then the symbols in
    `random_symbols` order, and stops at the first Z-basis one: symbol
    index `int(d * 4) < 2`, which is `d < 0.5` since `d * 4` is exact.
    (A returning mint hands every bill back, so each such trial is
    (True, n); `_count_split` counts those rows in closed form.)

    A baseline trial is verified by a destroying mint under either
    policy.  The counterfeiter submits once and reads only the verdict;
    either verify consumes the same single draw and compares it with the
    same `p` from the same `inner_with_symbols`, so the verdict is the
    same bit for bit, and the destroying one builds no residue.
    """
    if strategy is _ADAPTIVE:
        if policy == _DESTROY:
            rng.getrandbits(128)  # the serial
            draw = rng.random
            for i in range(n):
                if draw() < 0.5:
                    return False, i + 1
            return True, n
    elif policy in MintPolicy.ALL:
        policy = _DESTROY  # a baseline reads only the verdict
    # an unknown policy reaches the mint, which rejects it
    return mint_trial(strategy, policy, n, rng)


def mint_trial(strategy: StrategyKind, policy: str, n: int, rng: _random.Random) -> tuple[bool, int]:
    """`run_trial` through a fresh mint, bill and session under the row's
    own policy: the reference that `run_trial` and `_count_split`'s
    closed form are tested against."""
    mint = Mint(rng)
    registry = mint.registry
    secret, handle = mint.mint_bill(n, rng=rng)
    if strategy is _ADAPTIVE:
        session = LocalSession(mint, policy, rng)
        transcript, _ = adaptive_attack(session, secret.serial, handle, n)
        success = transcript.bill_recovered and transcript.learned == list(secret.symbols)
        return success, transcript.queries_used
    copy, _ = baseline_attack(strategy, registry, handle, n, rng)
    res = mint.verify(secret.serial, copy, policy, rng)
    return res.outcome is _VALID, 1


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
    """`_count` over [0, trials), one window of slots at a time, each
    window in one contiguous range per worker, counted by the worker
    from the bottom and by the caller from the top.  The first range is
    twice as long as the others, because the caller starts there.  A
    row whose every trial is the same is counted in closed form."""
    if strategy is _ADAPTIVE and policy == MintPolicy.RETURN_ALWAYS:
        # every such trial is (True, n) and reads no draw: seed no stream
        return trials, n * trials
    task = (strategy, policy, n, seed)
    if not workers:
        return _count(*task, 0, trials)
    k, step = len(workers), len(_slots) - 1
    successes = queries = 0
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        bounds = [lo] + [lo + (hi - lo) * j // (k + 1) for j in range(2, k + 2)]
        gen = _next_gen()
        base = lo - 1  # trial i's slot is _slots[i - base]
        for w, a, b in zip(workers, bounds, bounds[1:]):
            if a < b:
                w.post((gen, *task, a, b, base))
        for a, b in zip(bounds, bounds[1:]):
            s, q = _meet(gen, task, a, b, base)
            successes += s
            queries += q
    return successes, queries


def _meet(gen: int, task, lo: int, hi: int, base: int) -> tuple[int, int]:
    """The count of [lo, hi), which a worker may be counting from lo up:
    the caller counts from hi down, marking each slot taken, until it
    reaches one the worker wrote in call `gen`, which holds the worker's
    count of the trials below it.  Every other slot the caller counts
    past, so a trial that raised in the worker, or a range whose worker
    is gone, is counted here, and a trial that raises here raises."""
    strategy, policy, n, seed = task
    taken = gen << _GEN_SHIFT
    slots = _slots
    successes = queries = 0
    for index in range(hi - 1, lo - 1, -1):
        word = slots[index - base]
        if word >> _GEN_SHIFT == gen:
            s = word >> _QUERY_BITS & _MAX_SUCCESSES
            return successes + s, queries + (word & _MAX_QUERIES)
        slots[index - base] = taken
        ok, used = run_trial(strategy, policy, n, trial_rng(seed, n, index))
        successes += ok
        queries += used
    return successes, queries


# A slot is one aligned 64-bit word, stored and loaded whole: the
# generation of the call that wrote it, and then, from a worker, the
# successes and queries of its range up to and including the slot's
# trial.  A worker whose queries outgrow the field stops there, and the
# caller counts the rest.
_QUERY_BITS = 27
_SUCCESS_BITS = 17  # successes <= _WINDOW <= _MAX_SUCCESSES
_GEN_SHIFT = _QUERY_BITS + _SUCCESS_BITS
_MAX_QUERIES = (1 << _QUERY_BITS) - 1
_MAX_SUCCESSES = (1 << _SUCCESS_BITS) - 1
# Slots in the shared window: trials of one row beyond it run as the
# next window.  Only the slots a row uses are ever touched.
_WINDOW = 1 << 16


def _new_window(slots: int) -> memoryview:
    """An anonymous shared mapping as 64-bit words: the generation, then
    `slots` result slots, all zero."""
    import mmap  # here, so that importing qmoney does not load it

    return memoryview(mmap.mmap(-1, 8 * (slots + 1))).cast("Q")


def _next_gen() -> int:
    """A new generation, published in word 0 of the window.  A worker's
    slots of an earlier one no longer count, and the worker stops."""
    gen = _slots[0] + 1
    if gen >> (64 - _GEN_SHIFT):  # wrapped: no slot may carry a reused one
        _slots.obj[:] = bytes(_slots.nbytes)
        gen = 1
    _slots[0] = gen
    return gen


def _cpus() -> list[int]:
    """The CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


# The workers, the pid of the process that forked them, the window they
# share with it, and the lock that one run_experiment call holds while
# it uses them.
_pool: list["_Worker"] = []
_pool_pid: int | None = None
_slots: memoryview | None = None
_pool_lock = threading.Lock()


@contextmanager
def _borrowed_workers():
    """The workers for one run_experiment call; none if the parent is to
    count every trial itself."""
    cpus = _cpus()
    if len(cpus) < 2 or not _pool_lock.acquire(blocking=False):
        yield []
        return
    try:
        yield _workers(cpus[1:])
    finally:
        _pool_lock.release()


def _workers(cpus: list[int]) -> list["_Worker"]:
    """A live worker for each of `cpus`, forking those missing; fewer if
    the "fork" start method is not available or a fork fails."""
    global _pool, _pool_pid, _slots
    if _pool_pid != os.getpid():
        # forked from the process that started the pool: its pipes and
        # its window are that process's to use
        _forget_pool()
        _slots = _new_window(_WINDOW)
        _pool_pid = os.getpid()
    _pool = [w for w in _pool if w.conn is not None]
    try:
        while len(_pool) < len(cpus):
            _pool.append(_Worker(cpus[len(_pool)]))
    except (ValueError, OSError, AssertionError):
        # AssertionError: multiprocessing lets no daemonic process, such
        # as a worker, fork
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
    """A forked process that counts the trial ranges sent down its pipe
    into the shared window, and sends nothing back."""

    __slots__ = ("process", "conn")

    def __init__(self, cpu: int):
        import multiprocessing  # here, so that importing qmoney does not load it

        ctx = multiprocessing.get_context("fork")  # ValueError where there is no fork
        child_end, self.conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_serve, args=(child_end, self.conn, cpu),
                                   daemon=True)
        self.process.start()
        child_end.close()
        # a post never waits: a worker a pipe's buffer of posts behind
        # (stopped, say) fails the send, and is replaced
        os.set_blocking(self.conn.fileno(), False)

    def post(self, message) -> bool:
        """Send a range; False if the worker is gone."""
        if self.conn is None:
            return False
        try:
            self.conn.send(message)
        except OSError:
            self.discard()
            return False
        return True

    def discard(self) -> None:
        """Close the pipe and stop the process; the next call forks a new one."""
        self.conn.close()
        self.conn = None
        self.process.kill()
        self.process.join()


# Trials a worker counts between checks that its parent is alive.
_CHUNK = 64
# Seconds a worker watches for the next post before it blocks in recv.
# Between the rows of a sweep a worker waited 70 us at the median and
# under 0.75 ms at the 99th percentile (the benchmark's mc-sweep rows
# and criterion 3's windows, 2-vCPU VM); a blocked recv took 80 us at
# the median to wake, and over 1 ms at the 90th percentile.
_SPIN_S = 0.002


def _serve(conn, parent_end, cpu: int) -> None:
    """A worker's loop on its own CPU: count each range it is sent, from
    the bottom up, until the caller's count from the top reaches it, the
    caller moves on, or a trial raises, and exit when the parent's end of
    the pipe closes or the parent dies."""
    import signal
    import time

    # Ctrl-C reaches the whole process group; the parent reports it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    _forget_pool()
    # Unpinned, a woken worker was often run on the CPU of the parent
    # that woke it, and the split took longer than one process did.
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no such call, or no such CPU
        pass
    slots = _slots
    parent = os.getppid()
    while True:
        try:
            gen, strategy, policy, n, seed, lo, hi, base = conn.recv()
        except (EOFError, OSError):
            return
        tag = gen << _GEN_SHIFT
        successes = queries = 0
        for index in range(lo, hi):
            if slots[0] != gen or slots[index - base] >> _GEN_SHIFT == gen:
                break  # the caller has moved on, or counted the rest
            if (index - lo) % _CHUNK == 0 and os.getppid() != parent:
                return  # orphaned in mid-range
            try:
                ok, used = run_trial(strategy, policy, n, trial_rng(seed, n, index))
            except Exception:
                break  # left unwritten: the caller counts this trial itself
            successes += ok
            queries += used
            if queries > _MAX_QUERIES:
                break
            slots[index - base] = tag | successes << _QUERY_BITS | queries
        # A sweep posts its rows back to back: catch the next post
        # without the wake-up of a blocked recv.  The caller publishes a
        # generation just before it sends the post.
        deadline = time.monotonic() + _SPIN_S
        while not (slots[0] != gen and conn.poll()) and time.monotonic() < deadline:
            pass


def render_csv(rows: list[ResultRow]) -> str:
    # strings as they are, numbers by repr, which round-trips a float
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(v if type(v) is str else repr(v) for v in astuple(r)))
    return "\n".join(lines) + "\n"


def write_results(rows: list[ResultRow], path, fmt: str = "csv") -> None:
    if not rows:
        raise ValueError("no result rows to write")
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        import json  # here, so that importing qmoney does not load it

        text = json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

