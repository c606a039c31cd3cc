# Seeded Monte Carlo experiment runner.
#
# Every trial gets its own RNG stream derived from (seed, n, trial
# index) by hashing, so trials are order-independent and the output
# depends on the seed alone.  An adaptive-attack trial is computed
# exactly from its symbol draws, with no mint; a baseline trial goes
# through the mint (`mint_trial`), which stays the reference for both.
# Seeding the stream is most of an adaptive trial's cost, and a
# baseline trial is a few tens of microseconds of pure Python, so trials
# run in index order in one thread: a thread pool only adds contention
# for the GIL.

from __future__ import annotations

import csv
import io
import json
import math
import random
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
    # accepted and validated for compatibility; trials always run in
    # one thread
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
    strategy, policy, seed = config.strategy, config.policy, config.seed
    for n in config.n_values:
        successes = queries = 0
        for index in range(config.trials):
            ok, used = run_trial(strategy, policy, n, trial_rng(seed, n, index))
            successes += ok
            queries += used
        rate = successes / config.trials
        mean_queries = queries / config.trials
        std_error = math.sqrt(rate * (1.0 - rate) / config.trials)
        rows.append(
            ResultRow(
                n=n,
                strategy=config.strategy.value,
                policy=config.policy,
                trials=config.trials,
                successes=successes,
                success_rate=rate,
                mean_queries=mean_queries,
                std_error=std_error,
                analytic_rate=analytic_success_rate(config.strategy, config.policy, n),
                seed=config.seed,
            )
        )
    if config.out_path is not None:
        write_results(rows, config.out_path, config.out_format)
    return rows


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
