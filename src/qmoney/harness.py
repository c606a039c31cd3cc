# Seeded Monte Carlo experiment runner.
#
# Every trial gets its own RNG stream derived from (seed, n, trial
# index) by hashing, so trials are order-independent and the output
# depends on the seed alone.  `run_trial`'s kernels compute each trial
# exactly, with no mint: they draw what `mint_trial`, the full path
# through a fresh mint, draws, in the same order, and compute the same
# floats.  An adaptive-attack row against a returning mint, whose every
# trial is (True, n), is counted in closed form; every other row also
# runs its trial 0 through `mint_trial` and raises if the two differ.
# `run_experiment` counts every row in the calling process, and
# `write_results` writes the rows as CSV or JSON.

from __future__ import annotations

import _random
import math
from dataclasses import asdict, astuple, dataclass, fields

from .attacks import (_GUESS, _MEASURE_COPY, _OVERLAP, LocalSession, StrategyKind, adaptive_attack,
                      analytic_success_rate, baseline_attack)
from .mint import Mint, MintPolicy
from .qstate import _NEAR_ONE, _SYMBOL_ORDER, ATOL, Basis, VerifyOutcome, clamp_probability


@dataclass
class ExperimentConfig:
    strategy: StrategyKind
    policy: str
    n_values: list[int]
    trials: int
    seed: int
    # ignored, and validated only for compatibility: kept because
    # perfbench/bench.py sets it
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
_sqrt = math.sqrt

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


# Per bill symbol s, in `_SYMBOL_ORDER`, each overlap a trial takes, read
# from `attacks._OVERLAP`, whose `_dot` of the amplitudes is the
# expression `inner_with_symbols` and `measure_qubit` evaluate with the
# cached bras: for a guess, with each guessed symbol g, <s|g>; for
# measure-copy, per basis (Z, then X), the branch overlap <o|s> of each
# outcome o, then the copy's <s|o>.
_GUESS_ROWS = tuple(tuple(_OVERLAP[s][g] for g in _SYMBOL_ORDER) for s in _SYMBOL_ORDER)
_COPY_ROWS = tuple(
    tuple((tuple(_OVERLAP[o][s] for o in b.symbols),
           tuple(_OVERLAP[s][o] for o in b.symbols))
          for b in (Basis.Z, Basis.X))
    for s in _SYMBOL_ORDER
)


def run_trial(strategy: StrategyKind, policy: str, n: int, rng: _random.Random) -> tuple[bool, int]:
    """One independent trial with a fresh bill; returns (success, queries).

    The result is the one `mint_trial` gives on the same stream, computed
    with no mint: each kernel draws what `mint_trial` draws, in the same
    order, and computes the same floats.  It draws the serial and then
    the bill's symbols, as `Mint.mint_bill` does: draw d picks
    `_SYMBOL_ORDER[int(d * 4)]` (see `random_symbols`).

    Adaptive attack, destroying mint: each verify query is deterministic.
    A flipped X-basis qubit still matches its symbol up to a phase
    (VALID), and a flipped Z-basis qubit is orthogonal to it (INVALID),
    so the mint eats the bill at its first Z-basis symbol, `d < 0.5`.
    Against a returning mint every trial is (True, n): `_count` counts
    those rows in closed form, and here they take the mint path.

    Baselines, under either policy: the counterfeiter submits once and
    reads only the verdict, which either verify draws and compares with
    the same probability.  Per qubit, a guess draws a symbol; measure-copy
    draws a basis and then a measurement, and carries the bill term's
    coefficient through each measurement as the one-term `measure_qubit`
    does, since the next outcome's probability depends on it.  The verify
    overlap is `inner_with_symbols`'s running product, and the verify
    draw comes last.  Once a guess's overlap is 0 the trial has failed,
    whatever it would draw next, and it stops there; a copied symbol is
    never orthogonal to the bill's.
    """
    if policy not in MintPolicy.ALL:
        MintPolicy.check(policy)
    if n < 1:
        raise ValueError("bill size n must be >= 1")  # as Mint.mint_bill
    if strategy is _ADAPTIVE:
        if policy != _DESTROY:
            return mint_trial(strategy, policy, n, rng)
        rng.getrandbits(128)  # the serial
        draw = rng.random
        for i in range(n):
            if draw() < 0.5:
                return False, i + 1
        return True, n
    if strategy is _GUESS:
        rows = _GUESS_ROWS
    elif strategy is _MEASURE_COPY:
        rows = _COPY_ROWS
    else:
        raise ValueError(f"{strategy} is not a baseline strategy")
    rng.getrandbits(128)  # the serial
    draw = rng.random
    bill = [rows[int(draw() * 4)] for _ in range(n)]
    amp = 1.0 + 0.0j
    if rows is _GUESS_ROWS:
        for row in bill:
            amp *= row[int(draw() * 4)]
            if amp == 0:
                return False, 1
    else:
        coeff = 1.0 + 0.0j
        for row in bill:
            (w0, w1), (o0, o1) = row[draw() >= 0.5]  # Z below one half, as baseline_attack
            c = coeff * w0
            p = abs(c) ** 2  # clamp_probability, written out
            if p < ATOL:
                p = 0.0
            elif p > _NEAR_ONE:
                p = 1.0
            if draw() < p:
                amp *= o0
            else:
                p = 1.0 - p
                c = coeff * w1
                amp *= o1
            coeff = c * (1.0 / _sqrt(p))
    return draw() < clamp_probability(abs(amp) ** 2), 1


def mint_trial(strategy: StrategyKind, policy: str, n: int, rng: _random.Random) -> tuple[bool, int]:
    """`run_trial` through a fresh mint, bill and session under the row's
    own policy: the reference that `run_trial` and `_count`'s closed form
    are tested against, and that `_count` holds each row's trial 0 to."""
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


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    config.validate()
    rows = []
    strategy, policy, seed, trials = config.strategy, config.policy, config.seed, config.trials
    for n in config.n_values:
        successes, queries = _count(strategy, policy, n, seed, trials)
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


def _count(strategy: StrategyKind, policy: str, n: int, seed: int, trials: int) -> tuple[int, int]:
    """(successes, queries) over trial indices [0, trials).

    A row whose every trial is the same is counted in closed form.  Any
    other row also runs its trial 0 through `mint_trial` under the row's
    own policy, and raises RuntimeError if the kernel disagrees: every
    row is tied to the real mint and attack code, for one full trial.
    That trial also keeps `baseline_attack`, `Mint()` and, under
    `return-always`, a verify that builds its residue running in every
    sweep; the benchmark's tracer (perfbench/tracing.py) reads
    `attacks.baseline_attack_us.*`, `mint.construct_us` and
    `qstate.compress_calls` from them, until those per-layer metrics
    come from probes of their own.
    """
    if strategy is _ADAPTIVE and policy == MintPolicy.RETURN_ALWAYS:
        # every such trial is (True, n) and reads no draw: seed no stream
        return trials, n * trials
    successes, queries = run_trial(strategy, policy, n, trial_rng(seed, n, 0))
    reference = mint_trial(strategy, policy, n, trial_rng(seed, n, 0))
    if (successes, queries) != reference:
        raise RuntimeError(
            f"{strategy.value} trial 0 under {policy} at n={n}, seed {seed}: "
            f"run_trial gave {(successes, queries)}, mint_trial {reference}")
    for index in range(1, trials):
        ok, used = run_trial(strategy, policy, n, trial_rng(seed, n, index))
        successes += ok
        queries += used
    return successes, queries


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

