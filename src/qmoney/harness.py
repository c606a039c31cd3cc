# Seeded Monte Carlo experiment runner.
#
# Every trial reads its own RNG stream, `trial_rng(seed, n, index)`, so
# trials are order-independent and the output depends on the seed alone.
# `_trials`'s kernels compute each trial exactly, with no mint: they draw
# what `mint_trial`, the full path through a fresh mint, draws, in the
# same order, and compute the same floats.  `_count` runs a row's trials
# 1..T-1 in one loop on one kept generator, reseeded per trial to that
# stream.  `run_experiment` counts every row in the calling process, and
# `write_results` writes the rows as CSV or JSON.

from __future__ import annotations

import _random
from dataclasses import asdict, astuple, dataclass, fields
from math import sqrt as _sqrt

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
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        # a bool would reach the CSV as True, a float or None a bare TypeError
        for name, value in [("trials", self.trials), ("seed", self.seed), ("workers", self.workers),
                            *(("n_values item", n) for n in self.n_values)]:
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def _keys(seed: int, n: int, start: int, stop: int) -> range:
    """The stream keys of trials [start, stop) of row (seed, n), each
    `seed*A + n*B + index*C` before its mask to 64 bits."""
    base = seed * _MIX_A + n * _MIX_B
    return range(base + start * _MIX_C, base + stop * _MIX_C, _MIX_C)


def trial_rng(seed: int, n: int, index: int) -> _random.Random:
    """The stream of trial `index` of row (seed, n), seeded with its `_keys` key.

    The multipliers are the splitmix64 constants; the Mersenne Twister
    seeding scrambles the mix further, into streams stable across runs and
    platforms.  `random.Random`'s C base gives the same stream for an int
    and seeds once, not twice; its `seed(key)` resets the whole state, so
    `_count` reseeds one kept generator per trial and reads these same
    streams.  A trial reads only `random()` and `getrandbits()`.
    """
    return _random.Random(_keys(seed, n, index, index + 1)[0] & _U64)


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
    """One independent trial with a fresh bill; returns (success, queries):
    `mint_trial`'s result on the same stream, from `_trials` on `rng` as it
    stands, or from `mint_trial` itself for an adaptive attack on a returning mint."""
    if strategy is _ADAPTIVE and policy == MintPolicy.RETURN_ALWAYS:
        return mint_trial(strategy, policy, n, rng)
    ok, used = _trials(strategy, policy, n, rng, (None,))
    return ok == 1, used


def _trials(strategy: StrategyKind, policy: str, n: int, rng: _random.Random,
            keys: range | tuple[None]) -> tuple[int, int]:
    """(successes, queries) of one trial per key of `keys`, on `rng` reseeded
    with the key masked to 64 bits, or as it stands for None.  The checks
    and the dispatch run once per call, and every trial in this frame.

    A kernel draws what `mint_trial` draws, in order, and computes the
    same floats: the serial, then the bill, as `Mint.mint_bill` does
    (draw d picks `_SYMBOL_ORDER[int(d * 4)]`).  Against a destroying
    mint, the adaptive attack's flip of an X-basis qubit verifies VALID
    and of a Z-basis one INVALID, so the bill dies at its first Z-basis
    symbol, `d < 0.5`.  A baseline's verdict, under either policy, is one
    verify draw compared with the overlap: `inner_with_symbols`'s running
    product, over a guessed symbol per qubit or, for measure-copy, a
    basis draw and a measurement draw that carries the bill term's
    coefficient as the one-term `measure_qubit` does.  An overlap of 0
    fails whatever comes next: a guess stops there and draws no verify.
    """
    if policy not in MintPolicy.ALL:
        MintPolicy.check(policy)
    if n < 1:
        raise ValueError("bill size n must be >= 1")  # as Mint.mint_bill
    reseed, serial, draw = rng.seed, rng.getrandbits, rng.random
    successes = queries = 0
    qubits = range(n)
    if strategy is _ADAPTIVE:  # destroying: the returning mint's rows never reach here
        for key in keys:
            if key is not None:
                reseed(key & _U64)
            serial(128)
            for i in qubits:
                if draw() < 0.5:
                    queries += i + 1
                    break
            else:
                successes += 1
                queries += n
        return successes, queries
    rows = _GUESS_ROWS if strategy is _GUESS else _COPY_ROWS if strategy is _MEASURE_COPY else None
    if rows is None:
        raise ValueError(f"{strategy} is not a baseline strategy")
    for key in keys:
        if key is not None:
            reseed(key & _U64)
        serial(128)
        bill = [draw() for _ in qubits]
        amp = 1.0 + 0.0j
        if rows is _GUESS_ROWS:
            for d in bill:
                amp *= rows[int(d * 4)][int(draw() * 4)]
                if amp == 0:
                    break
        else:
            coeff = 1.0 + 0.0j
            for d in bill:
                (w0, w1), (o0, o1) = rows[int(d * 4)][draw() >= 0.5]  # Z below 1/2, as baseline_attack
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
        if amp != 0:
            successes += draw() < clamp_probability(abs(amp) ** 2)
    return successes, len(keys)


def mint_trial(strategy: StrategyKind, policy: str, n: int, rng: _random.Random) -> tuple[bool, int]:
    """`run_trial` through a fresh mint, bill and session under the row's
    own policy: the reference that `run_trial` and `_count`'s closed form
    are tested against, and that `_count` holds each row's trial 0 to."""
    mint = Mint(rng)
    secret, handle = mint.mint_bill(n, rng=rng)
    if strategy is _ADAPTIVE:
        session = LocalSession(mint, policy, rng)
        transcript, _ = adaptive_attack(session, secret.serial, handle, n)
        success = transcript.bill_recovered and transcript.learned == list(secret.symbols)
        return success, transcript.queries_used
    copy, _ = baseline_attack(strategy, mint.registry, handle, n, rng)
    res = mint.verify(secret.serial, copy, policy, rng)
    return res.outcome is _VALID, 1


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    config.validate()
    rows = []
    strategy, policy, seed, trials = config.strategy, config.policy, config.seed, config.trials
    for n in config.n_values:
        successes, queries = _count(strategy, policy, n, seed, trials)
        rate = successes / trials
        rows.append(ResultRow(n, strategy.value, policy, trials, successes, rate, queries / trials,
                              _sqrt(rate * (1.0 - rate) / trials),
                              analytic_success_rate(strategy, policy, n), seed))
    return rows


def _count(strategy: StrategyKind, policy: str, n: int, seed: int, trials: int) -> tuple[int, int]:
    """(successes, queries) over trial indices [0, trials).

    A row whose every trial is the same is counted in closed form.  Any
    other row runs its trial 0 through `run_trial` and through
    `mint_trial` under the row's own policy, and raises RuntimeError if
    they differ: every row is tied to the real mint and attack code, and
    the benchmark's tracer reads the per-layer metrics of `baseline_attack`,
    `Mint()` and a `return-always` verify there.  Trials 1..T-1 run in one
    `_trials` loop on trial 0's generator, reseeded per trial with
    `trial_rng`'s key: each reads `trial_rng(seed, n, index)`'s stream.
    """
    if strategy is _ADAPTIVE and policy == MintPolicy.RETURN_ALWAYS:
        # every such trial is (True, n) and reads no draw: seed no stream
        return trials, n * trials
    rng = trial_rng(seed, n, 0)
    first = run_trial(strategy, policy, n, rng)
    reference = mint_trial(strategy, policy, n, trial_rng(seed, n, 0))
    if first != reference:
        raise RuntimeError(
            f"{strategy.value} trial 0 under {policy} at n={n}, seed {seed}: "
            f"run_trial gave {first}, mint_trial {reference}")
    successes, queries = _trials(strategy, policy, n, rng, _keys(seed, n, 1, trials))
    return successes + first[0], queries + first[1]


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

