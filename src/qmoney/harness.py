# Seeded Monte Carlo experiment runner.
#
# Each row (seed, n) reads one RNG stream, `trial_rng(seed, n)`, and its
# trials read it in order, so the output depends on the seed alone.
# `_trials`'s kernels compute each trial exactly, with no mint: from where
# the stream stands they draw what `mint_trial`, the full path through a
# fresh mint, draws, in the same order, and compute the same floats, up to
# the early stops `mint_trial` does not take.  `_count` runs a row's trials
# in one loop on that one generator.  `run_experiment` counts every row in
# the calling process, and `write_results` writes the rows as CSV or JSON.

from __future__ import annotations

import _random
from dataclasses import asdict, astuple, dataclass, fields
from math import sqrt as _sqrt

from .attacks import (_GUESS, _MEASURE_COPY, _OVERLAP, LocalSession, StrategyKind, adaptive_attack,
                      analytic_success_rate, baseline_attack)
from .mint import Mint, MintPolicy
from .qstate import _NEAR_ONE, _SYMBOL_ORDER, ATOL, Basis, QubitSymbol, VerifyOutcome


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
_U64 = (1 << 64) - 1


def trial_rng(seed: int, n: int) -> _random.Random:
    """The stream of row (seed, n), seeded with `seed*A + n*B` masked to 64 bits.

    The multipliers are the splitmix64 constants; the Mersenne Twister
    seeding scrambles the mix further, into streams stable across runs and
    platforms.  `random.Random`'s C base gives the same stream for an int
    and seeds once, not twice.  A trial reads only `random()` and
    `getrandbits()`.
    """
    return _random.Random((seed * _MIX_A + n * _MIX_B) & _U64)


# Per bill symbol s, in `_SYMBOL_ORDER`, the overlaps a trial takes, from
# `attacks._OVERLAP` (what `inner_with_symbols` and `measure_qubit`
# evaluate): for a guess, <s|g> per guessed symbol g; for measure-copy, per
# basis (Z, then X) with outcomes o0, o1, (<o0|s>, <o1|s>, <s|o0>, <s|o1>).
# All are real: `_real` takes each as a float, and refuses one with a phase.
def _real(a: QubitSymbol, b: QubitSymbol) -> float:
    if (z := _OVERLAP[a][b]).imag:
        raise ValueError(f"<{a.name}|{b.name}> = {z!r} is not real: the trial kernels carry floats")
    return z.real


_GUESS_ROWS = tuple(tuple(_real(s, g) for g in _SYMBOL_ORDER) for s in _SYMBOL_ORDER)
_COPY_ROWS = tuple(
    tuple((*(_real(o, s) for o in b.symbols), *(_real(s, o) for o in b.symbols))
          for b in (Basis.Z, Basis.X))
    for s in _SYMBOL_ORDER
)


def run_trial(strategy: StrategyKind, policy: str, n: int, rng: _random.Random) -> tuple[bool, int]:
    """One trial with a fresh bill on `rng` as it stands; returns (success,
    queries): `mint_trial`'s result from the same state, from `_trials`, or
    from `mint_trial` itself for an adaptive attack on a returning mint."""
    if strategy is _ADAPTIVE and policy == MintPolicy.RETURN_ALWAYS:
        return mint_trial(strategy, policy, n, rng)
    ok, used = _trials(strategy, policy, n, rng, 1)
    return ok == 1, used


def _trials(strategy: StrategyKind, policy: str, n: int, rng: _random.Random,
            trials: int) -> tuple[int, int]:
    """(successes, queries) of `trials` trials, each reading `rng` on from
    where the one before left it; the checks and the dispatch run once.

    Each trial takes `mint_trial`'s draws, in its order.  A bill draw d
    picks `_SYMBOL_ORDER[int(d * 4)]`; d * 4 is exact, so comparing d with
    the quarters picks the same, and yields the qubit's row (a guess draw
    picks its overlap there the same way).  A destroying mint kills the
    adaptive attack's bill at its first Z-basis symbol, d < 0.5.  A
    baseline's verdict is one verify draw against `inner_with_symbols`'s
    running product, clamped as `clamp_probability` does: over a guessed
    symbol per qubit or, for measure-copy, a basis draw and a measurement
    draw whose branch carries the bill term's coefficient as the one-term
    `measure_qubit` does.  A product of 0 draws no verify, and a guess
    stops there: the next trial reads on from there.  The baselines carry
    floats where `qstate` carries complex numbers of imaginary part +-0,
    with the same bits: a product's real part is the float product, and
    abs(x +- 0j) = hypot(x, 0) = |x|.  p stays `abs(c) ** 2` as there:
    `c * c` equals it only where libm's `pow` rounds correctly.
    """
    if policy not in MintPolicy.ALL:
        MintPolicy.check(policy)
    if n < 1:
        raise ValueError("bill size n must be >= 1")  # as Mint.mint_bill
    serial, draw = rng.getrandbits, rng.random
    successes = queries = 0
    qubits = range(n)
    if strategy is _ADAPTIVE:  # destroying: the returning mint's rows never reach here
        for _ in range(trials):
            serial(128)
            for i in qubits:
                if draw() < 0.5:
                    queries += i + 1
                    break
            else:
                successes += 1
                queries += n
        return successes, queries
    guess = strategy is _GUESS
    if not guess and strategy is not _MEASURE_COPY:
        raise ValueError(f"{strategy} is not a baseline strategy")
    r0, r1, r2, r3 = _GUESS_ROWS if guess else _COPY_ROWS
    for _ in range(trials):
        serial(128)
        bill = [(r0 if d < 0.25 else r1) if (d := draw()) < 0.5 else (r2 if d < 0.75 else r3)
                for _ in qubits]
        amp = 1.0
        if guess:
            for row in bill:
                amp *= (row[0] if g < 0.25 else row[1]) if (g := draw()) < 0.5 else (
                    row[2] if g < 0.75 else row[3])
                if amp == 0:
                    break
            else:
                p = abs(amp) ** 2
                successes += draw() < (0.0 if p < ATOL else 1.0 if p > _NEAR_ONE else p)
            continue
        coeff = 1.0
        for row in bill:
            w0, w1, o0, o1 = row[0] if draw() < 0.5 else row[1]  # Z below 1/2, as baseline_attack
            c = coeff * w0
            p = abs(c) ** 2
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
            p = abs(amp) ** 2
            successes += draw() < (0.0 if p < ATOL else 1.0 if p > _NEAR_ONE else p)
    return successes, trials


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
    """(successes, queries) of the row's `trials` trials, read in order
    from the row's one stream, `trial_rng(seed, n)`.

    A row whose every trial is the same is counted in closed form.  Any
    other row runs its trial 0 through `run_trial` and through
    `mint_trial` under the row's own policy, and raises RuntimeError if
    they differ: every row is tied to the real mint and attack code, and
    the benchmark's tracer reads the per-layer metrics of `baseline_attack`,
    `Mint()` and a `return-always` verify there.  Trials 1..T-1 then run
    in one `_trials` loop on the generator, from where trial 0 left it.
    """
    if strategy is _ADAPTIVE and policy == MintPolicy.RETURN_ALWAYS:
        # every such trial is (True, n) and reads no draw: seed no stream
        return trials, n * trials
    rng = trial_rng(seed, n)
    first = run_trial(strategy, policy, n, rng)
    reference = mint_trial(strategy, policy, n, trial_rng(seed, n))
    if first != reference:
        raise RuntimeError(
            f"{strategy.value} trial 0 under {policy} at n={n}, seed {seed}: "
            f"run_trial gave {first}, mint_trial {reference}")
    successes, queries = _trials(strategy, policy, n, rng, trials - 1)
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

