# Seeded Monte Carlo experiment runner.
#
# A row (seed, n) reads one stream, `trial_rng(seed, n)`, in order.  The
# `_trials` kernels compute each trial exactly with no mint: they read the
# words that `mint_trial`, the path through a fresh mint, reads, in its order,
# and get its floats, up to early stops.  `_count` runs a row's trials in one
# loop, `run_experiment` counts every row, `write_results` writes CSV or JSON.

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
    # ignored, and validated only because perfbench/bench.py sets it
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
    """Row (seed, n)'s stream, seeded with `seed*A + n*B` masked to 64 bits, A
    and B the splitmix64 constants: stable across runs and platforms, and the
    stream of `random.Random` with that seed, seeded once, not twice."""
    return _random.Random((seed * _MIX_A + n * _MIX_B) & _U64)


# Per bill symbol s, in `_SYMBOL_ORDER`, the `attacks._OVERLAP` entries a
# trial takes: for a guess, <s|g> per guessed symbol g; for measure-copy, per
# basis (Z, then X) with outcomes o0, o1, (<o0|s>, <o1|s>, <s|o0>, <s|o1>).
# All are real: `_real` takes each as a float, and refuses one with a phase.
def _real(a: QubitSymbol, b: QubitSymbol) -> float:
    if (z := _OVERLAP[a][b]).imag:
        raise ValueError(f"<{a.name}|{b.name}> = {z!r} is not real: the trial kernels carry floats")
    return z.real


_GUESS_ROWS = tuple(tuple(_real(s, g) for g in _SYMBOL_ORDER) for s in _SYMBOL_ORDER)
_COPY_ROWS = tuple(tuple((*(_real(o, s) for o in b.symbols), *(_real(s, o) for o in b.symbols))
                         for b in (Basis.Z, Basis.X)) for s in _SYMBOL_ORDER)
# A bill draw d picks `_SYMBOL_ORDER[int(d * 4)]`.  `random()` reads two
# Mersenne Twister words, a then b, and returns ((a >> 5) * 2**26 + (b >> 6))
# * 2**-53, so int(d * 4) is a >> 30.  `getrandbits` reads the same words in
# the same order, the first least significant: byte 3 of a draw's 8 is a's top.
_GUESS_BY_BYTE = tuple(_GUESS_ROWS[b >> 6] for b in range(256))
# Measure-copy's steps by running coefficient c (see `_trials`): slot s
# (symbol index s, b >> 6, in Z) or s + 4 (in X) of |c|'s state, a list, holds
# the step (p, the state after outcome 0, after 1, <s|o0>, <s|o1>); slot 8 |c|.
_COPY_STATES: dict[float, list] = {}
_COPY_STATES_MAX = 1024


def _copy_state(coeff: float) -> list:
    state = _COPY_STATES.get(coeff) or [None] * 8 + [coeff]
    if len(_COPY_STATES) < _COPY_STATES_MAX:
        _COPY_STATES[coeff] = state
    return state


def _copy_step(state: list, k: int) -> tuple:
    coeff = state[8]
    w0, w1, o0, o1 = _COPY_ROWS[k & 3][k >> 2]
    c = coeff * w0
    p = 0.0 if (p := abs(c) ** 2) < ATOL else 1.0 if p > _NEAR_ONE else p
    step = (p, _copy_state(abs(c) * (1.0 / _sqrt(p))) if p else None,
            _copy_state(abs(coeff * w1) * (1.0 / _sqrt(1.0 - p))) if p < 1.0 else None, o0, o1)
    if len(_COPY_STATES) < _COPY_STATES_MAX:  # so both its states are kept
        state[k] = step
    return step


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
    where the one before left it, with `mint_trial`'s draws in its order.

    A baseline's serial and bill are one `getrandbits`.  A guess draw g picks
    overlap `int(g * 4)`, as comparing g with the quarters does.  Measure-copy
    draws a basis, then a measurement against p of the step that the state of
    its coefficient's magnitude |c| holds for the symbol and basis: |c| drifts
    by ulps from 1, so `_COPY_STATES` keys few states.  A step is computed
    once, as the one-term `measure_qubit` does, and no sign changes p or |c|,
    so the bits are the same; past `_COPY_STATES_MAX` states none is stored.
    One verify draw meets `inner_with_symbols`'s product, clamped as
    `clamp_probability` does; a product of 0 draws none, and a guess stops
    there.  A destroying mint kills the adaptive bill at its first Z symbol,
    d < 0.5.  Floats stand in for `qstate`'s complex numbers, whose imaginary
    parts stay +-0, with the same bits: abs(x +- 0j) = hypot(x, 0) = |x|.  p
    stays `abs(c) ** 2`: `c * c` equals it only where libm's pow rounds right.
    """
    if policy not in MintPolicy.ALL:
        MintPolicy.check(policy)
    if n < 1:
        raise ValueError("bill size n must be >= 1")  # as Mint.mint_bill
    words, draw = rng.getrandbits, rng.random
    successes = queries = 0
    qubits = range(n)
    if strategy is _ADAPTIVE:  # destroying: the returning mint's rows never reach here
        for _ in range(trials):
            words(128)
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
    rows = _GUESS_BY_BYTE
    start = None if guess else _COPY_STATES.get(1.0) or _copy_state(1.0)  # |c| = 1
    nbits, nbytes = 128 + 64 * n, 16 + 8 * n  # the serial's 4 words, then 2 per bill draw
    for _ in range(trials):
        bill = words(nbits).to_bytes(nbytes, "little")[19::8]
        amp = 1.0
        if guess:
            for b in bill:
                row = rows[b]
                amp *= (row[0] if g < 0.25 else row[1]) if (g := draw()) < 0.5 else (
                    row[2] if g < 0.75 else row[3])
                if amp == 0:
                    break
        else:
            state = start
            for b in bill:
                k = b >> 6 if draw() < 0.5 else (b >> 6) + 4  # Z below 1/2, as baseline_attack
                t = state[k] or _copy_step(state, k)
                if draw() < t[0]:
                    amp *= t[3]
                    state = t[1]
                else:
                    amp *= t[4]
                    state = t[2]
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
    return mint.verify(secret.serial, copy, policy, rng).outcome is _VALID, 1


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
    from its one stream, `trial_rng(seed, n)`.

    A row whose every trial is the same is counted in closed form.  Any
    other row raises RuntimeError unless `run_trial` and `mint_trial` under its
    own policy agree on trial 0, which ties it to the mint code the benchmark's
    tracer reads; trials 1..T-1 then run in one `_trials` loop."""
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

