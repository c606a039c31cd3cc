# Counterfeiting strategies.
#
# The star of the show is the adaptive oracle attack: against a mint that
# returns post-measurement states even on INVALID, the full secret of an
# n-qubit bill is extracted in exactly n verification queries, one pass
# over qubits 0 .. n-1, each flipped, verified and read out in turn.  Two
# no-oracle baselines (random guessing and measure-and-copy) are included
# to exhibit the exponential security the protocol has when the oracle is
# closed off.

from __future__ import annotations

import random
from enum import Enum
from functools import reduce
from operator import add
from typing import NamedTuple

from .mint import Mint, MintPolicy, StateRegistry, _tuple_new
from .qstate import (
    Basis,
    QubitSymbol,
    SumOfProductsState,
    VerifyOutcome,
    _dot,
    random_symbols,
    symbols_to_string,
)


class StrategyKind(Enum):
    ADAPTIVE_ORACLE = "adaptive"
    GUESS_RANDOM_SYMBOLS = "guess"
    MEASURE_RANDOM_BASIS_COPY = "measure-copy"


# members as module globals, for the attacks' loops (see qstate's _VALID)
_GUESS = StrategyKind.GUESS_RANDOM_SYMBOLS
_MEASURE_COPY = StrategyKind.MEASURE_RANDOM_BASIS_COPY
_Z, _X = Basis.Z, Basis.X
_INVALID = VerifyOutcome.INVALID


class AttackConsistencyError(RuntimeError):
    """The simulator produced a probabilistic branch where the attack's
    correctness argument requires a deterministic one."""


class AttackRecord(NamedTuple):
    # a NamedTuple built with `_tuple_new`, one per query (see mint.py)
    qubit: int
    outcome: VerifyOutcome
    # None only for the round on which a destroying mint ate the bill.
    symbol: QubitSymbol | None


class AttackTranscript(NamedTuple):
    # a NamedTuple built with `_tuple_new`, once per attack; `records`
    # and `learned` are plain lists that belong to the caller
    serial: str
    records: list[AttackRecord]
    queries_used: int
    learned: list[QubitSymbol]
    bill_recovered: bool

    def learned_string(self) -> str:
        return symbols_to_string(self.learned)

    def to_dict(self) -> dict:
        return {
            "serial": self.serial,
            "records": [
                {
                    "qubit": r.qubit,
                    "outcome": r.outcome.value,
                    "symbol": r.symbol.value if r.symbol is not None else None,
                }
                for r in self.records
            ],
            "queries_used": self.queries_used,
            "learned": self.learned_string(),
            "bill_recovered": self.bill_recovered,
        }


class LocalSession:
    """Capability adapter giving an attacker verify access plus local
    gate/measure access against an in-process mint."""

    def __init__(self, mint: Mint, policy: str = MintPolicy.RETURN_ALWAYS,
                 rng: random.Random | None = None):
        self.mint = mint
        self.policy = MintPolicy.check(policy)
        self.rng = rng if rng is not None else random.Random()

    def verify(self, serial: str, handle: int):
        # a VerifyResult is the (outcome, handle, deterministic) triple
        return self.mint.verify(serial, handle, self.policy, self.rng)

    def apply_x(self, handle: int, i: int) -> int:
        self.mint.registry.apply_pauli_x(handle, i)
        return handle

    def apply_unitary(self, handle: int, i: int, u) -> int:
        self.mint.registry.apply_unitary(handle, i, u)
        return handle

    def measure(self, handle: int, i: int, basis: Basis) -> tuple[int, int]:
        bit = self.mint.registry.measure(handle, i, basis, self.rng)
        return bit, handle


def adaptive_attack(session, serial: str, handle, n: int):
    """Learn a bill's secret one qubit per verification query.

    Round i: flip qubit i, submit for verification.  INVALID means the
    symbol is a Z eigenstate: flip back and read it out in Z.  VALID
    means it is an X eigenstate (the flip was unobservable): read it out
    in X, which leaves the qubit collapsed onto the secret symbol, so the
    bill survives intact for the remaining rounds.

    Returns (transcript, final_handle); final_handle is None when a
    destroying mint ate the bill mid-attack.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    records = []
    append = records.append

    for i in range(n):
        handle = session.apply_x(handle, i)
        outcome, returned, deterministic = session.verify(serial, handle)
        if deterministic is False:
            raise AttackConsistencyError(f"verification query {i + 1} hit a probabilistic branch")
        if outcome is _INVALID:
            if returned is None:
                # destroying mint: the bill is gone, the attack is over
                append(_tuple_new(AttackRecord, (i, outcome, None)))
                handle = None
                break
            # Z eigenstate: undo the flip, then read the bit in Z
            handle = session.apply_x(returned, i)
            bit, handle = session.measure(handle, i, _Z)
            sym = _Z.symbols[bit]
        else:
            # X eigenstate: the bill came back undamaged; read the sign
            bit, handle = session.measure(returned, i, _X)
            sym = _X.symbols[bit]
            # re-preparation in `sym` is a no-op: the measurement already
            # collapsed the qubit onto the secret symbol
        append(_tuple_new(AttackRecord, (i, outcome, sym)))

    # each round's symbol; the last round of a destroyed bill has none
    recovered = handle is not None
    learned = [r.symbol for r in (records if recovered else records[:-1])]
    return _tuple_new(AttackTranscript, (serial, records, len(records), learned, recovered)), handle


def forge_copies(registry: StateRegistry, learned, count: int) -> list[int]:
    """Prepare `count` fresh copies of the learned symbol sequence."""
    learned = tuple(learned)
    if not learned:
        raise ValueError("learned symbol sequence is empty")
    if count < 0:
        raise ValueError("count must be >= 0")
    return [
        registry.register(SumOfProductsState.from_symbols(learned)) for _ in range(count)
    ]


def baseline_attack(
    kind: StrategyKind,
    registry: StateRegistry,
    handle: int | None,
    n: int,
    rng: random.Random,
) -> tuple[int, int | None]:
    """Produce a counterfeit without querying the mint.

    Returns (counterfeit handle, damaged original handle or None).  The
    counterfeit is the canonical submission; the damaged original is
    exposed for completeness but not used in the headline statistics.
    """
    if kind is _GUESS:
        symbols = random_symbols(rng, n)
        copy = registry.register(SumOfProductsState.from_symbols(symbols))
        return copy, handle
    if kind is _MEASURE_COPY:
        if handle is None:
            raise ValueError("measure-copy needs the genuine bill")
        # the names the loop uses, looked up once
        draw, measure, z, x = rng.random, registry.measure, _Z, _X
        observed = []
        append = observed.append
        for i in range(n):
            basis = z if draw() < 0.5 else x
            append(basis.symbols[measure(handle, i, basis, rng)])
        copy = registry.register(SumOfProductsState.from_symbols(observed))
        return copy, handle
    raise ValueError(f"{kind} is not a baseline strategy")


def _overlap_sq(a: QubitSymbol, b: QubitSymbol) -> float:
    return abs(_dot(a.amplitudes, b.amplitudes)) ** 2


# |<a|b>|^2 for every pair of symbols a, b: the 4x4 overlap table
_OVERLAP_SQ = {a: {b: _overlap_sq(a, b) for b in QubitSymbol} for a in QubitSymbol}

# per-qubit pass rates of the baselines, computed once by enumeration.
# The terms are added left to right with `add`: `sum` compensates its
# float total from Python 3.12 on, which rounds both rates differently.
_PER_QUBIT_RATE = {
    # uniform true symbol x uniform guess
    _GUESS: reduce(add, (_OVERLAP_SQ[true][guess]
                         for true in QubitSymbol for guess in QubitSymbol), 0.0) / 16.0,
    # uniform true symbol x uniform measurement basis x Born outcome
    _MEASURE_COPY: reduce(add, (0.5 * _OVERLAP_SQ[out][true] * _OVERLAP_SQ[true][out]
                                for true in QubitSymbol
                                for basis in Basis for out in basis.symbols), 0.0) / 4.0,
}


def analytic_pass_prob(kind: StrategyKind, n: int) -> float:
    """Closed-form pass probability of a baseline counterfeit: the
    per-qubit rate from exhaustive enumeration, raised to the n-th power."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        rate = _PER_QUBIT_RATE[kind]
    except KeyError:
        raise ValueError("adaptive attack success is not a per-qubit power law") from None
    return rate**n
