"""Complexity contracts, counted instead of timed.

An adaptive query costs O(1) whatever the bill's size n (see the
`qstate` module comment).  Two deterministic measures check it, on the
local session and on the server's `handle_message`:

- `sys.setprofile` sees every Python call and every call of a builtin,
  so the calls one query makes are counted on bills of n = 64 and of
  n = 4096 qubits.  A Python loop over the qubits shows up here.
- Work done inside one builtin call, such as `sorted(range(n))`, is a
  single profile event.  Such work allocates, so `tracemalloc` also
  records how much memory each session call allocates above what was
  live when it began (its peak), on bills of n = 64 and of n = 1024,
  and the large bill may cost a few small objects more, not a copy.

A scan that allocates nothing, such as comparing two n-symbol tuples,
is seen by neither.

Each bill repeats the pattern 01+-, so every size asks the same mix of
queries: a Z-basis qubit costs a flip, an INVALID verify, an undo and a
Z measurement; an X-basis qubit a flip, a VALID verify and an X
measurement.  Over the wire that is 4 request lines for a Z-basis qubit
and 3 for an X-basis one, which a remote attack's `sent_counts` shows.

A baseline trial through the mint (`harness.mint_trial`) makes a fixed
number of calls per n on average: its profile events, averaged over
trials 0-299 of seed 303, stay at or under a ceiling recorded for each
strategy, policy and n.  `harness.run_trial` computes a baseline trial
exactly, with no mint, so it has its own ceilings, each its measured
count plus 0.1, under a third of `mint_trial`'s.
"""

import random
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import pytest

from qmoney.attacks import LocalSession, StrategyKind, adaptive_attack
from qmoney.harness import mint_trial, run_trial, trial_rng
from qmoney.mint import Mint, MintPolicy
from qmoney.qstate import VerifyOutcome, symbols_from_string
from qmoney.wire import MintServer, remote_adaptive_attack

SMALL = 64
LARGE_CALLS = 4096
# tracemalloc makes each allocation cost microseconds, so the memory
# measure stops at a smaller bill
LARGE_BYTES = 1024
# calls per query at the large size may differ from the small one by
# this share
TOLERANCE = 0.05
# a call on the large bill may allocate this many bytes more: ints past
# the small-int cache (qubit indices and handle ids above 256) and longer
# digit strings, but no copy of anything per qubit, which would cost at
# least 8 bytes a qubit, 8 KiB at LARGE_BYTES
SLACK_BYTES = 256

# the baseline trials whose calls are counted, and the ceiling on their
# mean profile events per `mint_trial` at n = 1, 4 and 8
TRIAL_SEED = 303
TRIALS = 300
TRIAL_NS = (1, 4, 8)
TRIAL_CALL_CEILINGS = {
    ("guess", MintPolicy.RETURN_ALWAYS): (51.1, 59.9, 65.5),
    ("guess", MintPolicy.DESTROY_ON_INVALID): (42.6, 46.3, 54.1),
    ("measure-copy", MintPolicy.RETURN_ALWAYS): (57.7, 104.7, 163.1),
    ("measure-copy", MintPolicy.DESTROY_ON_INVALID): (50.7, 81.7, 124.5),
}
# the ceiling on the mean profile events per `run_trial` of a baseline
# under `return-always`, at the same trials and n
RUN_TRIAL_CALL_CEILINGS = {
    "guess": (8.4, 11.5, 15.9),
    "measure-copy": (12.1, 27.1, 47.1),
}

_OUTCOMES = {o.value: o for o in VerifyOutcome}


def _bill(n):
    return symbols_from_string("01+-" * (n // 4))


@contextmanager
def _local(n):
    mint = Mint(rng=random.Random(1))
    secret, handle = mint.add_bill(_bill(n))
    yield LocalSession(mint, MintPolicy.RETURN_ALWAYS, random.Random(1)), secret.serial, handle


class _MessageSession:
    """The attack's session, spoken as request lines straight to
    `MintServer.handle_message`: the server's dispatch with no socket
    I/O.  The lines are built with f-strings, at a fixed cost per line."""

    def __init__(self, server):
        self._ask = server.handle_message
        self._owned = set()

    def claim(self, serial):
        reply = self._ask(f'{{"v": 1, "type": "claim", "serial": "{serial}"}}', self._owned)
        return reply["handle"]

    def apply_x(self, handle, i):
        line = f'{{"v": 1, "type": "apply_x", "handle": {handle}, "qubit": {i}}}'
        return self._ask(line, self._owned)["handle"]

    def verify(self, serial, handle):
        line = f'{{"v": 1, "type": "verify", "serial": "{serial}", "handle": {handle}}}'
        reply = self._ask(line, self._owned)
        return _OUTCOMES[reply["result"]], reply["handle"], None

    def measure(self, handle, i, basis):
        line = (f'{{"v": 1, "type": "measure", "handle": {handle}, "qubit": {i}, '
                f'"basis": "{basis._value_}"}}')
        reply = self._ask(line, self._owned)
        return reply["bit"], reply["handle"]


@contextmanager
def _server(n):
    # the server is never started: its listening socket is bound, then
    # closed, and no connection is made
    server = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)),
                        MintPolicy.RETURN_ALWAYS, random.Random(1))
    try:
        secret, _ = server.mint.add_bill(_bill(n))
        session = _MessageSession(server)
        yield session, secret.serial, session.claim(secret.serial)
    finally:
        server.stop()


def _attack(session, serial, handle, n):
    transcript, _ = adaptive_attack(session, serial, handle, n)
    assert transcript.queries_used == n and transcript.bill_recovered


def _count_calls(fn, *args):
    """Profile events `call` and `c_call` while `fn(*args)` runs."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def _calls_per_query(open_session, n):
    """Profile events per query of one adaptive attack."""
    with open_session(n) as (session, serial, handle):
        return _count_calls(_attack, session, serial, handle, n) / n


def _calls_per_trial(trial, strategy, policy, n):
    """Mean profile events per call of `trial`, its stream's seeding excluded."""
    return sum(_count_calls(trial, strategy, policy, n, trial_rng(TRIAL_SEED, n, index))
               for index in range(TRIALS)) / TRIALS


class _Metered:
    """Forwards the attack's session calls and records, per operation,
    the traced memory each call allocates above what was live when it
    began."""

    def __init__(self, session):
        self._session = session
        self.peaks = defaultdict(list)

    def _call(self, op, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = getattr(self._session, op)(*args)
        self.peaks[op].append(tracemalloc.get_traced_memory()[1] - base)
        return result

    def apply_x(self, handle, i):
        return self._call("apply_x", handle, i)

    def verify(self, serial, handle):
        return self._call("verify", serial, handle)

    def measure(self, handle, i, basis):
        return self._call("measure", handle, i, basis)


def _bytes_per_call(open_session, n):
    """The median peak each kind of session call allocates, in bytes; the
    median, so that an occasional dict or list resize does not count."""
    with open_session(n) as (session, serial, handle):
        metered = _Metered(session)
        tracemalloc.start()
        try:
            _attack(metered, serial, handle, n)
        finally:
            tracemalloc.stop()
    return {op: statistics.median(peaks) for op, peaks in metered.peaks.items()}


_SESSIONS = pytest.mark.parametrize("open_session", [_local, _server], ids=["local", "server"])


@_SESSIONS
def test_calls_per_query_do_not_grow_with_n(open_session):
    small = _calls_per_query(open_session, SMALL)
    large = _calls_per_query(open_session, LARGE_CALLS)
    assert abs(large - small) <= TOLERANCE * small, (small, large)


@_SESSIONS
def test_bytes_per_call_do_not_grow_with_n(open_session):
    small = _bytes_per_call(open_session, SMALL)
    large = _bytes_per_call(open_session, LARGE_BYTES)
    assert small.keys() == large.keys() == {"apply_x", "verify", "measure"}
    for op in small:
        assert large[op] <= small[op] + SLACK_BYTES, (op, small, large)


@pytest.mark.parametrize("strategy, policy", list(TRIAL_CALL_CEILINGS))
def test_calls_per_baseline_trial_stay_under_ceiling(strategy, policy):
    ceilings = TRIAL_CALL_CEILINGS[strategy, policy]
    calls = [_calls_per_trial(mint_trial, StrategyKind(strategy), policy, n) for n in TRIAL_NS]
    assert all(c <= ceiling for c, ceiling in zip(calls, ceilings)), (calls, ceilings)


@pytest.mark.parametrize("strategy", list(RUN_TRIAL_CALL_CEILINGS))
def test_calls_per_routed_baseline_trial_stay_under_ceiling(strategy):
    ceilings = RUN_TRIAL_CALL_CEILINGS[strategy]
    calls = [_calls_per_trial(run_trial, StrategyKind(strategy), MintPolicy.RETURN_ALWAYS, n)
             for n in TRIAL_NS]
    assert all(c <= ceiling for c, ceiling in zip(calls, ceilings)), (calls, ceilings)


@pytest.mark.parametrize("pattern, lines_per_query", [("01+-", 3.5), ("01", 4.0)])
def test_remote_attack_lines_per_query(pattern, lines_per_query):
    symbols = symbols_from_string(pattern * (SMALL // len(pattern)))
    server = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)),
                        MintPolicy.RETURN_ALWAYS, random.Random(1))
    server.start()
    try:
        secret, _ = server.mint.add_bill(symbols)
        transcript, client = remote_adaptive_attack(*server.address, serial=secret.serial)
        client.close()
    finally:
        server.stop()
    assert transcript.bill_recovered and transcript.queries_used == SMALL
    sent = dict(client.sent_counts)
    assert sent.pop("claim") == 1
    assert sum(sent.values()) == lines_per_query * SMALL, sent
