"""Stateful property test: bills issued and verified through a Mint, each
mirrored step by step on the dense backend from the same draws.

Verifying a bill against its own secret takes the reference-symbols
path of SumOfProductsState (the mint passes the tuple the bill was
issued from); verifying it against another bill's secret takes the
general path and moves or drops the reference.  Both must agree with
the dense oracle, and the reference invariant must hold throughout.
"""

import random

import numpy as np
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from support import DenseState, FixedDraw, dense_fidelity, random_unitary

from qmoney.mint import Mint, MintPolicy
from qmoney.qstate import Basis, QubitSymbol, VerifyOutcome, clamp_probability

MAX_N = 6
MAX_BILLS = 4
# a draw this close to a branch probability could fall on either side
# of it in one backend and not the other
DRAW_MARGIN = 1e-6

draws = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
picks = st.integers(min_value=0, max_value=MAX_BILLS - 1)
qubits = st.integers(min_value=0, max_value=MAX_N - 1)


class BillMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mint = Mint(rng=random.Random(0))
        # each bill: [serial, handle, dense mirror]
        self.bills: list[list] = []

    def _bill(self, pick: int) -> list:
        return self.bills[pick % len(self.bills)]

    def _state(self, bill):
        return self.mint.registry.inspect(bill[1])

    @precondition(lambda self: len(self.bills) < MAX_BILLS)
    @rule(symbols=st.lists(st.sampled_from(list(QubitSymbol)), min_size=1, max_size=MAX_N))
    def issue(self, symbols):
        secret, handle = self.mint.add_bill(symbols)
        self.bills.append([secret.serial, handle, DenseState.from_symbols(symbols)])

    @precondition(lambda self: self.bills)
    @rule(pick=picks, qubit=qubits)
    def apply_x(self, pick, qubit):
        bill = self._bill(pick)
        i = qubit % bill[2].n
        self.mint.registry.apply_pauli_x(bill[1], i)
        bill[2] = bill[2].apply_pauli_x(i)

    @precondition(lambda self: self.bills)
    @rule(pick=picks, qubit=qubits, seed=st.integers(min_value=0, max_value=2**32))
    def apply_unitary(self, pick, qubit, seed):
        bill = self._bill(pick)
        i = qubit % bill[2].n
        u = random_unitary(random.Random(seed))
        self.mint.registry.apply_unitary(bill[1], i, u)
        bill[2] = bill[2].apply_unitary(i, u)

    @precondition(lambda self: self.bills)
    @rule(pick=picks, qubit=qubits, basis=st.sampled_from(list(Basis)), draw=draws)
    def measure(self, pick, qubit, basis, draw):
        bill = self._bill(pick)
        i = qubit % bill[2].n
        assume(abs(draw - _zero_probability(bill[2], i, basis)) > DRAW_MARGIN)
        bit_d, post = bill[2].measure_qubit(i, basis, FixedDraw(draw))
        bit_s = self.mint.registry.measure(bill[1], i, basis, FixedDraw(draw))
        assert bit_s == bit_d
        bill[2] = post

    def _verify(self, bill, serial, policy, draw):
        target = self.mint.secret(serial).symbols
        p_s = clamp_probability(abs(self._state(bill).inner_with_symbols(target)) ** 2)
        out_d, post, p_d = bill[2].measure_projector_detail(target, FixedDraw(draw))
        assert abs(p_s - p_d) <= 1e-9
        assume(abs(draw - p_d) > DRAW_MARGIN)
        res = self.mint.verify(serial, bill[1], policy, FixedDraw(draw))
        assert res.outcome is out_d
        if res.handle is None:
            assert policy == MintPolicy.DESTROY_ON_INVALID and out_d is VerifyOutcome.INVALID
            self.bills.remove(bill)
            return
        bill[1], bill[2] = res.handle, post

    @precondition(lambda self: self.bills)
    @rule(pick=picks, policy=st.sampled_from(MintPolicy.ALL), draw=draws)
    def verify_own(self, pick, policy, draw):
        bill = self._bill(pick)
        self._verify(bill, bill[0], policy, draw)

    @precondition(lambda self: len(self.bills) > 1)
    @rule(pick=picks, other=picks, policy=st.sampled_from(MintPolicy.ALL), draw=draws)
    def verify_other(self, pick, other, policy, draw):
        bill = self._bill(pick)
        peers = [b for b in self.bills if b is not bill and b[2].n == bill[2].n]
        assume(peers)
        self._verify(bill, peers[other % len(peers)][0], policy, draw)

    @invariant()
    def matches_dense(self):
        for bill in self.bills:
            assert dense_fidelity(self._state(bill), bill[2]) >= 1 - 1e-9

    @invariant()
    def reference_factors_shared(self):
        # off the dirty qubits, every term holds the reference symbol's
        # own amplitude tuple
        for bill in self.bills:
            state = self._state(bill)
            for t in state.terms:
                for k, sym in enumerate(state._ref):
                    if k not in state._dirty:
                        assert t.factors[k] is sym.amplitudes


def _zero_probability(dense: DenseState, i: int, basis: Basis) -> float:
    # the oracle's probability of bit 0: the bit is 0 exactly when draw < p0
    b0 = np.array(basis.symbols[0].amplitudes)
    amp0 = np.tensordot(b0.conjugate(), dense.amps.reshape((2,) * dense.n), axes=([0], [i]))
    return clamp_probability(float(np.vdot(amp0, amp0).real))


BillMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
test_bill_machine = BillMachine.TestCase
