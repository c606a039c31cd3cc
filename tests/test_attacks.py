import json
import math
import random

import pytest
from support import (
    DenseState,
    fidelity_to_symbols,
    is_live,
    random_unitary,
    symbol_basis,
    to_dense,
)

from qmoney import qstate
from qmoney.attacks import (
    AttackConsistencyError,
    LocalSession,
    StrategyKind,
    _overlap_sq,
    adaptive_attack,
    analytic_pass_prob,
    baseline_attack,
    forge_copies,
)
from qmoney.mint import Mint, MintPolicy
from qmoney.qstate import (
    Basis,
    QubitSymbol,
    VerifyOutcome,
    symbols_from_string,
)


# `to_dict()` of a planted 01+- bill's transcript (mint seed 0), recorded
# when the transcript was still a dataclass
_PLANTED_RETURN_ALWAYS = (
    '{"serial": "WQM-e3e70682c2094cac629f6fbed82c07cd", "records": ['
    '{"qubit": 0, "outcome": "INVALID", "symbol": "0"}, '
    '{"qubit": 1, "outcome": "INVALID", "symbol": "1"}, '
    '{"qubit": 2, "outcome": "VALID", "symbol": "+"}, '
    '{"qubit": 3, "outcome": "VALID", "symbol": "-"}], '
    '"queries_used": 4, "learned": "01+-", "bill_recovered": true}'
)
_PLANTED_DESTROY_ON_INVALID = (
    '{"serial": "WQM-e3e70682c2094cac629f6fbed82c07cd", "records": ['
    '{"qubit": 0, "outcome": "INVALID", "symbol": null}], '
    '"queries_used": 1, "learned": "", "bill_recovered": false}'
)


def make_mint(seed=0):
    return Mint(rng=random.Random(seed))


def planted_attack(symbols_text, policy=MintPolicy.RETURN_ALWAYS, seed=0):
    mint = make_mint(seed)
    secret, handle = mint.add_bill(symbols_from_string(symbols_text))
    session = LocalSession(mint, policy, random.Random(seed))
    transcript, final = adaptive_attack(session, secret.serial, handle, secret.n)
    return mint, secret, transcript, final


class TestAdaptiveAttack:
    def test_single_z_qubit(self):
        _, _, transcript, _ = planted_attack("0")
        assert transcript.queries_used == 1
        assert transcript.records[0].outcome is VerifyOutcome.INVALID
        assert transcript.learned_string() == "0"
        assert transcript.bill_recovered

    def test_single_x_qubit(self):
        _, _, transcript, _ = planted_attack("+")
        assert transcript.queries_used == 1
        assert transcript.records[0].outcome is VerifyOutcome.VALID
        assert transcript.learned_string() == "+"
        assert transcript.bill_recovered

    def test_four_qubit_walkthrough(self):
        mint, secret, transcript, final = planted_attack("01+-")
        assert transcript.learned_string() == "01+-"
        assert transcript.queries_used == 4
        state = mint.registry.inspect(final)
        assert fidelity_to_symbols(state, secret.symbols) >= 1 - 1e-9
        # cross-check against the dense backend
        assert to_dense(state).fidelity(DenseState.from_string("01+-")) >= 1 - 1e-9

    @pytest.mark.parametrize("policy, expected", [
        (MintPolicy.RETURN_ALWAYS, _PLANTED_RETURN_ALWAYS),
        (MintPolicy.DESTROY_ON_INVALID, _PLANTED_DESTROY_ON_INVALID),
    ], ids=["return-always", "destroy-on-invalid"])
    def test_transcript_is_pinned_and_immutable(self, policy, expected):
        _, _, transcript, _ = planted_attack("01+-", policy)
        assert json.dumps(transcript.to_dict()) == expected
        with pytest.raises(AttributeError):
            transcript.learned = []
        # its lists are the caller's: the benchmark's self-test corrupts one
        transcript.records.clear()
        assert transcript.to_dict()["records"] == []

    def test_basis_inference_soundness(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 12)
            symbols = "".join(rng.choice("01+-") for _ in range(n))
            _, secret, transcript, _ = planted_attack(symbols, seed=rng.randrange(1 << 30))
            assert transcript.bill_recovered
            for rec in transcript.records:
                true_basis = symbol_basis(secret.symbols[rec.qubit])
                expected = Basis.Z if rec.outcome is VerifyOutcome.INVALID else Basis.X
                assert true_basis is expected
                assert rec.symbol is secret.symbols[rec.qubit]

    def test_exact_query_count(self):
        rng = random.Random(8)
        for n in (1, 2, 5, 16):
            mint = make_mint(rng.randrange(1 << 30))
            secret, handle = mint.mint_bill(n)
            session = LocalSession(mint, MintPolicy.RETURN_ALWAYS, rng)
            transcript, _ = adaptive_attack(session, secret.serial, handle, n)
            assert transcript.queries_used == n
            assert transcript.learned == list(secret.symbols)

    def test_destroying_mint_ends_attack_early(self):
        _, _, transcript, final = planted_attack("+0+", policy=MintPolicy.DESTROY_ON_INVALID)
        assert final is None
        assert not transcript.bill_recovered
        assert transcript.queries_used == 2
        assert transcript.records[-1].symbol is None
        assert transcript.learned_string() == "+"

    def test_all_x_bill_survives_destroying_mint(self):
        _, secret, transcript, final = planted_attack("+-+-", policy=MintPolicy.DESTROY_ON_INVALID)
        assert transcript.bill_recovered
        assert transcript.learned == list(secret.symbols)
        assert final is not None

    def test_destroy_completion_rate_matches_all_x_argument(self):
        # full recovery iff every symbol is an X eigenstate: rate (1/2)^n
        n, trials = 2, 4000
        hits = 0
        for i in range(trials):
            rng = random.Random(100000 + i)
            mint = Mint(rng=rng)
            secret, handle = mint.mint_bill(n)
            session = LocalSession(mint, MintPolicy.DESTROY_ON_INVALID, rng)
            transcript, _ = adaptive_attack(session, secret.serial, handle, n)
            all_x = all(symbol_basis(s) is Basis.X for s in secret.symbols)
            assert transcript.bill_recovered == all_x
            hits += transcript.bill_recovered
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) <= 3 * se

    def test_consistency_guard_fires(self):
        class LyingSession:
            def apply_x(self, handle, i):
                return handle

            def verify(self, serial, handle):
                return VerifyOutcome.VALID, handle, False

            def measure(self, handle, i, basis):
                return 0, handle

        with pytest.raises(AttackConsistencyError):
            adaptive_attack(LyingSession(), "WQM-" + "0" * 32, object(), 3)

    @pytest.mark.parametrize("bill", ["random", "0", "-"])
    def test_factor_overlaps_linear_in_n(self, monkeypatch, bill):
        # each verify of the issued symbols costs O(1) factor overlaps,
        # so the whole attack costs O(n), whatever the bill's symbols
        n = 4096
        mint = make_mint(5)
        if bill == "random":
            secret, handle = mint.mint_bill(n)
        else:
            secret, handle = mint.add_bill(symbols_from_string(bill * n))
        calls = 0
        dot = qstate._dot

        def counted(u, v):
            nonlocal calls
            calls += 1
            return dot(u, v)

        monkeypatch.setattr(qstate, "_dot", counted)
        session = LocalSession(mint, MintPolicy.RETURN_ALWAYS, random.Random(5))
        transcript, _ = adaptive_attack(session, secret.serial, handle, n)
        assert transcript.learned == list(secret.symbols)
        assert calls < 8 * n


class TestLocalSession:
    def test_apply_unitary_matches_dense(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 5)
            mint = make_mint(rng.randrange(1 << 30))
            secret, handle = mint.mint_bill(n)
            session = LocalSession(mint, MintPolicy.RETURN_ALWAYS, rng)
            dense = DenseState.from_symbols(secret.symbols)
            for _ in range(3):
                i, u = rng.randrange(n), random_unitary(rng)
                assert session.apply_unitary(handle, i, u) == handle
                dense = dense.apply_unitary(i, u)
            amps = to_dense(mint.registry.inspect(handle)).amps
            assert max(abs(amps - dense.amps)) < 1e-9


class TestForgeCopies:
    def test_perfect_copies_all_pass(self):
        mint, secret, transcript, _ = planted_attack("01+-")
        copies = forge_copies(mint.registry, transcript.learned, 5)
        assert len(copies) == 5
        for copy in copies:
            res = mint.verify(secret.serial, copy, MintPolicy.RETURN_ALWAYS)
            assert res.outcome is VerifyOutcome.VALID

    def test_zero_copies(self):
        mint = make_mint()
        assert forge_copies(mint.registry, symbols_from_string("0"), 0) == []

    def test_one_wrong_basis_position_passes_half_the_time(self):
        # overlap oracle: a single Z<->X substitution gives |<s|g>|^2 = 1/2
        mint = make_mint(3)
        secret, _ = mint.add_bill(symbols_from_string("01+-"))
        wrong = symbols_from_string("+1+-")
        from qmoney.qstate import SumOfProductsState

        overlap = abs(
            SumOfProductsState.from_symbols(wrong).inner_with_symbols(secret.symbols)
        ) ** 2
        assert overlap == pytest.approx(0.5, abs=1e-12)

        trials, passes = 3000, 0
        rng = random.Random(4)
        for _ in range(trials):
            copy = forge_copies(mint.registry, wrong, 1)[0]
            res = mint.verify(secret.serial, copy, MintPolicy.RETURN_ALWAYS, rng)
            passes += res.outcome is VerifyOutcome.VALID
        se = math.sqrt(0.25 / trials)
        assert abs(passes / trials - 0.5) <= 3 * se


class TestBaselines:
    def _empirical_rate(self, kind, n, trials, seed):
        passes = 0
        for i in range(trials):
            rng = random.Random(seed + i)
            mint = Mint(rng=rng)
            secret, handle = mint.mint_bill(n)
            copy, _ = baseline_attack(kind, mint.registry, handle, n, rng)
            res = mint.verify(secret.serial, copy, MintPolicy.RETURN_ALWAYS, rng)
            passes += res.outcome is VerifyOutcome.VALID
        return passes / trials

    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            (StrategyKind.GUESS_RANDOM_SYMBOLS, 1, 0.5),
            (StrategyKind.MEASURE_RANDOM_BASIS_COPY, 1, 0.75),
            (StrategyKind.MEASURE_RANDOM_BASIS_COPY, 2, 9 / 16),
        ],
    )
    def test_empirical_matches_enumeration(self, kind, n, expected):
        trials = 6000
        rate = self._empirical_rate(kind, n, trials, seed=50000 * n)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= 3 * se

    def test_guess_needs_no_bill(self):
        rng = random.Random(2)
        mint = Mint(rng=rng)
        secret, _ = mint.add_bill(symbols_from_string("0+"))
        copy, original = baseline_attack(
            StrategyKind.GUESS_RANDOM_SYMBOLS, mint.registry, None, 2, rng
        )
        assert original is None
        assert is_live(mint.registry, copy)

    def test_measure_copy_requires_bill(self):
        with pytest.raises(ValueError):
            baseline_attack(
                StrategyKind.MEASURE_RANDOM_BASIS_COPY, Mint().registry, None, 2, random.Random(0)
            )

    def test_measure_copy_damages_but_returns_original(self):
        rng = random.Random(6)
        mint = Mint(rng=rng)
        secret, handle = mint.add_bill(symbols_from_string("0+"))
        copy, original = baseline_attack(
            StrategyKind.MEASURE_RANDOM_BASIS_COPY, mint.registry, handle, 2, rng
        )
        assert original == handle
        assert is_live(mint.registry, original)
        assert is_live(mint.registry, copy)


class TestAnalyticPassProb:
    def test_guess_single_qubit(self):
        assert analytic_pass_prob(StrategyKind.GUESS_RANDOM_SYMBOLS, 1) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_measure_copy_four_qubits(self):
        assert analytic_pass_prob(StrategyKind.MEASURE_RANDOM_BASIS_COPY, 4) == pytest.approx(
            0.31640625, abs=1e-12
        )

    def test_power_law(self):
        for n in (1, 2, 4, 8):
            assert analytic_pass_prob(StrategyKind.GUESS_RANDOM_SYMBOLS, n) == pytest.approx(
                0.5**n, abs=1e-12
            )
            assert analytic_pass_prob(StrategyKind.MEASURE_RANDOM_BASIS_COPY, n) == pytest.approx(
                0.75**n, abs=1e-12
            )

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            analytic_pass_prob(StrategyKind.MEASURE_RANDOM_BASIS_COPY, 0)

    def test_adaptive_rejected(self):
        with pytest.raises(ValueError):
            analytic_pass_prob(StrategyKind.ADAPTIVE_ORACLE, 4)

    def test_rates_equal_the_enumeration(self):
        # the per-qubit loops analytic_pass_prob once ran on every call,
        # kept here as its oracle: the CSV's analytic_rate bytes hang on
        # the exact float
        guess = 0.0
        for true in QubitSymbol:
            for g in QubitSymbol:
                guess += _overlap_sq(true, g)
        guess /= 16.0
        copy = 0.0
        for true in QubitSymbol:
            for basis in Basis:
                for bit in (0, 1):
                    outcome_sym = basis.symbols[bit]
                    p_outcome = _overlap_sq(outcome_sym, true)
                    copy += 0.5 * p_outcome * _overlap_sq(true, outcome_sym)
        copy /= 4.0
        for n in range(1, 17):
            assert analytic_pass_prob(StrategyKind.GUESS_RANDOM_SYMBOLS, n) == guess**n
            assert analytic_pass_prob(StrategyKind.MEASURE_RANDOM_BASIS_COPY, n) == copy**n
