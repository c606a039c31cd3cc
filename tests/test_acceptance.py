"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import math
import random
import threading
import time

import pytest

from support import (
    bills_equal,
    fidelity_to_symbols,
    indexed_rng,
    is_live,
    random_program,
    run_on_both_backends,
    state_from_string,
)

from qmoney.attacks import (
    LocalSession,
    StrategyKind,
    adaptive_attack,
    analytic_success_rate,
)
from qmoney.cli import EXIT_ATTACK_FAILED, EXIT_OK, main
from qmoney.harness import ExperimentConfig, render_csv, run_experiment
from qmoney.mint import (
    HandleConsumedError,
    Mint,
    MintPolicy,
    NoCloningError,
    StateRegistry,
)
from qmoney.qstate import Basis, symbols_from_string
from qmoney.wire import MintServer, ProtocolError, RemoteMint, remote_adaptive_attack


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_exact_query_attack():
    start = time.monotonic()
    for n in (1, 2, 4, 8, 16, 32, 64):
        for trial in range(200):
            rng = indexed_rng(101, n, trial)
            mint = Mint(rng=rng)
            secret, handle = mint.mint_bill(n)
            session = LocalSession(mint, MintPolicy.RETURN_ALWAYS, rng)
            transcript, final = adaptive_attack(session, secret.serial, handle, n)
            assert transcript.bill_recovered
            assert transcript.learned == list(secret.symbols)
            assert transcript.queries_used == n
            fid = fidelity_to_symbols(mint.registry.inspect(final), secret.symbols)
            assert fid >= 1 - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(1, f"adaptive attack: rate 1.0, exactly n queries, fidelity 1 "
              f"for n up to 64 ({elapsed:.1f}s)")


def test_criterion_2_backend_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(500):
        symbols, ops = random_program(rng, max_n=10, max_x=5, max_meas=3)
        draws = [rng.random() for _ in range(len(ops))]
        outcomes, fidelities, probabilities = run_on_both_backends(symbols, ops, draws)
        assert all(a == b for a, b in outcomes)
        assert all(abs(a - b) <= 1e-9 for a, b in probabilities)
        assert all(f >= 1 - 1e-9 for f in fidelities)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    report(2, f"500 shared-draw programs agree across backends ({elapsed:.1f}s)")


def test_criterion_3_exponential_security_witness():
    start = time.monotonic()
    trials = 100_000
    per_qubit = {
        StrategyKind.GUESS_RANDOM_SYMBOLS: 0.5,
        StrategyKind.MEASURE_RANDOM_BASIS_COPY: 0.75,
    }
    for strategy, rate in per_qubit.items():
        # enumeration oracle first, Monte Carlo second
        for n in (1, 2, 4, 8):
            assert analytic_success_rate(strategy, MintPolicy.RETURN_ALWAYS, n) == pytest.approx(
                rate**n, abs=1e-12)
        rows = run_experiment(
            ExperimentConfig(
                strategy=strategy,
                policy=MintPolicy.RETURN_ALWAYS,
                n_values=[1, 2, 4, 8],
                trials=trials,
                seed=303,
            )
        )
        for row in rows:
            expected = rate**row.n
            se = math.sqrt(expected * (1 - expected) / trials)
            assert abs(row.success_rate - expected) <= 3 * se, (
                f"{strategy.value} n={row.n}: {row.success_rate} vs {expected}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(3, f"baseline pass rates track (1/2)^n and (3/4)^n at 1e5 trials ({elapsed:.1f}s)")


def test_criterion_4_destroy_policy_defends(capsys, tmp_path):
    start = time.monotonic()
    trials = 100_000
    rows = run_experiment(
        ExperimentConfig(
            strategy=StrategyKind.ADAPTIVE_ORACLE,
            policy=MintPolicy.DESTROY_ON_INVALID,
            n_values=[1, 2, 4],
            trials=trials,
            seed=404,
        )
    )
    for row in rows:
        expected = 0.5**row.n
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(row.success_rate - expected) <= 3 * se

    # the CLI reports a lost bill as exit code 3
    db = tmp_path / "m.json"
    mint = Mint(rng=random.Random(44))
    z_bill, _ = mint.add_bill(symbols_from_string("01+-"))
    x_bill, _ = mint.add_bill(symbols_from_string("+-+-"))
    mint.save_db(db)
    code = main(["attack", "adaptive", "--db", str(db), "--serial", z_bill.serial,
                 "--policy", "destroy-on-invalid", "--seed", "1"])
    assert code == EXIT_ATTACK_FAILED
    code = main(["attack", "adaptive", "--db", str(db), "--serial", x_bill.serial,
                 "--policy", "destroy-on-invalid", "--seed", "1"])
    assert code == EXIT_OK
    capsys.readouterr()

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(4, f"destroying mint: recovery rate (1/2)^n, lost bill exits 3 ({elapsed:.1f}s)")


def test_criterion_5_remote_equivalence():
    start = time.monotonic()
    seed = 505
    local_mint = Mint(rng=random.Random(seed))
    secret, handle = local_mint.mint_bill(32)
    session = LocalSession(local_mint, MintPolicy.RETURN_ALWAYS, random.Random(seed))
    local_tr, _ = adaptive_attack(session, secret.serial, handle, 32)

    server = MintServer("127.0.0.1", 0, Mint(rng=random.Random(seed)),
                        MintPolicy.RETURN_ALWAYS, random.Random(seed))
    server.start()
    try:
        remote_tr, client = remote_adaptive_attack(*server.address, n=32)
        try:
            assert client.sent_counts["verify"] == 32
            assert remote_tr.queries_used == 32
            assert remote_tr.serial == local_tr.serial
            assert remote_tr.bill_recovered == local_tr.bill_recovered
            assert remote_tr.learned == local_tr.learned
            assert [(r.qubit, r.outcome, r.symbol) for r in remote_tr.records] == [
                (r.qubit, r.outcome, r.symbol) for r in local_tr.records
            ]
        finally:
            client.close()
    finally:
        server.stop()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    report(5, f"remote n=32 transcript equals local, 32 verify messages ({elapsed:.1f}s)")


def test_criterion_6_no_cloning_and_linearity():
    start = time.monotonic()

    # duplication always errors, live or not
    mint = Mint(rng=random.Random(66))
    secret, handle = mint.mint_bill(4)
    for _ in range(50):
        with pytest.raises(NoCloningError):
            mint.duplicate_handle_attempt(handle)
        assert is_live(mint.registry, handle)
    mint.verify(secret.serial, handle)
    with pytest.raises(HandleConsumedError):
        mint.duplicate_handle_attempt(handle)

    # registry-level race: of many concurrent consumers, exactly one wins
    for round_idx in range(20):
        reg = StateRegistry()
        h = reg.register(state_from_string("0+"))
        outcomes = []

        def consume():
            try:
                reg.consume(h)
                outcomes.append("won")
            except HandleConsumedError:
                outcomes.append("lost")

        threads = [threading.Thread(target=consume) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("won") == 1

    # wire-level stress: 8 sessions racing verify/apply/release on one serial
    server = MintServer("127.0.0.1", 0, Mint(rng=random.Random(66)),
                        MintPolicy.RETURN_ALWAYS, random.Random(66))
    server.start()
    shared, planted_handle = server.mint.add_bill(symbols_from_string("01+-0+"))
    server.mint.registry.release(planted_handle)
    surviving = []
    failures = []

    def session_worker(worker_seed):
        rng = random.Random(worker_seed)
        try:
            with RemoteMint(*server.address) as client:
                handle, n = client.claim(shared.serial)
                consumed = []
                for _ in range(30):
                    op = rng.random()
                    try:
                        if op < 0.4:
                            handle = client.apply_x(handle, rng.randrange(n))
                        elif op < 0.8:
                            stale = handle
                            _, handle, _ = client.verify(shared.serial, handle)
                            consumed.append(stale)
                            if handle is None:
                                break
                            # a consumed id must stay consumed
                            with pytest.raises(ProtocolError):
                                client.apply_x(stale, 0)
                        elif op < 0.9 and consumed:
                            with pytest.raises(ProtocolError):
                                client.verify(shared.serial, rng.choice(consumed))
                        else:
                            bit = client.measure(handle, rng.randrange(n),
                                                 rng.choice(list(Basis)))[0]
                            assert bit in (0, 1)
                    except ProtocolError as exc:
                        failures.append(exc.code)
                if handle is not None:
                    # still inside the session: the handle must be live
                    assert is_live(server.mint.registry, handle)
                    surviving.append(handle)
        except Exception as exc:  # noqa: BLE001 - surfaced via assertion below
            failures.append(repr(exc))

    threads = [threading.Thread(target=session_worker, args=(1000 + k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    unexpected = [f for f in failures if not isinstance(f, str) or not f.startswith("HANDLE")]
    assert not unexpected, unexpected
    # handle ids are never shared between sessions
    assert len(set(surviving)) == len(surviving)
    # closed sessions release their states; registry drains completely
    deadline = time.monotonic() + 5
    while server.mint.registry.live_count() > 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server.mint.registry.live_count() == 0
    server.stop()

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    report(6, f"no-cloning enforced; linearity survives 8 racing sessions ({elapsed:.1f}s)")


def test_criterion_7_persistence_and_reproducibility(tmp_path):
    start = time.monotonic()
    rng = random.Random(77)
    mint = Mint(rng=rng)
    for _ in range(100):
        n = rng.choice([1, 3, 17, 64, 257, 1024])
        _, handle = mint.mint_bill(n)
        mint.registry.release(handle)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    mint.save_db(path_a)
    loaded = Mint.load_db(path_a)
    assert bills_equal(loaded, mint)
    loaded.save_db(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    config = dict(
        strategy=StrategyKind.GUESS_RANDOM_SYMBOLS,
        policy=MintPolicy.RETURN_ALWAYS,
        n_values=[1, 2, 4],
        trials=2000,
        seed=778,
    )
    outputs = {
        workers: render_csv(run_experiment(ExperimentConfig(**config, workers=workers)))
        for workers in (1, 2, 8)
    }
    assert outputs[1] == outputs[2] == outputs[8]

    elapsed = time.monotonic() - start
    report(7, f"db round-trip lossless to n=1024; the same CSV bytes for workers "
              f"1, 2 and 8, one code path ({elapsed:.1f}s)")
