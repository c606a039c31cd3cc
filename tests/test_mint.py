import errno
import json
import random
import sys
import threading
from collections import Counter

import pytest
from support import (
    HADAMARD,
    DenseState,
    FixedDraw,
    bills_equal,
    dense_fidelity,
    fidelity_to_symbols,
    is_live,
    random_unitary,
    state_from_string,
)

from qmoney.mint import (
    SERIAL_PATTERN,
    DatabaseFormatError,
    DimensionMismatchError,
    HandleConsumedError,
    Mint,
    MintPolicy,
    NoCloningError,
    StateRegistry,
    UnknownHandleError,
    UnknownSerialError,
)
from qmoney.qstate import (
    Basis,
    NonUnitaryError,
    QubitSymbol,
    SumOfProductsState,
    VerifyOutcome,
    symbols_from_string,
)


@pytest.fixture
def mint():
    return Mint(rng=random.Random(42))


def count_compress(monkeypatch) -> list:
    """Record every SumOfProductsState.compress call from here on."""
    calls = []
    compress = SumOfProductsState.compress

    def counted(self):
        calls.append(self)
        return compress(self)

    monkeypatch.setattr(SumOfProductsState, "compress", counted)
    return calls


class TestMintBill:
    def test_basic_issue(self, mint):
        secret, handle = mint.mint_bill(4)
        assert SERIAL_PATTERN.match(secret.serial)
        assert len(secret.symbols) == 4
        state = mint.registry.inspect(handle)
        assert fidelity_to_symbols(state, secret.symbols) == pytest.approx(1, abs=1e-9)

    def test_n_zero_rejected(self, mint):
        with pytest.raises(ValueError):
            mint.mint_bill(0)

    def test_symbol_frequencies_uniform(self, mint):
        counts = Counter()
        for _ in range(5000):
            secret, handle = mint.mint_bill(8)
            counts.update(secret.symbols)
            mint.registry.release(handle)
        total = sum(counts.values())
        assert total == 40000
        for sym in QubitSymbol:
            assert 0.24 <= counts[sym] / total <= 0.26

    def test_serials_unique(self, mint):
        serials = {mint.mint_bill(1)[0].serial for _ in range(200)}
        assert len(serials) == 200

    def test_denomination_is_inert(self, mint):
        secret, _ = mint.mint_bill(2, denomination="$1000000")
        assert secret.denomination == "$1000000"

    def test_secret_is_immutable(self, mint):
        secret, _ = mint.mint_bill(2)
        assert secret.denomination == "$20"
        assert secret.n == 2
        for field in ("serial", "symbols", "denomination", "n"):
            with pytest.raises(AttributeError):
                setattr(secret, field, getattr(secret, field))
        assert mint.secret(secret.serial) is secret


class TestVerify:
    @pytest.mark.parametrize("policy", MintPolicy.ALL)
    def test_genuine_bill_always_valid(self, mint, policy):
        secret, handle = mint.mint_bill(6)
        res = mint.verify(secret.serial, handle, policy)
        assert res.outcome is VerifyOutcome.VALID
        assert res.deterministic
        state = mint.registry.inspect(res.handle)
        assert fidelity_to_symbols(state, secret.symbols) == pytest.approx(1, abs=1e-9)

    def test_flipped_z_qubit_returned_unchanged(self, mint):
        secret, handle = mint.add_bill(symbols_from_string("0+"))
        mint.registry.apply_pauli_x(handle, 0)
        res = mint.verify(secret.serial, handle, MintPolicy.RETURN_ALWAYS)
        assert res.outcome is VerifyOutcome.INVALID
        assert res.deterministic
        state = mint.registry.inspect(res.handle)
        assert fidelity_to_symbols(state, symbols_from_string("1+")) == pytest.approx(1, abs=1e-9)

    def test_destroy_policy_eats_the_bill(self, mint):
        secret, handle = mint.add_bill(symbols_from_string("0+"))
        mint.registry.apply_pauli_x(handle, 0)
        before = mint.registry.live_count()
        res = mint.verify(secret.serial, handle, MintPolicy.DESTROY_ON_INVALID)
        assert res.outcome is VerifyOutcome.INVALID
        assert res.handle is None
        assert mint.registry.live_count() == before - 1
        with pytest.raises(HandleConsumedError):
            mint.registry.apply_pauli_x(handle, 0)

    def test_destroyed_bill_builds_no_residue(self, mint, monkeypatch):
        secret, handle = mint.add_bill(symbols_from_string("0+"))
        mint.registry.apply_pauli_x(handle, 0)
        calls = count_compress(monkeypatch)
        res = mint.verify(secret.serial, handle, MintPolicy.DESTROY_ON_INVALID)
        assert res.outcome is VerifyOutcome.INVALID and res.handle is None
        assert calls == []

    def test_returned_residue_matches_dense(self, mint, monkeypatch):
        # VALID has probability 1/2 * |<-|u|->|^2 < 1/2, so a draw of
        # 0.999 is INVALID on both backends
        symbols = symbols_from_string("0+-")
        u = random_unitary(random.Random(5))
        secret, handle = mint.add_bill(symbols)
        mint.registry.apply_unitary(handle, 0, HADAMARD)
        mint.registry.apply_unitary(handle, 2, u)
        calls = count_compress(monkeypatch)
        res = mint.verify(secret.serial, handle, MintPolicy.RETURN_ALWAYS, FixedDraw(0.999))
        dense = DenseState.from_symbols(symbols).apply_unitary(0, HADAMARD).apply_unitary(2, u)
        outcome, post, _ = dense.measure_projector_detail(symbols, FixedDraw(0.999))
        assert res.outcome is outcome is VerifyOutcome.INVALID
        assert len(calls) == 1
        assert dense_fidelity(mint.registry.inspect(res.handle), post) >= 1 - 1e-12

    def test_database_row_survives_destruction(self, mint):
        secret, handle = mint.add_bill(symbols_from_string("1"))
        mint.registry.apply_pauli_x(handle, 0)
        mint.verify(secret.serial, handle, MintPolicy.DESTROY_ON_INVALID)
        # a fresh counterfeit can still be submitted against the serial
        fresh = mint.registry.register(state_from_string("1"))
        res = mint.verify(secret.serial, fresh, MintPolicy.DESTROY_ON_INVALID)
        assert res.outcome is VerifyOutcome.VALID

    def test_handle_consumed_and_reissued(self, mint):
        secret, handle = mint.mint_bill(2)
        res = mint.verify(secret.serial, handle, MintPolicy.RETURN_ALWAYS)
        assert res.handle != handle
        with pytest.raises(HandleConsumedError):
            mint.verify(secret.serial, handle, MintPolicy.RETURN_ALWAYS)

    def test_unknown_serial_leaves_handle_live(self, mint):
        _, handle = mint.mint_bill(2)
        with pytest.raises(UnknownSerialError):
            mint.verify("WQM-" + "0" * 32, handle)
        assert is_live(mint.registry, handle)

    def test_unknown_policy_leaves_handle_live(self, mint):
        secret, handle = mint.mint_bill(2)
        with pytest.raises(ValueError, match="shred-everything"):
            mint.verify(secret.serial, handle, "shred-everything")
        assert is_live(mint.registry, handle)

    def test_dimension_mismatch_leaves_handle_live(self, mint):
        secret, _ = mint.mint_bill(4)
        wrong = mint.registry.register(state_from_string("0"))
        with pytest.raises(DimensionMismatchError):
            mint.verify(secret.serial, wrong)
        assert is_live(mint.registry, wrong)

    def test_secret_of_unknown_serial(self, mint):
        for look_up in (mint.secret, mint.issue_bill_state):
            with pytest.raises(UnknownSerialError):
                look_up("WQM-" + "0" * 32)
        assert mint.registry.live_count() == 0

    def test_verify_atomic_under_races(self, mint):
        secret, handle = mint.mint_bill(2)
        wins, errors = [], []

        def racer():
            try:
                wins.append(mint.verify(secret.serial, handle, MintPolicy.RETURN_ALWAYS))
            except HandleConsumedError:
                errors.append(1)

        threads = [threading.Thread(target=racer) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert len(errors) == 15
        # only the winner's returned state is live
        assert mint.registry.live_count() == 1


class TestLocks:
    """The mint's lock guards only writes to its database; the registry's, the states."""

    def test_minting_alongside_lookups_and_verifies(self, mint):
        published = [mint.mint_bill(3) for _ in range(8)]
        held = [handle for _, handle in published]
        minted, errors = [], []
        start = threading.Barrier(8)

        def minter():
            try:
                start.wait()
                for _ in range(150):
                    secret, handle = mint.mint_bill(3)
                    minted.append(secret.serial)
                    held.append(handle)
            except Exception as exc:
                errors.append(exc)

        def reader(k):
            try:
                start.wait()
                for j in range(150):
                    secret = published[(k + j) % len(published)][0]
                    assert mint.secret(secret.serial) is secret
                    same, handle = mint.issue_bill_state(secret.serial)
                    assert same is secret
                    res = mint.verify(secret.serial, handle, MintPolicy.RETURN_ALWAYS)
                    assert res.outcome is VerifyOutcome.VALID
                    # keep every other returned bill, release the rest
                    if j % 2:
                        mint.registry.release(res.handle)
                    else:
                        held.append(res.handle)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=minter) for _ in range(4)]
        threads += [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        # switch threads often, so that the calls interleave mid-body
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(minted) == 600
        serials = [secret.serial for secret, _ in published] + minted
        assert len(set(serials)) == len(serials) == len(mint._bills)
        # no handle was handed out twice, and exactly the held ones are live
        assert len(set(held)) == len(held) == 8 + 600 + 300
        assert all(is_live(mint.registry, h) for h in held)
        assert mint.registry.live_count() == len(held)

    def test_lookups_and_verifies_take_no_mint_lock(self, mint):
        secret, handle = mint.mint_bill(3)
        outcomes = []

        def lookups():
            assert mint.secret(secret.serial) is secret
            _, copy = mint.issue_bill_state(secret.serial)
            outcomes.append(mint.verify(secret.serial, copy).outcome)
            outcomes.append(mint.verify(secret.serial, handle).outcome)

        with mint._lock:  # held, as `_issue` holds it while it records a bill
            t = threading.Thread(target=lookups)
            t.start()
            t.join(timeout=2.0)
            finished = not t.is_alive()
        t.join()
        assert finished
        assert outcomes == [VerifyOutcome.VALID, VerifyOutcome.VALID]


class TestNoCloning:
    def test_live_handle_cannot_be_duplicated(self, mint):
        _, handle = mint.mint_bill(2)
        with pytest.raises(NoCloningError):
            mint.duplicate_handle_attempt(handle)
        assert is_live(mint.registry, handle)

    def test_consumed_handle(self, mint):
        secret, handle = mint.mint_bill(2)
        mint.verify(secret.serial, handle)
        with pytest.raises(HandleConsumedError):
            mint.duplicate_handle_attempt(handle)

    def test_unknown_handle(self, mint):
        with pytest.raises(UnknownHandleError):
            mint.duplicate_handle_attempt(999999)


class TestRegistryLinearity:
    def test_consume_once(self):
        reg = StateRegistry()
        h = reg.register(state_from_string("0"))
        reg.consume(h)
        with pytest.raises(HandleConsumedError):
            reg.consume(h)
        with pytest.raises(HandleConsumedError):
            reg.measure(h, 0, None, random.Random(0))

    def test_unissued_ids_are_unknown(self):
        # consumed = issued (0 < id < next id) and no longer held
        reg = StateRegistry()
        h = reg.register(state_from_string("0"))
        reg.release(h)
        with pytest.raises(HandleConsumedError):
            reg.apply_pauli_x(h, 0)
        for hid in (-1, 0, h + 1):
            with pytest.raises(UnknownHandleError):
                reg.apply_pauli_x(hid, 0)

    def test_refused_measure_takes_no_draw(self):
        # the out-of-range qubit is refused before the draw, so the
        # stream's later readings are those of a registry that was not asked
        def readings(refused):
            reg, rng = StateRegistry(), random.Random(7)
            h = reg.register(state_from_string("0000"))
            if refused:
                with pytest.raises(IndexError, match="^qubit index 4 out of range for n=4$"):
                    reg.measure(h, 4, Basis.X, rng)
            return [reg.measure(h, i, Basis.X, rng) for i in range(4)]

        assert readings(True) == readings(False)

    def test_fresh_ids_never_reused(self):
        reg = StateRegistry()
        seen = set()
        for _ in range(50):
            h = reg.register(state_from_string("0"))
            assert h not in seen
            seen.add(h)
            reg.release(h)

    @pytest.mark.parametrize("handle", [None, 1.5, "1"])
    def test_handle_that_is_not_an_int_is_unknown(self, handle):
        # None is the handle a destroying mint hands back for an INVALID
        # bill; 1.5 lies between issued ids, but no id is a float
        mint = Mint(rng=random.Random(1))
        secret, live = mint.mint_bill(2)
        with pytest.raises(UnknownHandleError):
            mint.verify(secret.serial, handle)
        with pytest.raises(UnknownHandleError):
            mint.registry.release(handle)
        with pytest.raises(UnknownHandleError):
            mint.registry.apply_pauli_x(handle, 0)
        with pytest.raises(UnknownHandleError):
            mint.registry.measure(handle, 0, Basis.Z, random.Random(0))
        assert is_live(mint.registry, live)


def _free_to_another_thread(lock) -> bool:
    """Whether a second thread can take `lock`.  The test's own thread
    would re-enter an RLock it leaked without noticing."""
    got = []

    def take():
        if lock.acquire(timeout=1):
            lock.release()
            got.append(True)

    t = threading.Thread(target=take)
    t.start()
    t.join()
    return got == [True]


# registry calls on a live 2-qubit handle `h` and a consumed one `gone`,
# with the error each raises (None: it returns)
_REGISTRY_CALLS = {
    "register": (lambda reg, h, gone: reg.register(state_from_string("0")), None),
    "live_count": (lambda reg, h, gone: reg.live_count(), None),
    "consume unknown": (lambda reg, h, gone: reg.consume(999), UnknownHandleError),
    "consume consumed": (lambda reg, h, gone: reg.consume(gone), HandleConsumedError),
    "consume wrong size": (lambda reg, h, gone: reg.consume(h, 3), DimensionMismatchError),
    "release not an int": (lambda reg, h, gone: reg.release(None), UnknownHandleError),
    "apply_pauli_x unknown": (lambda reg, h, gone: reg.apply_pauli_x(999, 0), UnknownHandleError),
    "apply_pauli_x out of range": (lambda reg, h, gone: reg.apply_pauli_x(h, 2), IndexError),
    "apply_pauli_x not an int": (lambda reg, h, gone: reg.apply_pauli_x(1.5, 0),
                                 UnknownHandleError),
    "apply_unitary consumed": (lambda reg, h, gone: reg.apply_unitary(gone, 0, HADAMARD),
                               HandleConsumedError),
    "apply_unitary not unitary": (lambda reg, h, gone: reg.apply_unitary(h, 0, ((1, 1), (1, 1))),
                                  NonUnitaryError),
    "measure consumed": (lambda reg, h, gone: reg.measure(gone, 0, Basis.Z, random.Random(0)),
                         HandleConsumedError),
    "measure out of range": (lambda reg, h, gone: reg.measure(h, 2, Basis.X, random.Random(0)),
                             IndexError),
    "measure not an int": (lambda reg, h, gone: reg.measure(None, 0, Basis.Z, random.Random(0)),
                           UnknownHandleError),
    "inspect unknown": (lambda reg, h, gone: reg.inspect(-1), UnknownHandleError),
}


@pytest.mark.parametrize("name", list(_REGISTRY_CALLS))
def test_registry_lets_go_of_its_lock(name):
    call, error = _REGISTRY_CALLS[name]
    reg = StateRegistry()
    gone = reg.register(state_from_string("0"))
    reg.release(gone)
    h = reg.register(state_from_string("01"))
    assert _free_to_another_thread(reg._lock)
    if error is None:
        call(reg, h, gone)
    else:
        with pytest.raises(error):
            call(reg, h, gone)
    assert _free_to_another_thread(reg._lock), name


class TestPersistence:
    def test_empty_round_trip(self, tmp_path, mint):
        path = tmp_path / "db.json"
        mint.save_db(path)
        payload = json.loads(path.read_text())
        assert payload == {"version": 1, "bills": []}
        loaded = Mint.load_db(path)
        assert bills_equal(loaded, mint)

    def test_one_bill_round_trip(self, tmp_path, mint):
        secret, _ = mint.add_bill(symbols_from_string("01+-"))
        path = tmp_path / "db.json"
        mint.save_db(path)
        assert '"symbols": "01+-"' in path.read_text()
        loaded = Mint.load_db(path)
        assert loaded.secret(secret.serial) == secret

    def test_bad_symbol_character(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({
            "version": 1,
            "bills": [{"serial": "WQM-" + "a" * 32, "denomination": "$20", "symbols": "0120"}],
        }))
        with pytest.raises(DatabaseFormatError, match="'2'"):
            Mint.load_db(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"version": 2, "bills": []}))
        with pytest.raises(DatabaseFormatError, match="version"):
            Mint.load_db(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("not json {")
        with pytest.raises(DatabaseFormatError, match="JSON"):
            Mint.load_db(path)

    def test_malformed_serial(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({
            "version": 1,
            "bills": [{"serial": "nope", "symbols": "01"}],
        }))
        with pytest.raises(DatabaseFormatError, match="serial"):
            Mint.load_db(path)

    @pytest.mark.parametrize("field, value", [("symbols", [0]), ("denomination", ["x"])],
                             ids=["symbols", "denomination"])
    def test_non_string_field(self, tmp_path, field, value):
        path = tmp_path / "db.json"
        entry = {"serial": "WQM-" + "a" * 32, "denomination": "$20", "symbols": "01"}
        entry[field] = value
        path.write_text(json.dumps({"version": 1, "bills": [entry]}))
        with pytest.raises(DatabaseFormatError, match=rf"bills\[0\]\.{field} must be a string"):
            Mint.load_db(path)

    def test_serial_with_trailing_newline(self, tmp_path):
        # `$` also matches before a final newline; the whole serial must match
        path = tmp_path / "db.json"
        serial = "WQM-" + "a" * 32 + "\n"
        path.write_text(json.dumps({"version": 1, "bills": [{"serial": serial, "symbols": "01"}]}))
        with pytest.raises(DatabaseFormatError, match="serial"):
            Mint.load_db(path)

    # true == 1 and 1.0 == 1, but neither is the integer version
    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_version_must_be_an_int(self, tmp_path, version):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"version": version, "bills": []}))
        with pytest.raises(DatabaseFormatError, match="version"):
            Mint.load_db(path)

    @pytest.mark.parametrize("raw, message", [(b"\xff\xfe{}", "not UTF-8"),
                                              (b"[" * 100_000, "nests too deeply")],
                             ids=["not-utf8", "deep"])
    def test_undecodable_file(self, tmp_path, raw, message):
        path = tmp_path / "db.json"
        path.write_bytes(raw)
        with pytest.raises(DatabaseFormatError, match=message):
            Mint.load_db(path)

    def test_large_bills_round_trip(self, tmp_path):
        mint = Mint(rng=random.Random(9))
        for _ in range(5):
            secret, handle = mint.mint_bill(1024)
            mint.registry.release(handle)
        path = tmp_path / "db.json"
        mint.save_db(path)
        assert bills_equal(Mint.load_db(path), mint)

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        mint = Mint(rng=random.Random(4))
        mint.add_bill(symbols_from_string("01+-"))
        path = tmp_path / "db.json"
        mint.save_db(path)
        before = path.read_bytes()
        mint.mint_bill(8)

        def dump(payload, fh, **kwargs):  # a disk that fills part way through
            fh.write(json.dumps(payload)[:18])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", dump)
        with pytest.raises(OSError, match="No space left"):
            mint.save_db(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]

    def test_save_replaces_the_file(self, tmp_path, monkeypatch):
        # a bare file name is saved beside itself, in the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "db.json").write_text("not a database, and longer than the new one " * 9)
        mint = Mint(rng=random.Random(5))
        mint.add_bill(symbols_from_string("+-"))
        mint.save_db("db.json")
        assert bills_equal(Mint.load_db("db.json"), mint)
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
        assert (tmp_path / "db.json").stat().st_mode & 0o777 == 0o600  # it holds secrets
