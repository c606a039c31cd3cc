import json
import random
import socket
import time

import pytest

from qmoney.attacks import LocalSession, adaptive_attack
from qmoney.mint import Mint, MintPolicy, StateHandle
from qmoney.qstate import Basis, VerifyOutcome, symbols_from_string
from qmoney.wire import (
    MAX_LINE_BYTES,
    MAX_MINT_QUBITS,
    MintServer,
    ProtocolError,
    RemoteMint,
    TransportError,
    remote_adaptive_attack,
)


@pytest.fixture
def server():
    srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(11)),
                     MintPolicy.RETURN_ALWAYS, random.Random(11))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def destroy_server():
    srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(11)),
                     MintPolicy.DESTROY_ON_INVALID, random.Random(11))
    srv.start()
    yield srv
    srv.stop()


def client_for(srv):
    host, port = srv.address
    return RemoteMint(host, port)


class RawClient:
    """Sends arbitrary lines, for protocol-robustness checks."""

    def __init__(self, srv):
        host, port = srv.address
        self.sock = socket.create_connection((host, port), timeout=5)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send_line(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self):
        self.sock.close()


class TestProtocol:
    def test_mint_then_verify_valid(self, server):
        with client_for(server) as c:
            serial, handle = c.mint_bill(4)
            outcome, new_handle, _ = c.verify(serial, handle)
            assert outcome is VerifyOutcome.VALID
            assert isinstance(new_handle, int) and new_handle != handle

    def test_full_attack_round(self, server):
        # flip a planted Z-eigenstate qubit, verify, recover, read the bit
        secret, _ = server.mint.add_bill(symbols_from_string("1+"))
        with client_for(server) as c:
            handle, n = c.claim(secret.serial)
            assert n == 2
            handle = c.apply_x(handle, 0)
            outcome, handle, _ = c.verify(secret.serial, handle)
            assert outcome is VerifyOutcome.INVALID
            assert handle is not None
            handle = c.apply_x(handle, 0)
            bit, handle = c.measure(handle, 0, Basis.Z)
            assert bit == 1

    def test_apply_u_hadamard(self, server):
        with client_for(server) as c:
            serial, handle = c.mint_bill(1)
            s = 2**-0.5
            c.apply_unitary(handle, 0, ((s, s), (s, -s)))

    def test_apply_u_non_unitary(self, server):
        with client_for(server) as c:
            _, handle = c.mint_bill(1)
            with pytest.raises(ProtocolError) as err:
                c.apply_unitary(handle, 0, ((1, 1), (0, 1)))
            assert err.value.code == "NON_UNITARY"

    def test_release_frees_state(self, server):
        before = server.mint.registry.live_count()
        with client_for(server) as c:
            _, handle = c.mint_bill(2)
            assert server.mint.registry.live_count() == before + 1
            c.release(handle)
            assert server.mint.registry.live_count() == before

    def test_session_close_releases_handles(self, server):
        before = server.mint.registry.live_count()
        c = client_for(server)
        c.mint_bill(2)
        c.mint_bill(3)
        assert server.mint.registry.live_count() == before + 2
        c.close()
        deadline = 50
        import time

        while server.mint.registry.live_count() != before and deadline:
            time.sleep(0.02)
            deadline -= 1
        assert server.mint.registry.live_count() == before

    def test_handle_not_owned_by_other_session(self, server):
        with client_for(server) as c1, client_for(server) as c2:
            serial, handle = c1.mint_bill(2)
            with pytest.raises(ProtocolError) as err:
                c2.verify(serial, handle)
            assert err.value.code == "HANDLE_NOT_OWNED"
            # no state change: the owner can still verify
            outcome, _, _ = c1.verify(serial, handle)
            assert outcome is VerifyOutcome.VALID

    def test_consumed_handle_error(self, server):
        with client_for(server) as c:
            serial, handle = c.mint_bill(2)
            c.verify(serial, handle)
            with pytest.raises(ProtocolError) as err:
                c.apply_x(handle, 0)
            # the session no longer owns the consumed id
            assert err.value.code in ("HANDLE_CONSUMED", "HANDLE_NOT_OWNED")

    def test_unknown_serial(self, server):
        with client_for(server) as c:
            _, handle = c.mint_bill(2)
            with pytest.raises(ProtocolError) as err:
                c.verify("WQM-" + "f" * 32, handle)
            assert err.value.code == "UNKNOWN_SERIAL"


class TestRobustness:
    def test_unsupported_version(self, server):
        raw = RawClient(server)
        try:
            resp = raw.send_line(json.dumps({"v": 2, "type": "mint", "n": 2}))
            assert resp == {
                "type": "error",
                "code": "UNSUPPORTED_VERSION",
                "detail": resp["detail"],
            }
        finally:
            raw.close()

    def test_missing_version(self, server):
        raw = RawClient(server)
        try:
            resp = raw.send_line(json.dumps({"type": "mint", "n": 2}))
            assert resp["code"] == "BAD_REQUEST"
        finally:
            raw.close()

    def test_malformed_line_keeps_connection_open(self, server):
        raw = RawClient(server)
        try:
            resp = raw.send_line("this is not json")
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            resp = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))
            assert resp["type"] == "minted"
        finally:
            raw.close()

    def test_unknown_type(self, server):
        raw = RawClient(server)
        try:
            resp = raw.send_line(json.dumps({"v": 1, "type": "teleport"}))
            assert resp["code"] == "BAD_REQUEST"
        finally:
            raw.close()

    def test_bad_qubit_index(self, server):
        with client_for(server) as c:
            _, handle = c.mint_bill(2)
            with pytest.raises(ProtocolError) as err:
                c.apply_x(handle, 7)
            assert err.value.code == "BAD_REQUEST"

    def test_bad_unitary_entry_is_bad_request(self, server):
        raw = RawClient(server)
        try:
            handle = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))["handle"]
            for u in ('[["a", 0], [0, 0], [0, 0], [1, 0]]',
                      '[[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [1, 0]]'):
                resp = raw.send_line('{"v": 1, "type": "apply_u", "handle": %d, "qubit": 0, '
                                     '"u": %s}' % (handle, u))
                assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            # the connection and the handle survive
            resp = raw.send_line(json.dumps({"v": 1, "type": "apply_x", "handle": handle,
                                             "qubit": 0}))
            assert resp == {"type": "ok", "handle": handle}
        finally:
            raw.close()

    def test_nan_unitary_rejected(self, server):
        raw = RawClient(server)
        try:
            handle = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))["handle"]
            resp = raw.send_line('{"v": 1, "type": "apply_u", "handle": %d, "qubit": 0, '
                                 '"u": [[NaN, 0], [0, 0], [0, 0], [NaN, 0]]}' % handle)
            assert resp["type"] == "error" and resp["code"] == "NON_UNITARY"
            state = server.mint.registry.inspect(StateHandle(handle))
            assert abs(state.norm_sq() - 1) <= 1e-9
        finally:
            raw.close()

    @pytest.mark.parametrize("field", ["n", "handle", "qubit"])
    def test_bool_is_not_an_integer(self, server, field):
        raw = RawClient(server)
        try:
            # a fresh server's first handle is 1, which true would match
            handle = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 2}))["handle"]
            assert handle == 1
            if field == "n":
                msg = {"v": 1, "type": "mint", "n": True}
            else:
                msg = {"v": 1, "type": "apply_x", "handle": handle, "qubit": 1, field: True}
            resp = raw.send_line(json.dumps(msg))
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
        finally:
            raw.close()

    def test_long_line_gets_one_reply(self, server):
        raw = RawClient(server)
        try:
            mint = json.dumps({"v": 1, "type": "mint", "n": 1})
            raw.file.write("x" * (2 * 2**20) + "\n" + mint + "\n")
            raw.file.flush()
            resp = json.loads(raw.file.readline())
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            assert "longer than" in resp["detail"]
            handle = json.loads(raw.file.readline())["handle"]
            # the next reply answers the next line: the long one got exactly one
            resp = raw.send_line(json.dumps({"v": 1, "type": "apply_x", "handle": handle,
                                             "qubit": 0}))
            assert resp == {"type": "ok", "handle": handle}
        finally:
            raw.close()
        with client_for(server) as c:
            assert c.mint_bill(1)

    def test_line_length_bound_is_exact(self, server):
        raw = RawClient(server)
        try:
            mint = json.dumps({"v": 1, "type": "mint", "n": 1})
            # MAX_LINE_BYTES bytes with the newline are read; one more is not
            resp = raw.send_line(mint + " " * (MAX_LINE_BYTES - 1 - len(mint)))
            assert resp["type"] == "minted"
            resp = raw.send_line(mint + " " * (MAX_LINE_BYTES - len(mint)))
            assert resp["type"] == "error" and "longer than" in resp["detail"]
        finally:
            raw.close()

    def test_deep_nesting_gets_one_reply(self, server):
        raw = RawClient(server)
        try:
            handle = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))["handle"]
            # json.loads raises RecursionError on this line
            resp = raw.send_line("[" * 100000 + "]" * 100000)
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            # the next reply answers the next line: the bad one got exactly one
            resp = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))
            assert resp["type"] == "minted"
            resp = raw.send_line(json.dumps({"v": 1, "type": "apply_x", "handle": handle,
                                             "qubit": 0}))
            assert resp == {"type": "ok", "handle": handle}
        finally:
            raw.close()

    def test_unexpected_failure_is_internal_error(self, server, monkeypatch):
        raw = RawClient(server)
        try:
            handle = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))["handle"]

            def broken(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr(server.mint, "mint_bill", broken)
            resp = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))
            assert resp["type"] == "error" and resp["code"] == "INTERNAL"
            # the connection and the session's handle survive
            resp = raw.send_line(json.dumps({"v": 1, "type": "apply_x", "handle": handle,
                                             "qubit": 0}))
            assert resp == {"type": "ok", "handle": handle}
        finally:
            raw.close()

    @pytest.mark.parametrize("n", [MAX_MINT_QUBITS + 1, 10**9])
    def test_mint_size_is_bounded(self, server, n):
        raw = RawClient(server)
        try:
            resp = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": n}))
            assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
            assert server.mint.serials() == []
            resp = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": MAX_MINT_QUBITS}))
            assert resp["type"] == "minted"
        finally:
            raw.close()

    def test_stop_is_prompt(self):
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        srv.start()
        t0 = time.monotonic()
        srv.stop()
        # a 0.5 s serve_forever poll made stop() wait for most of it
        assert time.monotonic() - t0 < 0.3
        assert not srv._thread.is_alive()

    def test_connect_failure_is_transport_error(self):
        with pytest.raises(TransportError):
            RemoteMint("127.0.0.1", 1, timeout=0.5)


class TestRemoteAttack:
    def test_matches_local_attack(self, server):
        # same seed on an identical local mint: transcripts must agree
        local_mint = Mint(rng=random.Random(11))
        secret_l, handle_l = local_mint.mint_bill(8)
        session = LocalSession(local_mint, MintPolicy.RETURN_ALWAYS, random.Random(11))
        local_tr, _ = adaptive_attack(session, secret_l.serial, handle_l, 8)

        transcript, client = remote_adaptive_attack(*server.address, n=8)
        try:
            assert transcript.bill_recovered
            assert transcript.serial == secret_l.serial
            assert transcript.learned == local_tr.learned
            assert [(r.qubit, r.outcome, r.symbol) for r in transcript.records] == [
                (r.qubit, r.outcome, r.symbol) for r in local_tr.records
            ]
            assert client.sent_counts["verify"] == 8
        finally:
            client.close()

    def test_claimed_serial_attack(self, server):
        secret, _ = server.mint.add_bill(symbols_from_string("0-1+"))
        transcript, client = remote_adaptive_attack(*server.address, serial=secret.serial)
        try:
            assert transcript.learned_string() == "0-1+"
            assert transcript.queries_used == 4
        finally:
            client.close()

    def test_destroying_server_stops_attack(self, destroy_server):
        secret, _ = destroy_server.mint.add_bill(symbols_from_string("+0+"))
        transcript, client = remote_adaptive_attack(*destroy_server.address, serial=secret.serial)
        try:
            assert not transcript.bill_recovered
            assert transcript.queries_used == 2
        finally:
            client.close()
