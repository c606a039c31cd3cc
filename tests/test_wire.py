import errno
import json
import math
import random
import socket
import threading
import time
import tracemalloc
import types

import pytest
from support import serials

from qmoney import wire
from qmoney.attacks import LocalSession, adaptive_attack, forge_copies
from qmoney.mint import Mint, MintPolicy
from qmoney.qstate import Basis, VerifyOutcome, symbols_from_string
from qmoney.wire import (
    MAX_LINE_BYTES,
    MAX_MINT_QUBITS,
    MAX_SESSION_HANDLES,
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


# a well-formed serial, for canned servers to answer with
_SERIAL = "WQM-" + "0" * 32


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

    def test_handles_are_plain_ints(self, server):
        # a handle is the registry's id, the value a session holds on
        # the wire; no wrapper type anywhere
        mint = server.mint
        secret, minted = mint.mint_bill(3)
        _, claimed = mint.issue_bill_state(secret.serial)
        residue = mint.verify(secret.serial, minted).handle
        handles = [minted, claimed, residue, *forge_copies(mint.registry, secret.symbols, 2)]
        with client_for(server) as c:
            serial, remote = c.mint_bill(3)
            handles.append(remote)
            handles.append(c.verify(serial, remote)[1])
            handles.append(c.claim(serial)[0])
        assert [type(h) for h in handles] == [int] * len(handles)

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
    # true and 1.0 equal 1 in Python, but the version is the integer 1
    @pytest.mark.parametrize("version", [2, True, 1.0, "1"])
    def test_unsupported_version(self, server, version):
        raw = RawClient(server)
        try:
            resp = raw.send_line(json.dumps({"v": version, "type": "mint", "n": 2}))
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
            assert resp["detail"] == "unknown message type 'teleport'"
        finally:
            raw.close()

    # a type that is not a string is no key of the server's dispatch table
    @pytest.mark.parametrize("mtype", [[], {}, 7, None, True],
                             ids=["list", "object", "number", "null", "true"])
    def test_non_string_type_is_unknown(self, server, mtype):
        raw = RawClient(server)
        try:
            resp = raw.send_line(json.dumps({"v": 1, "type": mtype}))
            assert resp["code"] == "BAD_REQUEST"
            assert resp["detail"] == f"unknown message type {mtype!r}"
        finally:
            raw.close()

    def test_bad_qubit_index(self, server):
        with client_for(server) as c:
            _, handle = c.mint_bill(2)
            with pytest.raises(ProtocolError) as err:
                c.apply_x(handle, 7)
            assert err.value.code == "BAD_REQUEST"

    def test_refused_measure_takes_no_draw(self):
        # every session measures with the server's one stream, so a
        # refused measurement must leave it where it was
        def readings(refused):
            srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(7)),
                             MintPolicy.RETURN_ALWAYS, random.Random(7))
            secret, _ = srv.mint.add_bill(symbols_from_string("0000"))
            srv.start()
            try:
                with client_for(srv) as c:
                    handle, _ = c.claim(secret.serial)
                    if refused:
                        with pytest.raises(ProtocolError) as err:
                            c.measure(handle, 4, Basis.X)
                        assert err.value.code == "BAD_REQUEST"
                        assert err.value.detail == "qubit index 4 out of range for n=4"
                    return [c.measure(handle, i, Basis.X)[0] for i in range(4)]
            finally:
                srv.stop()

        assert readings(True) == readings(False)

    def test_bad_unitary_entry_is_bad_request(self, server):
        raw = RawClient(server)
        try:
            handle = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": 1}))["handle"]
            for u in ('[["a", 0], [0, 0], [0, 0], [1, 0]]',
                      '[[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [1, 0]]',
                      '[[true, false], [false, false], [false, false], [true, false]]'):
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
            state = server.mint.registry.inspect(handle)
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
            assert serials(server.mint) == []
            resp = raw.send_line(json.dumps({"v": 1, "type": "mint", "n": MAX_MINT_QUBITS}))
            assert resp["type"] == "minted"
        finally:
            raw.close()

    def test_session_handles_are_bounded(self, server):
        with client_for(server) as c:
            serial, first = c.mint_bill(1)
            for _ in range(MAX_SESSION_HANDLES - 1):
                c.mint_bill(1)
            for refused in ({"type": "mint", "n": 1}, {"type": "claim", "serial": serial}):
                with pytest.raises(ProtocolError) as err:
                    c.request(refused)
                assert err.value.code == "TOO_MANY_HANDLES"
            assert server.mint.registry.live_count() == MAX_SESSION_HANDLES
            # a verify swaps one handle for another and is never refused
            outcome, first, _ = c.verify(serial, first)
            assert outcome is VerifyOutcome.VALID
            c.release(first)
            assert c.mint_bill(1)
            with pytest.raises(ProtocolError) as err:
                c.mint_bill(1)
            assert err.value.code == "TOO_MANY_HANDLES"

    def test_handler_looks_up_handle_message_per_line(self, server, monkeypatch):
        # a wrapper put on the class mid-session, as a tracer does, sees
        # the session's next request
        with client_for(server) as c:
            c.mint_bill(1)
            seen = []
            original = MintServer.handle_message

            def wrapper(self, line, owned):
                seen.append(line)
                return original(self, line, owned)

            monkeypatch.setattr(MintServer, "handle_message", wrapper)
            c.mint_bill(1)
        assert seen == ['{"v": 1, "type": "mint", "n": 1}']

    def test_stop_is_prompt(self):
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        srv.start()
        t0 = time.monotonic()
        srv.stop()
        # a 0.5 s serve_forever poll made stop() wait for most of it
        assert time.monotonic() - t0 < 0.3
        assert not srv._thread.is_alive()

    def test_stop_without_start_returns(self):
        # shutdown() alone waits for a serve_forever loop that never ran
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        stopper = threading.Thread(target=srv.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_stop_ends_serve_forever_in_any_thread(self):
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        runner = threading.Thread(target=srv.serve_forever, daemon=True)
        runner.start()
        with client_for(srv) as c:  # serve_forever is running
            c.mint_bill(1)
        srv.stop()
        runner.join(timeout=5)
        assert not runner.is_alive()

    def test_accept_error_does_not_end_serve_forever(self):
        # a connection reset while queued (ECONNABORTED), or a full file
        # table (EMFILE), fails one accept(); the loop goes on to the next
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        listener, calls = srv._listener, []

        class FlakyListener:
            def accept(self):
                calls.append(None)
                if len(calls) == 1:
                    raise ConnectionAbortedError("software caused connection abort")
                return listener.accept()

            def __getattr__(self, name):
                return getattr(listener, name)

        srv._listener = FlakyListener()
        srv.start()
        try:
            with client_for(srv) as c:
                serial, _ = c.mint_bill(1)
            assert serial.startswith("WQM-") and len(calls) >= 2
        finally:
            srv.stop()
        assert not srv._thread.is_alive()

    def test_full_file_table_does_not_spin_serve_forever(self):
        # EMFILE leaves the connection queued, so an accept() retried at
        # once fails again at once: the loop waits between tries instead
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        listener, calls = srv._listener, []

        class FullListener:
            def accept(self):
                calls.append(None)
                raise OSError(errno.EMFILE, "Too many open files")

            def __getattr__(self, name):
                return getattr(listener, name)

        srv._listener = FullListener()
        srv.start()
        time.sleep(0.3)
        t0 = time.monotonic()
        srv.stop()
        assert time.monotonic() - t0 < 0.3
        assert not srv._thread.is_alive()
        # about one try per wait; a loop that retries at once makes thousands
        assert 2 <= len(calls) < 30, len(calls)

    def test_session_without_a_thread_is_refused_alone(self, monkeypatch):
        # a connection the server has no thread for is closed, and the
        # loop goes on to the next
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        srv.start()
        refused = []

        def thread(**kwargs):
            if not refused:
                refused.append(None)
                raise RuntimeError("can't start new thread")
            return threading.Thread(**kwargs)

        # the wire module's own name only, so no other thread is touched;
        # every other attribute is the real module's
        monkeypatch.setattr(wire, "threading",
                            types.SimpleNamespace(**{**vars(threading), "Thread": thread}))
        try:
            with client_for(srv) as c, pytest.raises(TransportError):
                c.mint_bill(1)
            with client_for(srv) as c:
                assert c.mint_bill(1)[0].startswith("WQM-")
        finally:
            srv.stop()
        assert refused

    def test_stop_twice_is_harmless(self):
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(1)))
        srv.start()
        srv.stop()
        srv.stop()
        assert not srv._thread.is_alive()

    def test_pipelined_pair_is_not_delayed(self, server):
        # A client that sends two requests before reading gets both
        # replies at once.  With Nagle's algorithm on at the server, the
        # second reply waited about 40 ms for the client's delayed ACK
        # of the first.  The test's socket sets TCP_NODELAY, so that
        # only the server's side is under test.
        request = b'{"v": 1, "type": "mint", "n": 1}\n'
        with (socket.create_connection(server.address, timeout=5) as sock,
              sock.makefile("rb") as replies):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # past the first exchanges, which Linux acknowledges at once
            for _ in range(20):
                sock.sendall(request)
                replies.readline()
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                sock.sendall(request)
                sock.sendall(request)
                assert json.loads(replies.readline())["type"] == "minted"
                assert json.loads(replies.readline())["type"] == "minted"
                times.append(time.perf_counter() - t0)
        # the median, so that one slice lost to the scheduler does not fail it
        assert sorted(times)[2] < 0.005, times

    def test_connect_failure_is_transport_error(self):
        with pytest.raises(TransportError):
            RemoteMint("127.0.0.1", 1, timeout=0.5)

    @pytest.mark.parametrize("timeout", [0, -1, math.inf, 1e300, math.nan],
                             ids=["zero", "negative", "inf", "huge", "nan"])
    def test_unusable_timeout_is_refused_before_connecting(self, timeout):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with pytest.raises(ValueError, match="^timeout must be None or a number of seconds"):
                RemoteMint(*listener.getsockname(), timeout=timeout)
            listener.settimeout(0.05)
            with pytest.raises(TimeoutError):
                listener.accept()  # no connection was made

    def test_no_timeout_connects(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with RemoteMint(*listener.getsockname(), timeout=None):
                peer, _ = listener.accept()
                peer.close()

    def test_silent_server_times_out(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=0.2)
            peer, _ = listener.accept()  # and never answers
            try:
                t0 = time.monotonic()
                with pytest.raises(TransportError, match="^timed out reading the reply$"):
                    client.mint_bill(4)
                assert 0.15 < time.monotonic() - t0 < 5
            finally:
                client.close()
                peer.close()

    def test_sub_microsecond_timeout_still_times_out(self):
        # a limit packed as 0 s and 0 us would mean no limit at all
        outcome = []

        def call():
            try:
                with RemoteMint(*listener.getsockname(), timeout=1e-7) as client:
                    client.mint_bill(1)
            except TransportError as exc:
                outcome.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(timeout=5)
            hung = caller.is_alive()
        # closing the listener resets the queued connection, which ends a hung call
        caller.join(timeout=5)
        assert not hung
        assert [str(exc) for exc in outcome] == ["timed out reading the reply"]

    @pytest.mark.parametrize("reply", [
        b'\xff{"type": "ok", "handle": 3}', b'not json', b'[1, 2]',
        b'{"type": "ok", "handle": 3} x', b'{} {}', b'[' * 100000 + b']' * 100000,
        b'{"type": "ok"}',
        b'{"type": "error", "code": 5, "detail": ["x"]}',
        b'{"type": "error", "code": null, "detail": "x"}',
        b'{"type": "error", "detail": "x"}',
        b'{"type": "error", "code": "BAD_REQUEST"}',
    ], ids=["not-utf8", "not-json", "array", "trailing-data", "two-objects", "deep",
            "no-handle", "error-mistyped", "error-null-code", "error-no-code", "error-no-detail"])
    def test_malformed_reply_is_transport_error(self, reply):
        # a canned server: each reply is queued before the request
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=5)
            peer, _ = listener.accept()
            try:
                peer.sendall(reply + b"\n")
                with pytest.raises(TransportError, match="^malformed reply$"):
                    client.apply_x(3, 1)
                # the session reads the next reply as the next request's
                peer.sendall(b'{"type": "ok", "handle": 3}\n')
                assert client.apply_x(3, 1) == 3
            finally:
                client.close()
                peer.close()

    @pytest.mark.parametrize("result", [b'"MAYBE"', b'["VALID"]'], ids=["unknown", "unhashable"])
    def test_unknown_verify_result_is_transport_error(self, result):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=5)
            peer, _ = listener.accept()
            try:
                peer.sendall(b'{"type": "verified", "result": %s, "handle": 3}\n' % result)
                with pytest.raises(TransportError, match="^malformed reply$"):
                    client.verify("WQM-" + "0" * 32, 3)
            finally:
                client.close()
                peer.close()

    @pytest.mark.parametrize("call, reply", [
        (lambda c: c.measure(3, 0, Basis.Z), b'{"type": "measured", "bit": 2, "handle": 3}'),
        (lambda c: c.measure(3, 0, Basis.Z), b'{"type": "measured", "bit": -1, "handle": 3}'),
        (lambda c: c.measure(3, 0, Basis.Z), b'{"type": "measured", "bit": true, "handle": 3}'),
        (lambda c: c.measure(3, 0, Basis.Z), b'{"type": "measured", "bit": "1", "handle": 3}'),
        (lambda c: c.measure(3, 0, Basis.Z), b'{"type": "measured", "bit": 1, "handle": null}'),
        (lambda c: c.apply_x(3, 1), b'{"type": "ok", "handle": "3"}'),
        (lambda c: c.apply_x(3, 1), b'{"type": "ok", "handle": 3.0}'),
        (lambda c: c.apply_x(3, 1), b'{"type": "ok", "handle": false}'),
        (lambda c: c.apply_unitary(3, 1, ((0, 1), (1, 0))), b'{"type": "ok", "handle": null}'),
        (lambda c: c.mint_bill(2), b'{"type": "minted", "serial": 5, "handle": 3}'),
        (lambda c: c.mint_bill(2),
         b'{"type": "minted", "serial": "' + _SERIAL.encode() + b'", "handle": null}'),
        (lambda c: c.claim(_SERIAL), b'{"type": "claimed", "handle": 3, "n": 0}'),
        (lambda c: c.claim(_SERIAL), b'{"type": "claimed", "handle": 3, "n": true}'),
        (lambda c: c.claim(_SERIAL), b'{"type": "claimed", "handle": 3, "n": 2.0}'),
        (lambda c: c.claim(_SERIAL), b'{"type": "claimed", "handle": [3], "n": 2}'),
        (lambda c: c.verify(_SERIAL, 3),
         b'{"type": "verified", "result": "VALID", "handle": "4"}'),
    ], ids=["bit-2", "bit-negative", "bit-bool", "bit-str", "measure-handle-null",
            "handle-str", "handle-float", "handle-bool", "apply-u-handle-null",
            "serial-int", "mint-handle-null", "n-zero", "n-bool", "n-float", "claim-handle-list",
            "verify-handle-str"])
    def test_mistyped_reply_is_transport_error(self, call, reply):
        # a canned server: each reply is queued before the request
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=5)
            peer, _ = listener.accept()
            try:
                peer.sendall(reply + b"\n")
                with pytest.raises(TransportError, match="^malformed reply$"):
                    call(client)
                # a verify that destroys the bill answers a null handle
                peer.sendall(b'{"type": "verified", "result": "INVALID", "handle": null}\n')
                assert client.verify(_SERIAL, 3) == (VerifyOutcome.INVALID, None, None)
            finally:
                client.close()
                peer.close()

    def test_late_reply_does_not_answer_the_next_request(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=0.2)
            peer, _ = listener.accept()
            try:
                with pytest.raises(TransportError, match="^timed out reading the reply$"):
                    client.apply_x(3, 1)
                peer.sendall(b'{"type": "ok", "handle": 3}\n')
                with pytest.raises(TransportError, match="^connection failed: "):
                    client.apply_x(3, 1)
            finally:
                client.close()
                peer.close()

    def test_overlong_reply_is_bounded(self):
        # a canned server streams one 16 MiB reply line, then a short one
        long = b'{"type": "ok", "handle": 3, "pad": "' + b"x" * 2**24 + b'"}\n'
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=5)
            peer, _ = listener.accept()
            sender = threading.Thread(target=peer.sendall,
                                      args=(long + b'{"type": "ok", "handle": 4}\n',))
            try:
                tracemalloc.start()
                try:
                    sender.start()
                    with pytest.raises(TransportError, match="^malformed reply$"):
                        client.apply_x(3, 1)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 2**20, peak
                # the rest of the long line is read past: the next reply
                # answers the next request
                assert client.apply_x(4, 1) == 4
            finally:
                client.close()
                sender.join(timeout=5)
                peer.close()
            assert not sender.is_alive()

    def test_closed_connection_is_not_a_timeout(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = RemoteMint(*listener.getsockname(), timeout=5)
            peer, _ = listener.accept()
            peer.close()
            try:
                with pytest.raises(TransportError, match="^server closed the connection$"):
                    client.mint_bill(4)
            finally:
                client.close()


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

    def test_serial_and_n_together_are_refused(self):
        # refused before connecting: no server listens on port 9
        with pytest.raises(ValueError, match="exactly one"):
            remote_adaptive_attack("127.0.0.1", 9, serial=_SERIAL, n=4)

    def test_destroying_server_stops_attack(self, destroy_server):
        secret, _ = destroy_server.mint.add_bill(symbols_from_string("+0+"))
        transcript, client = remote_adaptive_attack(*destroy_server.address, serial=secret.serial)
        try:
            assert not transcript.bill_recovered
            assert transcript.queries_used == 2
        finally:
            client.close()


# A scripted session against a seeded server: each request line and the
# exact reply line it gets (None: a blank line gets no reply).  The
# replies were recorded from the server and must not change by a byte.
_S = b"WQM-d76d4330f1446beab0c11fdecb91ce37"  # minted by the first request
_P = b"WQM-5bc8fbbcbde5c0994164d8399f767c45"  # planted "1+" bill, handle 1
_H = b"0.7071067811865476"
PINNED_SESSION = [
    (b'{"v": 1, "type": "mint", "n": 2}',
     b'{"type": "minted", "serial": "' + _S + b'", "handle": 2}'),
    (b'{"v": 1, "type": "verify", "serial": "' + _S + b'", "handle": 2}',
     b'{"type": "verified", "result": "VALID", "handle": 3}'),
    (b'{"v": 1, "type": "claim", "serial": "' + _P + b'"}',
     b'{"type": "claimed", "serial": "' + _P + b'", "handle": 4, "n": 2}'),
    (b'{"v": 1, "type": "apply_x", "handle": 4, "qubit": 0}',
     b'{"type": "ok", "handle": 4}'),
    (b'{"v": 1, "type": "verify", "serial": "' + _P + b'", "handle": 4}',
     b'{"type": "verified", "result": "INVALID", "handle": 5}'),
    (b'{"v": 1, "type": "apply_x", "handle": 5, "qubit": 0}',
     b'{"type": "ok", "handle": 5}'),
    (b'{"v": 1, "type": "measure", "handle": 5, "qubit": 0, "basis": "Z"}',
     b'{"type": "measured", "bit": 1, "handle": 5}'),
    (b'{"v": 1, "type": "measure", "handle": 5, "qubit": 1, "basis": "X"}',
     b'{"type": "measured", "bit": 0, "handle": 5}'),
    (b'{"v": 1, "type": "apply_u", "handle": 3, "qubit": 1, "u": [[' + _H + b', 0.0], ['
     + _H + b', 0.0], [' + _H + b', 0.0], [-' + _H + b', 0.0]]}',
     b'{"type": "ok", "handle": 3}'),
    (b'{"v": 1, "type": "release", "handle": 3}',
     b'{"type": "ok", "handle": 3}'),
    (b'{"v": 1, "type": "mint", "n": 1}',
     b'{"type": "minted", "serial": "WQM-5f2dd97f1cfb10f62827688de6a16a3b", "handle": 6}'),
    (b'  ', None),
    (b'{"v": 1, "type": "verify", "serial": "WQM-' + b"f" * 32 + b'", "handle": 5}',
     b'{"type": "error", "code": "UNKNOWN_SERIAL", "detail": "no bill with serial WQM-'
     + b"f" * 32 + b'"}'),
    (b'{"v": 1, "type": "apply_x", "handle": 1, "qubit": 0}',
     b'{"type": "error", "code": "HANDLE_NOT_OWNED", '
     b'"detail": "handle 1 is not owned by this session"}'),
    (b'{"v": 1, "type": "verify", "serial": "' + _S + b'", "handle": 6}',
     b'{"type": "error", "code": "DIMENSION_MISMATCH", '
     b'"detail": "handle 6 holds 1 qubits, expected 2"}'),
    (b'{"v": 1, "type": "apply_u", "handle": 6, "qubit": 0, "u": [[1, 0], [1, 0], [0, 0], [1, 0]]}',
     b'{"type": "error", "code": "NON_UNITARY", '
     b'"detail": "matrix is not unitary within tolerance"}'),
    (b'{"v": 2, "type": "mint", "n": 1}',
     b'{"type": "error", "code": "UNSUPPORTED_VERSION", '
     b'"detail": "this server speaks version 1"}'),
    (b'{"type": "mint", "n": 1}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "missing protocol version field \'v\'"}'),
    (b'not json',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not a JSON object"}'),
    (b'{"v": 1, "type": "mint", "n": 1} x',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not a JSON object"}'),
    (b'{} {}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not a JSON object"}'),
    (b'\xef\xbb\xbf{"v": 1, "type": "mint", "n": 1}',  # a UTF-8 BOM first
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not a JSON object"}'),
    # past CPython's 4300-digit limit for converting a numeral to an int
    (b'{"v": 1, "type": "mint", "n": ' + b"9" * 4301 + b'}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not a JSON object"}'),
    (b'{"v": ' + b"9" * 4301 + b', "type": "mint", "n": 1}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not a JSON object"}'),
    (b'[1, 2]',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "message must be a JSON object"}'),
    (b'{"v": 1, "type": "teleport"}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "unknown message type \'teleport\'"}'),
    (b'{"v": 1, "type": "t\\u00e9l\\u00e9"}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "unknown message type \'t\\u00e9l\\u00e9\'"}'),
    (b'{"v": 1, "type": []}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "unknown message type []"}'),
    (b'{"v": 1, "type": null}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "unknown message type None"}'),
    (b'{"v": 1, "type": "mint", "n": true}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "field \'n\' must be an integer from 1 to 65536"}'),
    (b'{"v": 1, "type": "mint", "n": 65537}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "field \'n\' must be an integer from 1 to 65536"}'),
    (b'{"v": 1, "type": "claim", "serial": 7}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "field \'serial\' must be a string"}'),
    (b'{"v": 1, "type": "apply_x", "handle": 5, "qubit": 2}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "qubit index 2 out of range for n=2"}'),
    (b'{"v": 1, "type": "apply_x", "handle": 5}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "field \'qubit\' must be an integer"}'),
    (b'{"v": 1, "type": "measure", "handle": 5, "qubit": 0, "basis": "Y"}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "field \'basis\' must be \\"Z\\" or \\"X\\""}'),
    (b'{"v": 1, "type": "apply_u", "handle": 5, "qubit": 0, "u": [1, 0]}',
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "field \'u\' must be four [re, im] pairs, row-major"}'),
    (b'{"v": 1, "type": "release", "handle": "5"}',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "field \'handle\' must be an integer"}'),
    (b'\xff\xfe',
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line is not valid UTF-8"}'),
    (b'[' * 100000 + b']' * 100000,
     b'{"type": "error", "code": "BAD_REQUEST", "detail": "line nests too deeply"}'),
    (b'x' * (MAX_LINE_BYTES + 1),
     b'{"type": "error", "code": "BAD_REQUEST", '
     b'"detail": "request line longer than 1048576 bytes"}'),
]


_MINT = b'{"v": 1, "type": "mint", "n": 1}'
_LONG = b"x" * (MAX_LINE_BYTES + 1)
_MINTED_1 = b'{"type": "minted", "serial": "' + _P + b'", "handle": 1}\n'
_TOO_LONG = (b'{"type": "error", "code": "BAD_REQUEST", '
             b'"detail": "request line longer than 1048576 bytes"}\n')


@pytest.mark.parametrize("writes, replies", [
    ([_MINT], _MINTED_1),
    ([bytes([c]) for c in _MINT + b"\n"], _MINTED_1),
    ([_MINT + b"\n" + b'{"v": 1, "type": "release", "handle": 1}\r\n' + _MINT + b"\n"],
     _MINTED_1 + b'{"type": "ok", "handle": 1}\n'
     b'{"type": "minted", "serial": "WQM-a6eb8c9ebd69fe29d76d4330f1446bea", "handle": 2}\n'),
    ([_LONG], _TOO_LONG),
    ([_LONG + b"\n" + _MINT + b"\n"], _TOO_LONG + _MINTED_1),
], ids=["no-newline-at-eof", "one-byte-writes", "three-in-one-write", "long-line-at-eof",
        "long-line-then-request"])
def test_chunk_boundaries(writes, replies):
    # however the writes cut the lines, a seeded server sends these bytes
    # back before it closes; its first bill has serial _P, as in
    # PINNED_SESSION, where that first draw made the planted bill
    srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(5)),
                     MintPolicy.RETURN_ALWAYS, random.Random(5))
    srv.start()
    try:
        with socket.create_connection(srv.address, timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for write in writes:
                sock.sendall(write)
            sock.shutdown(socket.SHUT_WR)
            got = b""
            while chunk := sock.recv(65536):
                got += chunk
        assert got == replies
    finally:
        srv.stop()


class TestReplyBytes:
    def test_scripted_session_replies_are_pinned(self, monkeypatch):
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(5)),
                         MintPolicy.RETURN_ALWAYS, random.Random(5))
        planted, _ = srv.mint.add_bill(symbols_from_string("1+"))
        assert planted.serial.encode() == _P
        srv.start()
        sock = socket.create_connection(srv.address, timeout=5)
        replies = sock.makefile("rb")

        def exchange(request):
            sock.sendall(request + b"\n")
            return replies.readline().rstrip(b"\n")

        try:
            for request, reply in PINNED_SESSION:
                if reply is None:
                    sock.sendall(request + b"\n")
                else:
                    assert exchange(request) == reply, request[:100]
            # the mint consumes the session's handle behind its back
            srv.mint.registry.release(5)
            assert exchange(b'{"v": 1, "type": "apply_x", "handle": 5, "qubit": 0}') == (
                b'{"type": "error", "code": "HANDLE_CONSUMED", '
                b'"detail": "handle 5 was already consumed"}')

            def broken(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr(srv.mint, "mint_bill", broken)
            assert exchange(b'{"v": 1, "type": "mint", "n": 1}') == (
                b'{"type": "error", "code": "INTERNAL", "detail": "request failed: RuntimeError"}')
        finally:
            sock.close()
            srv.stop()

    def test_destroying_verify_reply_is_pinned(self):
        srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(5)),
                         MintPolicy.DESTROY_ON_INVALID, random.Random(5))
        srv.mint.add_bill(symbols_from_string("1+"))
        srv.start()
        sock = socket.create_connection(srv.address, timeout=5)
        replies = sock.makefile("rb")
        session = [
            (b'{"v": 1, "type": "claim", "serial": "' + _P + b'"}',
             b'{"type": "claimed", "serial": "' + _P + b'", "handle": 2, "n": 2}'),
            (b'{"v": 1, "type": "verify", "serial": "' + _P + b'", "handle": 2}',
             b'{"type": "verified", "result": "VALID", "handle": 3}'),
            (b'{"v": 1, "type": "apply_x", "handle": 3, "qubit": 0}',
             b'{"type": "ok", "handle": 3}'),
            (b'{"v": 1, "type": "verify", "serial": "' + _P + b'", "handle": 3}',
             b'{"type": "verified", "result": "INVALID", "handle": null}'),
            (b'{"v": 1, "type": "apply_x", "handle": 3, "qubit": 0}',
             b'{"type": "error", "code": "HANDLE_NOT_OWNED", '
             b'"detail": "handle 3 is not owned by this session"}'),
        ]
        try:
            for request, reply in session:
                sock.sendall(request + b"\n")
                assert replies.readline() == reply + b"\n", request
        finally:
            replies.close()
            sock.close()
            srv.stop()

    def test_client_request_lines_are_pinned(self):
        # a canned server: each reply is queued before the request it
        # answers, and the request lines are read back afterwards
        listener = socket.create_server(("127.0.0.1", 0))
        client = RemoteMint(*listener.getsockname())
        conn, _ = listener.accept()
        requests = conn.makefile("rb")
        s = 2**-0.5
        calls = [
            (lambda: client.mint_bill(2), b'{"type": "minted", "serial": "' + _S + b'", "handle": 2}',
             b'{"v": 1, "type": "mint", "n": 2}'),
            (lambda: client.claim(_S.decode()),
             b'{"type": "claimed", "serial": "' + _S + b'", "handle": 3, "n": 2}',
             b'{"v": 1, "type": "claim", "serial": "' + _S + b'"}'),
            (lambda: client.apply_x(3, 1), b'{"type": "ok", "handle": 3}',
             b'{"v": 1, "type": "apply_x", "handle": 3, "qubit": 1}'),
            (lambda: client.apply_unitary(3, 0, ((s, s), (s, -s))), b'{"type": "ok", "handle": 3}',
             b'{"v": 1, "type": "apply_u", "handle": 3, "qubit": 0, "u": [[' + _H + b', 0.0], ['
             + _H + b', 0.0], [' + _H + b', 0.0], [-' + _H + b', 0.0]]}'),
            (lambda: client.measure(3, 0, Basis.X), b'{"type": "measured", "bit": 1, "handle": 3}',
             b'{"v": 1, "type": "measure", "handle": 3, "qubit": 0, "basis": "X"}'),
            (lambda: client.verify(_S.decode(), 3),
             b'{"type": "verified", "result": "INVALID", "handle": 4}',
             b'{"v": 1, "type": "verify", "serial": "' + _S + b'", "handle": 3}'),
            (lambda: client.release(4), b'{"type": "ok", "handle": 4}',
             b'{"v": 1, "type": "release", "handle": 4}'),
            (lambda: client.request({"type": "télé", "x": [float("nan"), None, True]}),
             b'{"type": "ok", "handle": 4}',
             b'{"v": 1, "type": "t\\u00e9l\\u00e9", "x": [NaN, null, true]}'),
            # a message that names its version is sent as it is
            (lambda: client.request({"v": 2, "type": "mint", "n": 1}),
             b'{"type": "ok", "handle": 4}', b'{"v": 2, "type": "mint", "n": 1}'),
        ]
        try:
            for call, reply, request in calls:
                conn.sendall(reply + b"\n")
                call()
                assert requests.readline() == request + b"\n"
        finally:
            client.close()
            requests.close()
            conn.close()
            listener.close()


# one request of each type, and an error, with the reply each gets from a
# seeded server that holds the planted "1+" bill _P, under each policy
_EVERY_REPLY_TYPE = {
    MintPolicy.RETURN_ALWAYS: [
        (b'{"v": 1, "type": "mint", "n": 2}',
         b'{"type": "minted", "serial": "' + _S + b'", "handle": 2}'),
        (b'{"v": 1, "type": "claim", "serial": "' + _P + b'"}',
         b'{"type": "claimed", "serial": "' + _P + b'", "handle": 3, "n": 2}'),
        (b'{"v": 1, "type": "verify", "serial": "' + _P + b'", "handle": 3}',
         b'{"type": "verified", "result": "VALID", "handle": 4}'),
        (b'{"v": 1, "type": "apply_x", "handle": 4, "qubit": 0}',
         b'{"type": "ok", "handle": 4}'),
        (b'{"v": 1, "type": "verify", "serial": "' + _P + b'", "handle": 4}',
         b'{"type": "verified", "result": "INVALID", "handle": 5}'),
        (b'{"v": 1, "type": "apply_u", "handle": 5, "qubit": 1, "u": [[' + _H + b', 0.0], ['
         + _H + b', 0.0], [' + _H + b', 0.0], [-' + _H + b', 0.0]]}',
         b'{"type": "ok", "handle": 5}'),
        (b'{"v": 1, "type": "measure", "handle": 5, "qubit": 0, "basis": "Z"}',
         b'{"type": "measured", "bit": 0, "handle": 5}'),
        (b'{"v": 1, "type": "release", "handle": 5}',
         b'{"type": "ok", "handle": 5}'),
        (b'{"v": 1, "type": "t\\u00e9l\\u00e9"}',
         b'{"type": "error", "code": "BAD_REQUEST", '
         b'"detail": "unknown message type \'t\\u00e9l\\u00e9\'"}'),
    ],
    MintPolicy.DESTROY_ON_INVALID: [
        (b'{"v": 1, "type": "claim", "serial": "' + _P + b'"}',
         b'{"type": "claimed", "serial": "' + _P + b'", "handle": 2, "n": 2}'),
        (b'{"v": 1, "type": "apply_x", "handle": 2, "qubit": 0}',
         b'{"type": "ok", "handle": 2}'),
        (b'{"v": 1, "type": "verify", "serial": "' + _P + b'", "handle": 2}',
         b'{"type": "verified", "result": "INVALID", "handle": null}'),
    ],
}


@pytest.mark.parametrize("policy", list(_EVERY_REPLY_TYPE))
def test_server_encodes_no_json(policy, monkeypatch):
    # the server writes each reply from its type's template; the JSON
    # encoder, the client's alone, fails any call here
    def no_encoder(*args):
        raise AssertionError("the server called the JSON encoder")

    monkeypatch.setattr(wire, "_iterencode", no_encoder)
    srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(5)), policy, random.Random(5))
    srv.mint.add_bill(symbols_from_string("1+"))
    srv.start()
    sock = socket.create_connection(srv.address, timeout=5)
    replies = sock.makefile("rb")
    try:
        for request, reply in _EVERY_REPLY_TYPE[policy]:
            sock.sendall(request + b"\n")
            assert replies.readline() == reply + b"\n", request
    finally:
        replies.close()
        sock.close()
        srv.stop()
