# Networked mint: line-delimited JSON over TCP.
#
# The server owns every quantum state and the secret database; clients
# hold nothing but handle ids, scoped to their session.  That keeps the
# information available to a remote attacker exactly what a physical
# counterfeiter would have: classical answers plus possession of bills.
#
# A line, request or reply, is one JSON object with nothing after it, read
# straight off the socket by _lines(); a request line that does not parse
# (a number past CPython's digit limit included) gets BAD_REQUEST.  The
# server writes each reply from its type's template, in json.dumps's text.
#
# The server is a plain accept loop that gives each connection, a
# session, its own thread.  stop() wakes accept() at once with a throwaway
# connection of its own; live sessions outlive it.

from __future__ import annotations

import errno
import json
import math
import random
import socket
import struct
import threading
import time
from collections import Counter
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote

from .attacks import adaptive_attack
from .mint import HandleConsumedError, Mint, MintError, MintPolicy, UnknownHandleError
from .qstate import Basis, NonUnitaryError, VerifyOutcome

PROTOCOL_VERSION = 1
# largest bill a wire `mint` may ask for; each qubit costs the server a
# draw and a factor
MAX_MINT_QUBITS = 2**16
# longest line, request or reply, newline included, that either end reads
# into memory; a longer one is read past and answered once (see _lines)
MAX_LINE_BYTES = 2**20
_RECV_BYTES = 8192  # most bytes one recv() asks for
# most handles one session may hold at once; `mint` and `claim` beyond
# it are refused, so one client cannot fill the server's memory
MAX_SESSION_HANDLES = 2**10
# serve_forever's wait before it retries an accept() that failed for want
# of a descriptor or memory, which leaves the connection queued
_ACCEPT_RETRY_S = 0.05
# the codec, built once: the client's encoder, the C encoder as json.dumps's
# defaults build it, less the circular check (no message is circular); the C
# scanner, for both ends; _quote, a string literal as json.dumps writes it
_iterencode = c_make_encoder(None, json.JSONEncoder().default, _quote,
                             None, ": ", ", ", False, False, True)
_scan = json.JSONDecoder().scan_once
# a wire string's Enum member: Enum(value) is a Python call
_BASES = {b.value: b for b in Basis}
_OUTCOMES = {o.value: o for o in VerifyOutcome}


def _lines(recv):
    """Yield each line recv() brings, newline included, once complete; None,
    once, for a line longer than MAX_LINE_BYTES, whose rest is read past.
    At EOF yield the unfinished last line, if any.  A recv() error ends it.
    An unfinished line is kept as its chunks and joined once, at its
    newline, so a line costs time linear in its length."""
    part, size, skipping = [], 0, False  # the unfinished line's chunks, their length
    while data := recv(_RECV_BYTES):
        start = 0
        while end := data.find(b"\n", start) + 1:
            if skipping:
                skipping = False
            elif part:  # start is 0: the newline ends the unfinished line
                part.append(data[:end])
                yield b"".join(part) if size + end <= MAX_LINE_BYTES else None
                part, size = [], 0
            else:
                yield data[start:end] if end - start <= MAX_LINE_BYTES else None
            if end == len(data):  # the usual case: whole lines, none left over
                break
            start = end
        else:
            if not skipping:
                part.append(data[start:])
                size += len(data) - start
                if size > MAX_LINE_BYTES:
                    part, size, skipping = [], 0, True
                    yield None
    if part:
        yield b"".join(part)


class ProtocolError(Exception):
    """Error response from the server (or raised while forming one)."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class TransportError(Exception):
    """Socket-level failure, distinct from protocol errors."""


# the types a reply field may hold; `type(...) is int` is false for a bool
_INT = (int,)
_STR = (str,)
_INT_OR_NONE = (int, type(None))


def _field(reply: dict, key, kinds=_INT):
    """reply[key]; a reply without the key, or whose value is not of one
    of the types `kinds`, is malformed."""
    try:
        value = reply[key]
    except KeyError:
        raise TransportError("malformed reply") from None
    if type(value) not in kinds:
        raise TransportError("malformed reply")
    return value


def _error(code: str, detail: str = "") -> str:
    return f'{{"type": "error", "code": {_quote(code)}, "detail": {_quote(detail)}}}\n'


def _owned_handle(msg: dict, owned: set[int]) -> int:
    hid = msg.get("handle")
    # `type(...) is int` is false for a bool: true/false is not a number
    if type(hid) is not int:
        raise ProtocolError("BAD_REQUEST", "field 'handle' must be an integer")
    if hid not in owned:
        raise ProtocolError("HANDLE_NOT_OWNED", f"handle {hid} is not owned by this session")
    return hid


def _serial(msg: dict) -> str:
    serial = msg.get("serial")
    if not isinstance(serial, str):
        raise ProtocolError("BAD_REQUEST", "field 'serial' must be a string")
    return serial


def _qubit(msg: dict) -> int:
    i = msg.get("qubit")
    if type(i) is not int:
        raise ProtocolError("BAD_REQUEST", "field 'qubit' must be an integer")
    return i


def _check_room(owned: set[int]) -> None:
    if len(owned) >= MAX_SESSION_HANDLES:
        raise ProtocolError("TOO_MANY_HANDLES",
                            f"a session may hold at most {MAX_SESSION_HANDLES} handles")


def _parse_unitary(raw):
    if (not isinstance(raw, list) or len(raw) != 4
            or not all(isinstance(e, list) and len(e) == 2 for e in raw)):
        raise ProtocolError("BAD_REQUEST", "field 'u' must be four [re, im] pairs, row-major")
    try:
        # complex() takes true and false as 1 and 0; JSON booleans are no numbers
        if any(type(x) is bool for e in raw for x in e):
            raise TypeError("a boolean is not a number")
        vals = [complex(e[0], e[1]) for e in raw]
    except (OverflowError, TypeError) as exc:
        raise ProtocolError("BAD_REQUEST", f"field 'u' must hold numbers: {exc}") from None
    return ((vals[0], vals[1]), (vals[2], vals[3]))


class MintServer:
    """Serves the mint over line-delimited JSON; one connection per session,
    each served by its own thread."""

    def __init__(self, host: str, port: int, mint: Mint | None = None,
                 policy: str = MintPolicy.RETURN_ALWAYS, rng: random.Random | None = None):
        self.mint = mint if mint is not None else Mint()
        self.policy = MintPolicy.check(policy)
        self._rng = rng if rng is not None else random.Random()
        # a host with a colon is an IPv6 literal: the default family is IPv4
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self._thread: threading.Thread | None = None
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        while not self._stopped:
            try:
                sock, _ = self._listener.accept()
            except OSError as exc:  # ECONNABORTED retries at once; _stopped alone ends the loop
                if exc.errno in (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM):
                    time.sleep(_ACCEPT_RETRY_S)
                continue
            if self._stopped:  # stop()'s wake-up connection
                sock.close()
                continue
            try:
                threading.Thread(target=self._session, args=(sock,), daemon=True).start()
            except RuntimeError:  # no thread to spare: refuse this one connection
                sock.close()

    def stop(self) -> None:
        """Stop accepting, in whatever thread serve_forever runs; live
        sessions go on until their clients close them."""
        self._stopped = True
        try:
            # a throwaway connection wakes an accept() blocked in any
            # thread, on any platform; a closed listener refuses it
            socket.create_connection(self.address, timeout=1).close()
        except OSError:
            pass
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _session(self, sock: socket.socket) -> None:
        # `owned`, the session's handle ids, is read and changed only by
        # this thread, so it needs no lock
        owned: set[int] = set()
        try:
            # TCP_NODELAY: a reply to the second of two pipelined requests would
            # otherwise wait about 40 ms for the client's delayed ACK of the first
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for raw in _lines(sock.recv):
                if raw is None:
                    reply = _error("BAD_REQUEST",
                                   f"request line longer than {MAX_LINE_BYTES} bytes")
                else:
                    try:
                        line = raw.decode("utf-8").strip()
                    except UnicodeDecodeError:
                        reply = _error("BAD_REQUEST", "line is not valid UTF-8")
                    else:
                        if not line:
                            continue
                        # looked up per line, for a wrapper put on the class mid-session
                        reply = self.handle_message(line, owned)
                sock.sendall(reply.encode())
        except OSError:
            pass
        finally:
            sock.close()
            for hid in owned:
                try:
                    self.mint.registry.release(hid)
                except (HandleConsumedError, UnknownHandleError):
                    pass

    # -- dispatch ---------------------------------------------------------

    def handle_message(self, line: str, owned: set[int]) -> str:
        """The reply line to a request line, parsed and dispatched in this
        one frame; never raises, so the connection and the session's
        handles outlive any request."""
        try:
            # the line is stripped, so the value must end where it does
            try:
                msg, end = _scan(line, 0)
            except (StopIteration, ValueError):  # no value, bad JSON, int digit limit
                return _error("BAD_REQUEST", "line is not a JSON object")
            except RecursionError:
                return _error("BAD_REQUEST", "line nests too deeply")
            if end != len(line):
                return _error("BAD_REQUEST", "line is not a JSON object")
            if not isinstance(msg, dict):
                return _error("BAD_REQUEST", "message must be a JSON object")
            version = msg.get("v")
            if version is None:
                return _error("BAD_REQUEST", "missing protocol version field 'v'")
            # `type(...) is int` is false for true and 1.0, which equal 1
            if type(version) is not int or version != PROTOCOL_VERSION:
                return _error("UNSUPPORTED_VERSION",
                              f"this server speaks version {PROTOCOL_VERSION}")
            mtype = msg.get("type")
            op = self._OPS.get(mtype) if type(mtype) is str else None
            if op is None:
                return _error("BAD_REQUEST", f"unknown message type {mtype!r}")
            return op(self, msg, owned)
        except ProtocolError as exc:
            return _error(exc.code, exc.detail)
        except (MintError, NonUnitaryError) as exc:  # before ValueError: NonUnitaryError is one
            return _error(exc.code, str(exc))
        except (IndexError, ValueError) as exc:
            return _error("BAD_REQUEST", str(exc))
        except Exception as exc:
            import logging  # here, so that a server no request breaks never loads it

            logging.getLogger(__name__).exception("request failed: %.200r", line)
            return _error("INTERNAL", f"request failed: {type(exc).__name__}")

    def _do_mint(self, msg: dict, owned: set[int]) -> str:
        n = msg.get("n")
        if type(n) is not int or not 1 <= n <= MAX_MINT_QUBITS:
            raise ProtocolError("BAD_REQUEST",
                                f"field 'n' must be an integer from 1 to {MAX_MINT_QUBITS}")
        _check_room(owned)
        secret, handle = self.mint.mint_bill(n, rng=self._rng)
        owned.add(handle)
        return f'{{"type": "minted", "serial": {_quote(secret.serial)}, "handle": {handle}}}\n'

    def _do_claim(self, msg: dict, owned: set[int]) -> str:
        # lab extension: hand out a genuine copy of an existing bill so a
        # remote attacker can start with a bill in hand
        serial = _serial(msg)
        _check_room(owned)
        secret, handle = self.mint.issue_bill_state(serial)
        owned.add(handle)
        return (f'{{"type": "claimed", "serial": {_quote(serial)}, "handle": {handle}, '
                f'"n": {secret.n}}}\n')

    def _do_verify(self, msg: dict, owned: set[int]) -> str:
        # swaps one handle for at most one, so it needs no room
        serial = _serial(msg)
        handle = _owned_handle(msg, owned)
        res = self.mint.verify(serial, handle, self.policy, self._rng)
        owned.discard(handle)
        if res.handle is not None:
            owned.add(res.handle)
        # `_value_` is the member's own attribute; `.value` is a property
        kept = "null" if res.handle is None else res.handle
        return f'{{"type": "verified", "result": "{res.outcome._value_}", "handle": {kept}}}\n'

    def _do_apply_x(self, msg: dict, owned: set[int]) -> str:
        handle = _owned_handle(msg, owned)
        self.mint.registry.apply_pauli_x(handle, _qubit(msg))
        return f'{{"type": "ok", "handle": {handle}}}\n'

    def _do_apply_u(self, msg: dict, owned: set[int]) -> str:
        handle = _owned_handle(msg, owned)
        u = _parse_unitary(msg.get("u"))
        self.mint.registry.apply_unitary(handle, _qubit(msg), u)
        return f'{{"type": "ok", "handle": {handle}}}\n'

    def _do_measure(self, msg: dict, owned: set[int]) -> str:
        handle = _owned_handle(msg, owned)
        try:
            basis = _BASES[msg.get("basis")]
        except (KeyError, TypeError):  # TypeError: a list or object
            raise ProtocolError("BAD_REQUEST", "field 'basis' must be \"Z\" or \"X\"") from None
        bit = self.mint.registry.measure(handle, _qubit(msg), basis, self._rng)
        return f'{{"type": "measured", "bit": {bit}, "handle": {handle}}}\n'

    def _do_release(self, msg: dict, owned: set[int]) -> str:
        handle = _owned_handle(msg, owned)
        self.mint.registry.release(handle)
        owned.discard(handle)
        return f'{{"type": "ok", "handle": {handle}}}\n'

    _OPS = {"mint": _do_mint, "claim": _do_claim, "verify": _do_verify, "apply_x": _do_apply_x,
            "apply_u": _do_apply_u, "measure": _do_measure, "release": _do_release}


class RemoteMint:
    """Client session; doubles as the capability object for the adaptive
    attack so the same attack logic runs locally and over the wire."""

    def __init__(self, host: str, port: int, timeout: float | None = 10.0):
        # 0 would make a non-blocking connect; NaN fails every comparison.
        # TIMEOUT_MAX, about 292 years, is the longest a socket takes
        if timeout is not None and not (
                isinstance(timeout, (int, float)) and 0 < timeout <= threading.TIMEOUT_MAX):
            raise ValueError(f"timeout must be None or a number of seconds above 0 and at most "
                             f"{threading.TIMEOUT_MAX:g}, got {timeout!r}")
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        # the kernel times each receive and send out, so a silent server
        # is still caught, without the poll() that Python's own socket
        # timeout makes before every call
        self._sock.settimeout(None)
        if timeout is not None:
            # rounded up to whole microseconds: the kernel reads 0 as no limit
            limit = struct.pack("@ll", *divmod(math.ceil(timeout * 1e6), 10**6))
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, limit)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, limit)
        self._lines = _lines(self._sock.recv)
        self.sent_counts: Counter[str] = Counter()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def request(self, msg: dict) -> dict:
        if "v" not in msg:  # the methods below build theirs with "v" first
            msg = {"v": PROTOCOL_VERSION, **msg}
        self.sent_counts[msg.get("type", "?")] += 1
        step = "sending the request"
        try:
            self._sock.sendall(("".join(_iterencode(msg, 0)) + "\n").encode())
            step = "reading the reply"
            line = next(self._lines, b"")
        except BlockingIOError as exc:  # SO_SNDTIMEO or SO_RCVTIMEO ran out
            self.close()  # the rest of the exchange would garble the session
            raise TransportError(f"timed out {step}") from exc
        except OSError as exc:
            raise TransportError(f"connection failed: {exc}") from exc
        if line is None:  # longer than MAX_LINE_BYTES
            raise TransportError("malformed reply")
        if not line.endswith(b"\n"):  # EOF, after part of a line or none
            raise TransportError("server closed the connection")
        # the object must end at the newline; UnicodeDecodeError is a ValueError
        try:
            text = line.decode()
            resp, end = _scan(text, 0)
        except (StopIteration, ValueError, RecursionError):
            raise TransportError("malformed reply") from None
        if end != len(text) - 1 or type(resp) is not dict:
            raise TransportError("malformed reply")
        if resp.get("type") == "error":
            raise ProtocolError(_field(resp, "code", _STR), _field(resp, "detail", _STR))
        return resp

    # -- protocol operations ---------------------------------------------

    def mint_bill(self, n: int) -> tuple[str, int]:
        resp = self.request({"v": PROTOCOL_VERSION, "type": "mint", "n": n})
        return _field(resp, "serial", _STR), _field(resp, "handle")

    def claim(self, serial: str) -> tuple[int, int]:
        resp = self.request({"v": PROTOCOL_VERSION, "type": "claim", "serial": serial})
        handle, n = _field(resp, "handle"), _field(resp, "n")
        if n < 1:
            raise TransportError("malformed reply")
        return handle, n

    def verify(self, serial: str, handle: int):
        msg = {"v": PROTOCOL_VERSION, "type": "verify", "serial": serial, "handle": handle}
        resp = self.request(msg)
        outcome = _OUTCOMES.get(_field(resp, "result", _STR))
        if outcome is None:
            raise TransportError("malformed reply")
        # branch determinism is server-internal; unobservable remotely
        return outcome, _field(resp, "handle", _INT_OR_NONE), None

    def apply_x(self, handle: int, i: int) -> int:
        msg = {"v": PROTOCOL_VERSION, "type": "apply_x", "handle": handle, "qubit": i}
        return _field(self.request(msg), "handle")

    def apply_unitary(self, handle: int, i: int, u) -> int:
        flat = [[complex(z).real, complex(z).imag] for row in u for z in row]
        msg = {"v": PROTOCOL_VERSION, "type": "apply_u", "handle": handle, "qubit": i, "u": flat}
        return _field(self.request(msg), "handle")

    def measure(self, handle: int, i: int, basis: Basis) -> tuple[int, int]:
        resp = self.request({"v": PROTOCOL_VERSION, "type": "measure", "handle": handle,
                             "qubit": i, "basis": basis._value_})
        bit = _field(resp, "bit")
        if not 0 <= bit <= 1:
            raise TransportError("malformed reply")
        return bit, _field(resp, "handle")

    def release(self, handle: int) -> None:
        self.request({"v": PROTOCOL_VERSION, "type": "release", "handle": handle})


def remote_adaptive_attack(host: str, port: int, serial: str | None = None, n: int | None = None):
    """Run the adaptive attack purely through wire messages.

    Either attack an existing bill by serial (the server hands over a
    genuine copy) or mint a fresh n-qubit bill to attack, not both.
    Returns (transcript, client); the caller owns closing the client.
    """
    if (serial is None) == (n is None):
        raise ValueError("give exactly one of a serial and a bill size n")
    client = RemoteMint(host, port)
    try:
        if serial is not None:
            handle, n = client.claim(serial)
        else:
            serial, handle = client.mint_bill(n)
        transcript, _ = adaptive_attack(client, serial, handle, n)
        return transcript, client
    except BaseException:
        client.close()
        raise
