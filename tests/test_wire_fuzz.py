"""Wire fuzzer: random request lines against a loopback MintServer.

Each example is one session that sends raw bytes (invalid UTF-8
included) and JSON objects with random `v`, `type` and fields, some of
them naming the session's real handles and serials, and some of them
well-formed requests of a drawn type, so that every reply template is
reached.  Every non-blank
line must get exactly one reply, a JSON object that is never an
INTERNAL error, in the text json.dumps writes for it; the server must
still mint afterwards, and a closed session must leave no state behind.
Each line goes out in one to four writes.  Below it, the line reader
that both ends share is checked against readline() with small bounds
and receives, at drawn cut points.
"""

import io
import json
import random
import re
import socket
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import random_unitary

from qmoney import wire
from qmoney.mint import Mint, MintPolicy
from qmoney.wire import MintServer

TYPES = ("mint", "claim", "verify", "apply_x", "apply_u", "measure", "release")
FIELDS = ("v", "type", "n", "serial", "handle", "qubit", "basis", "u")
# sent after every line; its reply comes after all of that line's replies
SENTINEL_HANDLE = -7777777
SENTINEL = json.dumps({"v": 1, "type": "release", "handle": SENTINEL_HANDLE}).encode()

# an integer past CPython's 4300-digit limit for int/str conversion,
# which json.dumps cannot write: drawn as a marked string of its digits
# (longer than any other drawn string), written out bare by _json_line
LONG_INT = "long-int:"
long_ints = st.builds(lambda sign, digits: LONG_INT + sign + "9" * digits,
                      st.sampled_from(["", "-"]), st.integers(4301, 5000))
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | long_ints
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
raw_lines = st.binary(max_size=40).map(lambda b: b.replace(b"\n", b""))


@pytest.fixture(scope="module")
def server():
    srv = MintServer("127.0.0.1", 0, Mint(rng=random.Random(3)),
                     MintPolicy.RETURN_ALWAYS, random.Random(3))
    srv.start()
    yield srv
    srv.stop()


def _unitary(data) -> list:
    u = random_unitary(random.Random(data.draw(st.integers(0, 2**32))))
    return [[z.real, z.imag] for row in u for z in row]


def _request(data, handles, sizes) -> dict:
    """A well-formed request of a drawn type: `v` 1, an owned handle, a
    qubit below that handle's bill size, the handle's own serial to
    verify it against, a known serial to claim, and a basis.  Fields
    are rarely all well formed at once in `_json_line`'s draws."""
    types = TYPES if handles else ("mint", "claim") if sizes else ("mint",)
    mtype = data.draw(st.sampled_from(types))
    msg = {"v": 1, "type": mtype}
    if mtype == "mint":
        msg["n"] = data.draw(st.integers(1, 6))
    elif mtype == "claim":
        # in the order the session met them, not sorted: the server draws
        # the serials, so a sorted index would name another bill in a rerun
        msg["serial"] = data.draw(st.sampled_from(list(sizes)))
    else:
        handle = data.draw(st.sampled_from(sorted(handles)))
        msg["handle"] = handle
        if mtype == "verify":
            msg["serial"] = handles[handle]
        elif mtype != "release":
            msg["qubit"] = data.draw(st.integers(0, sizes[handles[handle]] - 1))
        if mtype == "measure":
            msg["basis"] = data.draw(st.sampled_from(["Z", "X"]))
        elif mtype == "apply_u":
            msg["u"] = _unitary(data)
    return msg


def _json_line(data, handles, sizes) -> bytes:
    """A JSON object: in a share of the draws a well-formed request,
    otherwise one whose fields are each left out, random, or (most often)
    well formed: a real handle or serial when the session has one, and a bill
    size of at most 6 or out of range, so that no example mints a large
    bill (a random JSON value is rarely an integer in range)."""
    if not data.draw(st.integers(0, 2)):
        return json.dumps(_request(data, handles, sizes)).encode()
    msg = {}
    for name in FIELDS:
        # hypothesis favours small integers: make them the well-formed case
        mode = data.draw(st.integers(0, 19))
        if mode == 19:
            continue
        if mode >= 17:
            value = data.draw(json_values.filter(lambda x: x != SENTINEL_HANDLE))
        elif name == "n" and mode == 16:
            value = data.draw(st.integers(min_value=2**16 + 1, max_value=2**70) | st.integers(-1, 0))
        elif name == "v":
            value = 1
        elif name == "type":
            value = data.draw(st.sampled_from(TYPES))
        elif name == "n":
            value = data.draw(st.integers(1, 6))
        elif name == "handle":
            value = data.draw(st.sampled_from(sorted(handles)) if handles else st.integers(-1, 9))
        elif name == "serial":
            value = data.draw(st.sampled_from(list(sizes)) if sizes else st.text(max_size=8))
        elif name == "qubit":
            value = data.draw(st.integers(-1, 6))
        elif name == "basis":
            value = data.draw(st.sampled_from(["Z", "X"]))
        else:
            value = _unitary(data)
        msg[name] = value
    extra = data.draw(st.dictionaries(st.text(max_size=4).filter(lambda k: k not in FIELDS),
                                      json_values, max_size=2))
    msg.update(extra)
    # json.dumps writes NaN and Infinity bare, as the server accepts them
    return re.sub(f'"{LONG_INT}(-?9+)"', r"\1", json.dumps(msg)).encode()


def _is_blank(line: bytes) -> bool:
    # the server skips a line that decodes to whitespace only
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


def _is_sentinel(reply) -> bool:
    return reply.get("code") == "HANDLE_NOT_OWNED" and str(SENTINEL_HANDLE) in reply["detail"]


def _read_reply(replies) -> dict:
    """The next reply line, parsed.  The line must be the text json.dumps
    writes for the object it holds, so that no reply template drifts from
    the encoder: a missing space, or an unescaped quote, backslash, control
    or non-ASCII character in an error's detail (an unknown type's repr
    carries any of them), fails here."""
    line = replies.readline()
    reply = json.loads(line)
    assert line == (json.dumps(reply) + "\n").encode(), line
    return reply


def _track(request: bytes, reply: dict, handles: dict, sizes: dict) -> None:
    """Follow the session's handles, each with its bill's serial, and the
    serials, each with its bill's size, through one reply."""
    kind = reply["type"]
    if kind in ("minted", "claimed"):
        serial = reply["serial"]
        handles[reply["handle"]] = serial
        sizes[serial] = json.loads(request)["n"] if kind == "minted" else reply["n"]
    elif kind == "verified":
        serial = handles.pop(json.loads(request)["handle"])
        if reply["handle"] is not None:
            handles[reply["handle"]] = serial
    elif kind == "ok" and json.loads(request)["type"] == "release":
        del handles[reply["handle"]]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_every_line_gets_one_reply(server, data):
    registry = server.mint.registry
    before = registry.live_count()
    sock = socket.create_connection(server.address, timeout=5)
    # a blank line and the sentinel go out back to back; Nagle's
    # algorithm would hold the sentinel for the server's delayed ACK
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    replies = sock.makefile("rb")
    handles: dict[int, str] = {}
    sizes: dict[str, int] = {}
    try:
        for _ in range(data.draw(st.integers(1, 12))):
            if data.draw(st.integers(0, 3)):
                line = _json_line(data, handles, sizes)
            else:
                line = data.draw(raw_lines)
            # one exchange at a time: a reply sent while the one before
            # is unacknowledged would wait for the client's delayed ACK
            payload = line + b"\n"
            # taken modulo the length, so that each draw's bounds do not
            # depend on the digits of the server's handle ids
            cuts = sorted({c % (len(payload) - 1) + 1
                           for c in data.draw(st.sets(st.integers(0, 2**16), max_size=3))}
                          if len(payload) > 1 else ())
            for start, end in zip([0, *cuts], [*cuts, len(payload)]):
                sock.sendall(payload[start:end])
            if not _is_blank(line):
                reply = _read_reply(replies)
                assert isinstance(reply, dict) and not _is_sentinel(reply), (line, reply)
                assert reply["type"] != "error" or reply["code"] != "INTERNAL", (line, reply)
                _track(line, reply, handles, sizes)
            # the next reply answers the sentinel, so the line got no other
            sock.sendall(SENTINEL + b"\n")
            reply = _read_reply(replies)
            assert _is_sentinel(reply), (line, reply)
        sock.sendall(json.dumps({"v": 1, "type": "mint", "n": 1}).encode() + b"\n")
        assert _read_reply(replies)["type"] == "minted"
    finally:
        replies.close()
        sock.close()
        # the session's handler thread releases its handles when it sees
        # EOF.  Wait for that here, also when hypothesis stops an example
        # part way (a draw past its buffer raises StopTest), so that the
        # next example reads its `before` with no old session left.
        deadline = time.monotonic() + 5
        while registry.live_count() != before and time.monotonic() < deadline:
            time.sleep(0.002)
    assert registry.live_count() == before


def _bounded_readlines(stream: bytes, bound: int) -> list:
    """The line rule on a file object: readline(bound + 1), and None for a
    longer line, whose rest is read one bounded chunk at a time."""
    f, out = io.BytesIO(stream), []
    while raw := f.readline(bound + 1):
        if len(raw) > bound:
            while raw and not raw.endswith(b"\n"):
                raw = f.readline(bound + 1)
            raw = None
        out.append(raw)
    return out


@settings(max_examples=500, deadline=None, database=None)
@given(bound=st.integers(1, 8), recv_bytes=st.integers(1, 10),
       stream=st.lists(st.sampled_from([b"a", b"b", b"\n"]), max_size=40).map(b"".join),
       sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8))
def test_lines_match_a_bounded_readline(bound, recv_bytes, stream, sizes):
    # small bounds and receives, with the stream cut into pieces of
    # the drawn sizes (the last repeated); recv returns at most one piece
    pieces, i = [], 0
    while i < len(stream):
        size = sizes[min(len(pieces), len(sizes) - 1)]
        pieces.append(stream[i:i + size])
        i += size

    def recv(n):
        if not pieces:
            return b""
        head = pieces[0][:n]
        pieces[0] = pieces[0][n:]
        if not pieces[0]:
            pieces.pop(0)
        return head

    with mock.patch.multiple(wire, MAX_LINE_BYTES=bound, _RECV_BYTES=recv_bytes):
        assert list(wire._lines(recv)) == _bounded_readlines(stream, bound)


def test_long_line_costs_linear_time():
    # a line one byte under the bound against one 8x shorter, in 8 KiB
    # receives: a reader that copies the unfinished line at each receive
    # pays about 55x as much for the longer one, a linear one about 9x
    def cost(length):
        line = b"x" * (length - 1) + b"\n"
        chunks = [line[i:i + 8192] for i in range(0, length, 8192)]
        best = float("inf")
        for _ in range(5):
            it = iter(chunks)
            t0 = time.perf_counter()
            lines = list(wire._lines(lambda n: next(it, b"")))
            best = min(best, time.perf_counter() - t0)
            assert lines == [line]
        return best

    short, long = cost(wire.MAX_LINE_BYTES // 8), cost(wire.MAX_LINE_BYTES - 1)
    assert long < 25 * short, (short, long)
