"""Framing, the pure protocol step, and live loopback round trips."""

import io
import random
import socket
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from pirlab.groups import MessageSet, QueryVector, RandomKey
from pirlab.nary import answer, make_nary, query_vector, retrieve
from pirlab.net import (
    AWAITING_SETUP,
    ERR_BAD_QUERY,
    ERR_BAD_SETUP,
    ERR_PROTOCOL,
    KIND_ANSWER,
    KIND_ERROR,
    KIND_QUERY,
    KIND_SETUP,
    MAX_PAYLOAD,
    SERVING,
    Frame,
    FrameError,
    PirServer,
    ProtocolError,
    RetrievalError,
    ServerState,
    client_retrieve,
    decode_answer_payload,
    decode_error_payload,
    decode_frame,
    decode_setup_payload,
    encode_answer_payload,
    encode_frame,
    encode_setup_payload,
    error_frame,
    handle_frame,
    read_frame,
    setup_endpoint,
    write_frame,
)


frames = st.builds(
    Frame,
    kind=st.sampled_from([KIND_SETUP, KIND_QUERY, KIND_ANSWER, KIND_ERROR]),
    payload=st.binary(max_size=64),
)


@given(frames)
def test_frame_round_trip(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(frames)
def test_stream_round_trip(frame):
    buf = io.BytesIO()
    write_frame(buf, frame)
    write_frame(buf, frame)
    buf.seek(0)
    assert read_frame(buf) == frame
    assert read_frame(buf) == frame
    assert read_frame(buf) is None


def test_frame_rejects_unknown_kind():
    with pytest.raises(FrameError):
        Frame(0x09, b"")


def test_decode_frame_rejects_garbage():
    with pytest.raises(FrameError, match="truncated"):
        decode_frame(b"\x00\x00")
    with pytest.raises(FrameError, match="kind"):
        decode_frame(b"\x00\x00\x00\x00\x77")
    good = encode_frame(Frame(KIND_QUERY, b"\x01\x02"))
    with pytest.raises(FrameError, match="mismatch"):
        decode_frame(good + b"x")
    with pytest.raises(FrameError, match="mismatch"):
        decode_frame(good[:-1])


def test_read_frame_rejects_partial_streams():
    good = encode_frame(Frame(KIND_QUERY, b"\x01\x02"))
    with pytest.raises(ProtocolError, match="header"):
        read_frame(io.BytesIO(good[:3]))
    with pytest.raises(ProtocolError, match="payload"):
        read_frame(io.BytesIO(good[:-1]))


class _CountingStream(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.requested = []

    def read(self, n=-1):
        self.requested.append(n)
        return super().read(n)


def test_read_frame_bounds_length_before_reading():
    stream = _CountingStream(struct.pack(">IB", 2**32 - 1, KIND_SETUP))
    with pytest.raises(ProtocolError, match="limit"):
        read_frame(stream)
    assert stream.requested == [5]
    # the largest legal SETUP still reads
    frame = Frame(KIND_SETUP, bytes(MAX_PAYLOAD))
    assert read_frame(io.BytesIO(encode_frame(frame))) == frame
    with pytest.raises(FrameError, match="too large"):
        Frame(KIND_SETUP, bytes(MAX_PAYLOAD + 1))


# ---------------------------------------------------------------- payloads


def test_setup_payload_round_trip():
    code = make_nary(3, 2, 5)
    msgs = MessageSet.from_values(((4, 0), (1, 3)), 5)
    got_code, got_msgs = decode_setup_payload(encode_setup_payload(code, msgs))
    assert got_code == code
    assert got_msgs == msgs


def test_setup_payload_enforces_wire_limits():
    big_mod = make_nary(2, 2, 257)
    with pytest.raises(ValueError, match="modulus"):
        encode_setup_payload(big_mod, MessageSet.from_values(((0,), (0,)), 257))
    wide = make_nary(256, 1)
    with pytest.raises(ValueError, match="servers"):
        encode_setup_payload(
            wide, MessageSet.from_values(((0,) * 255,), 2)
        )


def test_decode_setup_rejects_malformed_payloads():
    code = make_nary(2, 2)
    msgs = MessageSet.from_values(((1,), (0,)), 2)
    payload = encode_setup_payload(code, msgs)
    with pytest.raises(ValueError, match="truncated"):
        decode_setup_payload(payload[:4])
    with pytest.raises(ValueError, match="symbols"):
        decode_setup_payload(payload + b"\x00")
    with pytest.raises(ValueError, match="range"):
        decode_setup_payload(payload[:-1] + b"\x09")


def test_answer_payload_round_trip():
    code = make_nary(4, 2, 7)
    msgs = MessageSet.from_values(((1, 2, 3), (4, 5, 6)), 7)
    ans = answer(code, 1, query_vector(code, 1, 0, RandomKey((3,), 4)), msgs)
    assert decode_answer_payload(encode_answer_payload(ans), 7) == ans


def test_answer_payload_empty():
    from pirlab.groups import EMPTY_ANSWER

    data = encode_answer_payload(EMPTY_ANSWER)
    assert data == b"\x00"
    assert decode_answer_payload(data, 2).symbols == ()


def test_answer_payload_errors():
    with pytest.raises(ValueError, match="empty"):
        decode_answer_payload(b"", 2)
    with pytest.raises(ValueError, match="carries"):
        decode_answer_payload(b"\x02\x01", 2)
    with pytest.raises(ValueError, match="range"):
        decode_answer_payload(b"\x01\x05", 2)


def test_error_payload_round_trip():
    frame = error_frame(ERR_BAD_QUERY, "nope")
    assert frame.kind == KIND_ERROR
    assert decode_error_payload(frame.payload) == (ERR_BAD_QUERY, "nope")


# ---------------------------------------------------------------- pure protocol step


def _setup_frame(code, msgs):
    return Frame(KIND_SETUP, encode_setup_payload(code, msgs))


CODE22 = make_nary(2, 2)
MSGS22 = MessageSet.from_values(((1,), (0,)), 2)


def test_handle_frame_setup_then_query():
    state = ServerState(1)
    assert state.phase == AWAITING_SETUP
    state, reply = handle_frame(state, _setup_frame(CODE22, MSGS22))
    assert state.phase == SERVING
    assert (reply.kind, reply.payload) == (KIND_ANSWER, b"\x00")

    q = query_vector(CODE22, 1, 0, RandomKey((0,), 2))
    state, reply = handle_frame(state, Frame(KIND_QUERY, bytes(q.digits)))
    assert reply.kind == KIND_ANSWER
    expected = answer(CODE22, 1, q, MSGS22)
    assert decode_answer_payload(reply.payload, 2) == expected


def test_handle_frame_is_pure():
    state = ServerState(0)
    frame = _setup_frame(CODE22, MSGS22)
    first = handle_frame(state, frame)
    second = handle_frame(state, frame)
    assert first == second
    assert state.phase == AWAITING_SETUP  # input state untouched


def test_handle_frame_replay_determinism():
    q0 = query_vector(CODE22, 0, 1, RandomKey((1,), 2))
    script = [
        _setup_frame(CODE22, MSGS22),
        Frame(KIND_QUERY, bytes(q0.digits)),
        Frame(KIND_QUERY, bytes(q0.digits)),
    ]

    def run():
        state = ServerState(0)
        out = []
        for frame in script:
            state, reply = handle_frame(state, frame)
            out.append(reply)
        return out

    assert run() == run()


def test_handle_frame_query_before_setup():
    _, reply = handle_frame(ServerState(0), Frame(KIND_QUERY, b"\x00\x00"))
    assert reply.kind == KIND_ERROR
    assert decode_error_payload(reply.payload)[0] == ERR_PROTOCOL


def test_handle_frame_rejects_second_setup():
    state, _ = handle_frame(ServerState(0), _setup_frame(CODE22, MSGS22))
    state2, reply = handle_frame(state, _setup_frame(CODE22, MSGS22))
    assert state2 == state
    assert decode_error_payload(reply.payload)[0] == ERR_PROTOCOL


def test_handle_frame_rejects_bad_setup():
    _, reply = handle_frame(ServerState(0), Frame(KIND_SETUP, b"\x01"))
    assert decode_error_payload(reply.payload)[0] == ERR_BAD_SETUP
    # server index outside the announced pool
    _, reply = handle_frame(ServerState(9), _setup_frame(CODE22, MSGS22))
    assert decode_error_payload(reply.payload)[0] == ERR_BAD_SETUP


@pytest.mark.parametrize(
    "payload",
    [b"\x00", b"\x00\x00\x00", b"\x00\x07", b"\x00\x00"],
    ids=["short", "long", "digit-range", "wrong-sum"],
)
def test_handle_frame_rejects_bad_queries(payload):
    state, _ = handle_frame(ServerState(1), _setup_frame(CODE22, MSGS22))
    _, reply = handle_frame(state, Frame(KIND_QUERY, payload))
    assert reply.kind == KIND_ERROR
    assert decode_error_payload(reply.payload)[0] == ERR_BAD_QUERY


def test_handle_frame_rejects_client_side_kinds():
    state, _ = handle_frame(ServerState(0), _setup_frame(CODE22, MSGS22))
    _, reply = handle_frame(state, Frame(KIND_ANSWER, b"\x00"))
    assert decode_error_payload(reply.payload)[0] == ERR_PROTOCOL


# ---------------------------------------------------------------- live loopback


@pytest.fixture
def trio():
    code = make_nary(3, 2)
    servers = [PirServer(n).start() for n in range(3)]
    try:
        yield code, servers
    finally:
        for s in servers:
            s.stop()


def test_live_setup_and_retrieve(trio):
    code, servers = trio
    msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
    endpoints = [s.address for s in servers]
    for ep in endpoints:
        setup_endpoint(ep, code, msgs)
    for k in range(2):
        for key_digits in [(0,), (1,), (2,)]:
            key = RandomKey(key_digits, 3)
            got = client_retrieve(code, endpoints, k, key=key)
            assert got.values == msgs[k].values
            assert got == retrieve(code, msgs, k, key)


def test_live_retrieve_with_rng(trio):
    code, servers = trio
    msgs = MessageSet.from_values(((1, 1), (0, 1)), 2)
    endpoints = [s.address for s in servers]
    for ep in endpoints:
        setup_endpoint(ep, code, msgs)
    got = client_retrieve(code, endpoints, 1, rng=random.Random(5))
    assert got.values == (0, 1)


def test_live_second_setup_is_rejected(trio):
    code, servers = trio
    msgs = MessageSet.from_values(((0, 0), (0, 0)), 2)
    setup_endpoint(servers[0].address, code, msgs)
    with pytest.raises(RetrievalError, match="already set up"):
        setup_endpoint(servers[0].address, code, msgs)


def test_live_misaddressed_query_gets_error(trio):
    code, servers = trio
    msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
    setup_endpoint(servers[0].address, code, msgs)
    # digit sum 1 sent to server 0
    with socket.create_connection(servers[0].address, timeout=5.0) as sock:
        sock.sendall(encode_frame(Frame(KIND_QUERY, b"\x01\x00")))
        reply = read_frame(sock.makefile("rb"))
    assert reply.kind == KIND_ERROR
    err, text = decode_error_payload(reply.payload)
    assert err == ERR_BAD_QUERY
    assert "server" in text


def test_client_retrieve_validates_inputs(trio):
    code, servers = trio
    endpoints = [s.address for s in servers]
    with pytest.raises(ValueError, match="endpoints"):
        client_retrieve(code, endpoints[:2], 0, key=RandomKey((0,), 3))
    with pytest.raises(ValueError, match="key or an rng"):
        client_retrieve(code, endpoints, 0)


def test_client_retrieve_fails_cleanly_on_dead_endpoint():
    code = make_nary(2, 2)
    # bind-and-release to get a port nothing listens on
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead = probe.getsockname()
    probe.close()
    with pytest.raises(RetrievalError):
        client_retrieve(code, [dead, dead], 0, key=RandomKey((0,), 2))


def test_query_to_unconfigured_server_is_protocol_error():
    server = PirServer(0).start()
    try:
        code = make_nary(2, 2)
        with pytest.raises(RetrievalError, match="QUERY before SETUP"):
            client_retrieve(
                code,
                [server.address, server.address],
                0,
                key=RandomKey((0,), 2),
            )
    finally:
        server.stop()


def test_live_oversize_header_is_refused_without_allocation(trio):
    code, servers = trio
    tracemalloc.start()
    try:
        with socket.create_connection(servers[0].address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">IB", 2**32 - 1, KIND_SETUP))
            reply = read_frame(sock.makefile("rb"))
            assert sock.recv(1) == b""  # the server closed the connection
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert reply is None or (
        reply.kind == KIND_ERROR and decode_error_payload(reply.payload)[0] == ERR_PROTOCOL
    )
    # the server is unharmed and still serves a normal retrieval
    msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
    endpoints = [s.address for s in servers]
    for ep in endpoints:
        setup_endpoint(ep, code, msgs)
    assert client_retrieve(code, endpoints, 1, key=RandomKey((2,), 3)).values == (0, 1)


def test_client_refuses_oversize_reply():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)

    def reply_oversize():
        conn, _ = listener.accept()
        with conn:
            conn.recv(64)
            conn.sendall(struct.pack(">IB", 2**32 - 1, KIND_ANSWER))

    thread = threading.Thread(target=reply_oversize, daemon=True)
    thread.start()
    try:
        code = make_nary(2, 2)
        msgs = MessageSet.from_values(((1,), (0,)), 2)
        with pytest.raises(RetrievalError, match="limit"):
            setup_endpoint(listener.getsockname(), code, msgs)
    finally:
        thread.join(timeout=5.0)
        listener.close()
    assert not thread.is_alive()
