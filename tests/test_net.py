"""Framing, the pure protocol step, and live loopback round trips."""

import gc
import io
import itertools
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import nary, net

from pirlab.groups import MessageSet, RandomKey
from pirlab.nary import answer, make_nary, query_vector, retrieve
from pirlab.net import (
    ERR_BAD_QUERY,
    ERR_BAD_SETUP,
    ERR_PROTOCOL,
    KIND_ANSWER,
    KIND_ERROR,
    KIND_QUERY,
    KIND_SETUP,
    MAX_PAYLOAD,
    Frame,
    FrameError,
    PirServer,
    ProtocolError,
    RetrievalError,
    ServerState,
    client_retrieve,
    decode_answer_payload,
    decode_error_payload,
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
    assert read_frame(io.BytesIO(encode_frame(frame))) == frame


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
    got_code, got_rows = decode_setup_payload(encode_setup_payload(code, msgs))
    assert got_code == code
    assert all(type(row) is bytes for row in got_rows)
    assert tuple(tuple(row) for row in got_rows) == msgs.values


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
    data = encode_answer_payload(())
    assert data == b"\x00"
    assert decode_answer_payload(data, 2) == ()


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
    assert state.code is None
    state, reply = handle_frame(state, _setup_frame(CODE22, MSGS22))
    assert state.code == CODE22
    assert (reply.kind, reply.payload) == (KIND_ANSWER, b"\x00")

    q = query_vector(CODE22, 1, 0, RandomKey((0,), 2))
    state, reply = handle_frame(state, Frame(KIND_QUERY, bytes(q)))
    assert reply.kind == KIND_ANSWER
    expected = answer(CODE22, 1, q, MSGS22)
    assert decode_answer_payload(reply.payload, 2) == expected


def test_handle_frame_is_pure():
    state = ServerState(0)
    frame = _setup_frame(CODE22, MSGS22)
    first = handle_frame(state, frame)
    second = handle_frame(state, frame)
    assert first == second
    assert state.code is None  # input state untouched


def test_handle_frame_replay_determinism():
    q0 = query_vector(CODE22, 0, 1, RandomKey((1,), 2))
    script = [
        _setup_frame(CODE22, MSGS22),
        Frame(KIND_QUERY, bytes(q0)),
        Frame(KIND_QUERY, bytes(q0)),
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


# ---------------------------------------------------------------- integer server vs nary.answer


def _reference_reply(code, msgs, server, digits):
    """The reply to QUERY `digits` at `server`, from the reference arithmetic
    `nary.answer` and the server's error texts."""
    N, K = code.n_servers, code.n_messages
    if len(digits) != K:
        return error_frame(ERR_BAD_QUERY, f"query carries {len(digits)} digits, expected {K}")
    if any(d >= N for d in digits):
        return error_frame(ERR_BAD_QUERY, "query digit out of range")
    if sum(digits) % N != server:
        return error_frame(
            ERR_BAD_QUERY,
            f"digit sum addresses server {sum(digits) % N}, this is server {server}",
        )
    ans = answer(code, server, tuple(digits), msgs)
    return Frame(KIND_ANSWER, encode_answer_payload(ans))


@pytest.mark.parametrize("m", [2, 5, 256])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_integer_server_matches_reference_answer_exhaustively(N, K, m):
    code = make_nary(N, K, m)
    rng = random.Random(100 * N + 10 * K + m)
    databases = [
        [[rng.randrange(m) for _ in range(N - 1)] for _ in range(K)],
        [[m - 1] * (N - 1)] * K,  # every sum wraps around the modulus
    ]
    for rows in databases:
        msgs = MessageSet.from_values(rows, m)
        setup = _setup_frame(code, msgs)
        for server in range(N):
            state, _ = handle_frame(ServerState(server), setup)
            # every digit vector over 0..N (N is out of range), one digit short,
            # exact and one digit long
            for length in (K - 1, K, K + 1):
                for digits in itertools.product(range(N + 1), repeat=length):
                    _, reply = handle_frame(state, Frame(KIND_QUERY, bytes(digits)))
                    assert reply == _reference_reply(code, msgs, server, digits), digits


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_server_matches_reference_answer_at_large_k(data):
    N = data.draw(st.integers(2, 6), label="N")
    K = data.draw(st.integers(1, 300), label="K")
    m = data.draw(st.integers(2, 256), label="m")
    body = data.draw(st.binary(min_size=K * (N - 1), max_size=K * (N - 1)), label="body")
    digits = tuple(
        d % N for d in data.draw(st.binary(min_size=K, max_size=K), label="digits")
    )
    code = make_nary(N, K, m)
    rows = [[v % m for v in body[k * (N - 1) : (k + 1) * (N - 1)]] for k in range(K)]
    msgs = MessageSet.from_values(rows, m)
    setup = _setup_frame(code, msgs)
    for server in {sum(digits) % N, data.draw(st.integers(0, N - 1), label="server")}:
        state, _ = handle_frame(ServerState(server), setup)
        _, reply = handle_frame(state, Frame(KIND_QUERY, bytes(digits)))
        assert reply == _reference_reply(code, msgs, server, digits)


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


def test_client_retrieve_reads_nary_reconstruct_at_call_time(trio, monkeypatch):
    # a tracer patches `nary.reconstruct` after `net` is imported; the client
    # must decode through the patched name
    code, servers = trio
    msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
    endpoints = [s.address for s in servers]
    for ep in endpoints:
        setup_endpoint(ep, code, msgs)
    calls = []
    original = nary.reconstruct

    def spy(code, answers, k, key):
        calls.append(k)
        return original(code, answers, k, key)

    monkeypatch.setattr(nary, "reconstruct", spy)
    assert client_retrieve(code, endpoints, 1, RandomKey((2,), 3)).values == msgs[1].values
    assert calls == [1]


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
    with pytest.raises(ValueError, match="key shape"):
        client_retrieve(code, endpoints, 0, key=RandomKey((0, 0), 3))


def _dead_endpoint():
    # bind-and-release to get a port nothing listens on
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()


def test_client_retrieve_fails_cleanly_on_dead_endpoint():
    code = make_nary(2, 2)
    dead = _dead_endpoint()
    with pytest.raises(RetrievalError):
        client_retrieve(code, [dead, dead], 0, key=RandomKey((0,), 2))


def test_failed_retrieval_leaves_no_socket_open(monkeypatch):
    # the first endpoint takes the connection and the QUERY; the second is dead
    listener = socket.create_server(("127.0.0.1", 0))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            try:
                client_retrieve(
                    make_nary(2, 2),
                    [listener.getsockname(), _dead_endpoint()],
                    0,
                    key=RandomKey((0,), 2),
                )
            except RetrievalError:
                pass
            else:
                pytest.fail("a retrieval with a dead endpoint succeeded")
            gc.collect()  # an unclosed socket warns when it is collected
    finally:
        listener.close()
    assert [u.exc_value for u in unraisable] == []


@pytest.mark.parametrize(
    "key_digit,payloads",
    [
        (1, [b"\x01\x00", b"\x00"]),  # server 1 owes one symbol and sends none
        (1, [b"\x01\x00", b"\x02\x00\x01"]),  # server 1 sends two symbols
        (0, [b"\x01\x01", b"\x01\x00"]),  # server 0's all-zero query owes none
    ],
    ids=["empty", "two-symbols", "symbol-for-all-zero"],
)
def test_wrong_answer_length_fails_the_retrieval(key_digit, payloads, monkeypatch):
    # each endpoint takes the QUERY and replies with a well-formed ANSWER
    # carrying the given payload
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in payloads]

    def reply(listener, payload):
        listener.settimeout(5.0)
        conn, _ = listener.accept()
        with conn:
            conn.recv(64)
            try:
                conn.sendall(encode_frame(Frame(KIND_ANSWER, payload)))
                conn.recv(64)  # hold the connection until the client closes it
            except ConnectionError:  # the client may give up before this reply
                pass

    threads = [
        threading.Thread(target=reply, args=pair, daemon=True)
        for pair in zip(listeners, payloads)
    ]
    for thread in threads:
        thread.start()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(RetrievalError, match="query demands"):
                client_retrieve(
                    make_nary(2, 2),
                    [listener.getsockname() for listener in listeners],
                    0,
                    key=RandomKey((key_digit,), 2),
                )
            gc.collect()  # an unclosed socket warns when it is collected
    finally:
        for thread in threads:
            thread.join(timeout=5.0)
        for listener in listeners:
            listener.close()
    assert not any(thread.is_alive() for thread in threads)
    assert [u.exc_value for u in unraisable] == []


@pytest.mark.parametrize("first_reply_after", [None, 0.9], ids=["silent", "slow-then-silent"])
def test_client_deadline_bounds_the_whole_retrieval(first_reply_after):
    # two endpoints that take the connection; the second never replies, the
    # first never does either or sends its (empty) answer after a delay
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
    listeners[0].settimeout(5.0)

    def reply_late():
        conn, _ = listeners[0].accept()
        with conn:
            conn.recv(64)
            time.sleep(first_reply_after)
            conn.sendall(encode_frame(Frame(KIND_ANSWER, b"\x00")))
            conn.recv(64)  # hold the connection until the client closes it

    thread = threading.Thread(target=reply_late, daemon=True)
    if first_reply_after is not None:
        thread.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(RetrievalError, match="timed out"):
            client_retrieve(
                make_nary(2, 2),
                [listener.getsockname() for listener in listeners],
                0,
                key=RandomKey((0,), 2),  # server 0 gets the all-zero query
                timeout=1.0,
            )
        elapsed = time.monotonic() - t0
    finally:
        if thread.is_alive():
            thread.join(timeout=5.0)
        for listener in listeners:
            listener.close()
    assert not thread.is_alive()
    # one deadline for the retrieval (about 1.0 s), not one timeout per read
    # (about 1.9 s when the first reply comes at 0.9 s)
    assert 0.9 <= elapsed < 1.6


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


def test_stop_returns_on_a_server_that_was_never_started():
    server = PirServer(0)
    host, port = server.address
    # on a daemon thread, so a stop that hangs fails here instead of hanging the suite
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=1.0)
    assert not stopper.is_alive()
    with socket.create_server((host, port)):  # the port is free again
        pass


def test_stop_ends_a_blocking_serve_forever_loop():
    server = PirServer(0)
    serving = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    serving.start()
    # a reply proves the loop runs
    with pytest.raises(RetrievalError, match="QUERY before SETUP"):
        client_retrieve(make_nary(2, 2), [server.address] * 2, 0, key=RandomKey((0,), 2))
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=1.0)
    serving.join(timeout=1.0)
    assert not stopper.is_alive() and not serving.is_alive()


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


def test_concurrent_setups_install_exactly_once():
    code = make_nary(2, 2)
    msgs = MessageSet.from_values(((1,), (0,)), 2)
    setup = encode_frame(_setup_frame(code, msgs))
    servers = [PirServer(n).start() for n in range(2)]
    try:
        barrier = threading.Barrier(8)
        replies = [None] * 8

        def race(i):
            with socket.create_connection(servers[0].address, timeout=5.0) as sock:
                barrier.wait(timeout=5.0)
                sock.sendall(setup)
                with sock.makefile("rb") as rfile:
                    replies[i] = read_frame(rfile)

        threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [r.kind for r in replies].count(KIND_ANSWER) == 1
        assert [r.payload for r in replies if r.kind == KIND_ANSWER] == [b"\x00"]
        errors = [decode_error_payload(r.payload) for r in replies if r.kind == KIND_ERROR]
        assert errors == [(ERR_PROTOCOL, "already set up")] * 7
        setup_endpoint(servers[1].address, code, msgs)
        endpoints = [s.address for s in servers]
        for k in range(2):
            got = client_retrieve(code, endpoints, k, key=RandomKey((1,), 2))
            assert got.values == msgs[k].values
    finally:
        for s in servers:
            s.stop()


def test_idle_connection_is_closed_quietly(monkeypatch, capfd):
    monkeypatch.setattr(net._Handler, "timeout", 0.2)
    code = make_nary(3, 2)
    servers = [PirServer(n).start() for n in range(3)]
    try:
        # idle from the start, and stalled inside a frame header
        for sent in (b"", encode_frame(Frame(KIND_QUERY, b"\x00\x00"))[:3]):
            with socket.create_connection(servers[0].address, timeout=2.0) as sock:
                sock.sendall(sent)
                t0 = time.monotonic()
                assert sock.recv(1) == b""  # EOF: the server closed the connection
                assert time.monotonic() - t0 < 2.0
        msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
        endpoints = [s.address for s in servers]
        for ep in endpoints:
            setup_endpoint(ep, code, msgs)
        assert client_retrieve(code, endpoints, 1, key=RandomKey((2,), 3)).values == (0, 1)
    finally:
        for s in servers:
            s.stop()
    assert capfd.readouterr().err == ""
