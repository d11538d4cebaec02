"""Framing, the pure protocol step, and live loopback round trips."""

import contextlib
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
    buf = io.BytesIO(encode_frame(frame) * 2)
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


def test_handle_frame_rejects_a_setup_modulus_past_the_wire_limit():
    # the encoder refuses such a code first, so only a raw payload reaches this check
    payload = net._SETUP_HEAD.pack(2, 2, 1, 300) + b"\x00\x00"
    _, reply = handle_frame(ServerState(0), Frame(KIND_SETUP, payload))
    assert decode_error_payload(reply.payload) == (
        ERR_BAD_SETUP,
        "modulus 300 exceeds wire limit 256",
    )


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


# ---------------------------------------------------------------- live and scripted peers


@contextlib.contextmanager
def live_cluster(n, setup=None):
    """Servers 0..n-1, each set up with `setup = (code, msgs)` when given;
    yields them and stops every one on exit."""
    servers = []
    try:
        for index in range(n):
            servers.append(PirServer(index).start())
        if setup is not None:
            for server in servers:
                setup_endpoint(server.address, *setup)
        yield servers
    finally:
        for server in servers:
            server.stop()


UNACCEPTED = "unaccepted"  # a peer script: never accept, so the connection waits in the backlog


def _scripted(listener, reply, delay, gap):
    """Play one peer script on `listener`; see `scripted_servers`."""
    if reply is UNACCEPTED:
        return
    conn, _ = listener.accept()
    with conn:
        read_frame(net._SocketReader(conn))
        if reply is None:
            return
        try:
            time.sleep(delay)
            if gap:
                for i in range(len(reply)):
                    time.sleep(gap)
                    conn.sendall(reply[i : i + 1])
            else:
                conn.sendall(reply)
            while conn.recv(4096):  # hold the connection until the client closes it
                pass
        except OSError:  # the client gave up and closed it
            pass


@contextlib.contextmanager
def scripted_servers(*replies, delay=0.0, gap=0.0):
    """One fake server per peer script; yields their endpoints.

    A script of bytes takes one connection and reads its frame, waits `delay`
    seconds, sends the bytes (one per `gap` seconds when `gap` is set), then
    holds the connection until the client closes it, so `b""` holds it
    without replying.  `None` reads the frame and closes at once, and
    `UNACCEPTED` never accepts.
    """
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in replies]
    threads = [
        threading.Thread(target=_scripted, args=(listener, reply, delay, gap), daemon=True)
        for listener, reply in zip(listeners, replies)
    ]
    for listener, thread in zip(listeners, threads):
        listener.settimeout(5.0)
        thread.start()
    try:
        yield [listener.getsockname() for listener in listeners]
    finally:
        for thread in threads:
            thread.join(timeout=5.0)
        for listener in listeners:
            listener.close()
    assert not any(thread.is_alive() for thread in threads)


# ---------------------------------------------------------------- live loopback


@pytest.fixture
def trio():
    with live_cluster(3) as servers:
        yield make_nary(3, 2), servers


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
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with scripted_servers(UNACCEPTED) as (endpoint,), warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        try:
            client_retrieve(
                make_nary(2, 2),
                [endpoint, _dead_endpoint()],
                0,
                key=RandomKey((0,), 2),
            )
        except RetrievalError:
            pass
        else:
            pytest.fail("a retrieval with a dead endpoint succeeded")
        gc.collect()  # an unclosed socket warns when it is collected
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
    replies = [encode_frame(Frame(KIND_ANSWER, payload)) for payload in payloads]
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with scripted_servers(*replies) as endpoints, warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(RetrievalError, match="query demands"):
            client_retrieve(
                make_nary(2, 2),
                endpoints,
                0,
                key=RandomKey((key_digit,), 2),
            )
        gc.collect()  # an unclosed socket warns when it is collected
    assert [u.exc_value for u in unraisable] == []


@pytest.mark.parametrize("first_reply_after", [None, 0.9], ids=["silent", "slow-then-silent"])
def test_client_deadline_bounds_the_whole_retrieval(first_reply_after):
    # two endpoints that take the connection; the second never replies, the
    # first never does either or sends its (empty) answer after a delay
    first = UNACCEPTED if first_reply_after is None else encode_frame(Frame(KIND_ANSWER, b"\x00"))
    with scripted_servers(first, UNACCEPTED, delay=first_reply_after or 0.0) as endpoints:
        t0 = time.monotonic()
        with pytest.raises(RetrievalError, match="timed out"):
            client_retrieve(
                make_nary(2, 2),
                endpoints,
                0,
                key=RandomKey((0,), 2),  # server 0 gets the all-zero query
                timeout=1.0,
            )
        elapsed = time.monotonic() - t0
    # one deadline for the retrieval (about 1.0 s), not one timeout per read
    # (about 1.9 s when the first reply comes at 0.9 s)
    assert 0.9 <= elapsed < 1.6


def test_setup_endpoint_fails_cleanly_on_dead_endpoint(monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(RetrievalError, match="endpoint"):
            setup_endpoint(_dead_endpoint(), CODE22, MSGS22)
        gc.collect()  # an unclosed socket warns when it is collected
    assert [u.exc_value for u in unraisable] == []


def test_setup_endpoint_deadline_bounds_a_silent_server():
    # read the SETUP, never reply, wait for the close
    with scripted_servers(b"") as (endpoint,):
        t0 = time.monotonic()
        with pytest.raises(RetrievalError, match="timed out"):
            setup_endpoint(endpoint, CODE22, MSGS22, timeout=1.0)
        elapsed = time.monotonic() - t0
    assert 0.9 <= elapsed < 1.6


def test_query_to_unconfigured_server_is_protocol_error():
    with live_cluster(1) as (server,):
        code = make_nary(2, 2)
        with pytest.raises(RetrievalError, match="QUERY before SETUP"):
            client_retrieve(
                code,
                [server.address, server.address],
                0,
                key=RandomKey((0,), 2),
            )


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
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    # a reply proves the loop runs
    with pytest.raises(RetrievalError, match="QUERY before SETUP"):
        client_retrieve(make_nary(2, 2), [server.address] * 2, 0, key=RandomKey((0,), 2))
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=1.0)
    serving.join(timeout=1.0)
    assert not stopper.is_alive() and not serving.is_alive()


def _query_before_setup(sock, rfile) -> None:
    """Round-trip one QUERY, which proves a worker serves the connection."""
    sock.sendall(encode_frame(Frame(KIND_QUERY, b"\x00\x00")))
    reply = read_frame(rfile)
    assert decode_error_payload(reply.payload) == (ERR_PROTOCOL, "QUERY before SETUP")


def _count_thread_starts(monkeypatch) -> list:
    """Patch `threading.Thread.start` to record every thread it starts."""
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_stop_ends_live_connections_and_joins_every_worker():
    before = set(threading.enumerate())
    server = PirServer(0).start()
    try:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            with sock.makefile("rb") as rfile:
                _query_before_setup(sock, rfile)
                # on a daemon thread, so a stop that hangs fails here instead of hanging the suite
                stopper = threading.Thread(target=server.stop, daemon=True)
                stopper.start()
                stopper.join(timeout=2.0)
                assert not stopper.is_alive()
                assert set(threading.enumerate()) <= before
                assert sock.recv(1) == b""  # EOF: the server closed the connection
    finally:
        server.stop()


def test_a_connection_past_the_cap_is_closed_unanswered(monkeypatch):
    monkeypatch.setattr(net._WorkerTCPServer, "max_connections", 2)
    started = _count_thread_starts(monkeypatch)
    code = make_nary(2, 2)
    with live_cluster(2) as servers:
        with contextlib.ExitStack() as held:
            for _ in range(2):
                sock = held.enter_context(socket.create_connection(servers[0].address, timeout=2.0))
                _query_before_setup(sock, held.enter_context(sock.makefile("rb")))
            with socket.create_connection(servers[0].address, timeout=2.0) as third:
                t0 = time.monotonic()
                assert third.recv(1) == b""  # EOF before any frame was sent
                assert time.monotonic() - t0 < 1.0
        # the held connections are closed, so their workers take new ones
        msgs = MessageSet.from_values(((1,), (0,)), 2)
        endpoints = [s.address for s in servers]
        for ep in endpoints:
            setup_endpoint(ep, code, msgs)
        assert client_retrieve(code, endpoints, 1, key=RandomKey((1,), 2)).values == (0,)
    # two serve loops, two workers on the capped server, at most two on the other
    assert len(started) <= 6


def test_a_connection_that_finds_the_queue_full_is_closed_at_once(monkeypatch):
    monkeypatch.setattr(net._WorkerTCPServer, "max_connections", 2)
    # no late-connection rule, so the first worker is the only one
    monkeypatch.setattr(net._WorkerTCPServer, "service_actions", lambda self: None)
    server = PirServer(0).start()
    try:
        with contextlib.ExitStack() as held:
            served = held.enter_context(socket.create_connection(server.address, timeout=2.0))
            _query_before_setup(served, held.enter_context(served.makefile("rb")))
            queued = [
                held.enter_context(socket.create_connection(server.address, timeout=2.0))
                for _ in range(2)
            ]
            with socket.create_connection(server.address, timeout=2.0) as turned_away:
                t0 = time.monotonic()
                assert turned_away.recv(1) == b""  # EOF before any frame was sent
                assert time.monotonic() - t0 < 1.0
            server.stop()
            for sock in queued:
                assert sock.recv(1) == b""  # stop ends the queued connections too
    finally:
        server.stop()


def test_a_burst_of_first_connections_is_answered_without_a_handshake_retry():
    # 8 handshakes that all start before the server accepts one: a listen
    # backlog of 5 drops the extra ones, which the kernel retries after 1 s
    for _ in range(5):
        with live_cluster(1) as (server,), contextlib.ExitStack() as held:
            socks = [held.enter_context(socket.socket()) for _ in range(8)]
            t0 = time.monotonic()
            for sock in socks:
                sock.setblocking(False)
                sock.connect_ex(server.address)
            for sock in socks:
                sock.settimeout(5.0)
                _query_before_setup(sock, held.enter_context(sock.makefile("rb")))
            assert time.monotonic() - t0 < 0.5


def test_sequential_retrievals_reuse_kept_workers(monkeypatch):
    code = make_nary(3, 3)
    msgs = MessageSet.from_values(((1, 0), (0, 1), (1, 1)), 2)
    with live_cluster(3, (code, msgs)) as servers:
        endpoints = [s.address for s in servers]
        started = _count_thread_starts(monkeypatch)
        rng = random.Random(7)
        for i in range(200):
            key = RandomKey((rng.randrange(3), rng.randrange(3)), 3)
            assert client_retrieve(code, endpoints, i % 3, key).values == msgs[i % 3].values
        # a thread per connection would start 600
        assert len(started) <= len(servers)


@pytest.mark.parametrize("start_after", [0.0, 0.5], ids=["at-once", "later"])
def test_a_peer_that_never_reads_does_not_stall_the_next_retrieval(start_after, monkeypatch):
    # the peer pipelines more QUERYs than the socket buffers hold replies for,
    # half-closes and reads nothing, so its worker blocks writing until the
    # handler timeout; the next retrieval must not wait behind it
    original_setup = net._Handler.setup

    def setup(handler):
        handler.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        original_setup(handler)

    monkeypatch.setattr(net._Handler, "setup", setup)
    monkeypatch.setattr(net._Handler, "timeout", 4.0)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with live_cluster(2, (CODE22, MSGS22)) as servers, warnings.catch_warnings():
        endpoints = [s.address for s in servers]
        warnings.simplefilter("error", ResourceWarning)
        with socket.socket() as peer:
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            peer.settimeout(5.0)
            peer.connect(servers[0].address)
            peer.sendall(encode_frame(Frame(KIND_QUERY, b"\x00\x00")) * 6000)
            peer.shutdown(socket.SHUT_WR)
            time.sleep(start_after)
            t0 = time.monotonic()
            got = client_retrieve(CODE22, endpoints, 1, key=RandomKey((1,), 2))
            elapsed = time.monotonic() - t0
        gc.collect()  # an unclosed socket warns when it is collected
    assert got.values == MSGS22[1].values
    assert elapsed < 1.0
    assert [u.exc_value for u in unraisable] == []


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
    with scripted_servers(struct.pack(">IB", 2**32 - 1, KIND_ANSWER)) as (endpoint,):
        code = make_nary(2, 2)
        msgs = MessageSet.from_values(((1,), (0,)), 2)
        with pytest.raises(RetrievalError, match="limit"):
            setup_endpoint(endpoint, code, msgs)


def test_concurrent_setups_install_exactly_once():
    code = make_nary(2, 2)
    msgs = MessageSet.from_values(((1,), (0,)), 2)
    setup = encode_frame(_setup_frame(code, msgs))
    with live_cluster(2) as servers:
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


def test_idle_connection_is_closed_quietly(monkeypatch, capfd):
    monkeypatch.setattr(net._Handler, "timeout", 0.2)
    code = make_nary(3, 2)
    with live_cluster(3) as servers:
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
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------- frames read off live sockets


def test_client_deadline_bounds_every_read():
    # each reply arrives one byte per 0.3 s, so every receive returns in time
    # but the reply as a whole takes 1.8 s
    reply = encode_frame(Frame(KIND_ANSWER, b"\x00"))
    with scripted_servers(reply, reply, gap=0.3) as endpoints:
        t0 = time.monotonic()
        with pytest.raises(RetrievalError, match="timed out"):
            client_retrieve(
                make_nary(2, 2),
                endpoints,
                0,
                key=RandomKey((0,), 2),
                timeout=1.0,
            )
        elapsed = time.monotonic() - t0
    assert 0.9 <= elapsed < 1.4


def _nodelay_connection(address):
    sock = socket.create_connection(address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def test_a_query_sent_one_byte_per_send_is_answered(trio):
    code, servers = trio
    msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
    setup_endpoint(servers[1].address, code, msgs)
    q = query_vector(code, 1, 1, RandomKey((2,), 3))
    data = encode_frame(Frame(KIND_QUERY, bytes(q)))
    with _nodelay_connection(servers[1].address) as sock, sock.makefile("rb") as rfile:
        for i in range(len(data)):
            sock.sendall(data[i : i + 1])
            time.sleep(0.002)
        reply = read_frame(rfile)
    assert reply == Frame(KIND_ANSWER, encode_answer_payload(answer(code, 1, q, msgs)))


@pytest.mark.parametrize(
    "cut,text",
    [(3, "stream ended inside a frame header"), (6, "stream ended inside a frame payload")],
    ids=["mid-header", "mid-payload"],
)
def test_a_peer_that_closes_inside_a_frame_gets_an_error_and_a_close(trio, cut, text):
    _, servers = trio
    with _nodelay_connection(servers[0].address) as sock, sock.makefile("rb") as rfile:
        sock.sendall(encode_frame(Frame(KIND_QUERY, b"\x00\x00"))[:cut])
        sock.shutdown(socket.SHUT_WR)
        reply = read_frame(rfile)
        assert read_frame(rfile) is None  # then the server closed the connection
    assert decode_error_payload(reply.payload) == (ERR_PROTOCOL, text)


def test_pipelined_queries_are_answered_in_order():
    code = make_nary(3, 3)
    msgs = MessageSet.from_values(((1, 0), (0, 1), (1, 1)), 2)
    rng = random.Random(11)
    # every third digit vector is another server's, so ANSWERs and ERRORs interleave
    queries = [bytes(rng.randrange(3) for _ in range(3)) for _ in range(50)]
    state, _ = handle_frame(ServerState(2), _setup_frame(code, msgs))
    expected = [handle_frame(state, Frame(KIND_QUERY, q))[1] for q in queries]
    assert {reply.kind for reply in expected} == {KIND_ANSWER, KIND_ERROR}
    server = PirServer(2).start()
    try:
        setup_endpoint(server.address, code, msgs)
        with _nodelay_connection(server.address) as sock, sock.makefile("rb") as rfile:
            sock.sendall(b"".join(encode_frame(Frame(KIND_QUERY, q)) for q in queries))
            replies = [read_frame(rfile) for _ in queries]
    finally:
        server.stop()
    assert replies == expected


def test_a_wide_setup_split_across_many_sends_is_read_whole():
    code = make_nary(3, 1000, 256)
    rng = random.Random(3)
    msgs = MessageSet.from_values([[rng.randrange(256) for _ in range(2)] for _ in range(1000)], 256)
    data = encode_frame(_setup_frame(code, msgs))
    with live_cluster(3) as servers:
        with _nodelay_connection(servers[0].address) as sock, sock.makefile("rb") as rfile:
            for i in range(0, len(data), 97):
                sock.sendall(data[i : i + 97])
                if i % (97 * 8) == 0:
                    time.sleep(0.001)
            assert read_frame(rfile) == Frame(KIND_ANSWER, b"\x00")
        for server in servers[1:]:
            setup_endpoint(server.address, code, msgs)
        endpoints = [s.address for s in servers]
        for k in (0, 517, 999):
            key = RandomKey(tuple(rng.randrange(3) for _ in range(999)), 3)
            assert client_retrieve(code, endpoints, k, key).values == msgs[k].values


def test_no_retrieval_or_setup_makes_a_file_object_of_a_socket(monkeypatch):
    def makefile(sock, *args, **kwargs):
        raise AssertionError("socket.makefile called")

    monkeypatch.setattr(socket.socket, "makefile", makefile)
    code = make_nary(3, 3)
    msgs = MessageSet.from_values(((1, 0), (0, 1), (1, 1)), 2)
    with live_cluster(3, (code, msgs)) as servers:
        endpoints = [s.address for s in servers]
        for k in range(3):
            assert client_retrieve(code, endpoints, k, RandomKey((2, 1), 3)).values == msgs[k].values


class _Sent(Exception):
    pass


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 2), (4, 3, 3), (3, 1, 2)])
def test_client_queries_are_the_query_vectors(shape, monkeypatch):
    code = make_nary(*shape)
    sent = []

    def exchange(endpoints, frames, timeout, check):
        sent.append(frames)
        raise _Sent

    monkeypatch.setattr(net, "_exchange", exchange)
    endpoints = [("127.0.0.1", 1)] * code.n_servers
    for key in nary.key_space(code):
        for k in range(code.n_messages):
            with pytest.raises(_Sent):
                client_retrieve(code, endpoints, k, key)
            assert sent.pop() == [
                Frame(KIND_QUERY, bytes(query_vector(code, n, k, key)))
                for n in range(code.n_servers)
            ]


# ---------------------------------------------------------------- peer input the client refuses


def test_a_frame_of_unknown_kind_gets_an_error_and_a_close(trio):
    _, servers = trio
    with _nodelay_connection(servers[0].address) as sock, sock.makefile("rb") as rfile:
        sock.sendall(struct.pack(">IB", 0, 0x09))
        reply = read_frame(rfile)
        assert read_frame(rfile) is None  # then the server closed the connection
    assert decode_error_payload(reply.payload) == (ERR_PROTOCOL, "unknown frame kind 0x9")


# an ERROR frame too short to hold its error code
EMPTY_ERROR = struct.pack(">IB", 0, KIND_ERROR)


@pytest.mark.parametrize(
    "call,reply,text",
    [
        ("setup", EMPTY_ERROR, "SETUP rejected: empty ERROR payload"),
        ("retrieve", EMPTY_ERROR, "server 0 replied error: empty ERROR payload"),
        ("setup", encode_frame(Frame(KIND_QUERY, b"")), "unexpected SETUP reply kind 0x2"),
        (
            "setup",
            encode_frame(Frame(KIND_ANSWER, b"")),
            "SETUP acknowledged with ANSWER b'', expected b'\\x00'",
        ),
        (
            "setup",
            encode_frame(Frame(KIND_ANSWER, b"\x05")),
            "SETUP acknowledged with ANSWER b'\\x05', expected b'\\x00'",
        ),
        (
            "setup",
            encode_frame(Frame(KIND_ANSWER, b"\x01\x07")),
            "SETUP acknowledged with ANSWER b'\\x01\\x07', expected b'\\x00'",
        ),
        ("retrieve", encode_frame(Frame(KIND_SETUP, b"")), "server 0 sent frame kind 0x1"),
        (
            "retrieve",
            encode_frame(Frame(KIND_ANSWER, b"\x02\x00")),
            "server 0 sent a malformed answer: ANSWER says 2 symbols but carries 1",
        ),
        (
            "retrieve",
            encode_frame(Frame(KIND_ANSWER, b"\x01\x02")),
            "server 0 sent a malformed answer: ANSWER symbol out of range",
        ),
        ("retrieve", struct.pack(">IB", 0, 0x09), "endpoint {host}:{port}: unknown frame kind 0x9"),
        ("retrieve", None, "endpoint {host}:{port} closed the connection"),
    ],
    ids=[
        "setup-empty-error",
        "query-empty-error",
        "setup-wrong-kind",
        "setup-ack-empty",
        "setup-ack-bad-count",
        "setup-ack-a-symbol",
        "query-wrong-kind",
        "answer-count-mismatch",
        "answer-symbol-past-m",
        "unknown-kind",
        "closed-after-query",
    ],
)
def test_a_bad_reply_fails_the_call_with_a_retrieval_error(call, reply, text):
    if call == "setup":
        with scripted_servers(reply) as (endpoint,):
            with pytest.raises(RetrievalError) as exc:
                setup_endpoint(endpoint, CODE22, MSGS22)
    else:
        # server 0 gets the all-zero query; server 1's well-formed answer is never read
        with scripted_servers(reply, encode_frame(Frame(KIND_ANSWER, b"\x01\x00"))) as endpoints:
            with pytest.raises(RetrievalError) as exc:
                client_retrieve(CODE22, endpoints, 0, key=RandomKey((0,), 2))
        endpoint = endpoints[0]
    assert str(exc.value) == text.format(host=endpoint[0], port=endpoint[1])
