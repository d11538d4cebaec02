"""Loopback wire protocol for the digit-vector code.

Frame layout (all integers big-endian):

    4 bytes  payload length
    1 byte   kind: 0x01 SETUP, 0x02 QUERY, 0x03 ANSWER, 0x04 ERROR
    payload

SETUP   1B n_servers, 2B n_messages, 4B msg_len, 2B modulus, then
        n_messages * msg_len message symbols, one byte each, row-major.
QUERY   n_messages digit bytes; digit sum mod N must equal the server index.
ANSWER  1B symbol count, then that many symbol bytes.  Also acknowledges a
        SETUP (with count 0).
ERROR   1B error code, then UTF-8 text.

One-byte symbols and digits bound the supported shapes: modulus <= 256,
n_servers <= 255, n_messages <= 65535.  A server is a pure function of the
frames it has seen: SETUP installs the replicated database exactly once
(second SETUPs are errors), QUERYs are answered read-only, so connections
may be interleaved or replayed freely.  The server keeps the database as one
`bytes` row per message, each padded with the zero dummy, and answers a QUERY
with one integer sum of the symbols its digits select.

Both ends read frames straight off the socket and send each with one
`sendall`, with no file objects; each client receive waits at most the time
left to its deadline.  A retrieval encodes one query, server 0's, and
changes digit k for each other server (`query_vector`).
"""

from __future__ import annotations

import operator
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  unused; perfbench/tracing.py patches it here
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from . import nary
from .groups import Message, MessageSet, RandomKey
from .nary import answer  # noqa: F401  unused; perfbench/tracing.py patches it here
from .nary import NaryCode, make_nary, query_vector

KIND_SETUP = 0x01
KIND_QUERY = 0x02
KIND_ANSWER = 0x03
KIND_ERROR = 0x04
_KINDS = (KIND_SETUP, KIND_QUERY, KIND_ANSWER, KIND_ERROR)

ERR_PROTOCOL = 1  # unreadable frame, or QUERY before SETUP, or repeated SETUP
ERR_BAD_SETUP = 2  # malformed or unsupported SETUP payload
ERR_BAD_QUERY = 3  # malformed digits or wrong digit sum

WIRE_MAX_MODULUS = 256
WIRE_MAX_SERVERS = 255
WIRE_MAX_MESSAGES = 65535

_HEADER = struct.Struct(">IB")
_SETUP_HEAD = struct.Struct(">BHIH")
# The largest legal frame: a SETUP at the wire limits, with L = N-1 symbols.
MAX_PAYLOAD = _SETUP_HEAD.size + WIRE_MAX_MESSAGES * (WIRE_MAX_SERVERS - 1)
_BYTE_VALUES = bytes(range(256))


class FrameError(ValueError):
    """Bytes do not form a valid frame."""


class ProtocolError(Exception):
    """A peer broke the frame protocol."""


class RetrievalError(Exception):
    """A retrieval could not be completed; no partial result is returned."""


@dataclass(frozen=True)
class Frame:
    kind: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FrameError(f"unknown frame kind {self.kind:#x}")
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError("payload too large")


def encode_frame(frame: Frame) -> bytes:
    return _HEADER.pack(len(frame.payload), frame.kind) + frame.payload


def read_frame(rfile) -> Optional[Frame]:
    """Read one frame from a binary stream; None on clean EOF."""
    header = rfile.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError("stream ended inside a frame header")
    length, kind = _HEADER.unpack(header)
    if length > MAX_PAYLOAD:  # checked before the read reserves `length` bytes
        raise ProtocolError(f"frame claims {length} payload bytes, limit is {MAX_PAYLOAD}")
    payload = rfile.read(length) if length else b""
    if len(payload) != length:
        raise ProtocolError("stream ended inside a frame payload")
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind:#x}")
    return Frame(kind, payload)


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _SocketReader:
    """`read(n)` off a socket for `read_frame`: n bytes, or fewer only at end of
    stream; with a deadline, each receive waits at most the time left."""

    def __init__(self, sock: socket.socket, deadline: Optional[float] = None):
        self._sock, self._deadline = sock, deadline

    def _ready(self) -> socket.socket:
        if self._deadline is not None:
            self._sock.settimeout(_time_left(self._deadline))
        return self._sock

    def read(self, n: int) -> bytes:
        data = self._ready().recv(n)
        if len(data) == n or not data:  # the common case: it had all arrived
            return data
        view = memoryview(bytearray(n))  # the rest goes into one buffer of n bytes
        got = len(data)
        view[:got] = data
        while got < n and (count := self._ready().recv_into(view[got:])):
            got += count
        return bytes(view[:got])


def check_wire_limits(code: NaryCode) -> None:
    """Raise ValueError if the code's shape does not fit the one-byte fields."""
    p = code.params
    if p.msg_modulus > WIRE_MAX_MODULUS:
        raise ValueError(f"modulus {p.msg_modulus} exceeds wire limit {WIRE_MAX_MODULUS}")
    if p.n_servers > WIRE_MAX_SERVERS:
        raise ValueError(f"{p.n_servers} servers exceed wire limit {WIRE_MAX_SERVERS}")
    if p.n_messages > WIRE_MAX_MESSAGES:
        raise ValueError(f"{p.n_messages} messages exceed wire limit {WIRE_MAX_MESSAGES}")


def encode_setup_payload(code: NaryCode, msgs: MessageSet) -> bytes:
    check_wire_limits(code)
    p = code.params
    msgs.check_shape(p)
    body = bytes(v for row in msgs.values for v in row)
    return _SETUP_HEAD.pack(p.n_servers, p.n_messages, p.msg_len, p.msg_modulus) + body


def decode_setup_payload(payload: bytes) -> tuple[NaryCode, tuple[bytes, ...]]:
    """Validate a SETUP payload; returns the code and one `bytes` row per message."""
    if len(payload) < _SETUP_HEAD.size:
        raise ValueError("SETUP payload truncated")
    n_servers, n_messages, msg_len, modulus = _SETUP_HEAD.unpack_from(payload)
    body = payload[_SETUP_HEAD.size :]
    if msg_len != max(n_servers - 1, 0):
        raise ValueError(f"message length {msg_len} does not equal n_servers-1")
    if modulus > WIRE_MAX_MODULUS:
        raise ValueError(f"modulus {modulus} exceeds wire limit {WIRE_MAX_MODULUS}")
    code = make_nary(n_servers, n_messages, modulus)  # validates shape
    if len(body) != n_messages * msg_len:
        raise ValueError(
            f"SETUP carries {len(body)} symbols, expected {n_messages * msg_len}"
        )
    if body.translate(None, _BYTE_VALUES[:modulus]):  # a symbol >= m is left
        raise ValueError("SETUP symbol out of range")
    rows = tuple(body[k * msg_len : (k + 1) * msg_len] for k in range(n_messages))
    return code, rows


def encode_answer_payload(ans: tuple[int, ...]) -> bytes:
    if len(ans) > 255:
        raise ValueError("answers longer than 255 symbols do not fit the wire")
    return bytes([len(ans), *ans])


def decode_answer_payload(payload: bytes, modulus: int) -> tuple[int, ...]:
    if not payload:
        raise ValueError("empty ANSWER payload")
    count = payload[0]
    if len(payload) != 1 + count:
        raise ValueError(
            f"ANSWER says {count} symbols but carries {len(payload) - 1}"
        )
    symbols = payload[1:]
    if any(v >= modulus for v in symbols):
        raise ValueError("ANSWER symbol out of range")
    return tuple(symbols)


def error_frame(code: int, text: str) -> Frame:
    return Frame(KIND_ERROR, bytes([code]) + text.encode("utf-8"))


def decode_error_payload(payload: bytes) -> tuple[int, str]:
    if not payload:
        raise ValueError("empty ERROR payload")
    return payload[0], payload[1:].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# server


@dataclass(frozen=True)
class ServerState:
    """Everything a server knows; `handle_frame` is pure over this.

    The server is set up exactly when `code` is not None.  `rows[k]` is
    message k padded with the zero dummy, so `rows[k][d]` is the symbol
    digit d selects.
    """

    server_index: int
    code: Optional[NaryCode] = None
    rows: tuple[bytes, ...] = ()


def handle_frame(state: ServerState, frame: Frame) -> tuple[ServerState, Frame]:
    """One protocol step: next state plus the reply frame."""
    if frame.kind == KIND_SETUP:
        if state.code is not None:
            return state, error_frame(ERR_PROTOCOL, "already set up")
        try:
            code, rows = decode_setup_payload(frame.payload)
        except ValueError as exc:
            return state, error_frame(ERR_BAD_SETUP, str(exc))
        if state.server_index >= code.n_servers:
            return state, error_frame(
                ERR_BAD_SETUP,
                f"server index {state.server_index} outside 0..{code.n_servers - 1}",
            )
        padded = tuple(b"\x00" + row for row in rows)
        new = replace(state, code=code, rows=padded)
        return new, Frame(KIND_ANSWER, b"\x00")
    if frame.kind == KIND_QUERY:
        code = state.code
        if code is None:
            return state, error_frame(ERR_PROTOCOL, "QUERY before SETUP")
        digits = frame.payload
        if len(digits) != code.n_messages:
            return state, error_frame(
                ERR_BAD_QUERY,
                f"query carries {len(digits)} digits, expected {code.n_messages}",
            )
        if digits.translate(None, _BYTE_VALUES[: code.n_servers]):  # a digit >= N is left
            return state, error_frame(ERR_BAD_QUERY, "query digit out of range")
        total = sum(digits)
        addressed = total % code.n_servers
        if addressed != state.server_index:
            return state, error_frame(
                ERR_BAD_QUERY,
                f"digit sum addresses server {addressed}, this is server {state.server_index}",
            )
        if not total:  # the all-zero query, which only server 0 accepts
            return state, Frame(KIND_ANSWER, encode_answer_payload(()))
        value = sum(map(operator.getitem, state.rows, digits)) % code.modulus
        return state, Frame(KIND_ANSWER, encode_answer_payload((value,)))
    # SETUP/QUERY are the only requests; ANSWER/ERROR from a client are nonsense
    return state, error_frame(ERR_PROTOCOL, f"unexpected frame kind {frame.kind:#x}")


class _Handler(socketserver.BaseRequestHandler):
    # seconds a connection may sit idle (or stall inside a frame) before the
    # server closes it
    timeout = 60.0

    def setup(self) -> None:
        self.request.settimeout(self.timeout)

    def handle(self) -> None:
        server: "PirServer" = self.server.pir_server  # type: ignore[attr-defined]
        reader = _SocketReader(self.request)
        while True:
            try:
                frame = read_frame(reader)
            except ProtocolError as exc:
                self._write(error_frame(ERR_PROTOCOL, str(exc)))
                return
            except OSError:  # idle timeout or a reset peer: close quietly
                return
            if frame is None:
                return
            if frame.kind == KIND_SETUP:
                with server._lock:
                    server._state, reply = handle_frame(server._state, frame)
            else:
                # state is immutable once set up, and only SETUP replaces it
                _, reply = handle_frame(server._state, frame)
            if not self._write(reply):
                return

    def _write(self, frame: Frame) -> bool:
        try:
            self.request.sendall(encode_frame(frame))
        except OSError:
            return False
        return True


# seconds between serve-loop ticks; a connection still queued one tick after
# it arrived gets a new worker
_POLL_INTERVAL = 0.05


class _WorkerTCPServer(socketserver.TCPServer):
    """Serves each connection on a kept worker thread.

    Accepted connections wait in one FIFO queue, and a worker that finishes
    a connection takes the oldest, so a connection costs a queue hand-off,
    not a thread start.  A worker starts at once only when the server has
    none; a connection still queued `_POLL_INTERVAL` after it arrived gets a
    new worker, up to `max_connections`, or past that cap is closed
    unanswered, as is one that finds `max_connections` already queued.  The
    cap bounds the threads a peer can hold, and the frame memory they buffer
    to about `max_connections * MAX_PAYLOAD`.
    """

    allow_reuse_address = True
    max_connections = 16
    request_queue_size = max_connections  # a backlog of 5 drops a burst's handshakes for 1 s

    def __init__(self, server_address, handler_class):
        super().__init__(server_address, handler_class)
        self._ready = threading.Condition()
        self._queued: deque = deque()  # (request, client_address, arrival), oldest first
        self._served: set[socket.socket] = set()
        self._workers: list[threading.Thread] = []
        self._idle = 0  # workers waiting for a connection
        self._closed = False

    def process_request(self, request, client_address) -> None:
        with self._ready:
            full = len(self._queued) >= self.max_connections
            if not full:
                self._queued.append((request, client_address, time.monotonic()))
                self._ready.notify()
        if full:
            self.shutdown_request(request)
        elif not self._workers:
            self._start_worker()

    def service_actions(self) -> None:
        """Give each connection queued a tick ago a new worker, or past the cap close it."""
        arrived_by = time.monotonic() - _POLL_INTERVAL
        try:  # a lock-free peek first, since this runs after every accept
            if self._queued[0][2] > arrived_by:  # the oldest is not late yet
                return
        except IndexError:  # nothing queued, or a worker just took the last one
            return
        with self._ready:
            late = sum(arrival <= arrived_by for *_, arrival in self._queued)
            unserved = late - self._idle  # each idle worker takes one
            new = max(0, min(unserved, self.max_connections - len(self._workers)))
            for _ in range(unserved - new):  # past the cap
                self.shutdown_request(self._queued.popleft()[0])
        for _ in range(new):
            self._start_worker()

    def _start_worker(self) -> None:
        # only the serve loop starts workers, so `_workers` needs no lock
        worker = threading.Thread(target=self._work, daemon=True)
        worker.start()
        self._workers.append(worker)

    def _work(self) -> None:
        request = None
        while True:
            with self._ready:
                if request is not None:  # under the lock, so server_close never sees it closed
                    self._served.remove(request)
                    self.shutdown_request(request)
                self._idle += 1
                while not (self._queued or self._closed):
                    self._ready.wait()
                self._idle -= 1
                if self._closed:
                    return
                request, client_address, _ = self._queued.popleft()
                self._served.add(request)
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listener, end every queued and served connection and join every worker."""
        super().server_close()
        with self._ready:
            self._closed = True
            self._ready.notify_all()
            while self._queued:
                self.shutdown_request(self._queued.popleft()[0])
            for request in self._served:
                try:
                    request.shutdown(socket.SHUT_RDWR)  # its worker reads EOF
                except OSError:  # the peer already reset it
                    pass
        for worker in self._workers:
            worker.join()


class PirServer:
    """A single-role server; serves concurrent connections on kept workers."""

    def __init__(self, server_index: int, host: str = "127.0.0.1", port: int = 0):
        if server_index < 0:
            raise ValueError("server index must be >= 0")
        self._state = ServerState(server_index)
        self._lock = threading.Lock()
        self._tcp = _WorkerTCPServer((host, port), _Handler)
        self._tcp.pir_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False  # whether a serve_forever loop was started

    @property
    def server_index(self) -> int:
        return self._state.server_index

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> "PirServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._serving = True
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._tcp.serve_forever(_POLL_INTERVAL)

    def stop(self) -> None:
        if self._serving:  # shutdown() would wait forever for a loop that never ran
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join()


# ---------------------------------------------------------------------------
# client


def _exchange(endpoints, frames, timeout: float, check) -> list:
    """Send `frames[i]` to `endpoints[i]`, then read and check one reply from each.

    Every frame is sent before any reply is read, on one connection per
    endpoint, and `timeout` bounds the whole exchange: every receive waits
    at most the time left.  `check(i, reply)` runs as each reply is read, so
    an early rejection aborts before later replies are awaited; the list of
    its results is returned.  Every connection is closed on return.
    """
    deadline = time.monotonic() + timeout
    conns: list = []
    try:
        for (host, port), frame in zip(endpoints, frames):
            try:
                sock = socket.create_connection((host, port), timeout=_time_left(deadline))
                conns.append(sock)
                sock.sendall(encode_frame(frame))
            except OSError as exc:
                raise RetrievalError(f"endpoint {host}:{port}: {exc}") from exc
        results = []
        for i, ((host, port), sock) in enumerate(zip(endpoints, conns)):
            try:
                reply = read_frame(_SocketReader(sock, deadline))
            except (OSError, ProtocolError) as exc:
                raise RetrievalError(f"endpoint {host}:{port}: {exc}") from exc
            if reply is None:
                raise RetrievalError(f"endpoint {host}:{port} closed the connection")
            results.append(check(i, reply))
        return results
    finally:
        for sock in conns:
            sock.close()


def _answer_payload(reply: Frame, rejected: str, unexpected: str) -> bytes:
    """An ANSWER's payload; any other reply raises `RetrievalError`.

    An ERROR's code and text follow `rejected`, and any other kind `unexpected`."""
    if reply.kind == KIND_ANSWER:
        return reply.payload
    if reply.kind != KIND_ERROR:
        raise RetrievalError(f"{unexpected} {reply.kind:#x}")
    try:
        err, text = decode_error_payload(reply.payload)
    except ValueError as exc:  # no error code
        raise RetrievalError(f"{rejected}: {exc}") from exc
    raise RetrievalError(f"{rejected} ({err}): {text}")


def setup_endpoint(
    endpoint: tuple[str, int], code: NaryCode, msgs: MessageSet, timeout: float = 5.0
) -> None:
    """Install the replicated database on one server; raises on rejection."""
    frame = Frame(KIND_SETUP, encode_setup_payload(code, msgs))
    texts = ("SETUP rejected", "unexpected SETUP reply kind")
    _exchange([endpoint], [frame], timeout, lambda _, reply: _answer_payload(reply, *texts))


def _check_answer(code: NaryCode, n: int, reply: Frame) -> tuple[int, ...]:
    """Server n's reply as a well-formed answer; `reconstruct` checks its length."""
    payload = _answer_payload(reply, f"server {n} replied error", f"server {n} sent frame kind")
    try:
        return decode_answer_payload(payload, code.modulus)
    except ValueError as exc:
        raise RetrievalError(f"server {n} sent a malformed answer: {exc}") from exc


def client_retrieve(
    code: NaryCode, endpoints, k: int, key: RandomKey, timeout: float = 5.0
) -> Message:
    """Query all servers and reconstruct message k under `key`.

    Every QUERY is sent before any reply is read, so the servers compute
    their answers in parallel while this thread waits.  `timeout` bounds the
    whole retrieval.  Any connection failure, timeout, ERROR frame, or
    malformed/mis-sized answer aborts it; there are no partial results.
    """
    endpoints = tuple(endpoints)
    if len(endpoints) != code.n_servers:
        raise ValueError(f"need {code.n_servers} endpoints, got {len(endpoints)}")
    q0 = bytes(query_vector(code, 0, k, key))
    head, tail, N = q0[:k], q0[k + 1 :], code.n_servers
    queries = [Frame(KIND_QUERY, head + bytes([(q0[k] + n) % N]) + tail) for n in range(N)]
    answers = _exchange(endpoints, queries, timeout, partial(_check_answer, code))

    try:
        return Message(nary.reconstruct(code, answers, k, key), code.modulus)
    except ValueError as exc:  # an answer of the wrong length
        raise RetrievalError(str(exc)) from exc
