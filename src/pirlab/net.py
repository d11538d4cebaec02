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
"""

from __future__ import annotations

import operator
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  unused; perfbench/tracing.py patches it here
from dataclasses import dataclass, replace
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


def write_frame(wfile, frame: Frame) -> None:
    wfile.write(encode_frame(frame))


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


class _Handler(socketserver.StreamRequestHandler):
    # seconds a connection may sit idle (or stall inside a frame) before the
    # server closes it
    timeout = 60.0

    def handle(self) -> None:
        server: "PirServer" = self.server.pir_server  # type: ignore[attr-defined]
        while True:
            try:
                frame = read_frame(self.rfile)
            except ProtocolError as exc:
                self._send(error_frame(ERR_PROTOCOL, str(exc)))
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
            if not self._send(reply):
                return

    def _send(self, frame: Frame) -> bool:
        try:
            write_frame(self.wfile, frame)
            self.wfile.flush()
        except OSError:
            return False
        return True


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class PirServer:
    """A threaded single-role server; handles concurrent connections."""

    def __init__(self, server_index: int, host: str = "127.0.0.1", port: int = 0):
        if server_index < 0:
            raise ValueError("server index must be >= 0")
        self._state = ServerState(server_index)
        self._lock = threading.Lock()
        self._tcp = _ThreadingTCPServer((host, port), _Handler)
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
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._serving = True
        self._thread.start()
        return self

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        self._tcp.serve_forever(poll_interval=poll_interval)

    def stop(self) -> None:
        if self._serving:  # shutdown() would wait forever for a loop that never ran
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join()


# ---------------------------------------------------------------------------
# client


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _send(endpoint: tuple[str, int], frame: Frame, deadline: float, conns: list) -> None:
    """Connect to `endpoint` and send `frame`; the connection joins `conns`."""
    host, port = endpoint
    try:
        sock = socket.create_connection((host, port), timeout=_time_left(deadline))
        conns.append((sock, sock.makefile("rb")))
        sock.sendall(encode_frame(frame))
    except OSError as exc:
        raise RetrievalError(f"endpoint {host}:{port}: {exc}") from exc


def _receive(endpoint: tuple[str, int], conn, deadline: float) -> Frame:
    """Read one reply frame, waiting no later than `deadline`."""
    host, port = endpoint
    sock, rfile = conn
    try:
        sock.settimeout(_time_left(deadline))
        reply = read_frame(rfile)
    except (OSError, ProtocolError) as exc:
        raise RetrievalError(f"endpoint {host}:{port}: {exc}") from exc
    if reply is None:
        raise RetrievalError(f"endpoint {host}:{port} closed the connection")
    return reply


def _close(conns: list) -> None:
    for sock, rfile in conns:
        rfile.close()
        sock.close()


def setup_endpoint(
    endpoint: tuple[str, int], code: NaryCode, msgs: MessageSet, timeout: float = 5.0
) -> None:
    """Install the replicated database on one server; raises on rejection."""
    frame = Frame(KIND_SETUP, encode_setup_payload(code, msgs))
    deadline = time.monotonic() + timeout
    conns: list = []
    try:
        _send(endpoint, frame, deadline, conns)
        reply = _receive(endpoint, conns[0], deadline)
    finally:
        _close(conns)
    if reply.kind == KIND_ERROR:
        err, text = decode_error_payload(reply.payload)
        raise RetrievalError(f"SETUP rejected ({err}): {text}")
    if reply.kind != KIND_ANSWER:
        raise RetrievalError(f"unexpected SETUP reply kind {reply.kind:#x}")


def _check_answer(code: NaryCode, n: int, reply: Frame) -> tuple[int, ...]:
    """Server n's reply as a well-formed answer; `reconstruct` checks its length."""
    if reply.kind == KIND_ERROR:
        err, text = decode_error_payload(reply.payload)
        raise RetrievalError(f"server {n} replied error ({err}): {text}")
    if reply.kind != KIND_ANSWER:
        raise RetrievalError(f"server {n} sent frame kind {reply.kind:#x}")
    try:
        return decode_answer_payload(reply.payload, code.modulus)
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
    queries = [query_vector(code, n, k, key) for n in range(code.n_servers)]
    deadline = time.monotonic() + timeout
    conns: list = []
    try:
        for endpoint, query in zip(endpoints, queries):
            _send(endpoint, Frame(KIND_QUERY, bytes(query)), deadline, conns)
        answers = tuple(
            _check_answer(code, n, _receive(endpoints[n], conns[n], deadline))
            for n in range(code.n_servers)
        )
    finally:
        _close(conns)

    try:
        return Message(nary.reconstruct(code, answers, k, key), code.modulus)
    except ValueError as exc:  # an answer of the wrong length
        raise RetrievalError(str(exc)) from exc
