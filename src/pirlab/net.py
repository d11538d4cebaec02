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
may be interleaved or replayed freely.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from .groups import AnswerVector, MessageSet, QueryVector, RandomKey
from .nary import NaryCode, answer, answer_length, make_nary, query_vector, random_key

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


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame; trailing or missing bytes are errors."""
    if len(data) < _HEADER.size:
        raise FrameError(f"truncated frame header: {len(data)} bytes")
    length, kind = _HEADER.unpack_from(data)
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind:#x}")
    if len(data) != _HEADER.size + length:
        raise FrameError(
            f"frame length mismatch: header says {length}, "
            f"got {len(data) - _HEADER.size} payload bytes"
        )
    return Frame(kind, data[_HEADER.size :])


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


def encode_setup_payload(code: NaryCode, msgs: MessageSet) -> bytes:
    p = code.params
    if p.msg_modulus > WIRE_MAX_MODULUS:
        raise ValueError(f"modulus {p.msg_modulus} exceeds wire limit {WIRE_MAX_MODULUS}")
    if p.n_servers > WIRE_MAX_SERVERS:
        raise ValueError(f"{p.n_servers} servers exceed wire limit {WIRE_MAX_SERVERS}")
    if p.n_messages > WIRE_MAX_MESSAGES:
        raise ValueError(f"{p.n_messages} messages exceed wire limit {WIRE_MAX_MESSAGES}")
    if len(msgs) != p.n_messages or msgs.msg_len != p.msg_len or msgs.modulus != p.msg_modulus:
        raise ValueError("message set shape disagrees with code params")
    body = bytes(v for row in msgs.values for v in row)
    return _SETUP_HEAD.pack(p.n_servers, p.n_messages, p.msg_len, p.msg_modulus) + body


def decode_setup_payload(payload: bytes) -> tuple[NaryCode, MessageSet]:
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
    if any(v >= modulus for v in body):
        raise ValueError("SETUP symbol out of range")
    rows = [
        tuple(body[k * msg_len : (k + 1) * msg_len]) for k in range(n_messages)
    ]
    return code, MessageSet.from_values(rows, modulus)


def encode_answer_payload(ans: AnswerVector) -> bytes:
    if len(ans) > 255:
        raise ValueError("answers longer than 255 symbols do not fit the wire")
    return bytes([len(ans)]) + bytes(ans.values)


def decode_answer_payload(payload: bytes, modulus: int) -> AnswerVector:
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
    return AnswerVector.from_values(symbols, modulus) if count else AnswerVector(())


def error_frame(code: int, text: str) -> Frame:
    return Frame(KIND_ERROR, bytes([code]) + text.encode("utf-8"))


def decode_error_payload(payload: bytes) -> tuple[int, str]:
    if not payload:
        raise ValueError("empty ERROR payload")
    return payload[0], payload[1:].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# server


AWAITING_SETUP = "awaiting-setup"
SERVING = "serving"


@dataclass(frozen=True)
class ServerState:
    """Everything a server knows; `handle_frame` is pure over this."""

    server_index: int
    phase: str = AWAITING_SETUP
    code: Optional[NaryCode] = None
    msgs: Optional[MessageSet] = None


def handle_frame(state: ServerState, frame: Frame) -> tuple[ServerState, Frame]:
    """One protocol step: next state plus the reply frame."""
    if frame.kind == KIND_SETUP:
        if state.phase == SERVING:
            return state, error_frame(ERR_PROTOCOL, "already set up")
        try:
            code, msgs = decode_setup_payload(frame.payload)
        except ValueError as exc:
            return state, error_frame(ERR_BAD_SETUP, str(exc))
        if state.server_index >= code.n_servers:
            return state, error_frame(
                ERR_BAD_SETUP,
                f"server index {state.server_index} outside 0..{code.n_servers - 1}",
            )
        new = replace(state, phase=SERVING, code=code, msgs=msgs)
        return new, Frame(KIND_ANSWER, b"\x00")
    if frame.kind == KIND_QUERY:
        if state.phase != SERVING:
            return state, error_frame(ERR_PROTOCOL, "QUERY before SETUP")
        code = state.code
        assert code is not None and state.msgs is not None
        digits = tuple(frame.payload)
        if len(digits) != code.n_messages:
            return state, error_frame(
                ERR_BAD_QUERY,
                f"query carries {len(digits)} digits, expected {code.n_messages}",
            )
        if any(d >= code.n_servers for d in digits):
            return state, error_frame(ERR_BAD_QUERY, "query digit out of range")
        q = QueryVector(digits, code.n_servers)
        if q.server != state.server_index:
            return state, error_frame(
                ERR_BAD_QUERY,
                f"digit sum addresses server {q.server}, this is server {state.server_index}",
            )
        ans = answer(code, state.server_index, q, state.msgs)
        return state, Frame(KIND_ANSWER, encode_answer_payload(ans))
    # SETUP/QUERY are the only requests; ANSWER/ERROR from a client are nonsense
    return state, error_frame(ERR_PROTOCOL, f"unexpected frame kind {frame.kind:#x}")


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "PirServer" = self.server.pir_server  # type: ignore[attr-defined]
        while True:
            try:
                frame = read_frame(self.rfile)
            except ProtocolError as exc:
                self._send(error_frame(ERR_PROTOCOL, str(exc)))
                return
            if frame is None:
                return
            with server._lock:
                server._state, reply = handle_frame(server._state, frame)
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
        self._thread.start()
        return self

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._tcp.serve_forever(poll_interval=poll_interval)

    def stop(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join()


# ---------------------------------------------------------------------------
# client


def _round_trip(endpoint: tuple[str, int], frame: Frame, timeout: float) -> Frame:
    host, port = endpoint
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(encode_frame(frame))
            rfile = sock.makefile("rb")
            reply = read_frame(rfile)
    except OSError as exc:
        raise RetrievalError(f"endpoint {host}:{port}: {exc}") from exc
    except ProtocolError as exc:
        raise RetrievalError(f"endpoint {host}:{port}: {exc}") from exc
    if reply is None:
        raise RetrievalError(f"endpoint {host}:{port} closed the connection")
    return reply


def setup_endpoint(
    endpoint: tuple[str, int], code: NaryCode, msgs: MessageSet, timeout: float = 5.0
) -> None:
    """Install the replicated database on one server; raises on rejection."""
    reply = _round_trip(
        endpoint, Frame(KIND_SETUP, encode_setup_payload(code, msgs)), timeout
    )
    if reply.kind == KIND_ERROR:
        err, text = decode_error_payload(reply.payload)
        raise RetrievalError(f"SETUP rejected ({err}): {text}")
    if reply.kind != KIND_ANSWER:
        raise RetrievalError(f"unexpected SETUP reply kind {reply.kind:#x}")


def client_retrieve(
    code: NaryCode,
    endpoints,
    k: int,
    key: Optional[RandomKey] = None,
    rng=None,
    timeout: float = 5.0,
):
    """Query all servers concurrently and reconstruct message k.

    `key` may be omitted in favor of an `rng` (a `random.Random`) to sample
    one.  Any connection failure, ERROR frame, or malformed/mis-sized answer
    aborts the whole retrieval; there are no partial results.
    """
    endpoints = tuple(endpoints)
    if len(endpoints) != code.n_servers:
        raise ValueError(f"need {code.n_servers} endpoints, got {len(endpoints)}")
    if key is None:
        if rng is None:
            raise ValueError("provide a key or an rng to sample one")
        key = random_key(code, rng)
    queries = [query_vector(code, n, k, key) for n in range(code.n_servers)]

    def ask(n: int) -> AnswerVector:
        frame = Frame(KIND_QUERY, bytes(queries[n].digits))
        reply = _round_trip(endpoints[n], frame, timeout)
        if reply.kind == KIND_ERROR:
            err, text = decode_error_payload(reply.payload)
            raise RetrievalError(f"server {n} replied error ({err}): {text}")
        if reply.kind != KIND_ANSWER:
            raise RetrievalError(f"server {n} sent frame kind {reply.kind:#x}")
        try:
            ans = decode_answer_payload(reply.payload, code.modulus)
        except ValueError as exc:
            raise RetrievalError(f"server {n} sent a malformed answer: {exc}") from exc
        expected = answer_length(code, n, queries[n])
        if len(ans) != expected:
            raise RetrievalError(
                f"server {n} sent {len(ans)} symbols, query demands {expected}"
            )
        return ans

    with ThreadPoolExecutor(max_workers=len(endpoints)) as pool:
        futures = [pool.submit(ask, n) for n in range(code.n_servers)]
        answers = tuple(f.result() for f in futures)

    from .nary import reconstruct

    return reconstruct(code, answers, k, key)
