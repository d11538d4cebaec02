"""Span tracing applied from outside the library, for the traced run only.

`Tracer.install()` replaces selected names with wrappers at the place their
caller looks them up (a module global, a class attribute) and `uninstall()`
puts the originals back, so untraced runs execute the library untouched.

Every span records its name, the side that ran it (client or server), the
scope of the benchmark step it belongs to (setup, op, check), start, end,
parent span, retrieval id and, for a few names, a size.  A span that ends
appends its record to memory; `write_spans` writes them out after the run.

Spans of one retrieval share the id of its `net.client_retrieve` span.  The
client's per-server work runs in a thread pool, which is wrapped to carry the
caller's context into the pool threads.  Server handler threads are tied to
the retrieval that opened their connection through the client's local port.

Privacy: spans carry no call arguments, the only client-side size is the
QUERY frame length (fixed by the shape), and the client side of a retrieval
increments no counter.  Answer sizes and connection counts are taken on the
server side, which sees them anyway.
"""

from __future__ import annotations

import contextvars
import gzip
import itertools
import socket
import statistics
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from pirlab import analysis, cli, codefile, nary, net, symmetry
from pirlab.groups import MessageSet, Symbol
from pirlab.model import DecomposableCode

clock = time.perf_counter

CLIENT, SERVER = 0, 1
SIDES = ("client", "server")
SCOPES = ("setup", "op", "check")
SPAN_FIELDS = ("id", "name", "side", "scope", "start", "end", "parent", "rid", "size")

# (owner, attribute, span name): each owner is where the workloads' callers
# look the attribute up at call time.
SPAN_TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "is_uniformly_decomposable", "model.is_uniformly_decomposable"),
    (DecomposableCode, "eval_answer", "model.eval_answer"),
    (nary, "export_decomposable", "nary.export_decomposable"),
    (nary, "reconstruct", "nary.reconstruct"),  # code closures and client_retrieve
    (nary, "query_vector", "nary.query_vector"),  # inside reconstruct and export
    (net, "query_vector", "nary.query_vector"),  # client_retrieve
    (net, "answer", "nary.answer"),  # handle_frame
    (analysis, "verify_correctness", "analysis.verify_correctness"),
    (analysis, "verify_privacy", "analysis.verify_privacy"),
    (analysis, "check_P1", "analysis.check_P1"),
    (analysis, "check_P2", "analysis.check_P2"),
    (analysis, "check_P3", "analysis.check_P3"),
    (analysis, "check_lemma1_equality", "analysis.check_lemma1_equality"),
    (analysis, "check_lemma2_equality", "analysis.check_lemma2_equality"),
    (analysis, "positive_query_tuples", "analysis.positive_query_tuples"),
    (analysis, "all_message_sets", "analysis.all_message_sets"),
    (analysis, "entropy_bits", "analysis.entropy_bits"),
    (analysis, "mutual_information_bits", "analysis.mutual_information_bits"),
    (
        analysis,
        "conditional_mutual_information_bits",
        "analysis.conditional_mutual_information_bits",
    ),
    (analysis, "rate", "analysis.rate"),
    (analysis, "upload_cost_bits", "analysis.upload_cost_bits"),
    (analysis, "expected_answer_lengths", "analysis.expected_answer_lengths"),
    (symmetry, "message_symmetrize", "symmetry.message_symmetrize"),
    (codefile, "emit", "codefile.emit"),
    (codefile, "load", "codefile.load"),
    (codefile, "parse", "codefile.parse"),
    (net, "client_retrieve", "net.client_retrieve"),
    (net, "setup_endpoint", "net.setup_endpoint"),
    (net, "handle_frame", "net.handle_frame"),
    (net, "decode_setup_payload", "net.setup_decode"),
    (net, "encode_answer_payload", "net.encode_answer_payload"),
    (net, "encode_frame", "net.encode_frame"),  # _round_trip and write_frame
    (net, "decode_answer_payload", "net.decode_answer_payload"),
)
# span name -> size kept in its record
SIZES = {
    "net.encode_frame": len,  # frame bytes
    "net.encode_answer_payload": lambda payload: payload[0],  # answer symbols
    "codefile.emit": len,  # characters of code text
}
ROOT_NAMES = tuple(f"bench.{scope}" for scope in SCOPES)
SPAN_NAMES = tuple(
    sorted({name for _, _, name in SPAN_TARGETS} | {"net.read_frame", *ROOT_NAMES})
)
COUNTER_NAMES = (
    "groups.symbols_built",
    "groups.message_sets_built",
    "net.connections_opened",
)

# Context of the running span: (span id, side, scope, retrieval id).
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

# one span record, in SPAN_FIELDS order with name, side and scope as indices
_RECORD = struct.Struct("=qHBBddqqq")


class _ArrivalClock:
    """Binary stream proxy that notes when the first read returned.

    `read_frame` blocks in its first read until the peer sends; only the
    time after bytes arrived is codec work.
    """

    def __init__(self, stream):
        self._stream = stream
        self.arrived = None

    def read(self, n):
        data = self._stream.read(n)
        if self.arrived is None:
            self.arrived = clock()
        return data


class _ContextPool(ThreadPoolExecutor):
    """Runs each submitted call in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._names: list[str] = []
        self._name_ix: dict[str, int] = {}
        # bytearray.extend and next() on itertools.count are single C calls,
        # so threads record without taking a lock
        self._records = bytearray()
        self._counters = {
            (name, side, scope): itertools.count()
            for name in COUNTER_NAMES
            for side in range(len(SIDES))
            for scope in range(len(SCOPES))
        }
        self._ports: dict[int, tuple] = {}  # client local port -> opener's context
        self._tls = threading.local()
        self._saved: list = []
        self._rid_name = self._name_index("net.client_retrieve")

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        with self._lock:
            ix = self._name_ix.setdefault(name, len(self._names))
            if ix == len(self._names):
                self._names.append(name)
        return ix

    def _record(self, sid, name_ix, side, scope, t0, t1, parent, rid, size=-1):
        self._records.extend(_RECORD.pack(sid, name_ix, side, scope, t0, t1, parent, rid, size))

    def _context(self):
        """The running span's context; in a server handler thread, that of
        the span that opened the connection."""
        cur = _current.get()
        if cur is not None:
            return cur
        port = getattr(self._tls, "peer_port", None)
        if port is None:
            return None
        opener = self._ports.get(port)
        if opener is None:
            return None
        sid, _side, scope, rid = opener
        return (sid, SERVER, scope, rid)

    def count(self, name: str) -> None:
        """Count one event, unless it happens on the client side of a retrieval."""
        ctx = self._context()
        if ctx is not None and (ctx[1] == SERVER or ctx[3] < 0):
            next(self._counters[(name, ctx[1], ctx[2])])

    def counter(self, name: str, side: int, scope: int) -> int:
        return int(repr(self._counters[(name, side, scope)])[len("count(") : -1])

    def span(self, name: str, fn):
        tracer = self
        name_ix = self._name_index(name)
        size_of = SIZES.get(name)
        is_retrieval = name_ix == self._rid_name
        ids, record, current, pack = self._ids, self._records.extend, _current, _RECORD.pack

        def wrapper(*args, **kwargs):
            ctx = current.get() or tracer._context()
            if ctx is None:
                return fn(*args, **kwargs)
            parent, side, scope, rid = ctx
            sid = next(ids)
            if is_retrieval:
                rid = sid
            token = current.set((sid, side, scope, rid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
            size = size_of(result) if size_of is not None else -1
            record(pack(sid, name_ix, side, scope, t0, t1, parent, rid, size))
            return result

        return wrapper

    def root(self, scope: str):
        """Context manager for a benchmark step; spans beneath inherit its scope."""
        return _Root(self, SCOPES.index(scope))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        tracer = self
        for owner, attr, name in SPAN_TARGETS:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))

        read_name = self._name_index("net.read_frame")
        orig_read = net.read_frame

        def read_frame(rfile):
            stream = _ArrivalClock(rfile)
            try:
                return orig_read(stream)
            finally:
                t1 = clock()
                # resolved after bytes arrived: by then a server thread's
                # connection is registered by the client that opened it
                ctx = tracer._context()
                if ctx is not None:
                    parent, side, scope, rid = ctx
                    t0 = stream.arrived if stream.arrived is not None else t1
                    tracer._record(
                        next(tracer._ids), read_name, side, scope, t0, t1, parent, rid
                    )

        self._patch(net, "read_frame", read_frame)

        orig_post_init = Symbol.__post_init__

        def symbol_post_init(self):
            tracer.count("groups.symbols_built")
            orig_post_init(self)

        self._patch(Symbol, "__post_init__", symbol_post_init)

        orig_from_values = MessageSet.__dict__["from_values"].__func__

        def from_values(cls, rows, modulus):
            tracer.count("groups.message_sets_built")
            return orig_from_values(cls, rows, modulus)

        self._patch(MessageSet, "from_values", classmethod(from_values))

        class _SocketModule:
            """`socket` as `net` sees it; registers each connection's opener."""

            def __getattr__(self, attr):
                return getattr(socket, attr)

            @staticmethod
            def create_connection(*args, **kwargs):
                sock = socket.create_connection(*args, **kwargs)
                ctx = tracer._context()
                if ctx is not None:
                    tracer._ports[sock.getsockname()[1]] = ctx
                return sock

        self._patch(net, "socket", _SocketModule())
        self._patch(net, "ThreadPoolExecutor", _ContextPool)

        orig_handle = net._Handler.handle

        def handle(handler):
            tracer._tls.peer_port = handler.client_address[1]
            try:
                orig_handle(handler)
            finally:
                tracer.count("net.connections_opened")
                tracer._tls.peer_port = None

        self._patch(net._Handler, "handle", handle)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def spans(self):
        """Span records as tuples in SPAN_FIELDS order."""
        names = self._names
        for sid, name_ix, side, scope, t0, t1, parent, rid, size in _RECORD.iter_unpack(
            bytes(self._records)
        ):
            yield (sid, names[name_ix], SIDES[side], SCOPES[scope], t0, t1, parent, rid, size)

    def write_spans(self, path) -> int:
        """Write all spans as gzip'd CSV (header = SPAN_FIELDS); returns the count."""
        n = 0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for sid, name, side, scope, t0, t1, parent, rid, size in self.spans():
                fh.write(f"{sid},{name},{side},{scope},{t0:.9f},{t1:.9f},{parent},{rid},{size}\n")
                n += 1
        return n


class _Root:
    def __init__(self, tracer: Tracer, scope: int):
        self._tracer = tracer
        self._scope = scope
        self._name_ix = tracer._name_index(ROOT_NAMES[scope])

    def __enter__(self):
        self._sid = next(self._tracer._ids)
        self._token = _current.set((self._sid, CLIENT, self._scope, -1))
        self._t0 = clock()
        return self

    def __exit__(self, *exc):
        t1 = clock()
        _current.reset(self._token)
        self._tracer._record(
            self._sid, self._name_ix, CLIENT, self._scope, self._t0, t1, -1, -1
        )
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

CHECK_SPANS = {
    "analysis.verify_correctness": "analysis.correctness_s",
    "analysis.verify_privacy": "analysis.privacy_s",
    "analysis.check_P1": "analysis.p1_s",
    "analysis.check_P2": "analysis.p2_s",
    "analysis.check_P3": "analysis.p3_s",
    "analysis.check_lemma1_equality": "analysis.lemma1_s",
    "analysis.check_lemma2_equality": "analysis.lemma2_s",
}
FAMILIES = {
    "model.eval_answer_s": ("model.eval_answer",),
    "nary.answer_s": ("nary.answer",),
    "nary.query_vector_s": ("nary.query_vector",),
    "nary.reconstruct_s": ("nary.reconstruct",),
    "analysis.enumerate_s": ("analysis.all_message_sets",),
    "analysis.entropy_s": (
        "analysis.entropy_bits",
        "analysis.mutual_information_bits",
        "analysis.conditional_mutual_information_bits",
    ),
    "analysis.metrics_s": (
        "analysis.rate",
        "analysis.upload_cost_bits",
        "analysis.expected_answer_lengths",
    ),
    "symmetry.message_symmetrize_s": ("symmetry.message_symmetrize",),
    "codefile.emit_s": ("codefile.emit",),
    "codefile.parse_s": ("codefile.parse",),
    "net.codec_s": ("net.encode_frame", "net.read_frame", "net.decode_answer_payload"),
    **{metric: (span,) for span, metric in CHECK_SPANS.items()},
}
SETUP_FAMILIES = {
    "nary.export_s": ("nary.export_decomposable",),
    "net.setup_decode_s": ("net.setup_decode",),
}
CALL_COUNTS = {
    "model.eval_answer_calls": "model.eval_answer",
    "nary.answer_calls": "nary.answer",
    "nary.reconstruct_calls": "nary.reconstruct",
    "analysis.enumerations": "analysis.all_message_sets",
    "net.handle_frame_calls": "net.handle_frame",
}
SETUP_COUNTERS = ("groups.symbols_built", "groups.message_sets_built")  # also as *_setup
# (metric, unit, better), in report order; BENCHMARK.json lists the same.
PER_LAYER = (
    ("groups.symbols_built", "count", "lower"),
    ("groups.message_sets_built", "count", "lower"),
    ("groups.symbols_built_setup", "count", "lower"),
    ("groups.message_sets_built_setup", "count", "lower"),
    ("model.eval_answer_calls", "count", "lower"),
    ("model.eval_answer_s", "s", "lower"),
    ("nary.export_s", "s", "lower"),
    ("nary.answer_calls", "count", "lower"),
    ("nary.answer_s", "s", "lower"),
    ("nary.query_vector_s", "s", "lower"),
    ("nary.reconstruct_calls", "count", "lower"),
    ("nary.reconstruct_s", "s", "lower"),
    ("analysis.correctness_s", "s", "lower"),
    ("analysis.privacy_s", "s", "lower"),
    ("analysis.p1_s", "s", "lower"),
    ("analysis.p2_s", "s", "lower"),
    ("analysis.p3_s", "s", "lower"),
    ("analysis.lemma1_s", "s", "lower"),
    ("analysis.lemma2_s", "s", "lower"),
    ("analysis.enumerations", "count", "lower"),
    ("analysis.enumerate_s", "s", "lower"),
    ("analysis.entropy_s", "s", "lower"),
    ("analysis.metrics_s", "s", "lower"),
    ("analysis.tally_s", "s", "lower"),
    ("symmetry.message_symmetrize_s", "s", "lower"),
    ("codefile.emit_s", "s", "lower"),
    ("codefile.parse_s", "s", "lower"),
    ("codefile.bytes", "B", "lower"),
    ("net.handle_frame_calls", "count", "lower"),
    ("net.handle_frame_s", "s", "lower"),
    ("net.setup_decode_s", "s", "lower"),
    ("net.codec_s", "s", "lower"),
    ("net.connections_opened", "count", "lower"),
    ("net.frames", "count", "lower"),
    ("net.bytes_in", "B", "lower"),
    ("net.bytes_out", "B", "lower"),
    ("net.answer_symbols", "count", "lower"),
    ("net.transport_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Spans grouped for the per-layer report."""

    def __init__(self, tracer: Tracer):
        self.rows = list(tracer.spans())
        self.by_id = {row[0]: row for row in self.rows}
        self.children: dict[int, list] = {}
        self.groups: dict[tuple[str, str], list] = {}
        for row in self.rows:
            self.children.setdefault(row[6], []).append(row)
            self.groups.setdefault((row[1], row[3]), []).append(row)

    def named(self, names, scope: str):
        return [r for name in names for r in self.groups.get((name, scope), ())]

    def self_time(self, row) -> float:
        kids = self.children.get(row[0], ())
        return (row[5] - row[4]) - _covered([(k[4], k[5]) for k in kids], row[4], row[5])

    def family_time(self, names, scope: str) -> float:
        """Summed duration of the family's outermost spans (nesting counted once)."""
        names = set(names)
        total = 0.0
        for row in self.named(names, scope):
            parent = self.by_id.get(row[6])
            while parent is not None and parent[1] not in names:
                parent = self.by_id.get(parent[6])
            if parent is None:
                total += row[5] - row[4]
        return total


def per_layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> dict[str, float]:
    """Per-layer metrics: op-scope values per operation, `*_setup` and the
    set-up families (`nary.export_s`, `net.setup_decode_s`) per set-up."""
    ix = SpanIndex(tracer)

    def counted(name, scope):
        return sum(tracer.counter(name, side, SCOPES.index(scope)) for side in (CLIENT, SERVER))

    out: dict[str, float] = {}
    for metric, names in FAMILIES.items():
        out[metric] = ix.family_time(names, "op") / n_ops
    for metric, names in SETUP_FAMILIES.items():
        out[metric] = ix.family_time(names, "setup") / n_setups
    for metric, name in CALL_COUNTS.items():
        out[metric] = len(ix.named((name,), "op")) / n_ops
    for name in COUNTER_NAMES:
        out[name] = counted(name, "op") / n_ops
    for name in SETUP_COUNTERS:
        out[name + "_setup"] = counted(name, "setup") / n_setups
    out["analysis.tally_s"] = (
        sum(ix.self_time(r) for r in ix.named(CHECK_SPANS, "op")) / n_ops
    )
    out["cli.self_s"] = sum(ix.self_time(r) for r in ix.named(("cli.main",), "op")) / n_ops
    out["net.transport_s"] = (
        sum(ix.self_time(r) for r in ix.named(("net.client_retrieve",), "op")) / n_ops
    )
    handle = [r[5] - r[4] for r in ix.named(("net.handle_frame",), "op")]
    out["net.handle_frame_s"] = statistics.median(handle) if handle else 0.0
    frames = ix.named(("net.encode_frame",), "op")
    out["net.frames"] = len(frames) / n_ops
    out["net.bytes_out"] = sum(r[8] for r in frames if r[2] == "client") / n_ops
    out["net.bytes_in"] = sum(r[8] for r in frames if r[2] == "server") / n_ops
    out["net.answer_symbols"] = (
        sum(r[8] for r in ix.named(("net.encode_answer_payload",), "op")) / n_ops
    )
    out["codefile.bytes"] = sum(r[8] for r in ix.named(("codefile.emit",), "op")) / n_ops
    out["trace.spans"] = float(len(ix.rows))
    return out


def retrieval_traffic(tracer: Tracer) -> dict[int, tuple[int, list[int]]]:
    """Per retrieval id: (frames encoded, sizes of the client's frames)."""
    out: dict[int, tuple[int, list[int]]] = {}
    for _sid, name, side, scope, _t0, _t1, _parent, rid, size in tracer.spans():
        if name != "net.encode_frame" or scope != "op" or rid < 0:
            continue
        frames, sizes = out.get(rid, (0, []))
        if side == "client":
            sizes.append(size)
        out[rid] = (frames + 1, sizes)
    return out
