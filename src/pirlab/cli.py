"""Command-line front end.

Subcommands: demo, metrics, verify, symmetrize, serve, setup, retrieve.
Every command is deterministic given its flags and --seed; reports are
byte-stable across runs.  Exit codes: 0 success, 1 verification or
retrieval failure, 2 usage error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from . import analysis, codefile, nary, net, symmetry
from .analysis import EnumerationCapExceeded
from .groups import CodeParams, MessageSet, RandomKey, digits_label
from .model import DecomposableCode, builtin_sunjafar22, builtin_table1
from .model import is_uniformly_decomposable  # noqa: F401  unused; perfbench/tracing.py patches it here

PORT_ENV = "PIRLAB_PORT"


def _nary_source(
    parser, n: int, k: int, m: int, cap: int = analysis.DEFAULT_CAP, refuse=None
) -> tuple[nary.NaryCode, DecomposableCode]:
    """The nary code of shape (n, k, m) and its export.  The shape is refused
    when its export exceeds `cap`, which also bounds N, K and m^L, and then
    passed to `refuse(params, keys, symbols)` when given: N^(K-1) keys, and at
    most one answer symbol per server."""
    try:
        shape = nary.make_nary(n, k, m)
    except ValueError as exc:
        parser.error(str(exc))
    analysis.require_within_cap(nary.export_size(shape), cap, "table entries and query cells")
    if refuse is not None:
        refuse(shape.params, n ** (k - 1), n)
    return shape, nary.export_decomposable(shape)


def _build_source(
    tokens: list[str], parser: argparse.ArgumentParser, cap: int, refuse=None
) -> DecomposableCode:
    """A code source is `nary N K [m]`, `table1`, `table2`, or a file path; a
    `nary` shape is refused as `_nary_source` refuses it."""
    if tokens[0] == "nary":
        if len(tokens) not in (3, 4):
            parser.error("nary source needs: nary N K [m]")
        try:
            n, k = int(tokens[1]), int(tokens[2])
            m = int(tokens[3]) if len(tokens) == 4 else 2
        except ValueError:
            parser.error("nary parameters must be integers")
        return _nary_source(parser, n, k, m, cap, refuse)[1]
    if tokens[0] == "table1":
        return builtin_table1()
    if tokens[0] == "table2":
        return builtin_sunjafar22()
    if len(tokens) != 1:
        parser.error(f"unrecognized code source: {' '.join(tokens)}")
    path = tokens[0]
    try:
        return codefile.load(path)
    except FileNotFoundError:
        parser.error(f"no such code file: {path}")
    except OSError as exc:
        parser.error(f"cannot read code file {path}: {exc.strerror or exc}")
    except codefile.CodeFormatError as exc:
        parser.error(f"bad code file {path}: {exc}")
    raise AssertionError("unreachable")


def _parse_endpoints(text: str, parser: argparse.ArgumentParser) -> list[tuple[str, int]]:
    out = []
    for item in text.split(","):
        host, sep, port = item.strip().rpartition(":")
        if not sep or not host:
            parser.error(f"endpoint {item!r} is not host:port")
        try:
            number = int(port)
        except ValueError:
            parser.error(f"endpoint {item!r} has a non-numeric port")
        if not 0 <= number <= 65535:
            parser.error(f"endpoint {item!r} has a port outside 0..65535")
        out.append((host, number))
    if not out:
        parser.error("need at least one endpoint")
    return out


def _parse_digits(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        parser.error(f"{text!r} is not a comma-separated digit list")
    raise AssertionError("unreachable")


def _seeded_messages(p: CodeParams, seed: int) -> MessageSet:
    """A database of symbols drawn message by message from random.Random(seed)."""
    rng = random.Random(seed)
    rows = [[rng.randrange(p.msg_modulus) for _ in range(p.msg_len)] for _ in range(p.n_messages)]
    return MessageSet.from_values(rows, p.msg_modulus)


def _fmt_rate(code: DecomposableCode) -> str:
    try:
        return str(analysis.rate(code))
    except ValueError:
        return "n/a"


def _metrics_line(code: DecomposableCode) -> str:
    up = analysis.upload_cost_bits(code)
    lengths = analysis.expected_answer_lengths(code)
    return (
        f"rate {_fmt_rate(code)}, message {analysis.message_size_bits(code):.4f} bits, "
        f"upload {up.total_bits:.4f} bits, queries {up.per_server}, "
        f"E[len] ({', '.join(str(e) for e in lengths)})"
    )


def render_table(rows_per_server) -> list[str]:
    """Lines of a column-per-server table of ``label -> formula`` cells."""
    columns = [
        [f"{label} -> {formula}" for label, formula in rows] for rows in rows_per_server
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    header = "   ".join(f"server-{n}".ljust(w) for n, w in enumerate(widths))
    lines = ["  " + header.rstrip()]
    for row_i in range(max(len(column) for column in columns)):
        cells = [
            (column[row_i] if row_i < len(column) else "").ljust(w)
            for column, w in zip(columns, widths)
        ]
        lines.append("  " + "   ".join(cells).rstrip())
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_demo(args, parser) -> int:
    code, export = _nary_source(parser, args.servers, args.messages, args.modulus)
    p = code.params
    print(
        f"digit-vector code: N={p.n_servers} servers, K={p.n_messages} messages, "
        f"m={p.msg_modulus}, L={p.msg_len} symbols/message"
    )
    print(
        f"capacity {analysis.capacity(p.n_servers, p.n_messages)}, "
        + _metrics_line(export)
    )
    print()
    print("query/answer table (subscript 0 selects the padded dummy symbol):")
    print("\n".join(render_table(nary.answer_table(code))))
    print()

    key = RandomKey(tuple((2 * i) % p.n_servers for i in range(p.n_messages - 1)), p.n_servers)
    k = min(1, p.n_messages - 1)
    msgs = _seeded_messages(p, args.seed)
    queries = [
        nary.query_vector(code, n, k, key) for n in range(p.n_servers)
    ]
    answers = [nary.answer(code, n, queries[n], msgs) for n in range(p.n_servers)]
    got = nary.reconstruct(code, tuple(answers), k, key)
    print(f"worked retrieval: target k={k}, key {key.label()}, seed {args.seed}")
    for j in range(p.n_messages):
        print(f"  {nary.message_letter(j)} = {''.join(map(str, msgs[j].values))}")
    print(
        "  queries:  "
        + "  ".join(digits_label(q) for q in queries)
        + "   (reduced: "
        + ", ".join(nary.symbolic_answer(code, q, include_dummies=False) for q in queries)
        + ")"
    )
    print(
        "  answers:  "
        + "  ".join(",".join(map(str, a)) if a else "()" for a in answers)
    )
    ok = got == msgs.values[k]
    print(
        f"  recovered {nary.message_letter(k)} = {''.join(map(str, got))} "
        + ("(matches stored message)" if ok else "(MISMATCH)")
    )
    return 0 if ok else 1


def cmd_metrics(args, parser) -> int:
    _, export = _nary_source(parser, args.servers, args.messages, args.modulus)
    cap_value = analysis.capacity(args.servers, args.messages)
    rate_value = analysis.rate(export)
    up = analysis.upload_cost_bits(export)
    print(f"capacity            {cap_value}")
    print(f"rate                {rate_value}")
    print(f"message size        {analysis.message_size_bits(export):.4f} bits")
    print(f"upload cost         {up.total_bits:.4f} bits")
    print(f"queries per server  {up.per_server}")
    print(
        f"expected download   {sum(analysis.expected_answer_lengths(export), Fraction(0))} symbols"
    )
    if rate_value != cap_value:
        print(f"RATE MISMATCH: rate {rate_value} != capacity {cap_value}")
        return 1
    print("rate equals capacity")
    return 0


def cmd_verify(args, parser) -> int:
    def refuse(params, keys, symbols):  # verify's own charge, made before export
        analysis.require_within_cap(analysis.work(params, keys, symbols).verify, args.cap)

    code = _build_source(args.source, parser, args.cap, refuse)
    records = analysis.verify(code, args.cap)
    for record in records:
        print(record.text_line())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
    failed = [r for r in records if not r.passed]
    print(f"RESULT {'FAIL' if failed else 'pass'} ({len(records)} checks, {len(failed)} failed)")
    return 1 if failed else 0


def cmd_symmetrize(args, parser) -> int:
    def refuse(params, keys, symbols):  # the transform's own charge, made before export
        symmetry.require_shape_within_cap(args.transform, params, keys, args.cap)

    code = _build_source(args.source, parser, args.cap, refuse)
    transforms = {
        "server": symmetry.server_symmetrize,
        "message": symmetry.message_symmetrize,
        "variety": symmetry.variety_symmetrize,
    }
    try:
        out_code = transforms[args.transform](code, args.cap)
    except ValueError as exc:
        print(f"cannot symmetrize: {exc}", file=sys.stderr)
        return 1
    print(f"before: {_metrics_line(code)}")
    print(f"after:  {_metrics_line(out_code)}")
    if args.out:
        codefile.save(out_code, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(codefile.emit(out_code))
    return 0


def cmd_serve(args, parser) -> int:
    if args.server_index < 0:
        parser.error(f"--server-index must be >= 0, got {args.server_index}")
    port = args.port
    if port is None:
        env = os.environ.get(PORT_ENV)
        try:
            port = int(env) if env else 0
        except ValueError:
            parser.error(f"${PORT_ENV} must be an integer port, got {env!r}")
    if not 0 <= port <= 65535:
        parser.error(f"port {port} outside 0..65535")
    server = net.PirServer(args.server_index, args.host, port)
    host, bound = server.address
    print(f"server {args.server_index} listening on {host}:{bound}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _wire_code(args, parser) -> tuple[list[tuple[str, int]], nary.NaryCode]:
    """Endpoints and code of `setup` and `retrieve`, checked before any connection."""
    endpoints = _parse_endpoints(args.endpoints, parser)
    try:
        code = nary.make_nary(len(endpoints), args.messages, args.modulus)
        net.check_wire_limits(code)
    except ValueError as exc:
        parser.error(str(exc))
    return endpoints, code


def cmd_setup(args, parser) -> int:
    endpoints, code = _wire_code(args, parser)
    p = code.params
    if args.data:
        values = _parse_digits(args.data, parser)
        if len(values) != p.n_messages * p.msg_len:
            parser.error(
                f"--data needs {p.n_messages * p.msg_len} symbols, got {len(values)}"
            )
        rows = [
            values[k * p.msg_len : (k + 1) * p.msg_len] for k in range(p.n_messages)
        ]
        try:
            msgs = MessageSet.from_values(rows, p.msg_modulus)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        msgs = _seeded_messages(p, args.seed)
    try:
        for endpoint in endpoints:
            net.setup_endpoint(endpoint, code, msgs)
    except net.RetrievalError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 1
    for k in range(p.n_messages):
        print(f"installed {nary.message_letter(k)} = {','.join(map(str, msgs[k].values))}")
    return 0


def cmd_retrieve(args, parser) -> int:
    endpoints, code = _wire_code(args, parser)
    if not 0 <= args.target < args.messages:
        parser.error(f"--target must lie in 0..{args.messages - 1}")
    if args.key is not None:
        digits = _parse_digits(args.key, parser)
        try:
            key = RandomKey(digits, code.n_servers)
        except ValueError as exc:
            parser.error(str(exc))
        if len(digits) != args.messages - 1:
            parser.error(f"--key needs {args.messages - 1} digits")
    else:
        key = nary.random_key(code, random.Random(args.seed))
    try:
        got = net.client_retrieve(code, endpoints, args.target, key)
    except net.RetrievalError as exc:
        print(f"retrieval failed: {exc}", file=sys.stderr)
        return 1
    print(f"key {key.label()}")
    print(f"recovered message {args.target}: {','.join(map(str, got.values))}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pirlab",
        description="Private information retrieval lab: codes, verifiers, transforms, and a loopback protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape(p):
        p.add_argument("--servers", type=int, required=True, help="number of servers N")
        p.add_argument("--messages", type=int, required=True, help="number of messages K")
        p.add_argument("--modulus", type=int, default=2, help="symbol alphabet size m")

    def add_wire_shape(p):
        p.add_argument("--endpoints", required=True, help="comma-separated host:port list, server order")
        p.add_argument("--messages", type=int, required=True)
        p.add_argument("--modulus", type=int, default=2)

    p = sub.add_parser("demo", help="print the query/answer table and run one retrieval")
    add_shape(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the demo database")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("metrics", help="capacity, rate, message size, upload cost")
    add_shape(p)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("verify", help="exhaustively verify a code")
    p.add_argument("source", nargs="+", help="nary N K [m] | table1 | table2 | FILE")
    p.add_argument("--cap", type=int, default=analysis.DEFAULT_CAP, help="enumeration cap")
    p.add_argument("--out", help="also write machine-readable JSONL records here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("symmetrize", help="apply a symmetrization transform")
    p.add_argument("transform", choices=("server", "message", "variety"))
    p.add_argument("source", nargs="+", help="nary N K [m] | table1 | table2 | FILE")
    p.add_argument("--cap", type=int, default=analysis.DEFAULT_CAP, help="enumeration cap")
    p.add_argument("--out", help="write the transformed code here (default: stdout)")
    p.set_defaults(fn=cmd_symmetrize)

    p = sub.add_parser("serve", help="run one server on a TCP port")
    p.add_argument("--server-index", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None, help=f"TCP port (default: ${PORT_ENV} or ephemeral)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("setup", help="install a replicated database on running servers")
    add_wire_shape(p)
    p.add_argument("--seed", type=int, default=0, help="seed for random message symbols")
    p.add_argument("--data", help="explicit symbols, comma-separated, message-major")
    p.set_defaults(fn=cmd_setup)

    p = sub.add_parser("retrieve", help="privately retrieve one message from running servers")
    add_wire_shape(p)
    p.add_argument("--target", type=int, required=True, help="message index to retrieve")
    p.add_argument("--key", help="explicit key digits, comma-separated")
    p.add_argument("--seed", type=int, default=0, help="seed for a random key when --key is absent")
    p.set_defaults(fn=cmd_retrieve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except EnumerationCapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
