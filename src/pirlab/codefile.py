"""Text interchange format for table-driven codes (``pir-code v1``).

Grammar (whitespace-separated tokens, one directive per line, strict order):

    pir-code v1 <N> <K> <L> <m> <y>
    server <n> <query-count>                    for n = 0..N-1, ascending
      query <index> <label> <length>            ascending index
        table <row> <col> <v0> ... <v_{m^L-1}>  row-major over rows, then cols
    keys <count>
      key <index> <label>                       ascending index
    map <k> <key-index> <q_0> ... <q_{N-1}>     k-major, then key index
    end

Labels are single whitespace-free tokens; ``-`` conventionally names the
empty label.  Table values are answer symbols in ``0..y-1`` listed in
row-major input order (`model.input_rank`).  The reconstruction callable of
a code is *not* representable here: parsed codes carry ``reconstruct=None``
and the verifier falls back to a decodability check for them.

``parse(emit(code)) == code`` holds structurally (params, varieties, keys,
query map) for every code this package produces.
"""

from __future__ import annotations

from .groups import CodeParams
from .model import AnswerFunction, ComponentTable, DecomposableCode

MAGIC = ("pir-code", "v1")


class CodeFormatError(ValueError):
    """Input text is not a well-formed pir-code v1 document."""


def emit(code: DecomposableCode) -> str:
    """Serialize a code; deterministic, byte-stable output."""
    p = code.params
    lines = [f"pir-code v1 {p.n_servers} {p.n_messages} {p.msg_len} {p.msg_modulus} {p.ans_modulus}"]
    for n, per_server in enumerate(code.varieties):
        lines.append(f"server {n} {len(per_server)}")
        for qi, variety in enumerate(per_server):
            lines.append(f"query {qi} {variety.label} {variety.length}")
            for i, row in enumerate(variety.tables):
                for k, table in enumerate(row):
                    vals = " ".join(str(v) for v in table.values)
                    lines.append(f"table {i} {k} {vals}")
    lines.append(f"keys {len(code.keys)}")
    for f, label in enumerate(code.keys):
        lines.append(f"key {f} {label}")
    for k in range(p.n_messages):
        for f in range(len(code.keys)):
            qs = " ".join(str(q) for q in code.query_map[(k, f)])
            lines.append(f"map {k} {f} {qs}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.rows = [line.split() for line in text.splitlines() if line.strip()]
        self.pos = 0

    def next(self, directive: str, count: int | None = None) -> list[str]:
        if self.pos >= len(self.rows):
            raise CodeFormatError(f"unexpected end of input, wanted '{directive}'")
        row = self.rows[self.pos]
        self.pos += 1
        if row[0] != directive:
            raise CodeFormatError(f"expected '{directive}' at line {self.pos}, got '{row[0]}'")
        if count is not None and len(row) != count:
            raise CodeFormatError(
                f"'{directive}' at line {self.pos} needs {count} tokens, got {len(row)}"
            )
        return row

    def done(self) -> bool:
        return self.pos >= len(self.rows)


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CodeFormatError(f"bad integer for {what}: {token!r}") from None


def parse(text: str) -> DecomposableCode:
    """Parse a pir-code v1 document; the result has no reconstruction callable."""
    r = _Reader(text)
    header = r.next("pir-code", 7)
    if header[1] != MAGIC[1]:
        raise CodeFormatError(f"unsupported version {header[1]!r}")
    n_servers, n_messages, msg_len, m, y = (_int(t, "header") for t in header[2:7])
    try:
        params = CodeParams(n_servers, n_messages, msg_len, m, y)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from None
    table_size = m**msg_len
    # transformed codes repeat a few tables many times; equal ones share an object
    tables: dict[tuple[int, ...], ComponentTable] = {}

    varieties = []
    for n in range(n_servers):
        row = r.next("server", 3)
        if _int(row[1], "server index") != n:
            raise CodeFormatError(f"server blocks must appear in order, got {row[1]}")
        count = _int(row[2], "query count")
        if count < 1:
            raise CodeFormatError("every server needs at least one query")
        per_server = []
        for qi in range(count):
            qrow = r.next("query", 4)
            if _int(qrow[1], "query index") != qi:
                raise CodeFormatError(f"query blocks must appear in order, got {qrow[1]}")
            label = qrow[2]
            length = _int(qrow[3], "answer length")
            if length < 0:
                raise CodeFormatError("answer length must be >= 0")
            rows = []
            for i in range(length):
                cols = []
                for k in range(n_messages):
                    trow = r.next("table", 3 + table_size)
                    if _int(trow[1], "table row") != i or _int(trow[2], "table col") != k:
                        raise CodeFormatError(
                            f"table blocks must appear row-major, got ({trow[1]},{trow[2]})"
                        )
                    values = tuple(_int(t, "table value") for t in trow[3:])
                    if values not in tables:
                        try:
                            tables[values] = ComponentTable(values, m, msg_len, y)
                        except ValueError as exc:
                            raise CodeFormatError(str(exc)) from None
                    cols.append(tables[values])
                rows.append(tuple(cols))
            try:
                per_server.append(AnswerFunction(label, tuple(rows)))
            except ValueError as exc:
                raise CodeFormatError(str(exc)) from None
        varieties.append(tuple(per_server))

    krow = r.next("keys", 2)
    key_count = _int(krow[1], "key count")
    if key_count < 1:
        raise CodeFormatError("key space must be non-empty")
    keys = []
    for f in range(key_count):
        row = r.next("key", 3)
        if _int(row[1], "key index") != f:
            raise CodeFormatError(f"key entries must appear in order, got {row[1]}")
        keys.append(row[2])

    query_map: dict[tuple[int, int], tuple[int, ...]] = {}
    for k in range(n_messages):
        for f in range(key_count):
            row = r.next("map", 3 + n_servers)
            if _int(row[1], "map k") != k or _int(row[2], "map key") != f:
                raise CodeFormatError(
                    f"map entries must appear k-major, got ({row[1]},{row[2]})"
                )
            query_map[(k, f)] = tuple(_int(t, "map query") for t in row[3:])

    r.next("end", 1)
    if not r.done():
        raise CodeFormatError("trailing content after 'end'")

    try:
        return DecomposableCode(params, tuple(varieties), tuple(keys), query_map, None)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from None


def save(code: DecomposableCode, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(code))


def load(path) -> DecomposableCode:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())
