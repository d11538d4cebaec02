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

Code files are ASCII, and `parse` rejects any other text.  Every integer
is canonical ASCII decimal, the only spelling `emit` writes: ``0``, or an
optional ``-`` and a nonzero digit followed by digits; ``+1``, ``01``,
``0_2`` and non-ASCII digits are rejected, so ``emit(parse(text)) == text``
for every accepted text laid out as `emit` lays it out (single spaces, each
line ended by ``\n``).  Lines are those of `str.splitlines`, so ``\r\n``,
``\r`` and its other breaks end a line too.  Blank lines are skipped, but
counted in errors.

Transformed codes repeat a few rows and tables many times: `emit` renders
each table once and each row once per row index.  `parse` reads through a
cursor over the text, copying out only the lines it reads: it builds one
table per distinct value text and one row per distinct row text and index,
and takes a row whose text it has read at that row index before as one
slice of the text.

``parse(emit(code)) == code`` holds structurally (params, varieties, keys,
query map) for every code this package produces.
"""

from __future__ import annotations

from .groups import CodeParams
from .model import AnswerFunction, DecomposableCode, _check_table

MAGIC = ("pir-code", "v1")


class CodeFormatError(ValueError):
    """Input text is not a well-formed pir-code v1 document."""


def emit(code: DecomposableCode) -> str:
    """Serialize a code; deterministic, byte-stable output."""
    p = code.params
    rendered: dict[int, str] = {}  # id(table) -> its value text
    chunks: dict[tuple[int, int], str] = {}  # (row index, id(row)) -> the row's lines
    lines = [f"pir-code v1 {p.n_servers} {p.n_messages} {p.msg_len} {p.msg_modulus} {p.ans_modulus}"]
    for n, per_server in enumerate(code.varieties):
        lines.append(f"server {n} {len(per_server)}")
        for qi, variety in enumerate(per_server):
            lines.append(f"query {qi} {variety.label} {variety.length}")
            for i, row in enumerate(variety.tables):
                if (i, id(row)) not in chunks:
                    for table in row:
                        if id(table) not in rendered:
                            rendered[id(table)] = " ".join(map(str, table))
                    chunks[(i, id(row))] = "\n".join(
                        f"table {i} {k} {rendered[id(table)]}" for k, table in enumerate(row)
                    )
                lines.append(chunks[(i, id(row))])
    lines.append(f"keys {len(code.keys)}")
    for f, label in enumerate(code.keys):
        lines.append(f"key {f} {label}")
    for k in range(p.n_messages):
        for f in range(len(code.keys)):
            qs = " ".join(str(q) for q in code.query_map[(k, f)])
            lines.append(f"map {k} {f} {qs}")
    lines.append("end\n")  # the final break inside the join: no second copy of the text
    return "\n".join(lines)


# the line breaks of `str.splitlines` other than "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class _Reader:
    """A cursor over a document's text: a line is copied out, and split, only
    when it is read.  Lines are those of `str.splitlines`; blank and
    whitespace-only lines are skipped."""

    def __init__(self, text: str):
        if any(brk in text for brk in _OTHER_BREAKS):
            text = "\n".join(text.splitlines())  # the same lines, numbered alike
        self.text = text
        self.at = 0  # where the next line starts
        self.start = 0  # where the line read last starts

    def lineno(self) -> int:
        """The number of the line read last, blank lines counted (errors only)."""
        return self.text.count("\n", 0, self.start) + 1

    def _line(self) -> str | None:
        """The next non-blank line, or None past the last one."""
        text = self.text
        while self.at < len(text):
            end = text.find("\n", self.at)
            if end < 0:
                end = len(text)
            line = text[self.at : end]
            self.start, self.at = self.at, end + 1
            if line and not line.isspace():
                return line
        return None

    def next(self, directive: str, count: int | None = None, maxsplit: int = -1) -> list[str]:
        line = self._line()
        if line is None:
            raise CodeFormatError(f"unexpected end of input, wanted '{directive}'")
        row = line.split(None, maxsplit)
        if row[0] != directive:
            raise CodeFormatError(f"expected '{directive}' at line {self.lineno()}, got '{row[0]}'")
        if count is not None:
            self.check_count(directive, row, count)
        return row

    def check_count(self, directive: str, row: list[str], count: int) -> None:
        if len(row) != count:
            raise CodeFormatError(
                f"'{directive}' at line {self.lineno()} needs {count} tokens, got {len(row)}"
            )

    def done(self) -> bool:
        return self._line() is None


def _int(token: str, what: str) -> int:
    try:
        value = int(token)  # raises past int()'s limit on digits
    except ValueError:
        pass
    else:
        if str(value) == token:  # canonical: the spelling str() writes back
            return value
    raise CodeFormatError(f"bad integer for {what}: {token!r}")


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
    # transformed codes repeat a few rows and tables many times: each distinct
    # value text is read once, and the text of a row's K lines, once validated
    # at a row index, is taken whole at that index; elsewhere it is read token
    # by token.  A row is stored under exactly the text it was read from (blank
    # lines included, ending with a line break or the document), so equal text
    # at a line start is the same K lines.  The slice looked up is as long as
    # the row read last at that index, which every row there matches when each
    # value has one digit; finding K line ends per row costs about what it saves
    by_text: dict[str, tuple[int, ...]] = {}
    by_span: dict[str, tuple[int, tuple]] = {}  # -> (row index, row)
    widths: dict[int, int] = {}  # row index -> length of the row text read last there

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
                span = r.text[r.at : r.at + widths.get(i, 0)]
                seen = by_span.get(span)
                if seen is not None and seen[0] == i:
                    r.at += len(span)
                    rows.append(seen[1])
                    continue
                start = r.at
                cols = []
                for k in range(n_messages):
                    trow = r.next("table", maxsplit=3)
                    value_text = trow[3] if len(trow) == 4 else ""
                    table = by_text.get(value_text)
                    if table is None:
                        trow[3:] = value_text.split()
                        r.check_count("table", trow, 3 + table_size)
                    # canonical tokens are equal exactly when their integers are
                    if (trow[1], trow[2]) != (str(i), str(k)) and (
                        _int(trow[1], "table row") != i or _int(trow[2], "table col") != k
                    ):
                        raise CodeFormatError(
                            f"table blocks must appear row-major, got ({trow[1]},{trow[2]})"
                        )
                    if table is None:
                        table = tuple(_int(t, "table value") for t in trow[3:])
                        try:
                            _check_table(table, params)
                        except ValueError as exc:
                            raise CodeFormatError(str(exc)) from None
                        by_text[value_text] = table
                    cols.append(table)
                row = tuple(cols)
                span = r.text[start : r.at]
                by_span[span] = (i, row)
                widths[i] = len(span)
                rows.append(row)
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
    if not text.isascii():
        # a non-ASCII integer has failed as a bad integer by now, so this is
        # a label or a separator, which `emit` could not write back
        i = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise CodeFormatError(f"not ASCII text: {text[i]!r} at offset {i}")

    try:
        return DecomposableCode(params, tuple(varieties), tuple(keys), query_map, None)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from None


def save(code: DecomposableCode, path) -> None:
    """Write `emit(code)` to `path`; a code that is not ASCII leaves it untouched."""
    data = emit(code).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def load(path) -> DecomposableCode:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CodeFormatError(
            f"not an ASCII file: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    del data  # parse the text alone: the bytes are a second copy
    return parse(text)
