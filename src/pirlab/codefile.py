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
each table once, each row once per row index and each key and query index
once.  `parse` reads through a cursor, copying out only the lines it reads:
one table per distinct value text, one row per distinct row text and index,
found again at its index by the row text read there last, else by a slice;
an index token spelled as `emit` spells it is compared, or looked up, as text.

``parse(emit(code)) == code`` holds structurally (params, varieties, keys,
query map) for every code this package produces.
"""

from __future__ import annotations

import itertools
import operator

from .groups import CodeParams
from .model import AnswerFunction, DecomposableCode, _check_table

MAGIC = ("pir-code", "v1")


class CodeFormatError(ValueError):
    """Input text is not a well-formed pir-code v1 document."""


def _key_and_map_lines(keys, query_map, n_messages: int, varieties) -> str:
    """The `key` and `map` lines, each key index and query index spelled once."""
    spelled = [str(i) for i in range(max(len(keys), *map(len, varieties)))]
    heads = itertools.chain.from_iterable(map(f"map {k} ".__add__, spelled[: len(keys)]) for k in range(n_messages))
    entries = list(map(query_map.__getitem__, itertools.product(range(n_messages), range(len(keys)))))
    columns = (map(operator.itemgetter(n), entries) for n in range(len(entries[0])))  # per server
    map_lines = zip(heads, *(map(spelled.__getitem__, column) for column in columns))
    return "\n".join(map(" ".join, itertools.chain(zip(itertools.repeat("key"), spelled, keys), map_lines)))


def _pieces(code: DecomposableCode) -> list[str]:
    """The text of `emit`, as pieces to join with line breaks; a repeated
    row's lines are one piece, shared wherever the row appears."""
    p = code.params
    rendered: dict[int, str] = {}  # id(table) -> its value text
    chunks: dict[tuple[int, int], str] = {}  # (row index, id(row)) -> the row's lines
    lines = [f"pir-code v1 {p.n_servers} {p.n_messages} {p.msg_len} {p.msg_modulus} {p.ans_modulus}"]
    for n, per_server in enumerate(code.varieties):
        lines.append(f"server {n} {len(per_server)}")
        for qi, variety in enumerate(per_server):
            lines.append(f"query {qi} {variety.label} {len(variety.tables)}")
            for i, row in enumerate(variety.tables):
                chunk = chunks.get((i, id(row)))
                if chunk is None:
                    for table in row:
                        if id(table) not in rendered:
                            rendered[id(table)] = " ".join(map(str, table))
                    chunk = chunks[(i, id(row))] = "\n".join(
                        f"table {i} {k} {rendered[id(table)]}" for k, table in enumerate(row)
                    )
                lines.append(chunk)
    lines.append(f"keys {len(code.keys)}")
    lines.append(_key_and_map_lines(code.keys, code.query_map, p.n_messages, code.varieties))
    lines.append("end\n")  # the final break inside the join: no second copy of the text
    return lines


def emit(code: DecomposableCode) -> str:
    """Serialize a code; deterministic, byte-stable output."""
    return "\n".join(_pieces(code))


# the line breaks of `str.splitlines` other than "\n": an ASCII text can hold only the first six
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class _Reader:
    """A cursor over a document's text: a line is copied out, and split, only
    when it is read.  Lines are those of `str.splitlines`; blank and
    whitespace-only lines are skipped."""

    def __init__(self, text: str):
        if any(brk in text for brk in _OTHER_BREAKS[: 6 if text.isascii() else None]):
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
    doc = r.text  # every line break a "\n"
    # transformed codes repeat a few rows and tables many times: each distinct
    # value text is read once, and a row's K lines, once read token by token at
    # a row index, are stored under exactly their text (blank lines included,
    # ending with a line break or the document), so equal text at a line start
    # there is that row: the row read there last is tried in place, then a
    # slice as long as it, which fits every row there when values have one digit
    by_text: dict[str, tuple[int, ...]] = {}
    by_span: dict[str, tuple[str, int, tuple]] = {}  # -> (its text, row index, row)
    last: dict[int, tuple[str, int, tuple]] = {}  # row index -> the row read there last
    lengths: dict[str, int] = {}  # answer length token read before -> its value

    varieties = []
    for n in range(n_servers):
        row = r.next("server", 3)
        if _int(row[1], "server index") != n:
            raise CodeFormatError(f"server blocks must appear in order, got {row[1]}")
        count = _int(row[2], "query count")
        if count < 1:
            raise CodeFormatError("every server needs at least one query")
        per_server = []
        for qi, index in enumerate(map(str, range(count))):
            qrow = r.next("query", 4)
            if qrow[1] != index and _int(qrow[1], "query index") != qi:
                raise CodeFormatError(f"query blocks must appear in order, got {qrow[1]}")
            length = lengths.get(qrow[3])
            if length is None:
                length = lengths[qrow[3]] = _int(qrow[3], "answer length")
                if length < 0:
                    raise CodeFormatError("answer length must be >= 0")
            rows, at = [], r.at  # the cursor, kept local on this hot path
            for i in range(length):
                seen = last.get(i)
                if seen is None or not doc.startswith(seen[0], at):
                    seen = seen and by_span.get(doc[at : at + len(seen[0])])
                    if not seen or seen[1] != i:  # read token by token from `at`
                        r.at, cols = at, []
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
                        span = doc[at : r.at]
                        seen = by_span[span] = (span, i, tuple(cols))
                    last[i] = seen
                at += len(seen[0])
                rows.append(seen[2])
            r.at = at
            per_server.append(AnswerFunction(qrow[2], tuple(rows)))  # a split token is a label
        varieties.append(tuple(per_server))

    krow = r.next("keys", 2)
    key_count = _int(krow[1], "key count")
    if key_count < 1:
        raise CodeFormatError("key space must be non-empty")
    keys = []
    for f, index in enumerate(map(str, range(key_count))):
        row = r.next("key", 3)
        if row[1] != index and _int(row[1], "key index") != f:
            raise CodeFormatError(f"key entries must appear in order, got {row[1]}")
        keys.append(row[2])
    # as for `table` lines, an index spelled as `emit` writes it needs no conversion
    queries = {str(q): q for q in range(max(map(len, varieties)))}
    query_map = {}
    spelled = (enumerate(map(str, range(count))) for count in (n_messages, key_count))
    for (k, kk), (f, ff) in itertools.product(*spelled):
        row = r.next("map", 3 + n_servers)
        if (row[1], row[2]) != (kk, ff) and (_int(row[1], "map k") != k or _int(row[2], "map key") != f):
            raise CodeFormatError(f"map entries must appear k-major, got ({row[1]},{row[2]})")
        entry = tuple(map(queries.get, row[3:]))
        query_map[(k, f)] = entry if None not in entry else tuple(_int(t, "map query") for t in row[3:])

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
    """Write `emit(code)` to `path`, encoding each distinct piece once and never
    the whole text; a code that is not ASCII leaves the file untouched."""
    pieces = _pieces(code)
    encoded = {piece: piece.encode("ascii") for piece in dict.fromkeys(pieces)}
    batch = 1024  # pieces per write: large writes, and no copy of the whole text
    with open(path, "wb") as fh:
        for i in range(0, len(pieces), batch):
            if i:
                fh.write(b"\n")
            fh.write(b"\n".join(map(encoded.__getitem__, pieces[i : i + batch])))


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
