"""Table-driven model of retrieval codes with componentwise answers.

A code in this model answers every query with a vector of answer symbols,
where each symbol is the group sum over messages of a per-message table
lookup.  Storing the per-message tables explicitly makes correctness,
privacy, and the structural properties checked in `analysis` decidable by
plain enumeration: there is no algebra to trust, only finite tables.
The shape (N, K, L, m, y) is held once, in the code's `CodeParams`.

Layout of one code:

* per server ``n``: an ordered list of answer functions ("varieties"); the
  position of a variety in that list is its opaque query identifier,
* per variety: its length ``l`` and an ``l x K`` grid of component tables;
  a table is a plain ``tuple[int, ...]`` whose entry ``input_rank(w, m)`` is
  the answer symbol message value ``w`` contributes,
* an ordered key space of opaque key labels,
* a query map ``(k, key index) -> one query index per server``,
* optionally a reconstruction callable ``(k, key index, answers) -> values``,
  where each answer and the recovered message are tuples of int symbols.

Codes parsed from files carry no reconstruction callable; the verifier then
falls back to a unique-decodability check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .groups import CodeParams, MessageSet, digits_label

CONSTANT = "constant"
BALANCED = "balanced"
NEITHER = "neither"


def input_rank(values, modulus: int) -> int:
    """Row-major rank of a symbol vector: first symbol is most significant."""
    rank = 0
    for v in values:
        rank = rank * modulus + v
    return rank


def lift_table(table, m: int, prefix_len: int, total_len: int) -> tuple[int, ...]:
    """View a table over a slice of a longer message over Z_m, the slice that
    starts after `prefix_len` of its `total_len` symbols: each entry repeats
    once per value of the later symbols, and the whole run once per value of
    the earlier."""
    rest = m ** (total_len - prefix_len) // len(table)
    return tuple(v for v in table for _ in range(rest)) * m**prefix_len


def coordinate_table(m: int, L: int, j: int) -> tuple[int, ...]:
    """The table that projects a length-L message over Z_m onto its symbol j:
    the identity on one symbol, lifted to position j."""
    return lift_table(tuple(range(m)), m, j, L)


def classify(table: tuple[int, ...], modulus: int) -> str:
    """CONSTANT, BALANCED (every output of Z_modulus hit equally often), or NEITHER."""
    first = table[0]
    if all(v == first for v in table):
        return CONSTANT
    total = len(table)
    if total % modulus:
        return NEITHER
    share = total // modulus
    counts = Counter(table)
    if len(counts) == modulus and all(c == share for c in counts.values()):
        return BALANCED
    return NEITHER


def _check_label(label: str, what: str) -> None:
    if label.split() != [label]:  # one C-level pass: empty or whitespace both fail
        raise ValueError(f"{what} labels must be non-empty and whitespace-free")


def _check_table(table: tuple[int, ...], p: CodeParams) -> None:
    expected = p.msg_modulus**p.msg_len
    if len(table) != expected:
        raise ValueError(f"table needs {expected} entries, got {len(table)}")
    if min(table) < 0 or max(table) >= p.ans_modulus:
        raise ValueError(f"table entries must lie in 0..{p.ans_modulus - 1}")


@dataclass(frozen=True, slots=True)
class AnswerFunction:
    """One variety: the full answer a server gives for one query.

    `tables[i][k]` is message k's component table of answer symbol i: entry
    ``input_rank(w, m)`` is what message value ``w`` adds to that symbol, in
    0..y-1.  The answer length is query-determined by construction
    (``len(tables)``).
    """

    label: str
    tables: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        _check_label(self.label, "variety")

    @property
    def length(self) -> int:
        return len(self.tables)


@dataclass(frozen=True, eq=False)
class DecomposableCode:
    """A fully tabulated code; see the module docstring for the layout."""

    params: CodeParams
    varieties: tuple[tuple[AnswerFunction, ...], ...]
    keys: tuple[str, ...]
    query_map: dict[tuple[int, int], tuple[int, ...]]
    reconstruct: Optional[
        Callable[[int, int, tuple[tuple[int, ...], ...]], tuple[int, ...]]
    ] = field(default=None)

    def __post_init__(self) -> None:
        p = self.params
        if len(self.varieties) != p.n_servers:
            raise ValueError("need one variety list per server")
        checked: set[int] = set()
        for per_server in self.varieties:
            if not per_server:
                raise ValueError("every server needs at least one variety")
            labels = [v.label for v in per_server]
            if len(set(labels)) != len(labels):
                raise ValueError("variety labels must be unique per server")
            for variety in per_server:
                for row in variety.tables:
                    if id(row) not in checked:  # transforms share rows and tables
                        checked.add(id(row))
                        if len(row) != p.n_messages:
                            raise ValueError("each answer row needs one table per message")
                        for table in row:
                            if id(table) not in checked:
                                checked.add(id(table))
                                _check_table(table, p)
        if not self.keys:
            raise ValueError("key space must be non-empty")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("key labels must be unique")
        for key in self.keys:
            _check_label(key, "key")
        # as many entries as (k, key) pairs, each of them present: exactly those
        pairs = itertools.product(range(p.n_messages), range(len(self.keys)))
        if len(self.query_map) != p.n_messages * len(self.keys) or not all(
            map(self.query_map.__contains__, pairs)
        ):
            raise ValueError("query map must cover exactly all (k, key) pairs")
        counts = [len(per_server) for per_server in self.varieties]
        for (k, f), per_server in self.query_map.items():
            if len(per_server) != p.n_servers:
                raise ValueError("query map entries need one query per server")
            for n, qi in enumerate(per_server):
                if not 0 <= qi < counts[n]:
                    raise ValueError(f"query map entry ({k},{f}) out of range at server {n}")

    # Equality is structural over the serializable content; reconstruction
    # callables are deliberately excluded (files cannot carry them).
    def __eq__(self, other) -> bool:
        if not isinstance(other, DecomposableCode):
            return NotImplemented
        return (
            self.params == other.params
            and self.varieties == other.varieties
            and self.keys == other.keys
            and self.query_map == other.query_map
        )

    def query_count(self, n: int) -> int:
        return len(self.varieties[n])

    def query_label(self, n: int, query_index: int) -> str:
        return self.varieties[n][query_index].label

    def answer_length(self, n: int, query_index: int) -> int:
        return self.varieties[n][query_index].length

    def eval_answer(self, n: int, query_index: int, msgs: MessageSet) -> tuple[int, ...]:
        """Run one server's answer function on a concrete database."""
        p = self.params
        msgs.check_shape(p)
        rows = self.varieties[n][query_index].tables
        values = msgs.values
        out = []
        for row in rows:
            acc = 0
            for k in range(p.n_messages):
                acc += row[k][input_rank(values[k], p.msg_modulus)]
            out.append(acc % p.ans_modulus)
        return tuple(out)

    def query_pmf(self, n: int, k: int) -> tuple[Fraction, ...]:
        """Distribution of the query sent to server n when requesting message k."""
        counts = [0] * self.query_count(n)
        for f in range(len(self.keys)):
            counts[self.query_map[(k, f)][n]] += 1
        return tuple(Fraction(c, len(self.keys)) for c in counts)


@dataclass(frozen=True)
class DecompositionReport:
    """Classification of every component table of a code."""

    uniform: bool
    constant_count: int
    balanced_count: int
    neither: tuple[tuple[int, int, int, int], ...]  # (server, query, row, message)

    def __bool__(self) -> bool:
        return self.uniform


def is_uniformly_decomposable(code: DecomposableCode) -> DecompositionReport:
    """A code is uniformly decomposable iff every table is CONSTANT or BALANCED."""
    constant = balanced = 0
    neither = []
    # transforms share tables: classify each distinct table object once
    tables = {id(t): t for per in code.varieties for v in per for row in v.tables for t in row}
    classes = {i: classify(t, code.params.ans_modulus) for i, t in tables.items()}
    for n, per_server in enumerate(code.varieties):
        for qi, variety in enumerate(per_server):
            for i, row in enumerate(variety.tables):
                for k, table in enumerate(row):
                    cls = classes[id(table)]
                    if cls == CONSTANT:
                        constant += 1
                    elif cls == BALANCED:
                        balanced += 1
                    else:
                        neither.append((n, qi, i, k))
    return DecompositionReport(not neither, constant, balanced, tuple(neither))


def builtin_table1() -> DecomposableCode:
    """Two servers, two one-symbol binary messages, key-dependent answer length.

    Server 0 either stays silent or sends the sum of both messages; server 1
    sends one of the two messages in the clear.  Which message the silent-or-
    sum server masks is decided by one uniform key bit, so each server sees
    the same query distribution whichever message is wanted.
    """
    params = CodeParams(2, 2, 1, 2, 2)
    ident = coordinate_table(2, 1, 0)
    zero_t = (0,) * 2
    server0 = (
        AnswerFunction("0", ()),
        AnswerFunction("a+b", ((ident, ident),)),
    )
    server1 = (
        AnswerFunction("a", ((ident, zero_t),)),
        AnswerFunction("b", ((zero_t, ident),)),
    )
    # key bit 0: silent server, fetch the wanted message directly
    # key bit 1: sum server, fetch the complementary message
    query_map = {
        (0, 0): (0, 0),
        (0, 1): (1, 1),
        (1, 0): (0, 1),
        (1, 1): (1, 0),
    }

    def reconstruct(k: int, key_index: int, answers) -> tuple[int, ...]:
        if key_index == 0:
            return (answers[1][0],)
        return ((answers[0][0] - answers[1][0]) % 2,)

    return DecomposableCode(params, (server0, server1), ("0", "1"), query_map, reconstruct)


def builtin_sunjafar22() -> DecomposableCode:
    """Two servers, two four-bit messages, fixed three-symbol answers.

    The key is a uniformly random assignment of the four symbol positions to
    four roles.  A query names three positions (x, u, v) and the server
    replies with (a_x, b_x, a_u + b_v); each server sees all 24 ordered
    position triples equally often for either request.  Download is 6 bits
    for a 4-bit message, so the rate is 2/3.
    """
    params = CodeParams(2, 2, 4, 2, 2)
    zero_t = (0,) * 2**4
    coord = [coordinate_table(2, 4, i) for i in range(4)]

    triples = [
        (x, u, v)
        for x in range(4)
        for u in range(4)
        for v in range(4)
        if len({x, u, v}) == 3
    ]
    triple_index = {t: i for i, t in enumerate(triples)}

    def make_server() -> tuple[AnswerFunction, ...]:
        out = []
        for x, u, v in triples:
            rows = (
                (coord[x], zero_t),
                (zero_t, coord[x]),
                (coord[u], coord[v]),
            )
            out.append(AnswerFunction(digits_label((x, u, v)), rows))
        return tuple(out)

    varieties = (make_server(), make_server())

    # keys: role -> position, as the tuple (pos0, pos1, pos2, pos3) for the
    # four roles (direct@server0, direct@server1, masked@server0, masked@server1)
    invs = list(itertools.permutations(range(4)))
    keys = tuple(digits_label(inv) for inv in invs)

    def query(k: int, s: int, inv) -> tuple[int, int, int]:
        """Server s reads position inv[s] directly and masks inv[2 + s] with
        inv[1 - s]; the masked pair swaps for request 1."""
        u, v = inv[2 + s], inv[1 - s]
        return (inv[s], v, u) if k else (inv[s], u, v)

    query_map = {
        (k, f): tuple(triple_index[query(k, s, inv)] for s in range(2))
        for f, inv in enumerate(invs)
        for k in range(2)
    }

    def reconstruct(k: int, key_index: int, answers) -> tuple[int, ...]:
        inv = invs[key_index]
        a0, a1 = answers
        out = [0] * 4
        for s, (own, other) in enumerate(((a0, a1), (a1, a0))):
            # message k's direct symbol, then its masked one, unmasked by the
            # other server's direct symbol of the other message
            out[inv[s]] = own[k]
            out[inv[2 + s]] = (own[2] - other[1 - k]) % 2
        return tuple(out)

    return DecomposableCode(params, varieties, keys, query_map, reconstruct)
