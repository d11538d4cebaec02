"""Table-driven model of retrieval codes with componentwise answers.

A code in this model answers every query with a vector of answer symbols,
where each symbol is the group sum over messages of a per-message table
lookup.  Storing the per-message tables explicitly makes correctness,
privacy, and the structural properties checked in `analysis` decidable by
plain enumeration: there is no algebra to trust, only finite tables.

Layout of one code:

* per server ``n``: an ordered list of answer functions ("varieties"); the
  position of a variety in that list is its opaque query identifier,
* per variety: its length ``l`` and an ``l x K`` grid of component tables,
* an ordered key space of opaque key labels,
* a query map ``(k, key index) -> one query index per server``,
* optionally a reconstruction callable ``(k, key index, answers) -> values``,
  where each answer and the recovered message are tuples of int symbols.

Codes parsed from files carry no reconstruction callable; the verifier then
falls back to a unique-decodability check.
"""

from __future__ import annotations

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


def input_unrank(rank: int, modulus: int, length: int) -> tuple[int, ...]:
    """Inverse of `input_rank`."""
    out = []
    for _ in range(length):
        rank, d = divmod(rank, modulus)
        out.append(d)
    return tuple(reversed(out))


@dataclass(frozen=True)
class ComponentTable:
    """One message's contribution to one answer symbol, as a dense table.

    `values[input_rank(w, msg_modulus)]` is the symbol contributed when the
    message realization is `w`; entries lie in Z_ans_modulus.
    """

    values: tuple[int, ...]
    msg_modulus: int
    msg_len: int
    ans_modulus: int

    def __post_init__(self) -> None:
        expected = self.msg_modulus**self.msg_len
        if len(self.values) != expected:
            raise ValueError(
                f"table needs {expected} entries, got {len(self.values)}"
            )
        if any(not 0 <= v < self.ans_modulus for v in self.values):
            raise ValueError(f"table entries must lie in 0..{self.ans_modulus - 1}")

    def classify(self) -> str:
        """CONSTANT, BALANCED (every output hit equally often), or NEITHER."""
        first = self.values[0]
        if all(v == first for v in self.values):
            return CONSTANT
        total = len(self.values)
        if total % self.ans_modulus:
            return NEITHER
        share = total // self.ans_modulus
        counts = Counter(self.values)
        if len(counts) == self.ans_modulus and all(
            c == share for c in counts.values()
        ):
            return BALANCED
        return NEITHER

    @classmethod
    def constant(
        cls, msg_modulus: int, msg_len: int, ans_modulus: int, value: int = 0
    ) -> "ComponentTable":
        return cls(
            (value,) * (msg_modulus**msg_len), msg_modulus, msg_len, ans_modulus
        )

    @classmethod
    def from_function(
        cls, msg_modulus: int, msg_len: int, ans_modulus: int, fn
    ) -> "ComponentTable":
        size = msg_modulus**msg_len
        values = tuple(
            fn(input_unrank(r, msg_modulus, msg_len)) for r in range(size)
        )
        return cls(values, msg_modulus, msg_len, ans_modulus)

    @classmethod
    def coordinate(
        cls, msg_modulus: int, msg_len: int, ans_modulus: int, index: int
    ) -> "ComponentTable":
        """Projection onto one message symbol; needs the alphabets to embed."""
        if msg_modulus > ans_modulus:
            raise ValueError("coordinate table does not fit in the answer alphabet")
        return cls.from_function(
            msg_modulus, msg_len, ans_modulus, lambda w: w[index]
        )


@dataclass(frozen=True)
class AnswerFunction:
    """One variety: the full answer a server gives for one query.

    `tables[i][k]` is message k's component of answer symbol i; the answer
    length is query-determined by construction (``len(tables)``).
    """

    label: str
    tables: tuple[tuple[ComponentTable, ...], ...]

    def __post_init__(self) -> None:
        if not self.label or any(ch.isspace() for ch in self.label):
            raise ValueError("variety labels must be non-empty and whitespace-free")

    @property
    def length(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class QueryPmf:
    """Exact distribution over one server's query identifiers."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(p, Fraction) for p in self.probs):
            raise TypeError("query probabilities must be exact rationals")
        if any(p < 0 for p in self.probs):
            raise ValueError("query probabilities must be nonnegative")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("query probabilities must sum to exactly 1")


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
        for per_server in self.varieties:
            if not per_server:
                raise ValueError("every server needs at least one variety")
            labels = [v.label for v in per_server]
            if len(set(labels)) != len(labels):
                raise ValueError("variety labels must be unique per server")
            for variety in per_server:
                for row in variety.tables:
                    if len(row) != p.n_messages:
                        raise ValueError("each answer row needs one table per message")
                    for table in row:
                        if (
                            table.msg_modulus != p.msg_modulus
                            or table.msg_len != p.msg_len
                            or table.ans_modulus != p.ans_modulus
                        ):
                            raise ValueError("component table shape disagrees with params")
        if not self.keys:
            raise ValueError("key space must be non-empty")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("key labels must be unique")
        for key in self.keys:
            if any(ch.isspace() for ch in key):
                raise ValueError("key labels must be whitespace-free")
        expected_entries = {
            (k, f) for k in range(p.n_messages) for f in range(len(self.keys))
        }
        if set(self.query_map) != expected_entries:
            raise ValueError("query map must cover exactly all (k, key) pairs")
        for (k, f), per_server in self.query_map.items():
            if len(per_server) != p.n_servers:
                raise ValueError("query map entries need one query per server")
            for n, qi in enumerate(per_server):
                if not 0 <= qi < len(self.varieties[n]):
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
        if (
            len(msgs) != p.n_messages
            or msgs.msg_len != p.msg_len
            or msgs.modulus != p.msg_modulus
        ):
            raise ValueError("message set shape disagrees with code params")
        rows = self.varieties[n][query_index].tables
        values = msgs.values
        out = []
        for row in rows:
            acc = 0
            for k in range(p.n_messages):
                acc += row[k].values[input_rank(values[k], p.msg_modulus)]
            out.append(acc % p.ans_modulus)
        return tuple(out)

    def query_pmf(self, n: int, k: int) -> QueryPmf:
        """Distribution of the query sent to server n when requesting message k."""
        counts = [0] * self.query_count(n)
        for f in range(len(self.keys)):
            counts[self.query_map[(k, f)][n]] += 1
        total = len(self.keys)
        return QueryPmf(tuple(Fraction(c, total) for c in counts))


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
    for n, per_server in enumerate(code.varieties):
        for qi, variety in enumerate(per_server):
            for i, row in enumerate(variety.tables):
                for k, table in enumerate(row):
                    cls = table.classify()
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
    ident = ComponentTable.coordinate(2, 1, 2, 0)
    zero_t = ComponentTable.constant(2, 1, 2)
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
    zero_t = ComponentTable.constant(2, 4, 2)
    coord = [ComponentTable.coordinate(2, 4, 2, i) for i in range(4)]

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
    import itertools

    invs = list(itertools.permutations(range(4)))
    keys = tuple(digits_label(inv) for inv in invs)

    query_map: dict[tuple[int, int], tuple[int, ...]] = {}
    for f, inv in enumerate(invs):
        query_map[(0, f)] = (
            triple_index[(inv[0], inv[2], inv[1])],
            triple_index[(inv[1], inv[3], inv[0])],
        )
        query_map[(1, f)] = (
            triple_index[(inv[0], inv[1], inv[2])],
            triple_index[(inv[1], inv[0], inv[3])],
        )

    def reconstruct(k: int, key_index: int, answers) -> tuple[int, ...]:
        inv = invs[key_index]
        a0, a1 = answers
        out = [0] * 4
        if k == 0:
            out[inv[0]] = a0[0]
            out[inv[1]] = a1[0]
            out[inv[2]] = (a0[2] - a1[1]) % 2
            out[inv[3]] = (a1[2] - a0[1]) % 2
        else:
            out[inv[0]] = a0[1]
            out[inv[1]] = a1[1]
            out[inv[2]] = (a0[2] - a1[0]) % 2
            out[inv[3]] = (a1[2] - a0[0]) % 2
        return tuple(out)

    return DecomposableCode(params, varieties, keys, query_map, reconstruct)
