"""Capacity-achieving retrieval code with base-N digit-vector queries.

Shape: N servers, K messages of L = N-1 symbols over Z_m.  A query is one
base-N digit per message; server n accepts exactly the digit vectors whose
digit sum is n mod N, giving N^(K-1) queries per server.  The user's key is
K-1 uniform digits; requesting message k copies the key into the other K-1
digit positions and solves digit k so the sum lands on the right server.

Each message is padded with a leading zero symbol, so digit 0 selects a
dummy that contributes nothing.  A server's answer is the single group sum
of the selected padded symbols -- except the all-zero query at server 0,
which is answered with nothing at all.  Subtracting the one answer made
entirely of dummy-or-other-message symbols ("interference") peels out the
requested payload one symbol per server.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from string import ascii_lowercase

from .groups import CodeParams, Message, MessageSet, QueryVector, RandomKey
from .model import AnswerFunction, ComponentTable, DecomposableCode


@dataclass(frozen=True)
class NaryCode:
    """Parameter bundle for the digit-vector code; msg_len is pinned to N-1."""

    params: CodeParams

    def __post_init__(self) -> None:
        p = self.params
        if p.msg_len != p.n_servers - 1:
            raise ValueError("message length must equal n_servers - 1")
        if p.ans_modulus != p.msg_modulus:
            raise ValueError("answers reuse the message alphabet")

    @property
    def n_servers(self) -> int:
        return self.params.n_servers

    @property
    def n_messages(self) -> int:
        return self.params.n_messages

    @property
    def modulus(self) -> int:
        return self.params.msg_modulus


def make_nary(n_servers: int, n_messages: int, modulus: int = 2) -> NaryCode:
    return NaryCode(
        CodeParams(n_servers, n_messages, n_servers - 1, modulus, modulus)
    )


def key_space(code: NaryCode) -> tuple[RandomKey, ...]:
    """All N^(K-1) keys in lexicographic digit order."""
    n = code.n_servers
    return tuple(
        RandomKey(digits, n)
        for digits in itertools.product(range(n), repeat=code.n_messages - 1)
    )


def random_key(code: NaryCode, rng: random.Random) -> RandomKey:
    n = code.n_servers
    return RandomKey(
        tuple(rng.randrange(n) for _ in range(code.n_messages - 1)), n
    )


def key_offset(key: RandomKey) -> int:
    """Digit sum of the key mod N; the server whose answer is pure interference."""
    return sum(key.digits) % key.base


def query_vector(code: NaryCode, n: int, k: int, key: RandomKey) -> QueryVector:
    """The query sent to server n when requesting message k under `key`."""
    N = code.n_servers
    if not 0 <= n < N:
        raise ValueError(f"server index {n} out of range")
    if not 0 <= k < code.n_messages:
        raise ValueError(f"message index {k} out of range")
    if key.base != N or len(key.digits) != code.n_messages - 1:
        raise ValueError("key shape disagrees with code params")
    return QueryVector(_query_digits(key.digits, key_offset(key), n, k, N), N)


def _query_digits(
    key_digits: tuple[int, ...], offset: int, n: int, k: int, N: int
) -> tuple[int, ...]:
    """Server n's query digits for message k: the key digits with
    (n - offset) mod N inserted at position k."""
    return key_digits[:k] + ((n - offset) % N,) + key_digits[k:]


def query_set(code: NaryCode, n: int) -> tuple[QueryVector, ...]:
    """Server n's queries: digit vectors summing to n, ordered by their first
    K-1 digits (the last digit is determined)."""
    N = code.n_servers
    if not 0 <= n < N:
        raise ValueError(f"server index {n} out of range")
    out = []
    for head in itertools.product(range(N), repeat=code.n_messages - 1):
        last = (n - sum(head)) % N
        out.append(QueryVector(head + (last,), N))
    return tuple(out)


def answer_length(code: NaryCode, n: int, q: QueryVector) -> int:
    """0 for the all-zero query at server 0, else 1."""
    if q.base != code.n_servers or len(q.digits) != code.n_messages:
        raise ValueError("query shape disagrees with code params")
    if q.server != n:
        raise ValueError(
            f"query {q.label()} belongs to server {q.server}, not {n}"
        )
    if n == 0 and all(d == 0 for d in q.digits):
        return 0
    return 1


def answer(code: NaryCode, n: int, q: QueryVector, msgs: MessageSet) -> tuple[int, ...]:
    """Group sum of the padded-message symbols the query digits select.

    Digit 0 selects the zero dummy, so only non-zero digits add a symbol.
    """
    if answer_length(code, n, q) == 0:
        return ()
    if (
        len(msgs) != code.n_messages
        or msgs.msg_len != code.params.msg_len
        or msgs.modulus != code.modulus
    ):
        raise ValueError("message set shape disagrees with code params")
    rows = msgs.values
    return (sum(rows[k][d - 1] for k, d in enumerate(q.digits) if d) % code.modulus,)


def reconstruct(
    code: NaryCode, answers: tuple[tuple[int, ...], ...], k: int, key: RandomKey
) -> tuple[int, ...]:
    """Subtract the interference answer from every other answer.

    Server F* (the key's digit sum) selected the dummy symbol of message k,
    so its answer carries interference only; an empty answer stands for the
    group identity.  Server n's answer then yields payload symbol
    (n - F*) mod N of message k.  Returns message k's symbol values.
    """
    N = code.n_servers
    if len(answers) != N:
        raise ValueError(f"need {N} answers, got {len(answers)}")
    if not 0 <= k < code.n_messages:
        raise ValueError(f"message index {k} out of range")
    if key.base != N or len(key.digits) != code.n_messages - 1:
        raise ValueError("key shape disagrees with code params")
    star = key_offset(key)
    for n, ans in enumerate(answers):
        # only server 0 under the all-zero key gets the all-zero query
        expected = 0 if n == 0 and not any(key.digits) else 1
        if len(ans) != expected:
            raise ValueError(
                f"answer {n} has {len(ans)} symbols, query demands {expected}"
            )
    interference = answers[star][0] if answers[star] else 0
    m = code.modulus
    # payload symbol pos-1 comes from server F* + pos; pos 0 is the dummy
    return tuple(
        (answers[(star + pos) % N][0] - interference) % m for pos in range(1, N)
    )


def retrieve(code: NaryCode, msgs: MessageSet, k: int, key: RandomKey) -> Message:
    """Full local round trip: queries, answers, reconstruction."""
    answers = tuple(
        answer(code, n, query_vector(code, n, k, key), msgs)
        for n in range(code.n_servers)
    )
    return Message(reconstruct(code, answers, k, key), code.modulus)


def message_letter(k: int) -> str:
    if k < len(ascii_lowercase):
        return ascii_lowercase[k]
    return f"w{k}"


def symbolic_answer(code: NaryCode, q: QueryVector, include_dummies: bool = True) -> str:
    """Render a query's answer as a formal sum like ``a0+b1+c2``.

    Index 0 names the dummy symbol; with ``include_dummies=False`` those
    terms are dropped, leaving only the symbols that affect the value.
    """
    if q.server == 0 and all(d == 0 for d in q.digits):
        return "0"
    terms = [
        f"{message_letter(k)}{digit}"
        for k, digit in enumerate(q.digits)
        if include_dummies or digit != 0
    ]
    return "+".join(terms) if terms else "0"


def answer_table(code: NaryCode) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Per server: the ordered (query label, symbolic answer) rows."""
    return tuple(
        tuple((q.label(), symbolic_answer(code, q)) for q in query_set(code, n))
        for n in range(code.n_servers)
    )


def export_decomposable(code: NaryCode) -> DecomposableCode:
    """Re-express the construction as explicit component tables."""
    p = code.params
    m, L, K, N = p.msg_modulus, p.msg_len, p.n_messages, p.n_servers
    zero_t = ComponentTable.constant(m, L, m)
    coord = [ComponentTable.coordinate(m, L, m, j) for j in range(L)]

    varieties = []
    index_of: list[dict[tuple[int, ...], int]] = []
    for n in range(N):
        per_server = []
        lookup: dict[tuple[int, ...], int] = {}
        for qi, q in enumerate(query_set(code, n)):
            lookup[q.digits] = qi
            if answer_length(code, n, q) == 0:
                per_server.append(AnswerFunction(q.label(), ()))
                continue
            row = tuple(
                zero_t if digit == 0 else coord[digit - 1] for digit in q.digits
            )
            per_server.append(AnswerFunction(q.label(), (row,)))
        varieties.append(tuple(per_server))
        index_of.append(lookup)

    keys = key_space(code)
    key_labels = tuple(key.label() for key in keys)
    offsets = [key_offset(key) for key in keys]
    query_map = {
        (k, f): tuple(
            index_of[n][_query_digits(key.digits, offsets[f], n, k, N)]
            for n in range(N)
        )
        for k in range(K)
        for f, key in enumerate(keys)
    }

    def _reconstruct(k: int, key_index: int, answers) -> tuple[int, ...]:
        return reconstruct(code, answers, k, keys[key_index])

    return DecomposableCode(
        p, tuple(varieties), key_labels, query_map, _reconstruct
    )
