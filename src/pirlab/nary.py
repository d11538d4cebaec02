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

from .groups import CodeParams, Message, MessageSet, RandomKey, digits_label
from .model import AnswerFunction, DecomposableCode, coordinate_table


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


def _check_request(code: NaryCode, k: int, key: RandomKey) -> None:
    if not 0 <= k < code.n_messages:
        raise ValueError(f"message index {k} out of range")
    if key.base != code.n_servers or len(key.digits) != code.n_messages - 1:
        raise ValueError("key shape disagrees with code params")


def query_vector(code: NaryCode, n: int, k: int, key: RandomKey) -> tuple[int, ...]:
    """The query digits sent to server n when requesting message k under `key`:
    server 0's query q0 with digit k replaced by (q0[k] + n) mod N."""
    N = code.n_servers
    if not 0 <= n < N:
        raise ValueError(f"server index {n} out of range")
    _check_request(code, k, key)
    # the key digits with (n - offset) mod N inserted at position k
    return key.digits[:k] + ((n - key_offset(key)) % N,) + key.digits[k:]


def query_set(code: NaryCode, n: int) -> tuple[tuple[int, ...], ...]:
    """Server n's queries: digit vectors summing to n, ordered by their first
    K-1 digits (the last digit is determined)."""
    N = code.n_servers
    if not 0 <= n < N:
        raise ValueError(f"server index {n} out of range")
    return tuple(
        head + ((n - sum(head)) % N,)
        for head in itertools.product(range(N), repeat=code.n_messages - 1)
    )


def answer_length(code: NaryCode, n: int, q: tuple[int, ...]) -> int:
    """0 for the all-zero query, which only server 0 accepts, else 1; rejects a
    query of the wrong length, a digit outside 0..N-1, or another server's query."""
    N = code.n_servers
    if len(q) != code.n_messages:
        raise ValueError("query shape disagrees with code params")
    if min(q) < 0 or max(q) >= N:
        raise ValueError(f"query digits must lie in 0..{N - 1}")
    if sum(q) % N != n:
        raise ValueError(
            f"query {digits_label(q)} belongs to server {sum(q) % N}, not {n}"
        )
    return 1 if any(q) else 0


def answer(code: NaryCode, n: int, q: tuple[int, ...], msgs: MessageSet) -> tuple[int, ...]:
    """Group sum of the padded-message symbols the query digits select.

    Digit 0 selects the zero dummy, so only non-zero digits add a symbol.
    """
    msgs.check_shape(code.params)
    if answer_length(code, n, q) == 0:
        return ()
    rows = msgs.values
    return (sum(rows[k][d - 1] for k, d in enumerate(q) if d) % code.modulus,)


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
    _check_request(code, k, key)
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


def symbolic_answer(code: NaryCode, q: tuple[int, ...], include_dummies: bool = True) -> str:
    """Render a query's answer as a formal sum like ``a0+b1+c2``.

    Index 0 names the dummy symbol; with ``include_dummies=False`` those
    terms are dropped, leaving only the symbols that affect the value.
    """
    if not any(q):
        return "0"
    terms = [
        f"{message_letter(k)}{digit}"
        for k, digit in enumerate(q)
        if include_dummies or digit != 0
    ]
    return "+".join(terms) if terms else "0"


def answer_table(code: NaryCode) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Per server: the ordered (query label, symbolic answer) rows."""
    return tuple(
        tuple((digits_label(q), symbolic_answer(code, q)) for q in query_set(code, n))
        for n in range(code.n_servers)
    )


def export_size(code: NaryCode) -> int:
    """What `export_decomposable` builds: L+1 tables of m^L entries, and K*N^K
    query cells, counted once in the query map and once in the varieties."""
    m, L, K, N = code.modulus, code.params.msg_len, code.n_messages, code.n_servers
    return (L + 1) * m**L + 2 * K * N**K


def export_decomposable(code: NaryCode) -> DecomposableCode:
    """Re-express the construction as explicit component tables.

    Server n's query index is the rank of its first K-1 digits (`query_set`'s
    order), so it is read off key f's rank with no lookup: with span =
    N^(K-1-k) and (hi, lo) = divmod(f, span), digit x = (n - offset) mod N
    goes in at position k, the K digits rank hi*span*N + x*span + lo, and
    dropping the last digit leaves the index (hi*span*N + lo + x*span) // N.
    """
    p = code.params
    m, L, K, N = p.msg_modulus, p.msg_len, p.n_messages, p.n_servers
    # digit d selects table d: the zero dummy, then payload symbol d-1
    tables = [(0,) * m**L] + [coordinate_table(m, L, j) for j in range(L)]
    varieties = []
    for n in range(N):
        per_server = []
        for q in query_set(code, n):
            # the all-zero query is answered with nothing
            rows = (tuple(map(tables.__getitem__, q)),) if any(q) else ()
            per_server.append(AnswerFunction(digits_label(q), rows))
        varieties.append(tuple(per_server))

    keys = key_space(code)
    # per key, the digit x it puts in at each server n
    inserted = [[(n - key_offset(key)) % N for n in range(N)] for key in keys]
    query_map = {}
    for k in range(K):
        span = N ** (K - 1 - k)
        for f, digits in enumerate(inserted):
            hi, lo = divmod(f, span)
            base = hi * span * N + lo
            query_map[(k, f)] = tuple([(base + x * span) // N for x in digits])

    def _reconstruct(k: int, key_index: int, answers) -> tuple[int, ...]:
        return reconstruct(code, answers, k, keys[key_index])

    return DecomposableCode(
        p, tuple(varieties), tuple(key.label() for key in keys), query_map, _reconstruct
    )
