"""Exact verification and information metrics for table-driven codes.

Every verifier covers all databases -- no sampling, ever -- and decides
pass/fail on integer counts.  A distribution is a plain count table: a dict
from value tuples to positive int counts, each over the table's total.  An
answer symbol is a group sum of per-message table lookups, and messages are
uniform and independent.  So correctness and the properties P1-P3 work from
per-message contributions: for one query tuple, the answers counting only
some messages are distributed as the convolution (mod y) of those messages'
contributions.  `verify` splits the answers once per (request, key), into
message k's shares and the other messages' convolution, and correctness and
P1-P3 read that split; no database is enumerated unless a check fails and
its witness is wanted.  A code's decoder runs once per distinct answer tuple
of each (request, key).  The lemmas build a request's answers on every
(database, key) once, from outer sums of each row's per-message tables, mod
y; each of its terms tallies them as ints that order like their (informative
values, answers, (given values, key)) triples, and beside them only the
(answers, given values, key) counts, the shape giving the other marginals.
Floats appear only when information is reported in bits, by one term rule
and one left-to-right sum, each distinct lemma term worked out once; those
carry a 1e-9 tolerance.  Nothing is kept on the code between checks.
`verify` runs every check of `pirlab verify`, in report order, and owns each
pass rule, that tolerance included.

Every check refuses to start when its work, bounded by `work` from the shape
alone, exceeds a cap (default 2^24 elementary evaluations) and says how much
work it wanted; nothing is tabulated before that check has passed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import CodeParams, digits_label
from .model import DecomposableCode, is_uniformly_decomposable

DEFAULT_CAP = 1 << 24
FLOAT_TOL = 1e-9


class EnumerationCapExceeded(Exception):
    """The requested exact enumeration is larger than the configured cap."""

    def __init__(
        self, required: int, cap: int, at_least: bool = False, unit: str = "evaluations"
    ):
        bound = f"at least 2^{required.bit_length() - 1}"
        try:
            shown = bound if at_least else str(required)  # `at_least`: a lower bound
        except ValueError:  # more digits than int-to-str conversion allows
            shown = bound
        super().__init__(f"refusing exact enumeration: needs {shown} {unit}, cap is {cap}")
        self.required = required
        self.cap = cap


def require_within_cap(required: int, cap: int, unit: str = "evaluations") -> None:
    """Refuse `required` units of work (`unit` names them) past `cap`."""
    if required > cap:
        raise EnumerationCapExceeded(required, cap, unit=unit)


def _check_request(code, k: int) -> None:
    if not 0 <= k < code.params.n_messages:
        raise ValueError(f"message index {k} out of range")


def _check_permutation(perm, size: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(size)):
        raise ValueError(f"{perm} is not a permutation of 0..{size - 1}")
    return perm


# ---------------------------------------------------------------------------
# information measures over count tables


def _marginal(counts, positions) -> Counter:
    """Project a count table onto the given component positions."""
    out: Counter = Counter()
    for value, c in counts.items():
        out[tuple(value[i] for i in positions)] += c
    return out


def _information_term(total: int, c: int, num: int, den: int) -> float:
    """c/total · log2(num/den), the ratio in lowest terms.  Int true division
    rounds correctly, as float(Fraction) does, so with terms in support order
    every measure below gives one float whatever scale its counts have."""
    g = math.gcd(num, den)
    return c / total * (math.log2(num // g) - math.log2(den // g))


def _information_sum(terms) -> float:
    """The terms, in support order, added one by one from 0.0 (not by
    sum(), whose rounding varies by Python version)."""
    return functools.reduce(operator.add, terms, 0.0)


def entropy_bits(counts, total: int) -> float:
    """Shannon entropy in bits, as H(X) = I(X;X)."""
    return mutual_information_bits({(v, v): c for v, c in counts.items()}, total)


def mutual_information_bits(counts, total: int) -> float:
    """I between the two components of a count table over pairs, as I(A;B|constant)."""
    triples = {(a, b, ()): c for (a, b), c in counts.items()}
    return conditional_mutual_information_bits(triples, total)


def conditional_mutual_information_bits(counts, total: int) -> float:
    """I(X;Y|Z) for a count table over (x, y, z) triples."""
    if min(counts.values(), default=1) <= 0:
        raise ValueError("counts must be positive on the support")
    if sum(counts.values()) != total:
        raise ValueError("probabilities must sum to exactly 1")
    p_z, p_xz, p_yz = defaultdict(int), defaultdict(int), defaultdict(int)
    for (x, y, z), c in counts.items():
        p_z[z] += c
        p_xz[x, z] += c
        p_yz[y, z] += c
    terms = ((c, c * p_z[z], p_xz[x, z] * p_yz[y, z]) for (x, y, z), c in sorted(counts.items()))
    return _information_sum(itertools.starmap(functools.partial(_information_term, total), terms))


# ---------------------------------------------------------------------------
# code metrics


def capacity(n_servers: int, n_messages: int) -> Fraction:
    """Best possible download rate for N servers and K messages."""
    if n_servers < 2:
        raise ValueError("n_servers must be >= 2")
    if n_messages < 1:
        raise ValueError("n_messages must be >= 1")
    return 1 / sum(
        (Fraction(1, n_servers**i) for i in range(n_messages)), Fraction(0)
    )


def expected_answer_lengths(code: DecomposableCode, k: int = 0) -> tuple[Fraction, ...]:
    """Per-server expected answer symbols under the key distribution."""
    _check_request(code, k)
    n_keys = len(code.keys)
    queries = [code.query_map[(k, f)] for f in range(n_keys)]
    out = []
    for n, per_server in enumerate(code.varieties):
        lengths = [v.length for v in per_server]
        out.append(Fraction(sum(lengths[q[n]] for q in queries), n_keys))
    return tuple(out)


def rate(code: DecomposableCode) -> Fraction:
    """Message symbols per expected downloaded symbol, as an exact rational.

    Exactness needs the message and answer alphabets to coincide; codes with
    differing alphabets are rejected rather than approximated.
    """
    p = code.params
    if p.ans_modulus != p.msg_modulus:
        raise ValueError("rate is only exact when answers reuse the message alphabet")
    download = sum(expected_answer_lengths(code), Fraction(0))
    if download == 0:
        raise ValueError("degenerate code: expected download is zero")
    return Fraction(p.msg_len) / download


def message_size_bits(code: DecomposableCode) -> float:
    p = code.params
    return p.msg_len * math.log2(p.msg_modulus)


@dataclass(frozen=True)
class UploadCost:
    total_bits: float
    per_server: tuple[int, ...]


def upload_cost_bits(code: DecomposableCode) -> UploadCost:
    """Bits needed to name one query per server (log2 of each query count)."""
    counts = tuple(code.query_count(n) for n in range(code.params.n_servers))
    return UploadCost(sum(math.log2(c) for c in counts), counts)


# ---------------------------------------------------------------------------
# witnesses and reports


@dataclass(frozen=True)
class Witness:
    """The concrete inputs on which a check failed."""

    detail: str
    messages: Optional[tuple[tuple[int, ...], ...]] = None
    key: Optional[str] = None
    k: Optional[int] = None
    queries: Optional[tuple[str, ...]] = None

    def describe(self) -> str:
        parts = [self.detail]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.key is not None:
            parts.append(f"key={self.key}")
        if self.queries is not None:
            parts.append("queries=" + ",".join(self.queries))
        if self.messages is not None:
            parts.append("messages=" + ";".join(map(digits_label, self.messages)))
        return " ".join(parts)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checked: int
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# per-message contributions


def _enumeration_size(code) -> int:
    return code.params.msg_modulus ** (code.params.n_messages * code.params.msg_len)


Work = namedtuple("Work", "properties correctness verify")


def work(params: CodeParams, n_keys: int, symbols: int) -> Work:
    """Bounds on the work of P1-P3 on one query tuple, of correctness, and of
    the costliest check of `verify`, from the shape alone: `params`, `n_keys`
    keys and at most `symbols` answer symbols in any query tuple.

    Each (request, key) adds message shares, m^L per message, one message at
    a time to the answers so far -- at most min(m^(L*j), y^symbols) of them
    after j messages -- in one `_sum` call per pair: K - 1 steps split off
    message k, and correctness or P1 takes one more; `verify` takes both.
    Correctness replays all m^(KL) databases when it fails, and a lemma term
    tallies every database under every key."""
    m, L, K = params.msg_modulus, params.msg_len, params.n_messages
    answers, supports = params.ans_modulus**symbols, [1]
    while len(supports) < K:  # min(m^(L*j), y^symbols) answers after j messages
        supports.append(min(supports[-1] * m**L, answers))
    split = m**L * sum(supports)
    correctness = K * n_keys * split + m ** (K * L)
    most = correctness + K * n_keys * m**L * supports[-1]  # verify's P1 steps
    if params.ans_modulus == params.msg_modulus:  # verify runs the lemma terms
        most = max(most, m ** (K * L) * n_keys)
    return Work(split, correctness, most)


def _work(code: DecomposableCode) -> Work:
    """`work` on `code`: no query tuple gets more answer symbols than the
    servers' longest answers together."""
    symbols = sum(max(v.length for v in per_server) for per_server in code.varieties)
    return work(code.params, len(code.keys), symbols)


def all_message_sets(code: DecomposableCode) -> list[tuple[tuple[int, ...], ...]]:
    """Every database realization as its message value tuples, in
    lexicographic symbol order."""
    p = code.params
    L = p.msg_len
    return [
        tuple(flat[k * L : (k + 1) * L] for k in range(p.n_messages))
        for flat in itertools.product(range(p.msg_modulus), repeat=p.n_messages * L)
    ]


def _contributions(code: DecomposableCode, queries) -> list[list[tuple[tuple[int, ...], ...]]]:
    """What each message adds to the answers to the query tuple `queries`.

    `out[j][r]` is message j's share of every server's answer when its value
    has input rank r; the answers on a database are the sum of its messages'
    shares mod y.
    """
    p = code.params
    silent = [()] * p.msg_modulus**p.msg_len

    def server_shares(j, rows):  # one server's answer symbols, per input rank
        return list(zip(*(row[j] for row in rows))) or silent

    tables = [code.varieties[n][qi].tables for n, qi in enumerate(queries)]
    return [list(zip(*(server_shares(j, rows) for rows in tables))) for j in range(p.n_messages)]


def _sum(shares, modulus: int) -> tuple[tuple[int, ...], ...]:
    """The answers that are the sum of `shares`, mod `modulus`, server by server."""
    return tuple(tuple([sum(s) % modulus for s in zip(*server)]) for server in zip(*shares))


def _convolve(contributions, selected, modulus: int, start: Optional[Counter] = None) -> Counter:
    """How many value combinations of the `selected` messages give each
    answer tuple as their sum, added to the answers counted in `start`."""
    sums = start or Counter({tuple((0,) * len(a) for a in contributions[0][0]): 1})
    for j in selected:
        shares = Counter(contributions[j])
        step: Counter = Counter()
        for a, ca in sums.items():
            for b, cb in shares.items():
                step[_sum((a, b), modulus)] += ca * cb
        sums = step
    return sums


def _split(code: DecomposableCode, k: int, queries):
    """(parts, rest): every message's contributions, and all but message k's summed."""
    parts = _contributions(code, queries)
    others = [j for j in range(code.params.n_messages) if j != k]
    return parts, _convolve(parts, others, code.params.ans_modulus)


def _query_labels(code: DecomposableCode, queries) -> tuple[str, ...]:
    return tuple(code.query_label(n, qi) for n, qi in enumerate(queries))


# ---------------------------------------------------------------------------
# correctness and privacy


def _first_mismatch(cases, decode, seen: dict):
    """(position, got, stored, ranks) of the first (stored, answers, ranks)
    case whose answers do not give back the stored message, or None.  `seen`
    maps answers to the first message that gave them, or to `decode`'s output."""
    for d, (stored, answers, ranks) in enumerate(cases, 1):
        if decode is None:
            got = seen.setdefault(answers, stored)
        else:
            got = seen.get(answers)
            if got is None:
                try:
                    got = decode(answers)
                except Exception as exc:  # rejecting answers fails like a wrong decode
                    got = exc
                seen[answers] = got
        if got != stored:
            return d, got, stored, ranks
    return None


def _correct_under(code, k: int, f: int, parts, rest) -> Optional[VerificationReport]:
    """None when every database gives back message k under key f; else the
    failed report.  A database whose message k is w answers T(w) + s, with s
    in `rest`, the other messages' summed share; the pairs (w, s) cover every
    database.  A failing key is replayed database by database."""
    p, y = code.params, code.params.ans_modulus
    values = list(itertools.product(range(p.msg_modulus), repeat=p.msg_len))
    decode = None if code.reconstruct is None else functools.partial(code.reconstruct, k, f)
    seen: dict = {}
    pairs = ((values[r], _sum((t, s), y), None) for r, t in enumerate(parts[k]) for s in rest)
    if _first_mismatch(pairs, decode, seen) is None:
        return None
    databases = (
        (values[ranks[k]], _sum((parts[j][r] for j, r in enumerate(ranks)), y), ranks)
        for ranks in itertools.product(range(len(values)), repeat=p.n_messages)
    )
    # decodes carry over; first owners found in pair order do not
    d, got, stored, ranks = _first_mismatch(databases, decode, seen if decode else {})
    if decode is None:
        detail = f"answers consistent with both {got} and {stored}"
    elif isinstance(got, Exception):
        detail = f"decoder raised {type(got).__name__}: {got}"
    else:
        detail = f"reconstructed {got}, stored {stored}"
    messages = tuple(values[r] for r in ranks)
    witness = Witness(detail, messages, code.keys[f], k, _query_labels(code, code.query_map[(k, f)]))
    return VerificationReport(False, (k * len(code.keys) + f) * _enumeration_size(code) + d, witness)


def verify_correctness(
    code: DecomposableCode, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Exhaustively confirm the requested message always comes back intact.

    A reconstruction callable sees only (request, key, answers), so it runs
    once per distinct answer tuple; an exception it raises is a failed
    decode.  Codes without one (loaded from files) pass iff no answer tuple
    arises from two values of the requested message -- i.e. some decoder
    exists.  The witness and count name the first database that fails.
    """
    p, n_keys = code.params, len(code.keys)
    require_within_cap(_work(code).correctness, cap)
    for k, f in itertools.product(range(p.n_messages), range(n_keys)):
        failed = _correct_under(code, k, f, *_split(code, k, code.query_map[(k, f)]))
        if failed is not None:
            return failed
    return VerificationReport(True, _enumeration_size(code) * n_keys * p.n_messages)


def verify_privacy(code: DecomposableCode) -> VerificationReport:
    """Each server's query distribution must not depend on the request."""
    p = code.params
    checked = 0
    for n in range(p.n_servers):
        reference = code.query_pmf(n, 0)
        for k in range(1, p.n_messages):
            other = code.query_pmf(n, k)
            checked += 1
            for qi, (pa, pb) in enumerate(zip(reference, other)):
                if pa != pb:
                    return VerificationReport(
                        False,
                        checked,
                        Witness(
                            f"server {n} query '{code.query_label(n, qi)}' "
                            f"has probability {pa} for k=0 but {pb} for k={k}",
                            k=k,
                        ),
                    )
    return VerificationReport(True, max(checked, 1))


# ---------------------------------------------------------------------------
# answer-structure properties


def positive_query_tuples(code: DecomposableCode, k: int) -> tuple[tuple[int, ...], ...]:
    """All query tuples that occur with positive probability for request k."""
    _check_request(code, k)
    return tuple(sorted({code.query_map[(k, f)] for f in range(len(code.keys))}))


def _independent(joint, arity: int) -> Optional[str]:
    """None when the table is the product of its marginals, exactly; else why not."""
    total = sum(joint.values())
    marginals = [_marginal(joint, (i,)) for i in range(arity)]
    for combo in itertools.product(*map(sorted, marginals)):
        value = tuple(v[0] for v in combo)
        actual = joint.get(value, 0)
        expected = math.prod(m[v] for m, v in zip(marginals, combo))
        if actual * total ** (arity - 1) != expected:
            return (
                f"joint probability {Fraction(actual, total)} of {value} "
                f"differs from product {Fraction(expected, total**arity)}"
            )
    return None


def _mutually_determining(joint, arity: int) -> Optional[str]:
    """None when every variable is a function of every other on the support."""
    support = sorted(joint)
    for i, j in itertools.permutations(range(arity), 2):
        seen: dict = {}
        for value in support:
            vi, vj = value[i], value[j]
            if seen.setdefault(vi, vj) != vj:
                return (
                    f"residual at server {i} value {vi} co-occurs with both "
                    f"{seen[vi]} and {vj} at server {j}"
                )
    return None


def _properties(code, k: int, queries, parts, rest) -> tuple[VerificationReport, ...]:
    """P1, P2 and P3 for request k and the query tuple `queries`, from its
    split (parts, rest): `rest` is P2's table, `rest` plus message k's shares
    is P1's, and those shares alone are P3's."""
    tables = (_convolve(parts, [k], code.params.ans_modulus, rest), rest, Counter(parts[k]))
    reports = []
    for joint, holds in zip(tables, (_independent, _mutually_determining, _independent)):
        detail = holds(joint, len(queries))
        witness = None if detail is None else Witness(detail, k=k, queries=_query_labels(code, queries))
        reports.append(VerificationReport(detail is None, len(joint), witness))
    return tuple(reports)


def _check_properties(code, k: int, queries, cap: int) -> tuple[VerificationReport, ...]:
    queries = tuple(queries)
    if queries not in positive_query_tuples(code, k):
        raise ValueError(f"query tuple {queries} has zero probability for k={k}")
    require_within_cap(_work(code).properties, cap)
    return _properties(code, k, queries, *_split(code, k, queries))


def check_P1(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Answers across servers are mutually independent for this query tuple."""
    return _check_properties(code, k, queries, cap)[0]


def check_P2(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Unwanted-message contributions pairwise determine each other."""
    return _check_properties(code, k, queries, cap)[1]


def check_P3(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Requested-message contributions are mutually independent across servers."""
    return _check_properties(code, k, queries, cap)[2]


# ---------------------------------------------------------------------------
# information residuals


def _outer_sums(vectors) -> list[int]:
    """Every sum of one entry from each vector, the first vector's entry
    varying slowest; over one table per message, that is the table sum on
    every database in `all_message_sets` order."""
    sums = [0]
    for vector in vectors:
        sums = [a + b for a in sums for b in vector]
    return sums


def _request_answers(code: DecomposableCode, request: int) -> tuple[int, list[list[int]]]:
    """(Y, answers): per key, the answers for `request` on every database in
    `all_message_sets` order, each one base-(y+1) number below Y, server 0
    first: symbol s is the digit s+1, a missing symbol 0, padding each server."""
    p, y = code.params, code.params.ans_modulus
    queries = [code.query_map[(request, f)] for f in range(len(code.keys))]
    widths = [max(code.answer_length(n, q[n]) for q in queries) for n in range(p.n_servers)]
    answers = []
    for q in queries:
        ys = [0] * _enumeration_size(code)
        for n, qi in enumerate(q):
            for i, row in enumerate(code.varieties[n][qi].tables, 1):
                place = (y + 1) ** (sum(widths[n:]) - i)
                digit = [(s % y + 1) * place for s in range(p.n_messages * y)]  # by table sum
                ys = list(map(operator.add, ys, map(digit.__getitem__, _outer_sums(row))))
        answers.append(ys)
    return (y + 1) ** sum(widths), answers


def _request_mi_bits(code: DecomposableCode, answers, info, given) -> float:
    """I(W_info ; all answers for a request | W_given, key) over every
    (database, key), `answers()` giving that request's `_request_answers`.
    `info` and `given` must be disjoint: then each (given values, key) is
    seen m^(L*(K-|given|)) times and each (info values, given values, key)
    m^(L*(K-|given|-|info|)) times, so only the answers' joint count with
    (given values, key) is tallied."""
    if not info:
        return 0.0  # X is constant: every term is log2(1)
    p, n_keys = code.params, len(code.keys)
    ranks = range(p.msg_modulus**p.msg_len)

    # x, y and z are ints that order like the tuples they stand for, and so
    # does an observation (x*Y + y)*Z + z, every y below Y and z below Z:
    # the terms of the sum keep their order and keys hash and compare fast
    def rank_codes(which):  # the messages in `which`, first most significant
        weight = {j: len(ranks) ** e for e, j in enumerate(reversed(which))}
        return _outer_sums([r * weight.get(j, 0) for r in ranks] for j in range(p.n_messages))

    y_span, ys = answers()  # Y
    z_span = n_keys * len(ranks) ** len(given)  # Z
    yz_span = y_span * z_span
    xs = [x * yz_span for x in rank_codes(info)]
    zs = [g * n_keys for g in rank_codes(given)]
    add, mul, repeat = operator.add, operator.mul, itertools.repeat
    tally, p_yz = Counter(), Counter()
    for f, a in enumerate(ys):
        yzs = list(map(add, map(mul, a, repeat(z_span)), map(add, zs, repeat(f))))
        p_yz.update(yzs)
        tally.update(map(add, xs, yzs))
    p_z = _enumeration_size(code) // len(ranks) ** len(given)
    p_xz = p_z // len(ranks) ** len(info)
    # (c, p_yz) fixes a term c/T*log2(c*p_z/(p_xz*p_yz)); as c <= p_xz, p_yz*(p_xz+1) + c names it
    support = sorted(tally)
    p_yzs = map(p_yz.__getitem__, map(operator.mod, support, repeat(yz_span)))
    pairs = list(map(add, map(mul, p_yzs, repeat(p_xz + 1)), map(tally.__getitem__, support)))
    size, distinct = _enumeration_size(code) * n_keys, map(divmod, set(pairs), repeat(p_xz + 1))
    term = {q * (p_xz + 1) + c: _information_term(size, c, c * p_z, p_xz * q) for q, c in distinct}
    return _information_sum(map(term.__getitem__, pairs))


def _lemma1(code: DecomposableCode, k: int):
    """Lemma 1 at request k: its (request, info, given) terms and its residual from their bits."""
    p = code.params
    bound = float(p.msg_len * (1 / rate(code) - 1)) * math.log2(p.msg_modulus)
    return ((k, tuple(j for j in range(p.n_messages) if j != k), (k,)),), lambda mi: mi - bound


def _lemma2(code: DecomposableCode, k: int, perm):
    """Lemma 2 at split point k along `perm`, as `_lemma1` gives lemma 1."""
    n, msg_bits = code.params.n_servers, code.params.msg_len * math.log2(code.params.msg_modulus)
    terms = ((perm[k - 1], perm[k:], perm[: k - 1]), (perm[k], perm[k + 1 :], perm[: k + 1]))
    return terms, lambda first, second: n * first - second - msg_bits


def _lemma_residuals(code: DecomposableCode, lemmas, cap: int) -> list[float]:
    """Each lemma's residual, one request at a time: its answers are built at most once."""
    require_within_cap(_enumeration_size(code) * len(code.keys), cap)
    terms, bits = [term for lemma in lemmas for term in lemma[0]], {}
    for request in sorted({term[0] for term in terms}):
        answers = functools.cache(functools.partial(_request_answers, code, request))
        bits.update((t, _request_mi_bits(code, answers, *t[1:])) for t in terms if t[0] == request)
    return [residual(*map(bits.__getitem__, terms)) for terms, residual in lemmas]


def check_lemma1_equality(
    code: DecomposableCode, k: int, cap: int = DEFAULT_CAP
) -> float:
    """How much answer entropy beyond the requested message the code leaks.

    Returns I(unwanted messages ; answers | requested message, key) minus
    L*(1/rate - 1)*log2(m); capacity-achieving codes sit at exactly zero.
    """
    _check_request(code, k)
    return _lemma_residuals(code, [_lemma1(code, k)], cap)[0]


def check_lemma2_equality(
    code: DecomposableCode, k: int, perm, cap: int = DEFAULT_CAP
) -> float:
    """Residual of the recursive answer-information identity along `perm`.

    For an ordering perm of the messages and a split point k in 1..K-1:
    N * I(W_{perm[k:]} ; answers for perm[k-1] | W_{perm[:k-1]}, key)
      - I(W_{perm[k+1:]} ; answers for perm[k] | W_{perm[:k+1]}, key)
      - L*log2(m).
    The second term conditions on the requested message perm[k] as well;
    for a decodable code that equals conditioning on W_{perm[:k]} alone.
    Capacity-achieving codes sit at exactly zero for every perm and k.
    """
    p = code.params
    perm = _check_permutation(perm, p.n_messages)
    if p.n_messages < 2 or not 1 <= k <= p.n_messages - 1:
        raise ValueError("need K >= 2 and a split point k in 1..K-1")
    return _lemma_residuals(code, [_lemma2(code, k, perm)], cap)[0]


# ---------------------------------------------------------------------------
# check records and the full check list


@dataclass(frozen=True)
class CheckRecord:
    """One verification outcome, serializable as text or JSON."""

    name: str
    params: tuple[tuple[str, str], ...]
    passed: bool
    residual: Optional[float] = None
    witness: Optional[Witness] = None

    def text_line(self) -> str:
        parts = [self.name]
        parts.extend(f"{key}={val}" for key, val in self.params)
        parts.append("pass" if self.passed else "FAIL")
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3e}")
        if self.witness is not None:
            parts.append(f"witness[{self.witness.describe()}]")
        return " ".join(parts)

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "params": dict(self.params),
            "passed": self.passed,
            "residual": self.residual,
            "witness": self.witness.describe() if self.witness else None,
        }
        return json.dumps(obj, sort_keys=True)


def verify(code: DecomposableCode, cap: int = DEFAULT_CAP) -> list[CheckRecord]:
    """Every check of `pirlab verify`, as records in report order.

    Each (request, key)'s answers are split once, for correctness and, at the
    first key sending a query tuple, P1-P3; a P record keeps the first failing
    tuple's witness.  Lemma records come only when answers reuse the message
    alphabet, each request's answers built once for all its lemma terms, and
    pass when the residual is within `FLOAT_TOL` of zero."""
    p, n_keys = code.params, len(code.keys)
    require_within_cap(_work(code).verify, cap)  # covers every check below
    correct = None  # the failed correctness report, once there is one
    properties: list = [{} for _ in range(p.n_messages)]  # per k: query tuple -> P1-P3
    for k, f in itertools.product(range(p.n_messages), range(n_keys)):
        queries = code.query_map[(k, f)]
        if correct is not None and queries in properties[k]:
            continue
        parts, rest = _split(code, k, queries)
        if correct is None:
            correct = _correct_under(code, k, f, parts, rest)
        if queries not in properties[k]:
            properties[k][queries] = _properties(code, k, queries, parts, rest)
    if correct is None:
        correct = VerificationReport(True, _enumeration_size(code) * n_keys * p.n_messages)
    records = []
    for name, rep in (("correctness", correct), ("privacy", verify_privacy(code))):
        params = (("checked", str(rep.checked)),)
        records.append(CheckRecord(name, params, rep.passed, None, rep.witness))

    dec = is_uniformly_decomposable(code)
    counts = (dec.constant_count, dec.balanced_count, len(dec.neither))
    params = tuple(zip(("constant", "balanced", "neither"), map(str, counts)))
    witness = None if dec.uniform else Witness(f"first offender {dec.neither[0]}")
    records.append(CheckRecord("uniform-decomposable", params, dec.uniform, None, witness))

    for i in range(3):  # P1, P2 and P3, each in k order
        for k, by_tuple in enumerate(properties):
            failed = [by_tuple[q][i].witness for q in sorted(by_tuple) if not by_tuple[q][i].passed]
            params = (("k", str(k)), ("tuples", str(len(by_tuple))))
            records.append(CheckRecord(f"P{i + 1}", params, not failed, None, next(iter(failed), None)))

    if p.ans_modulus != p.msg_modulus:
        return records  # information residuals are only exact for matching alphabets
    order = tuple(range(p.n_messages))
    # (name, params, lemma) in report order; lemma2 has no split point when K = 1
    lemmas = [("lemma1", (("k", str(k)),), _lemma1(code, k)) for k in order]
    for perm in (order, order[::-1]):
        for k in range(1, p.n_messages):
            params = (("k", str(k)), ("perm", "".join(map(str, perm))))
            lemmas.append(("lemma2", params, _lemma2(code, k, perm)))
    residuals = _lemma_residuals(code, [lemma for *_, lemma in lemmas], cap)
    for (name, params, _), residual in zip(lemmas, residuals):
        records.append(CheckRecord(name, params, abs(residual) <= FLOAT_TOL, residual))
    return records
