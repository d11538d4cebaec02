"""Exact verification and information metrics for table-driven codes.

Every verifier enumerates all databases -- no sampling, ever -- and decides
pass/fail on integer counts over one exact total.  The checks read one
private answer cube per code (see `_AnswerCube`), tally its integer columns
and divide once, at the end.  A code's decoder runs once per distinct answer
tuple of each (request, key); every database is still compared.  Floats
appear only when entropies or mutual informations are reported in bits;
those carry a 1e-9 tolerance.

Enumerations refuse to start when the required work exceeds a cap
(default 2^24 elementary evaluations) and say how much work they wanted;
the cube is built only after that check has passed.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import DecomposableCode, input_rank

DEFAULT_CAP = 1 << 24
FLOAT_TOL = 1e-9


class EnumerationCapExceeded(Exception):
    """The requested exact enumeration is larger than the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"refusing exact enumeration: needs {required} evaluations, cap is {cap}"
        )
        self.required = required
        self.cap = cap


def _require_within_cap(required: int, cap: int) -> None:
    if required > cap:
        raise EnumerationCapExceeded(required, cap)


# ---------------------------------------------------------------------------
# exact distributions


class ExactDistribution:
    """An exact rational pmf over tuples of values, held as integer counts.

    Every probability is a count over one total shared by the whole support.
    The support holds only strictly positive counts and they sum to the
    total; both are enforced.  Values must be mutually comparable -- in this
    package they are always (nested) tuples of ints.
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, weights):
        probs = {v: Fraction(p) for v, p in dict(weights).items() if p != 0}
        if any(p < 0 for p in probs.values()):
            raise ValueError("probabilities must be positive on the support")
        total = math.lcm(*(p.denominator for p in probs.values()))
        counts = {v: p.numerator * (total // p.denominator) for v, p in probs.items()}
        dist = ExactDistribution.from_counts(counts, total)
        self._counts, self._total = dist._counts, dist._total

    @classmethod
    def from_counts(cls, counts, total: int) -> "ExactDistribution":
        """The pmf value -> count / total; the counts must be positive."""
        if sum(counts.values()) != total:
            raise ValueError("probabilities must sum to exactly 1")
        dist = cls.__new__(cls)
        dist._counts, dist._total = dict(sorted(counts.items())), total
        return dist

    def items(self):
        return ((v, Fraction(c, self._total)) for v, c in self._counts.items())

    def support(self):
        return tuple(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return self._counts.keys() == other._counts.keys() and all(
            c * other._total == other._counts[v] * self._total
            for v, c in self._counts.items()
        )

    def __repr__(self) -> str:
        return f"ExactDistribution({dict(self.items())!r})"

    def marginal(self, positions) -> "ExactDistribution":
        """Project a joint distribution onto the given component positions."""
        pos = tuple(positions)
        out: Counter = Counter()
        for value, c in self._counts.items():
            out[tuple(value[i] for i in pos)] += c
        return ExactDistribution.from_counts(out, self._total)


def _log2_ratio(num: int, den: int) -> float:
    """log2(num/den) from the ratio in lowest terms.

    With p taken as count / total (int true division rounds correctly, as
    float(Fraction) does) and terms summed in support order, every measure
    below gives one float whatever scale its counts have."""
    g = math.gcd(num, den)
    return math.log2(num // g) - math.log2(den // g)


def entropy_bits(dist: ExactDistribution) -> float:
    """Shannon entropy in bits; exact counts, float only at the log step."""
    total = dist._total
    return -sum((c / total) * _log2_ratio(c, total) for c in dist._counts.values())


def mutual_information_bits(joint: ExactDistribution) -> float:
    """I between the two components of a joint distribution over pairs."""
    t = joint._total
    p_a = joint.marginal((0,))._counts
    p_b = joint.marginal((1,))._counts
    total = 0.0
    for (a, b), c in joint._counts.items():
        total += (c / t) * _log2_ratio(c * t, p_a[a,] * p_b[b,])
    return total


def conditional_mutual_information_bits(joint: ExactDistribution) -> float:
    """I(X;Y|Z) for a joint distribution over (x, y, z) triples."""
    t = joint._total
    p_z, p_xz, p_yz = defaultdict(int), defaultdict(int), defaultdict(int)
    for (x, y, z), c in joint._counts.items():
        p_z[z] += c
        p_xz[x, z] += c
        p_yz[y, z] += c
    # terms are added in support order (not by sum(), whose rounding varies
    # by Python version)
    total = 0.0
    for (x, y, z), c in joint._counts.items():
        total += (c / t) * _log2_ratio(c * p_z[z], p_xz[x, z] * p_yz[y, z])
    return total


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
    out = []
    for n in range(code.params.n_servers):
        pmf = code.query_pmf(n, k)
        out.append(
            sum(
                (p * code.answer_length(n, qi) for qi, p in enumerate(pmf.probs)),
                Fraction(0),
            )
        )
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
            parts.append(
                "messages=" + ";".join("".join(map(str, m)) for m in self.messages)
            )
        return " ".join(parts)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checked: int
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# enumeration helpers


def _enumeration_size(code: DecomposableCode) -> int:
    p = code.params
    return p.msg_modulus ** (p.n_messages * p.msg_len)


def all_message_sets(code: DecomposableCode) -> list[tuple[tuple[int, ...], ...]]:
    """Every database realization as its message value tuples, in
    lexicographic symbol order."""
    p = code.params
    L = p.msg_len
    return [
        tuple(flat[k * L : (k + 1) * L] for k in range(p.n_messages))
        for flat in itertools.product(range(p.msg_modulus), repeat=p.n_messages * L)
    ]


def _masked_answers(rows, mask: int, ranks, modulus: int) -> list[tuple[int, ...]]:
    """One answer per database, counting only the messages set in `mask`.

    `rows` are an answer function's table rows and `ranks[j]` lists message
    j's input rank in each database; every answer symbol is the sum of the
    selected messages' table entries mod `modulus` (0 when none is selected).
    """
    n_databases = len(ranks[0])
    symbols = []
    for row in rows:
        parts = [
            list(map(table.values.__getitem__, ranks[j]))
            for j, table in enumerate(row)
            if mask >> j & 1
        ]
        symbols.append(
            [sum(s) % modulus for s in zip(*parts)] if parts else [0] * n_databases
        )
    return list(zip(*symbols)) if symbols else [()] * n_databases


class _AnswerCube:
    """Every database of one code, with its answers tabulated as plain ints.

    `values[d]` is database d's messages, in `all_message_sets` order, and
    `ranks[j][d]` message j's input rank there.  `column(n, qi, mask)` lists
    server n's answer to query qi on every database, counting only the
    messages set in `mask`; it is computed once and equal answer tuples are
    one object.
    """

    def __init__(self, code: DecomposableCode):
        p = code.params
        self.values = all_message_sets(code)
        self.ranks = [
            [input_rank(v[j], p.msg_modulus) for v in self.values]
            for j in range(p.n_messages)
        ]
        self._radix = p.msg_modulus**p.msg_len
        self._varieties = code.varieties
        self._modulus = p.ans_modulus
        self._columns: dict = {}
        self._interned: dict = {}

    def column(self, n: int, query_index: int, mask: int) -> list[tuple[int, ...]]:
        key = (n, query_index, mask)
        col = self._columns.get(key)
        if col is None:
            rows = self._varieties[n][query_index].tables
            answers = _masked_answers(rows, mask, self.ranks, self._modulus)
            intern = self._interned.setdefault
            col = self._columns[key] = [intern(a, a) for a in answers]
        return col

    def message_codes(self, which) -> list[int]:
        """Per database, the messages in `which` as one int that orders like
        their value tuples do."""
        codes = [0] * len(self.values)
        for j in which:
            codes = [c * self._radix + r for c, r in zip(codes, self.ranks[j])]
        return codes


def _answer_cube(code: DecomposableCode) -> _AnswerCube:
    """The code's answer cube: built on first use, then kept on the code."""
    cube = vars(code).get("_answer_cube")
    if cube is None:
        cube = _AnswerCube(code)
        object.__setattr__(code, "_answer_cube", cube)
    return cube


def _query_labels(code: DecomposableCode, queries) -> tuple[str, ...]:
    return tuple(code.query_label(n, qi) for n, qi in enumerate(queries))


# ---------------------------------------------------------------------------
# correctness and privacy


def verify_correctness(
    code: DecomposableCode, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Exhaustively confirm the requested message always comes back intact.

    With a reconstruction callable, its output is compared against the stored
    message for every (database, key, request).  The callable sees only
    (request, key, answers), so it runs once per distinct answer tuple of each
    (request, key) and its output is reused for the databases that repeat
    that tuple; every database is still compared.  Codes without one (loaded
    from files) pass iff the answer tuple plus (request, key) always pins
    down the requested message uniquely -- i.e. some decoder exists.
    """
    p = code.params
    _require_within_cap(_enumeration_size(code) * len(code.keys), cap)
    cube = _answer_cube(code)
    decode = code.reconstruct
    detail = (
        "answers consistent with both {} and {}"
        if decode is None
        else "reconstructed {}, stored {}"
    )
    checked = 0
    for k in range(p.n_messages):
        for f in range(len(code.keys)):
            queries = code.query_map[(k, f)]
            columns = [cube.column(n, qi, -1) for n, qi in enumerate(queries)]
            seen: dict = {}  # answer tuple -> the message it decodes to
            for d, answers in enumerate(zip(*columns)):
                checked += 1
                stored = cube.values[d][k]
                if decode is None:
                    got = seen.setdefault(answers, stored)
                else:
                    got = seen.get(answers)
                    if got is None:
                        got = seen[answers] = decode(k, f, answers)
                if got != stored:
                    witness = Witness(
                        detail.format(got, stored),
                        cube.values[d],
                        code.keys[f],
                        k,
                        _query_labels(code, queries),
                    )
                    return VerificationReport(False, checked, witness)
    return VerificationReport(True, checked)


def verify_privacy(code: DecomposableCode, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Each server's query distribution must not depend on the request."""
    p = code.params
    _require_within_cap(len(code.keys) * p.n_messages * p.n_servers, cap)
    checked = 0
    for n in range(p.n_servers):
        reference = code.query_pmf(n, 0)
        for k in range(1, p.n_messages):
            other = code.query_pmf(n, k)
            checked += 1
            for qi, (pa, pb) in enumerate(zip(reference.probs, other.probs)):
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
# derived variables and joint pmfs


@dataclass(frozen=True)
class MaskedAnswerVar:
    """Server `server`'s answer to query `query_index`, counting only the
    messages whose bit is set in `mask` (-1, the default: every message)."""

    server: int
    query_index: int
    mask: int = -1

    def column(self, cube: _AnswerCube) -> list[tuple[int, ...]]:
        return cube.column(self.server, self.query_index, self.mask)


@dataclass(frozen=True)
class MessageVar:
    """A stored message itself, as a random variable."""

    k: int

    def column(self, cube: _AnswerCube) -> list[tuple[int, ...]]:
        return [v[self.k] for v in cube.values]


def joint_pmf(
    code: DecomposableCode, variables, cap: int = DEFAULT_CAP
) -> ExactDistribution:
    """Exact joint distribution of derived variables under uniform messages."""
    size = _enumeration_size(code)
    _require_within_cap(size, cap)
    cube = _answer_cube(code)
    columns = [var.column(cube) for var in variables]
    return ExactDistribution.from_counts(Counter(zip(*columns)), size)


def positive_query_tuples(code: DecomposableCode, k: int) -> tuple[tuple[int, ...], ...]:
    """All query tuples that occur with positive probability for request k."""
    return tuple(
        sorted({code.query_map[(k, f)] for f in range(len(code.keys))})
    )


def _tuple_probability(code: DecomposableCode, k: int, queries) -> Fraction:
    hits = sum(
        1 for f in range(len(code.keys)) if code.query_map[(k, f)] == tuple(queries)
    )
    return Fraction(hits, len(code.keys))


def _independent(joint: ExactDistribution, arity: int) -> Optional[str]:
    """None when the joint is the product of its marginals, exactly; else why not."""
    total = joint._total
    marginals = [joint.marginal((i,)) for i in range(arity)]
    for combo in itertools.product(*(m.support() for m in marginals)):
        value = tuple(v[0] for v in combo)
        actual = joint._counts.get(value, 0)
        expected = math.prod(m._counts[v] for m, v in zip(marginals, combo))
        if actual * total ** (arity - 1) != expected:
            return (
                f"joint probability {Fraction(actual, total)} of {value} "
                f"differs from product {Fraction(expected, total**arity)}"
            )
    return None


def _mutually_determining(joint: ExactDistribution, arity: int) -> Optional[str]:
    """None when every variable is a function of every other on the support."""
    for i, j in itertools.permutations(range(arity), 2):
        seen: dict = {}
        for value in joint.support():
            vi, vj = value[i], value[j]
            if seen.setdefault(vi, vj) != vj:
                return (
                    f"residual at server {i} value {vi} co-occurs with both "
                    f"{seen[vi]} and {vj} at server {j}"
                )
    return None


def _check_property(code, k: int, queries, cap: int, mask: int, holds) -> VerificationReport:
    """Tally the masked answers to `queries` and test them with `holds`."""
    queries = tuple(queries)
    if _tuple_probability(code, k, queries) == 0:
        raise ValueError(f"query tuple {queries} has zero probability for k={k}")
    joint = joint_pmf(
        code, [MaskedAnswerVar(n, qi, mask) for n, qi in enumerate(queries)], cap
    )
    detail = holds(joint, len(queries))
    labels = _query_labels(code, queries)
    witness = None if detail is None else Witness(detail, k=k, queries=labels)
    return VerificationReport(detail is None, len(joint), witness)


def check_P1(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Answers across servers are mutually independent for this query tuple."""
    return _check_property(code, k, queries, cap, -1, _independent)


def check_P2(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Unwanted-message contributions pairwise determine each other."""
    return _check_property(code, k, queries, cap, ~(1 << k), _mutually_determining)


def check_P3(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Requested-message contributions are mutually independent across servers."""
    return _check_property(code, k, queries, cap, 1 << k, _independent)


# ---------------------------------------------------------------------------
# information residuals


def _request_mi_bits(code: DecomposableCode, request: int, info, given, cap: int) -> float:
    """I(W_info ; all answers for `request` | W_given, key), by enumeration."""
    size = _enumeration_size(code) * len(code.keys)
    _require_within_cap(size, cap)
    if not info:
        return 0.0  # X is constant: every term is log2(1)
    cube = _answer_cube(code)
    n_keys = len(code.keys)
    columns = [
        [cube.column(n, qi, -1) for n, qi in enumerate(code.query_map[(request, f)])]
        for f in range(n_keys)
    ]
    # x, y and z as ints that order like the tuples they stand for, so the
    # terms of the sum keep their order and keys hash and compare fast; y is
    # a mixed-radix number whose digit n ranks server n's answer among that
    # server's distinct answers (server 0's digit is the most significant)
    digits = []
    place = 1
    for n in reversed(range(code.params.n_servers)):
        distinct = sorted(set().union(*(cols[n] for cols in columns)))
        digits.append({a: r * place for r, a in enumerate(distinct)})
        place *= len(distinct)
    digits.reverse()
    xs = cube.message_codes(info)
    zs = [g * n_keys for g in cube.message_codes(given)]
    tally: Counter = Counter()
    for f, cols in enumerate(columns):
        ys = map(sum, zip(*(map(digit.__getitem__, col) for digit, col in zip(digits, cols))))
        tally.update(zip(xs, ys, map(f.__add__, zs)))
    return conditional_mutual_information_bits(ExactDistribution.from_counts(tally, size))


def check_lemma1_equality(
    code: DecomposableCode, k: int, cap: int = DEFAULT_CAP
) -> float:
    """How much answer entropy beyond the requested message the code leaks.

    Returns I(unwanted messages ; answers | requested message, key) minus
    L*(1/rate - 1)*log2(m); capacity-achieving codes sit at exactly zero.
    """
    p = code.params
    if not 0 <= k < p.n_messages:
        raise ValueError(f"message index {k} out of range")
    info = [j for j in range(p.n_messages) if j != k]
    mi = _request_mi_bits(code, k, info, [k], cap)
    r = rate(code)
    bound = float(p.msg_len * (1 / r - 1)) * math.log2(p.msg_modulus)
    return mi - bound


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
    perm = tuple(perm)
    if sorted(perm) != list(range(p.n_messages)):
        raise ValueError(f"{perm} is not a permutation of 0..{p.n_messages - 1}")
    if p.n_messages < 2 or not 1 <= k <= p.n_messages - 1:
        raise ValueError("need K >= 2 and a split point k in 1..K-1")
    first = _request_mi_bits(code, perm[k - 1], perm[k:], perm[: k - 1], cap)
    second = _request_mi_bits(code, perm[k], perm[k + 1 :], perm[: k + 1], cap)
    return (
        p.n_servers * first
        - second
        - p.msg_len * math.log2(p.msg_modulus)
    )


# ---------------------------------------------------------------------------
# check records (report serialization)


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
