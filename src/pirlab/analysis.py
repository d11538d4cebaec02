"""Exact verification and information metrics for table-driven codes.

Everything that decides pass/fail works in exact rational arithmetic
(`fractions.Fraction`) over full enumerations -- no sampling, ever.  Floats
appear only at the very end, when entropies or mutual informations are
reported in bits; those carry a 1e-9 tolerance.

Enumerations refuse to start when the required work exceeds a cap
(default 2^24 elementary evaluations) and say how much work they wanted.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groups import MessageSet
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
    """An exact rational pmf over tuples of values.

    The support holds only strictly positive probabilities and the total is
    exactly 1; both are enforced.  Values must be mutually comparable --
    in this package they are always (nested) tuples of ints.
    """

    __slots__ = ("_probs",)

    def __init__(self, weights):
        probs = {v: Fraction(p) for v, p in dict(weights).items() if p != 0}
        if any(p < 0 for p in probs.values()):
            raise ValueError("probabilities must be positive on the support")
        if sum(probs.values(), Fraction(0)) != 1:
            raise ValueError("probabilities must sum to exactly 1")
        self._probs = dict(sorted(probs.items()))

    def items(self):
        return self._probs.items()

    def support(self):
        return tuple(self._probs)

    def prob(self, value) -> Fraction:
        return self._probs.get(value, Fraction(0))

    def __len__(self) -> int:
        return len(self._probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return self._probs == other._probs

    def __repr__(self) -> str:
        return f"ExactDistribution({self._probs!r})"

    def marginal(self, positions) -> "ExactDistribution":
        """Project a joint distribution onto the given component positions."""
        pos = tuple(positions)
        out: dict = defaultdict(Fraction)
        for value, p in self._probs.items():
            out[tuple(value[i] for i in pos)] += p
        return ExactDistribution(out)


def entropy_bits(dist: ExactDistribution) -> float:
    """Shannon entropy in bits; exact pmf, float only at the log step."""
    return -sum(float(p) * _log2_fraction(p) for _, p in dist.items())


def _log2_fraction(fr: Fraction) -> float:
    return math.log2(fr.numerator) - math.log2(fr.denominator)


def mutual_information_bits(joint: ExactDistribution) -> float:
    """I between the two components of a joint distribution over pairs."""
    pa = joint.marginal((0,))
    pb = joint.marginal((1,))
    total = 0.0
    for (a, b), p in joint.items():
        ratio = p / (pa.prob((a,)) * pb.prob((b,)))
        total += float(p) * _log2_fraction(ratio)
    return total


def conditional_mutual_information_bits(joint: ExactDistribution) -> float:
    """I(X;Y|Z) for a joint distribution over (x, y, z) triples."""
    p_z: dict = defaultdict(Fraction)
    p_xz: dict = defaultdict(Fraction)
    p_yz: dict = defaultdict(Fraction)
    for (x, y, z), p in joint.items():
        p_z[z] += p
        p_xz[(x, z)] += p
        p_yz[(y, z)] += p
    total = 0.0
    for (x, y, z), p in joint.items():
        ratio = p * p_z[z] / (p_xz[(x, z)] * p_yz[(y, z)])
        total += float(p) * _log2_fraction(ratio)
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


def all_message_sets(code: DecomposableCode) -> list[MessageSet]:
    """Every database realization, in lexicographic symbol order."""
    p = code.params
    out = []
    for flat in itertools.product(
        range(p.msg_modulus), repeat=p.n_messages * p.msg_len
    ):
        rows = [
            flat[k * p.msg_len : (k + 1) * p.msg_len] for k in range(p.n_messages)
        ]
        out.append(MessageSet.from_values(rows, p.msg_modulus))
    return out


def _answers_for(code: DecomposableCode, queries, msgs: MessageSet):
    return tuple(
        code.eval_answer(n, qi, msgs) for n, qi in enumerate(queries)
    )


def _query_labels(code: DecomposableCode, queries) -> tuple[str, ...]:
    return tuple(code.query_label(n, qi) for n, qi in enumerate(queries))


# ---------------------------------------------------------------------------
# correctness and privacy


def verify_correctness(
    code: DecomposableCode, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Exhaustively confirm the requested message always comes back intact.

    With a reconstruction callable, its output is compared against the stored
    message for every (database, key, request).  Codes without one (loaded
    from files) pass iff the answer tuple plus (request, key) always pins
    down the requested message uniquely -- i.e. some decoder exists.
    """
    p = code.params
    _require_within_cap(_enumeration_size(code) * len(code.keys), cap)
    databases = all_message_sets(code)
    checked = 0
    for k in range(p.n_messages):
        for f in range(len(code.keys)):
            queries = code.query_map[(k, f)]
            seen: dict = {}
            for msgs in databases:
                answers = _answers_for(code, queries, msgs)
                checked += 1
                if code.reconstruct is not None:
                    got = code.reconstruct(k, f, answers)
                    if got.values != msgs[k].values:
                        return VerificationReport(
                            False,
                            checked,
                            Witness(
                                f"reconstructed {got.values}, stored {msgs[k].values}",
                                msgs.values,
                                code.keys[f],
                                k,
                                _query_labels(code, queries),
                            ),
                        )
                else:
                    key_tuple = tuple(a.values for a in answers)
                    prev = seen.get(key_tuple)
                    if prev is None:
                        seen[key_tuple] = msgs[k].values
                    elif prev != msgs[k].values:
                        return VerificationReport(
                            False,
                            checked,
                            Witness(
                                f"answers consistent with both {prev} and {msgs[k].values}",
                                msgs.values,
                                code.keys[f],
                                k,
                                _query_labels(code, queries),
                            ),
                        )
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
class AnswerVar:
    """The full answer of server `server` to query `query_index`."""

    server: int
    query_index: int

    def evaluate(self, code: DecomposableCode, msgs: MessageSet) -> tuple[int, ...]:
        return code.eval_answer(self.server, self.query_index, msgs).values


@dataclass(frozen=True)
class ResidualVar:
    """Everything in an answer that the unwanted messages contribute."""

    server: int
    query_index: int
    k: int

    def evaluate(self, code: DecomposableCode, msgs: MessageSet) -> tuple[int, ...]:
        p = code.params
        rows = code.varieties[self.server][self.query_index].tables
        values = msgs.values
        out = []
        for row in rows:
            acc = 0
            for j in range(p.n_messages):
                if j == self.k:
                    continue
                acc += row[j].values[input_rank(values[j], p.msg_modulus)]
            out.append(acc % p.ans_modulus)
        return tuple(out)


@dataclass(frozen=True)
class RequestedVar:
    """The requested message's own contribution to an answer."""

    server: int
    query_index: int
    k: int

    def evaluate(self, code: DecomposableCode, msgs: MessageSet) -> tuple[int, ...]:
        p = code.params
        rows = code.varieties[self.server][self.query_index].tables
        values = msgs.values
        return tuple(
            row[self.k].values[input_rank(values[self.k], p.msg_modulus)] % p.ans_modulus
            for row in rows
        )


@dataclass(frozen=True)
class MessageVar:
    """A stored message itself, as a random variable."""

    k: int

    def evaluate(self, code: DecomposableCode, msgs: MessageSet) -> tuple[int, ...]:
        return msgs[self.k].values


def joint_pmf(
    code: DecomposableCode, variables, cap: int = DEFAULT_CAP
) -> ExactDistribution:
    """Exact joint distribution of derived variables under uniform messages."""
    variables = tuple(variables)
    size = _enumeration_size(code)
    _require_within_cap(size, cap)
    unit = Fraction(1, size)
    tally: dict = defaultdict(Fraction)
    for msgs in all_message_sets(code):
        tally[tuple(var.evaluate(code, msgs) for var in variables)] += unit
    return ExactDistribution(tally)


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


def _is_product_of_marginals(joint: ExactDistribution, arity: int):
    """Mutual independence: joint == product of marginals, exactly."""
    marginals = [joint.marginal((i,)) for i in range(arity)]
    for combo in itertools.product(*(m.support() for m in marginals)):
        expected = Fraction(1)
        for i, v in enumerate(combo):
            expected *= marginals[i].prob(v)
        actual = joint.prob(tuple(v[0] for v in combo))
        if actual != expected:
            return False, (tuple(v[0] for v in combo), actual, expected)
    return True, None


def _mutually_determining(joint: ExactDistribution, arity: int):
    """Every variable is a function of every other on the joint support."""
    for i in range(arity):
        for j in range(arity):
            if i == j:
                continue
            seen: dict = {}
            for value in joint.support():
                vi, vj = value[i], value[j]
                if vi in seen and seen[vi] != vj:
                    return False, (i, j, vi, seen[vi], vj)
                seen[vi] = vj
    return True, None


def check_P1(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Answers across servers are mutually independent for this query tuple."""
    queries = tuple(queries)
    if _tuple_probability(code, k, queries) == 0:
        raise ValueError(f"query tuple {queries} has zero probability for k={k}")
    joint = joint_pmf(
        code, [AnswerVar(n, qi) for n, qi in enumerate(queries)], cap
    )
    ok, detail = _is_product_of_marginals(joint, len(queries))
    witness = None
    if not ok:
        value, actual, expected = detail
        witness = Witness(
            f"joint probability {actual} of {value} differs from product {expected}",
            k=k,
            queries=_query_labels(code, queries),
        )
    return VerificationReport(ok, len(joint), witness)


def check_P2(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Unwanted-message contributions pairwise determine each other."""
    queries = tuple(queries)
    if _tuple_probability(code, k, queries) == 0:
        raise ValueError(f"query tuple {queries} has zero probability for k={k}")
    joint = joint_pmf(
        code, [ResidualVar(n, qi, k) for n, qi in enumerate(queries)], cap
    )
    ok, detail = _mutually_determining(joint, len(queries))
    witness = None
    if not ok:
        i, j, vi, first, second = detail
        witness = Witness(
            f"residual at server {i} value {vi} co-occurs with both "
            f"{first} and {second} at server {j}",
            k=k,
            queries=_query_labels(code, queries),
        )
    return VerificationReport(ok, len(joint), witness)


def check_P3(
    code: DecomposableCode, k: int, queries, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Requested-message contributions are mutually independent across servers."""
    queries = tuple(queries)
    if _tuple_probability(code, k, queries) == 0:
        raise ValueError(f"query tuple {queries} has zero probability for k={k}")
    joint = joint_pmf(
        code, [RequestedVar(n, qi, k) for n, qi in enumerate(queries)], cap
    )
    ok, detail = _is_product_of_marginals(joint, len(queries))
    witness = None
    if not ok:
        value, actual, expected = detail
        witness = Witness(
            f"joint probability {actual} of {value} differs from product {expected}",
            k=k,
            queries=_query_labels(code, queries),
        )
    return VerificationReport(ok, len(joint), witness)


# ---------------------------------------------------------------------------
# information residuals


def _request_mi_bits(code: DecomposableCode, request: int, info, given, cap: int) -> float:
    """I(W_info ; all answers for `request` | W_given, key), by enumeration."""
    p = code.params
    size = _enumeration_size(code) * len(code.keys)
    _require_within_cap(size, cap)
    info = tuple(info)
    given = tuple(given)
    unit = Fraction(1, size)
    weights: dict = defaultdict(Fraction)
    databases = all_message_sets(code)
    for f in range(len(code.keys)):
        queries = code.query_map[(request, f)]
        for msgs in databases:
            values = msgs.values
            x = tuple(values[j] for j in info)
            y = tuple(a.values for a in _answers_for(code, queries, msgs))
            z = (tuple(values[j] for j in given), f)
            weights[(x, y, z)] += unit
    return conditional_mutual_information_bits(ExactDistribution(weights))


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
