"""Exact distributions, metrics, and the exhaustive verifiers."""

import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import analysis
from pirlab.analysis import (
    CheckRecord,
    EnumerationCapExceeded,
    ExactDistribution,
    MaskedAnswerVar,
    MessageVar,
    Witness,
    all_message_sets,
    capacity,
    check_P1,
    check_P2,
    check_P3,
    check_lemma1_equality,
    check_lemma2_equality,
    conditional_mutual_information_bits,
    entropy_bits,
    expected_answer_lengths,
    joint_pmf,
    message_size_bits,
    mutual_information_bits,
    positive_query_tuples,
    rate,
    upload_cost_bits,
    verify_correctness,
    verify_privacy,
)
from pirlab.codefile import emit, parse
from pirlab.groups import CodeParams
from pirlab.model import (
    AnswerFunction,
    ComponentTable,
    DecomposableCode,
    builtin_sunjafar22,
    builtin_table1,
)
from pirlab.nary import export_decomposable, make_nary
from pirlab.symmetry import message_symmetrize, server_symmetrize, variety_symmetrize


F = Fraction


# ---------------------------------------------------------------- distributions


def test_exact_distribution_normalizes_support():
    d = ExactDistribution({(0,): F(1, 2), (1,): F(1, 2), (2,): F(0)})
    assert d.support() == ((0,), (1,))
    assert dict(d.items()) == {(0,): F(1, 2), (1,): F(1, 2)}
    assert len(d) == 2


def test_exact_distribution_rejects_bad_total():
    with pytest.raises(ValueError):
        ExactDistribution({(0,): F(1, 2), (1,): F(1, 3)})
    with pytest.raises(ValueError):
        ExactDistribution({(0,): F(3, 2), (1,): F(-1, 2)})


def test_marginal_projection():
    d = ExactDistribution(
        {((0,), (0,)): F(1, 2), ((1,), (0,)): F(1, 4), ((1,), (1,)): F(1, 4)}
    )
    assert d.marginal((0,)) == ExactDistribution(
        {((0,),): F(1, 2), ((1,),): F(1, 2)}
    )
    assert d.marginal((1, 0)) == ExactDistribution(
        {((0,), (0,)): F(1, 2), ((0,), (1,)): F(1, 4), ((1,), (1,)): F(1, 4)}
    )


# ---------------------------------------------------------------- information


def test_entropy_uniform_bits():
    d = ExactDistribution({(i,): F(1, 8) for i in range(8)})
    assert entropy_bits(d) == pytest.approx(3.0, abs=1e-12)


def test_entropy_skewed():
    d = ExactDistribution({(0,): F(3, 4), (1,): F(1, 4)})
    assert entropy_bits(d) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-12)


def test_mutual_information_independent_pair_is_zero():
    d = ExactDistribution({(a, b): F(1, 4) for a in (0, 1) for b in (0, 1)})
    assert mutual_information_bits(d) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_identical_pair_is_entropy():
    d = ExactDistribution({(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert mutual_information_bits(d) == pytest.approx(1.0, abs=1e-12)


def test_conditional_mutual_information():
    # X = Y xor Z with X,Z fair coins: I(X;Y|Z) = 1, unconditionally I(X;Y) = 0
    d = ExactDistribution(
        {(x, x ^ z, z): F(1, 4) for x in (0, 1) for z in (0, 1)}
    )
    assert conditional_mutual_information_bits(d) == pytest.approx(1.0, abs=1e-12)
    assert mutual_information_bits(d.marginal((0, 1))) == pytest.approx(0.0, abs=1e-12)


def _reference_cmi(joint):
    """The term loop of the tuple-keyed implementation, kept as the reference
    for the float each measure must reproduce bit for bit."""

    def log2_ratio(num, den):
        g = math.gcd(num, den)
        return math.log2(num // g) - math.log2(den // g)

    t = joint._total
    p_z, p_xz, p_yz = Counter(), Counter(), Counter()
    for (x, y, z), c in joint._counts.items():
        p_z[z] += c
        p_xz[x, z] += c
        p_yz[y, z] += c
    total = 0.0
    for (x, y, z), c in joint._counts.items():
        total += (c / t) * log2_ratio(c * p_z[z], p_xz[x, z] * p_yz[y, z])
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
        st.one_of(st.integers(1, 4), st.integers(1, 1 << 24)),
        min_size=1,
        max_size=40,
    )
)
def test_conditional_mutual_information_is_bit_identical_to_reference(counts):
    joint = ExactDistribution.from_counts(counts, sum(counts.values()))
    assert conditional_mutual_information_bits(joint) == _reference_cmi(joint)


# ---------------------------------------------------------------- metrics


def test_capacity_values():
    assert capacity(2, 2) == F(2, 3)
    assert capacity(3, 3) == F(9, 13)
    assert capacity(4, 3) == F(16, 21)
    assert capacity(2, 1) == 1
    assert capacity(7, 1) == 1


def test_capacity_rejects_bad_args():
    with pytest.raises(ValueError):
        capacity(1, 2)
    with pytest.raises(ValueError):
        capacity(2, 0)


def test_expected_answer_lengths_nary33():
    code = export_decomposable(make_nary(3, 3))
    assert expected_answer_lengths(code) == (F(8, 9), F(1), F(1))


def test_rate_nary_22():
    assert rate(export_decomposable(make_nary(2, 2))) == F(2, 3)


def test_rate_rejects_alphabet_mismatch():
    coord = ComponentTable.coordinate(2, 1, 4, 0)
    code = DecomposableCode(
        CodeParams(2, 1, 1, 2, 4),
        ((AnswerFunction("f", ((coord, ),)),), (AnswerFunction("g", ((coord,),)),)),
        ("0",),
        {(0, 0): (0, 0)},
    )
    with pytest.raises(ValueError, match="alphabet"):
        rate(code)


def test_rate_rejects_zero_download():
    silent = DecomposableCode(
        CodeParams(2, 1, 1, 2, 2),
        ((AnswerFunction("null0", ()),), (AnswerFunction("null1", ()),)),
        ("0",),
        {(0, 0): (0, 0)},
    )
    with pytest.raises(ValueError, match="download"):
        rate(silent)


def test_message_size_bits():
    assert message_size_bits(export_decomposable(make_nary(3, 3))) == 2.0
    assert message_size_bits(export_decomposable(make_nary(3, 2, 3))) == pytest.approx(
        2 * math.log2(3), abs=1e-15
    )


def test_upload_cost():
    cost = upload_cost_bits(export_decomposable(make_nary(3, 3)))
    assert cost.per_server == (9, 9, 9)
    assert cost.total_bits == pytest.approx(3 * 2 * math.log2(3), abs=1e-12)
    assert upload_cost_bits(builtin_table1()).total_bits == 2.0


# ---------------------------------------------------------------- enumeration


def test_all_message_sets_order_and_count():
    code = builtin_table1()
    sets = all_message_sets(code)
    assert len(sets) == 4
    assert sets[:2] == [((0,), (0,)), ((0,), (1,))]


def test_cap_refusal_carries_work_estimate():
    code = export_decomposable(make_nary(2, 2))
    with pytest.raises(EnumerationCapExceeded) as exc:
        verify_correctness(code, cap=3)
    assert exc.value.required == 8  # 2^(2*1) databases x 2 keys
    assert exc.value.cap == 3
    assert "8" in str(exc.value)


def _wide_code():
    """K=3 messages of L=9 bits: 2^27 databases, beyond the default cap."""
    const = ComponentTable.constant(2, 9, 2)
    variety = (AnswerFunction("c", ((const, const, const),)),)
    return DecomposableCode(
        CodeParams(2, 3, 9, 2, 2),
        (variety, variety),
        ("0",),
        {(k, 0): (0, 0) for k in range(3)},
    )


@pytest.mark.parametrize(
    "check",
    [
        verify_correctness,
        lambda code: check_P1(code, 0, (0, 0)),
        lambda code: check_P2(code, 0, (0, 0)),
        lambda code: check_P3(code, 0, (0, 0)),
        lambda code: joint_pmf(code, [MessageVar(0)]),
        lambda code: check_lemma1_equality(code, 0),
        lambda code: check_lemma2_equality(code, 1, (0, 1, 2)),
    ],
    ids=["correctness", "P1", "P2", "P3", "joint_pmf", "lemma1", "lemma2"],
)
def test_cap_refusal_allocates_nothing(check):
    code = _wide_code()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded) as exc:
            check(code)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.required == 1 << 27
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_joint_pmf_cap_refusal():
    code = export_decomposable(make_nary(2, 3))
    with pytest.raises(EnumerationCapExceeded):
        joint_pmf(code, [MessageVar(0)], cap=7)


def test_joint_pmf_message_variable_uniform():
    code = builtin_table1()
    d = joint_pmf(code, [MessageVar(0)])
    assert d == ExactDistribution({((0,),): F(1, 2), ((1,),): F(1, 2)})


def test_joint_pmf_answer_follows_message():
    # server 1 query 0 returns message 0 verbatim
    code = builtin_table1()
    d = joint_pmf(code, [MessageVar(0), MaskedAnswerVar(1, 0)])
    assert d == ExactDistribution({((0,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)})


def test_residual_and_requested_split_the_answer():
    code = builtin_table1()
    # server 0 query 1 is the two-message sum a+b; split it against k=0 into
    # the requested part (a) and the residual (b)
    requested, residual, whole = (MaskedAnswerVar(0, 1, mask) for mask in (1, ~1, -1))
    d = joint_pmf(code, [MessageVar(0), MessageVar(1), requested, residual, whole])
    assert dict(d.items()) == {
        ((a,), (b,), (a,), (b,), ((a + b) % 2,)): F(1, 4)
        for a in (0, 1)
        for b in (0, 1)
    }


def test_positive_query_tuples_table1():
    code = builtin_table1()
    assert positive_query_tuples(code, 0) == ((0, 0), (1, 1))
    assert positive_query_tuples(code, 1) == ((0, 1), (1, 0))


# ---------------------------------------------------------------- verifiers


def test_verify_correctness_counts_all_cases():
    report = verify_correctness(builtin_table1())
    assert report.passed
    assert report.checked == 16  # 4 databases x 2 keys x 2 requests
    assert report.witness is None
    assert bool(report)


def test_verify_privacy_table1():
    assert verify_privacy(builtin_table1()).passed


def _const(v=0):
    return ComponentTable.constant(2, 1, 2, value=v)


def _coord():
    return ComponentTable.coordinate(2, 1, 2, 0)


def _two_message_code(server0, server1, query_map):
    return DecomposableCode(
        CodeParams(2, 2, 1, 2, 2), (server0, server1), ("0",), query_map
    )


def test_verify_privacy_catches_request_dependence():
    code = DecomposableCode(
        params=builtin_table1().params,
        varieties=builtin_table1().varieties,
        keys=builtin_table1().keys,
        query_map={(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (1, 0)},
    )
    report = verify_privacy(code)
    assert not report.passed
    assert report.witness is not None
    assert "probability" in report.witness.describe()


def test_verify_correctness_reports_witness():
    # server answers never depend on message 0, so k=0 cannot be decoded
    blind = _two_message_code(
        (AnswerFunction("b0", ((_const(), _coord()),)),),
        (AnswerFunction("b1", ((_const(), _coord()),)),),
        {(0, 0): (0, 0), (1, 0): (0, 0)},
    )
    report = verify_correctness(blind)
    assert not report.passed
    w = report.witness
    assert w is not None
    assert w.k == 0
    assert w.messages is not None and w.queries is not None
    assert "consistent with both" in w.detail


def test_check_P1_detects_duplicated_answers():
    dup = _two_message_code(
        (AnswerFunction("a0", ((_coord(), _const()),)),),
        (AnswerFunction("a1", ((_coord(), _const()),)),),
        {(0, 0): (0, 0), (1, 0): (0, 0)},
    )
    report = check_P1(dup, 0, (0, 0))
    assert not report.passed
    assert "differs from product" in report.witness.detail
    assert report.witness.queries == ("a0", "a1")


def test_check_P2_detects_lost_interference():
    # server 0 carries message 1, server 1 carries nothing: residuals for k=0
    # cannot determine each other
    lossy = _two_message_code(
        (AnswerFunction("b", ((_const(), _coord()),)),),
        (AnswerFunction("a", ((_coord(), _const()),)),),
        {(0, 0): (0, 0), (1, 0): (0, 0)},
    )
    report = check_P2(lossy, 0, (0, 0))
    assert not report.passed
    assert "co-occurs" in report.witness.detail


def test_check_P3_detects_correlated_payload():
    shared = _two_message_code(
        (AnswerFunction("a", ((_coord(), _const()),)),),
        (AnswerFunction("a+b", ((_coord(), _coord()),)),),
        {(0, 0): (0, 0), (1, 0): (0, 0)},
    )
    report = check_P3(shared, 0, (0, 0))
    assert not report.passed


def test_properties_hold_on_table1():
    code = builtin_table1()
    for k in range(2):
        for queries in positive_query_tuples(code, k):
            assert check_P1(code, k, queries).passed
            assert check_P2(code, k, queries).passed
            assert check_P3(code, k, queries).passed


def test_zero_probability_tuple_is_rejected():
    code = builtin_table1()
    for check in (check_P1, check_P2, check_P3):
        with pytest.raises(ValueError, match="zero probability"):
            check(code, 0, (0, 1))


# ---------------------------------------------------------------- lemma residuals


def test_lemma1_residual_zero_22():
    code = export_decomposable(make_nary(2, 2))
    assert check_lemma1_equality(code, 0) == 0.0
    assert check_lemma1_equality(code, 1) == 0.0


def test_lemma1_single_message_degenerates_to_zero():
    code = export_decomposable(make_nary(2, 1))
    assert check_lemma1_equality(code, 0) == 0.0


def test_lemma1_rejects_bad_request():
    code = export_decomposable(make_nary(2, 2))
    with pytest.raises(ValueError):
        check_lemma1_equality(code, 2)


def test_lemma2_residual_zero_22():
    code = export_decomposable(make_nary(2, 2))
    assert check_lemma2_equality(code, 1, (0, 1)) == 0.0
    assert check_lemma2_equality(code, 1, (1, 0)) == 0.0


def test_lemma2_validates_inputs():
    code = export_decomposable(make_nary(2, 2))
    with pytest.raises(ValueError):
        check_lemma2_equality(code, 1, (0, 0))
    with pytest.raises(ValueError):
        check_lemma2_equality(code, 2, (0, 1))
    with pytest.raises(ValueError):
        check_lemma2_equality(export_decomposable(make_nary(2, 1)), 1, (0,))


def test_lemma_mutual_information_value_22():
    # the answer side information for (2,2) is exactly half a bit
    code = export_decomposable(make_nary(2, 2))
    residual = check_lemma1_equality(code, 0)
    bound = float(code.params.msg_len * (1 / rate(code) - 1)) * math.log2(
        code.params.msg_modulus
    )
    assert bound == 0.5
    assert residual + bound == 0.5


# ---------------------------------------------------------------- records


def test_witness_describe_mentions_all_parts():
    w = Witness("bad", messages=((0, 1), (1, 0)), key="01", k=1, queries=("q1", "q2"))
    text = w.describe()
    for chunk in ("bad", "k=1", "key=01", "queries=q1,q2", "messages=01;10"):
        assert chunk in text


def test_check_record_text_line():
    rec = CheckRecord("privacy", (("server", "1"),), True)
    assert rec.text_line() == "privacy server=1 pass"
    rec2 = CheckRecord("lemma1", (("k", "0"),), False, residual=1.5e-4)
    assert rec2.text_line() == "lemma1 k=0 FAIL residual=1.500e-04"


def test_check_record_json_round_trip():
    rec = CheckRecord(
        "P1", (("k", "0"), ("tuple", "0,0")), False, witness=Witness("boom", k=0)
    )
    obj = json.loads(rec.to_json())
    assert obj["name"] == "P1"
    assert obj["params"] == {"k": "0", "tuple": "0,0"}
    assert obj["passed"] is False
    assert obj["residual"] is None
    assert "boom" in obj["witness"]


# ---------------------------------------------------------------- byte stability
# Values below were recorded with the tuple-keyed information tally and the
# decoder run once per database; the verifier must reproduce them exactly.


def _reference_request_mi_bits(code, request, info, given):
    """The tuple-keyed tally that ranks whole answer tuples, as a reference."""
    size = analysis._enumeration_size(code) * len(code.keys)
    cube = analysis._answer_cube(code)
    n_keys = len(code.keys)
    xs = cube.message_codes(info)
    zs = [g * n_keys for g in cube.message_codes(given)]
    tally = Counter()
    for f in range(n_keys):
        queries = code.query_map[(request, f)]
        columns = [cube.column(n, qi, -1) for n, qi in enumerate(queries)]
        tally.update(zip(xs, zip(*columns), [z + f for z in zs]))
    rank = {y: i for i, y in enumerate(sorted({y for _, y, _ in tally}))}
    counts = {(x, rank[y], z): c for (x, y, z), c in tally.items()}
    return _reference_cmi(ExactDistribution.from_counts(counts, size))


def _nary22():
    return export_decomposable(make_nary(2, 2))


# decoders that are symmetry.py wrappers, and a builtin whose three-symbol
# answers repeat across databases
GUARDED_CODES = {
    "server-symmetrized nary 2 2": lambda: server_symmetrize(_nary22()),
    "message-symmetrized nary 2 2": lambda: message_symmetrize(_nary22()),
    "variety-symmetrized nary 2 2": lambda: variety_symmetrize(_nary22()),
    "sunjafar22": builtin_sunjafar22,
}

# name -> (correctness (passed, checked), lemma1 reprs by k, lemma2 reprs
# for perm 0..K-1 then its reverse, split points ascending)
GUARDED_RECORDS = {
    "server-symmetrized nary 2 2": ((True, 128), ["0.0", "0.0"], ["0.0", "0.0"]),
    "message-symmetrized nary 2 2": ((True, 128), ["0.0", "0.0"], ["0.0", "0.0"]),
    "variety-symmetrized nary 2 2": ((True, 64), ["0.0", "0.0"], ["0.0", "0.0"]),
    "sunjafar22": (
        (True, 12288),
        ["-1.8207657603852567e-13", "-1.8207657603852567e-13"],
        ["-3.6415315207705135e-13", "-3.6415315207705135e-13"],
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDED_CODES))
def test_verifier_records_of_wrapped_and_builtin_decoders_are_stable(name):
    code = GUARDED_CODES[name]()
    correctness, lemma1, lemma2 = GUARDED_RECORDS[name]
    report = verify_correctness(code)
    assert (report.passed, report.checked, report.witness) == (*correctness, None)
    K = code.params.n_messages
    assert [repr(check_lemma1_equality(code, k)) for k in range(K)] == lemma1
    perms = [tuple(range(K)), tuple(reversed(range(K)))]
    residuals = [check_lemma2_equality(code, k, perm) for perm in perms for k in range(1, K)]
    assert list(map(repr, residuals)) == lemma2


def _nary33_with_one_flipped_entry():
    """nary 3 3 with the first entry of its second table line flipped: its
    information residuals are no longer zero."""
    lines = emit(export_decomposable(make_nary(3, 3))).splitlines()
    i = [i for i, line in enumerate(lines) if line.startswith("table ")][1]
    tokens = lines[i].split()
    tokens[3] = str(1 - int(tokens[3]))
    lines[i] = " ".join(tokens)
    return parse("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name",
    ["sunjafar22", "server-symmetrized nary 2 2", "nary 3 3", "nary 2 3 m3", "flipped nary 3 3"],
)
def test_request_mi_bits_matches_the_tuple_keyed_tally(name):
    codes = {
        "nary 3 3": lambda: export_decomposable(make_nary(3, 3)),
        "nary 2 3 m3": lambda: export_decomposable(make_nary(2, 3, 3)),
        "flipped nary 3 3": _nary33_with_one_flipped_entry,
        **GUARDED_CODES,
    }
    code = codes[name]()
    K = code.params.n_messages
    for request in range(K):
        others = [j for j in range(K) if j != request]
        for split in range(len(others) + 1):
            info, given = others[split:], others[:split] + [request]
            got = analysis._request_mi_bits(code, request, info, given, analysis.DEFAULT_CAP)
            assert got == _reference_request_mi_bits(code, request, info, given)


def test_request_mi_bits_without_information_is_exactly_zero():
    code = builtin_sunjafar22()
    got = analysis._request_mi_bits(code, 0, [], [0, 1], analysis.DEFAULT_CAP)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


def _wrap_decoder(code, wrong=None):
    """`code` with its decoder wrapped: each call is logged, and the decode of
    the (k, key index, answer values) triple `wrong` has its first symbol
    flipped."""
    calls = []
    inner = code.reconstruct

    def decode(k, f, answers):
        triple = (k, f, answers)
        calls.append(triple)
        values = inner(k, f, answers)
        if triple == wrong:
            return ((values[0] + 1) % 2,) + values[1:]
        return values

    wrapped = DecomposableCode(code.params, code.varieties, code.keys, code.query_map, decode)
    return wrapped, calls


def test_decoder_runs_once_per_distinct_answer_tuple():
    code, calls = _wrap_decoder(export_decomposable(make_nary(3, 3)))
    report = verify_correctness(code)
    assert report.passed and report.checked == 3 * 9 * 64
    # 8 answer tuples under each non-zero key, 4 under key 00 (empty answer)
    assert len(calls) == len(set(calls)) == 204


def test_memoized_decoder_still_catches_one_wrong_decode():
    code, calls = _wrap_decoder(
        export_decomposable(make_nary(3, 3)), wrong=(1, 5, ((1,), (0,), (1,)))
    )
    report = verify_correctness(code)
    assert not report.passed
    assert report.checked == 906
    assert report.witness == Witness(
        "reconstructed (0, 0), stored (1, 0)",
        ((0, 0), (1, 0), (0, 1)),
        "12",
        1,
        ("102", "112", "122"),
    )
    assert len(calls) == len(set(calls))
