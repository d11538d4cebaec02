"""Count tables, information measures, metrics, and the exhaustive verifiers."""

import dataclasses
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
    message_size_bits,
    mutual_information_bits,
    positive_query_tuples,
    rate,
    upload_cost_bits,
    verify,
    verify_correctness,
    verify_privacy,
)
from pirlab.codefile import emit, parse
from pirlab.groups import CodeParams
from pirlab.model import (
    AnswerFunction,
    DecomposableCode,
    builtin_sunjafar22,
    builtin_table1,
    coordinate_table,
    input_rank,
)
from pirlab.nary import export_decomposable, make_nary
from pirlab.symmetry import message_symmetrize, server_symmetrize, variety_symmetrize
from test_mutants import BASE_CODES, MUTANT_DIGESTS, mutants


F = Fraction


# ---------------------------------------------------------------- count tables


def _uniform(values):
    """The count table of the uniform pmf on `values`, and its total."""
    return dict.fromkeys(values, 1), len(values)


MEASURES = (
    (entropy_bits, lambda v: (v,)),
    (mutual_information_bits, lambda v: (v, v)),
    (conditional_mutual_information_bits, lambda v: (v, v, v)),
)


def test_count_tables_are_read_in_sorted_order_at_any_scale():
    # insertion order and a common factor of the counts leave every float as it is
    counts = {(1, 0, 1): 3, (0, 1, 1): 1, (0, 0, 0): 2, (1, 1, 0): 5}
    rescaled = {v: 7 * c for v, c in sorted(counts.items())}
    cmi = conditional_mutual_information_bits
    assert cmi(counts, 11) == cmi(rescaled, 77) == _reference_cmi(rescaled, 77)
    pairs = analysis._marginal(counts, (0, 1))
    assert mutual_information_bits(pairs, 11) == mutual_information_bits(
        dict(sorted(pairs.items())), 11
    )
    assert entropy_bits({(1,): 3, (0,): 3}, 6) == entropy_bits(*_uniform([(0,), (1,)])) == 1.0


def test_information_measures_reject_bad_total():
    for measure, value in MEASURES:
        with pytest.raises(ValueError, match="sum to exactly 1"):
            measure({value(0): 1, value(1): 1}, 3)


@pytest.mark.parametrize("count", [0, -1])
def test_information_measures_reject_nonpositive_counts(count):
    for measure, value in MEASURES:
        with pytest.raises(ValueError, match="positive"):
            measure({value(0): 2, value(1): count}, 2 + count)


def test_marginal_projection():
    counts = {((0,), (0,)): 2, ((1,), (0,)): 1, ((1,), (1,)): 1}
    assert analysis._marginal(counts, (0,)) == {((0,),): 2, ((1,),): 2}
    assert analysis._marginal(counts, (1, 0)) == {
        ((0,), (0,)): 2,
        ((0,), (1,)): 1,
        ((1,), (1,)): 1,
    }


# ---------------------------------------------------------------- information


def test_entropy_uniform_bits():
    d = _uniform([(i,) for i in range(8)])
    assert entropy_bits(*d) == pytest.approx(3.0, abs=1e-12)


def test_entropy_skewed():
    assert entropy_bits({(0,): 3, (1,): 1}, 4) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-12)


def test_mutual_information_independent_pair_is_zero():
    d = _uniform([(a, b) for a in (0, 1) for b in (0, 1)])
    assert mutual_information_bits(*d) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_identical_pair_is_entropy():
    d = _uniform([(0, 0), (1, 1)])
    assert mutual_information_bits(*d) == pytest.approx(1.0, abs=1e-12)


def test_conditional_mutual_information():
    # X = Y xor Z with X,Z fair coins: I(X;Y|Z) = 1, unconditionally I(X;Y) = 0
    counts, total = _uniform([(x, x ^ z, z) for x in (0, 1) for z in (0, 1)])
    assert conditional_mutual_information_bits(counts, total) == pytest.approx(1.0, abs=1e-12)
    pairs = analysis._marginal(counts, (0, 1))
    assert mutual_information_bits(pairs, total) == pytest.approx(0.0, abs=1e-12)


def _reference_cmi(counts, total):
    """The term loop of the tuple-keyed implementation, kept as the reference
    for the float each measure must reproduce bit for bit."""

    def log2_ratio(num, den):
        g = math.gcd(num, den)
        return math.log2(num // g) - math.log2(den // g)

    support = sorted(counts.items())
    p_z, p_xz, p_yz = Counter(), Counter(), Counter()
    for (x, y, z), c in support:
        p_z[z] += c
        p_xz[x, z] += c
        p_yz[y, z] += c
    out = 0.0
    for (x, y, z), c in support:
        out += (c / total) * log2_ratio(c * p_z[z], p_xz[x, z] * p_yz[y, z])
    return out


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
    total = sum(counts.values())
    assert conditional_mutual_information_bits(counts, total) == _reference_cmi(counts, total)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.one_of(st.integers(1, 4), st.integers(1, 1 << 24)),
        min_size=1,
        max_size=16,
    )
)
def test_entropy_and_mutual_information_are_the_reference_term_loop(pairs):
    # I(A;B) = I(A;B|constant) and H(A) = I(A;A), term for term
    total = sum(pairs.values())
    triples = {(a, b, 0): c for (a, b), c in pairs.items()}
    assert mutual_information_bits(pairs, total) == _reference_cmi(triples, total)
    firsts = analysis._marginal(pairs, (0,))
    doubled = {(a, a, 0): c for a, c in firsts.items()}
    assert entropy_bits(firsts, total) == _reference_cmi(doubled, total)


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


def _expected_answer_lengths_by_pmf(code, k):
    """The definition: Σ over queries of P(query) · answer length, per server."""
    return tuple(
        sum((p * code.answer_length(n, qi) for qi, p in enumerate(code.query_pmf(n, k))), F(0))
        for n in range(code.params.n_servers)
    )


_LENGTH_CODES = {
    "table1": builtin_table1,
    "table2": builtin_sunjafar22,
    **{
        f"nary {n} {k}": (lambda n=n, k=k: export_decomposable(make_nary(n, k)))
        for n in (2, 3, 4)
        for k in (1, 2, 3)
    },
    **{
        f"{transform.__name__} nary {n} 2": (
            lambda transform=transform, n=n: transform(export_decomposable(make_nary(n, 2)))
        )
        for transform in (server_symmetrize, message_symmetrize, variety_symmetrize)
        for n in (2, 3)
    },
}


@pytest.mark.parametrize("name", list(_LENGTH_CODES))
def test_expected_answer_lengths_equal_the_pmf_weighted_sum(name):
    code = _LENGTH_CODES[name]()
    for k in range(code.params.n_messages):
        lengths = expected_answer_lengths(code, k)
        assert lengths == _expected_answer_lengths_by_pmf(code, k)
        assert all(type(e) is F for e in lengths)


def test_rate_nary_22():
    assert rate(export_decomposable(make_nary(2, 2))) == F(2, 3)


def _alphabet_mismatch_code():
    """A one-message code whose answers (mod 4) do not reuse the message
    alphabet (mod 2)."""
    coord = coordinate_table(2, 1, 0)
    return DecomposableCode(
        CodeParams(2, 1, 1, 2, 4),
        ((AnswerFunction("f", ((coord, ),)),), (AnswerFunction("g", ((coord,),)),)),
        ("0",),
        {(0, 0): (0, 0)},
    )


def test_rate_rejects_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet"):
        rate(_alphabet_mismatch_code())


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
    # K x keys = 4 splits of m^L x (1 + 2) sums, and one replay of 2^2 databases
    assert exc.value.required == 28
    assert exc.value.cap == 3
    assert "28" in str(exc.value)


def test_cap_refusal_names_a_requirement_too_long_for_decimal():
    exc = EnumerationCapExceeded(64**5040, 1 << 24)
    assert exc.required == 64**5040 == 2**30240
    assert str(exc) == (
        "refusing exact enumeration: needs at least 2^30240 evaluations, cap is 16777216"
    )


def _wide_code():
    """K=3 messages of L=9 bits: 2^27 databases, beyond the default cap."""
    const = (0,) * 2**9
    variety = (AnswerFunction("c", ((const, const, const),)),)
    return DecomposableCode(
        CodeParams(2, 3, 9, 2, 2),
        (variety, variety),
        ("0",),
        {(k, 0): (0, 0) for k in range(3)},
    )


def _deep_code():
    """K=3 messages of L=9 bits, each server answering every message's nine
    coordinates summed: the split's supports may reach 2^18 answer tuples."""
    rows = tuple((c, c, c) for c in (coordinate_table(2, 9, j) for j in range(9)))
    variety = (AnswerFunction("sum", rows),)
    return DecomposableCode(
        CodeParams(2, 3, 9, 2, 2),
        (variety, variety),
        ("0",),
        {(k, 0): (0, 0) for k in range(3)},
    )


@pytest.mark.parametrize(
    "code, check, required",
    [
        # K x keys splits of m^L x (1 + 4 + 4) sums, and one replay of 2^27
        # databases, which a failing correctness (as here) runs
        (_wide_code, verify_correctness, 3 * 2**9 * 9 + 2**27),
        # one split of m^L x (1 + 2^9 + 2^18) sums
        (_deep_code, lambda code: check_P1(code, 0, (0, 0)), 2**9 * (1 + 2**9 + 2**18)),
        (_deep_code, lambda code: check_P2(code, 0, (0, 0)), 2**9 * (1 + 2**9 + 2**18)),
        (_deep_code, lambda code: check_P3(code, 0, (0, 0)), 2**9 * (1 + 2**9 + 2**18)),
        # 2^27 databases x 1 key tallied
        (_wide_code, lambda code: check_lemma1_equality(code, 0), 2**27),
        (_wide_code, lambda code: check_lemma2_equality(code, 1, (0, 1, 2)), 2**27),
    ],
    ids=["correctness", "P1", "P2", "P3", "lemma1", "lemma2"],
)
def test_cap_refusal_allocates_nothing(code, check, required):
    code = code()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded) as exc:
            check(code)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.required == required
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_correctness_and_properties_run_at_nary_443_under_the_default_cap():
    # the databases x keys charge asked for 34,012,224 here
    code = export_decomposable(make_nary(4, 4, 3))
    assert verify_correctness(code).passed
    for check in (check_P1, check_P2, check_P3):
        for k in range(4):
            assert check(code, k, positive_query_tuples(code, k)[-1]).passed


def test_correctness_still_refuses_nary_2_16():
    # 16 x 2^15 splits of 2 x (1 + 2 + 14 x 4) sums, and 2^16 databases
    with pytest.raises(EnumerationCapExceeded) as exc:
        verify_correctness(export_decomposable(make_nary(2, 16)))
    assert exc.value.required == 16 * 2**15 * 2 * 59 + 2**16


def _counting_sums(monkeypatch):
    """A list whose length counts the `_sum` calls made from now on.  The
    lemma tallies make none, so they are stubbed out."""
    monkeypatch.setattr(analysis, "_request_mi_bits", lambda *args: 0.0)
    calls = []
    add = analysis._sum

    def counted(shares, modulus):
        calls.append(None)
        return add(shares, modulus)

    monkeypatch.setattr(analysis, "_sum", counted)
    return calls


def _assert_sums_within_charge(code, calls):
    """Each check's counted `_sum` calls are at most what it is charged."""
    work = analysis._work(code)
    del calls[:]
    verify(code, cap=work.verify)
    assert len(calls) <= work.verify
    del calls[:]
    verify_correctness(code, cap=work.correctness)
    assert len(calls) <= work.correctness
    for k in range(code.params.n_messages):
        for queries in positive_query_tuples(code, k):
            for check in (check_P1, check_P2, check_P3):
                del calls[:]
                check(code, k, queries, cap=work.properties)
                assert len(calls) <= work.properties


NARY_GRID = [(n, k, m) for n in (2, 3, 4) for k in (1, 2, 3, 4) for m in (2, 3)]


def test_counted_sums_never_exceed_the_charge_on_the_grid(monkeypatch):
    calls = _counting_sums(monkeypatch)
    for shape in NARY_GRID:
        _assert_sums_within_charge(export_decomposable(make_nary(*shape)), calls)


@pytest.mark.parametrize("case", sorted(MUTANT_DIGESTS), ids="-".join)
def test_counted_sums_never_exceed_the_charge_on_the_mutants(case, monkeypatch):
    name, family, decoder = case
    calls = _counting_sums(monkeypatch)
    for code in mutants(BASE_CODES[name](), family, decoder == "decoder"):
        _assert_sums_within_charge(code, calls)


def _brute_force_answers(code, queries, messages, selected):
    """Every server's answer to `queries` on the database `messages`,
    counting only the `selected` messages, read from the tables."""
    p = code.params
    ranks = [input_rank(w, p.msg_modulus) for w in messages]
    return tuple(
        tuple(
            sum(row[j][ranks[j]] for j in selected) % p.ans_modulus
            for row in code.varieties[n][qi].tables
        )
        for n, qi in enumerate(queries)
    )


def _brute_force_joint(code, queries, selected):
    """The count table of every server's answer to `queries`, counting only
    the `selected` messages, by evaluating every database."""
    return Counter(
        _brute_force_answers(code, queries, messages, selected)
        for messages in all_message_sets(code)
    )


def _convolved_joint(code, queries, selected):
    """`_convolve`'s count table of the same answers, scaled to every
    database: an unselected message's m^L values all leave the sum as it is."""
    p = code.params
    counts = analysis._convolve(analysis._contributions(code, queries), selected, p.ans_modulus)
    scale = (p.msg_modulus**p.msg_len) ** (p.n_messages - len(selected))
    return Counter({a: c * scale for a, c in counts.items()})


def test_answer_joint_follows_message():
    # server 0 query 0 is silent; server 1 query 0 returns message 0 verbatim
    code = builtin_table1()
    for selected, expected in (([0], {(0,): 2, (1,): 2}), ([1], {(0,): 4})):
        joint = _convolved_joint(code, (0, 0), selected)
        assert joint == {((), a): c for a, c in expected.items()}
        assert joint == _brute_force_joint(code, (0, 0), selected)


def test_residual_and_requested_split_the_answer():
    code = builtin_table1()
    # server 0 query 1 is the two-message sum a+b and server 1 query 1 sends
    # b; against k=0 they split into the requested part (a) and the residual (b)
    parts = {
        "requested": ([0], lambda a, b: ((a,), (0,))),
        "residual": ([1], lambda a, b: ((b,), (b,))),
        "whole": ([0, 1], lambda a, b: (((a + b) % 2,), (b,))),
    }
    for selected, answers in parts.values():
        joint = _convolved_joint(code, (1, 1), selected)
        assert joint == Counter(answers(a, b) for a in (0, 1) for b in (0, 1))
        assert joint == _brute_force_joint(code, (1, 1), selected)


@pytest.mark.parametrize(
    "name",
    ["table1", "sunjafar22", "nary 3 3", "nary 2 3 m3", "flipped nary 3 3", "server-symmetrized nary 2 2"],
)
def test_answer_joint_matches_brute_force_enumeration(name):
    code = {
        "table1": builtin_table1,
        "sunjafar22": builtin_sunjafar22,
        "nary 3 3": lambda: export_decomposable(make_nary(3, 3)),
        "nary 2 3 m3": lambda: export_decomposable(make_nary(2, 3, 3)),
        "flipped nary 3 3": _nary33_with_one_flipped_entry,
        "server-symmetrized nary 2 2": lambda: server_symmetrize(_nary22()),
    }[name]()
    K = code.params.n_messages
    for k in range(K):
        others = [j for j in range(K) if j != k]
        for queries in positive_query_tuples(code, k):
            for selected in (range(K), others, [k]):
                got = _convolved_joint(code, queries, selected)
                assert got == _brute_force_joint(code, queries, selected)


def test_verifiers_leave_the_code_as_they_found_it():
    with_decoder = export_decomposable(make_nary(3, 3))
    for code in (with_decoder, parse(emit(with_decoder))):
        before = dict(vars(code))
        K = code.params.n_messages
        assert verify_correctness(code).passed and verify_privacy(code).passed
        for k in range(K):
            for queries in positive_query_tuples(code, k):
                for check in (check_P1, check_P2, check_P3):
                    assert check(code, k, queries).passed
            assert abs(check_lemma1_equality(code, k)) <= analysis.FLOAT_TOL
        for k in range(1, K):
            assert abs(check_lemma2_equality(code, k, range(K))) <= analysis.FLOAT_TOL
        assert vars(code) == before


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
    return (v, v)


def _coord():
    return coordinate_table(2, 1, 0)


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


def test_verify_correctness_reports_a_decoder_that_raises():
    # server 1's query 10 sends its symbol twice, which nary's decoder rejects
    base = export_decomposable(make_nary(2, 2))
    server1 = list(base.varieties[1])
    server1[1] = AnswerFunction(server1[1].label, server1[1].tables * 2)
    code = DecomposableCode(
        base.params, (base.varieties[0], tuple(server1)), base.keys, base.query_map, base.reconstruct
    )
    report = verify_correctness(code)
    assert not report.passed and report.checked == 1
    assert report.witness == Witness(
        "decoder raised ValueError: answer 1 has 2 symbols, query demands 1",
        ((0,), (0,)),
        "0",
        0,
        ("00", "10"),
    )


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


def test_verify_skips_a_checked_query_tuple_once_correctness_has_failed(monkeypatch):
    # table1 with a third key that repeats key 0's query tuples, and a decoder
    # that always answers 0, so correctness fails at the first (k, key)
    base = builtin_table1()
    query_map = {**base.query_map, (0, 2): base.query_map[(0, 0)], (1, 2): base.query_map[(1, 0)]}
    code = DecomposableCode(
        base.params, base.varieties, ("0", "1", "2"), query_map, lambda k, f, answers: (0,)
    )
    splits = []
    split = analysis._split

    def counted(code, k, queries):
        splits.append((k, queries))
        return split(code, k, queries)

    monkeypatch.setattr(analysis, "_split", counted)
    records = verify(code)
    assert records[0].name == "correctness" and not records[0].passed
    tuples = [sorted({query_map[(k, f)] for f in range(3)}) for k in range(2)]
    assert sorted(splits) == [(k, q) for k in range(2) for q in tuples[k]]
    expected = []
    for i, check in enumerate((check_P1, check_P2, check_P3)):
        for k in range(2):
            failed = [r.witness for r in (check(code, k, q) for q in tuples[k]) if not r.passed]
            params = (("k", str(k)), ("tuples", str(len(tuples[k]))))
            expected.append(CheckRecord(f"P{i + 1}", params, not failed, None, next(iter(failed), None)))
    assert [r for r in records if r.name[0] == "P"] == expected


def test_verify_splits_each_request_and_key_once(monkeypatch):
    # every key of a request sends its own query tuple on these codes, so a
    # verify that split once for correctness and again for P1-P3 would make
    # twice K x keys calls
    codes = {
        "nary 3 4": export_decomposable(make_nary(3, 4)),
        "table2": builtin_sunjafar22(),
        "server-symmetrized nary 2 2": server_symmetrize(_nary22()),
        "variety-symmetrized nary 2 2": variety_symmetrize(_nary22()),
    }
    calls = []
    contributions = analysis._contributions

    def counted(code, queries):
        calls.append(queries)
        return contributions(code, queries)

    monkeypatch.setattr(analysis, "_contributions", counted)
    made = {}
    for name, code in codes.items():
        K, n_keys = code.params.n_messages, len(code.keys)
        assert sum(len(positive_query_tuples(code, k)) for k in range(K)) == K * n_keys, name
        calls.clear()
        verify(code)
        made[name] = len(calls)
        assert made[name] == K * n_keys, name
    assert made["nary 3 4"] == 108


@pytest.mark.parametrize(
    "entry",
    [
        lambda code, k: check_P1(code, k, code.query_map[(0, 0)]),
        lambda code, k: check_P2(code, k, code.query_map[(0, 0)]),
        lambda code, k: check_P3(code, k, code.query_map[(0, 0)]),
        positive_query_tuples,
        expected_answer_lengths,
    ],
    ids=["check_P1", "check_P2", "check_P3", "positive_query_tuples", "expected_answer_lengths"],
)
def test_request_index_out_of_range_is_a_value_error(entry):
    code = _nary22()
    for k in (2, -1):
        with pytest.raises(ValueError, match=f"message index {k} out of range"):
            entry(code, k)


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
    # a symbol of 10 or more puts commas between a message's symbols
    assert Witness("bad", messages=((1, 11), (11, 1))).describe() == "bad messages=1,11;11,1"


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


FIRST_CHECKS = ["correctness", "privacy", "uniform-decomposable", "P1", "P2", "P3"]


def test_verify_with_one_message_has_one_lemma1_and_no_lemma2():
    records = verify(export_decomposable(make_nary(3, 1)))
    assert [r.name for r in records] == FIRST_CHECKS + ["lemma1"]
    assert records[-1].params == (("k", "0"),)


def test_verify_leaves_out_the_lemmas_when_alphabets_differ():
    records = verify(_alphabet_mismatch_code())
    assert [r.name for r in records] == FIRST_CHECKS


# ---------------------------------------------------------------- byte stability
# Values below were recorded with the tuple-keyed information tally and the
# decoder run once per database; the verifier must reproduce them exactly.


def _reference_request_mi_bits(code, request, info, given):
    """I(W_info ; answers | W_given, key) from a tally keyed by the message
    values and answer tuples themselves, every database read from the
    tables."""
    everything = range(code.params.n_messages)
    counts = Counter()
    for messages in all_message_sets(code):
        x = tuple(messages[j] for j in info)
        g = tuple(messages[j] for j in given)
        for f in range(len(code.keys)):
            queries = code.query_map[(request, f)]
            counts[x, _brute_force_answers(code, queries, messages, everything), (g, f)] += 1
    return _reference_cmi(counts, sum(counts.values()))


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
    [
        "table1",
        "sunjafar22",
        "server-symmetrized nary 2 2",
        "message-symmetrized nary 2 2",
        "nary 3 3",
        "nary 3 4",
        "nary 2 3 m3",
        "flipped nary 3 3",
        "extra-row mutant 18 of nary 3 2",
    ],
)
def test_request_mi_bits_matches_the_tuple_keyed_tally(name):
    # table1, message-symmetrized nary 2 2 and mutant 18 answer with
    # different lengths at one server; unless a missing symbol orders before
    # the symbol 0, mutant 18's terms add up in another order and round
    # differently.  Each split is tried with the request given, as in lemma 1
    # and lemma 2's second term, where (x, z) fixes the database and every
    # count is 1, and free, as in lemma 2's first term, where a code that
    # does not decode its request has counts above 1
    codes = {
        "table1": builtin_table1,
        "extra-row mutant 18 of nary 3 2": lambda: list(
            mutants(export_decomposable(make_nary(3, 2)), "extra-row")
        )[18],
        "nary 3 3": lambda: export_decomposable(make_nary(3, 3)),
        "nary 3 4": lambda: export_decomposable(make_nary(3, 4)),
        "nary 2 3 m3": lambda: export_decomposable(make_nary(2, 3, 3)),
        "flipped nary 3 3": _nary33_with_one_flipped_entry,
        **GUARDED_CODES,
    }
    code = codes[name]()
    K = code.params.n_messages
    for request in range(K):
        answers = analysis._request_answers(code, request)  # shared by every split
        others = [j for j in range(K) if j != request]
        for split in range(len(others) + 1):
            info = others[split:]
            for given in (others[:split] + [request], others[:split]):
                got = analysis._request_mi_bits(code, lambda: answers, info, given)
                assert got == _reference_request_mi_bits(code, request, info, given)


def _unbuilt(*args):
    raise AssertionError("no answers may be built")


def test_request_mi_bits_without_information_is_exactly_zero():
    got = analysis._request_mi_bits(builtin_sunjafar22(), _unbuilt, [], [0, 1])
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_lemma1_refuses_differing_alphabets_before_any_tally(monkeypatch):
    base = export_decomposable(make_nary(2, 2))
    code = dataclasses.replace(base, params=dataclasses.replace(base.params, ans_modulus=4))
    monkeypatch.setattr(analysis, "_request_answers", _unbuilt)
    monkeypatch.setattr(analysis, "_request_mi_bits", _unbuilt)
    with pytest.raises(ValueError, match="alphabet"):
        check_lemma1_equality(code, 0)


def test_verify_builds_each_requests_answers_once(monkeypatch):
    # nary 3 4 has 14 lemma terms with information, over 4 requests
    requests = []
    build = analysis._request_answers

    def counted(code, request):
        requests.append(request)
        return build(code, request)

    monkeypatch.setattr(analysis, "_request_answers", counted)
    records = verify(export_decomposable(make_nary(3, 4)))
    assert requests == [0, 1, 2, 3]
    assert all(r.passed for r in records)


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
