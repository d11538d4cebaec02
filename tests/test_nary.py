"""Digit-vector retrieval code: queries, answers, reconstruction, export."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pirlab.groups import CodeParams, MessageSet, QueryVector, RandomKey
from pirlab.nary import (
    NaryCode,
    answer,
    answer_length,
    answer_table,
    export_decomposable,
    key_offset,
    key_space,
    make_nary,
    message_letter,
    query_set,
    query_vector,
    random_key,
    reconstruct,
    retrieve,
    symbolic_answer,
)


def _msgs(code, fill):
    """Deterministic message set: message k symbol j gets fill(k, j) mod m."""
    m = code.modulus
    rows = tuple(
        tuple(fill(k, j) % m for j in range(code.params.msg_len))
        for k in range(code.n_messages)
    )
    return MessageSet.from_values(rows, m)


def test_make_nary_params():
    code = make_nary(3, 3)
    assert code.params == CodeParams(3, 3, 2, 2, 2)
    assert make_nary(4, 2, modulus=5).params.msg_len == 3


def test_nary_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        NaryCode(CodeParams(3, 3, 3, 2, 2))  # msg_len must be N-1
    with pytest.raises(ValueError):
        NaryCode(CodeParams(3, 3, 2, 2, 3))  # answers reuse the message alphabet


def test_key_space_lexicographic():
    code = make_nary(3, 3)
    keys = key_space(code)
    assert len(keys) == 9
    assert [k.digits for k in keys[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert all(k.base == 3 for k in keys)


def test_key_space_single_message_is_one_empty_key():
    keys = key_space(make_nary(3, 1))
    assert keys == (RandomKey((), 3),)


def test_key_offset():
    assert key_offset(RandomKey((0, 2), 3)) == 2
    assert key_offset(RandomKey((2, 2), 3)) == 1
    assert key_offset(RandomKey((), 3)) == 0


def test_worked_retrieval_queries():
    # key (0,2), request k=1: one query per server, digit sums 0,1,2
    code = make_nary(3, 3)
    key = RandomKey((0, 2), 3)
    got = [query_vector(code, n, 1, key).digits for n in range(3)]
    assert got == [(0, 1, 2), (0, 2, 2), (0, 0, 2)]


def test_worked_retrieval_answers_and_reconstruction():
    code = make_nary(3, 3)
    key = RandomKey((0, 2), 3)
    msgs = MessageSet.from_values(((1, 0), (0, 1), (1, 1)), 2)  # a, b, c
    a, b, c = msgs.values
    expected = [
        (b[0] + c[1]) % 2,  # query 012
        (b[1] + c[1]) % 2,  # query 022
        c[1] % 2,  # query 002
    ]
    answers = tuple(
        answer(code, n, query_vector(code, n, 1, key), msgs) for n in range(3)
    )
    assert [ans[0] for ans in answers] == expected
    assert reconstruct(code, answers, 1, key) == b


@pytest.mark.parametrize("n_servers,n_messages", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_query_set_shape(n_servers, n_messages):
    code = make_nary(n_servers, n_messages)
    for n in range(n_servers):
        qs = query_set(code, n)
        assert len(qs) == n_servers ** (n_messages - 1)
        assert len(set(q.digits for q in qs)) == len(qs)
        assert all(q.server == n for q in qs)
        # ordering: first K-1 digits run lexicographically
        heads = [q.digits[:-1] for q in qs]
        assert heads == sorted(heads)


def test_query_sets_partition_all_digit_vectors():
    code = make_nary(3, 2)
    seen = set()
    for n in range(3):
        seen.update(q.digits for q in query_set(code, n))
    assert seen == set(itertools.product(range(3), repeat=2))


def test_answer_length_null_query_only():
    code = make_nary(3, 3)
    assert answer_length(code, 0, QueryVector((0, 0, 0), 3)) == 0
    assert answer_length(code, 0, QueryVector((1, 2, 0), 3)) == 1
    assert answer_length(code, 2, QueryVector((0, 0, 2), 3)) == 1


def test_answer_length_rejects_foreign_query():
    code = make_nary(3, 3)
    with pytest.raises(ValueError):
        answer_length(code, 1, QueryVector((0, 0, 0), 3))
    with pytest.raises(ValueError):
        answer_length(code, 0, QueryVector((0, 0), 3))


def test_answer_null_query_is_empty():
    code = make_nary(2, 2)
    msgs = _msgs(code, lambda k, j: 1)
    assert answer(code, 0, QueryVector((0, 0), 2), msgs) == ()


def test_answer_sums_selected_symbols_mod_m():
    code = make_nary(3, 2, modulus=5)
    msgs = MessageSet.from_values(((3, 4), (2, 1)), 5)
    # digits (2,1): symbol 2 of a plus symbol 1 of b = 4 + 2 = 6 = 1 mod 5
    got = answer(code, 0, QueryVector((2, 1), 3), msgs)
    assert got == (1,)


@pytest.mark.parametrize(
    "n_servers,n_messages,modulus",
    [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 2, 2), (2, 3, 2), (3, 3, 2)],
)
def test_retrieve_every_realization(n_servers, n_messages, modulus):
    code = make_nary(n_servers, n_messages, modulus)
    L = code.params.msg_len
    for rows in itertools.product(
        itertools.product(range(modulus), repeat=L), repeat=n_messages
    ):
        msgs = MessageSet.from_values(rows, modulus)
        for key in key_space(code):
            for k in range(n_messages):
                assert retrieve(code, msgs, k, key).values == rows[k]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_retrieve_random_instances(data):
    N = data.draw(st.integers(min_value=2, max_value=4), label="servers")
    K = data.draw(st.integers(min_value=1, max_value=3), label="messages")
    m = data.draw(st.integers(min_value=2, max_value=64), label="modulus")
    code = make_nary(N, K, m)
    rows = tuple(
        tuple(data.draw(st.integers(0, m - 1)) for _ in range(N - 1))
        for _ in range(K)
    )
    msgs = MessageSet.from_values(rows, m)
    key = RandomKey(
        tuple(data.draw(st.integers(0, N - 1)) for _ in range(K - 1)), N
    )
    k = data.draw(st.integers(0, K - 1), label="target")
    assert retrieve(code, msgs, k, key).values == rows[k]


def test_reconstruct_validates_answer_count_and_lengths():
    code = make_nary(2, 2)
    msgs = _msgs(code, lambda k, j: k)
    key = RandomKey((0,), 2)
    answers = tuple(
        answer(code, n, query_vector(code, n, 0, key), msgs) for n in range(2)
    )
    with pytest.raises(ValueError):
        reconstruct(code, answers[:1], 0, key)
    with pytest.raises(ValueError):
        reconstruct(code, (answers[1], answers[0]), 0, key)  # lengths 1,0 vs 0,1


@pytest.mark.parametrize("n_servers", [2, 3, 4])
@pytest.mark.parametrize("n_messages", [1, 2, 3, 4])
def test_reconstruct_demands_the_query_answer_lengths(n_servers, n_messages):
    code = make_nary(n_servers, n_messages)
    one, empty = (0,), ()
    for key in key_space(code):
        for k in range(n_messages):
            lengths = [
                answer_length(code, n, query_vector(code, n, k, key))
                for n in range(n_servers)
            ]
            answers = [one if length else empty for length in lengths]
            reconstruct(code, tuple(answers), k, key)
            for n in range(n_servers):
                wrong = list(answers)
                wrong[n] = empty if lengths[n] else one
                with pytest.raises(ValueError, match="query demands"):
                    reconstruct(code, tuple(wrong), k, key)


def test_reconstruct_validates_request_and_key_shape():
    code = make_nary(3, 3)
    answers = ((0,),) * 3
    with pytest.raises(ValueError, match="message index"):
        reconstruct(code, answers, 3, RandomKey((0, 1), 3))
    with pytest.raises(ValueError, match="key shape"):
        reconstruct(code, answers, 0, RandomKey((0,), 3))
    with pytest.raises(ValueError, match="key shape"):
        reconstruct(code, answers, 0, RandomKey((0, 1), 2))


def test_random_key_is_seeded_and_in_range():
    code = make_nary(3, 3)
    k1 = random_key(code, random.Random(7))
    k2 = random_key(code, random.Random(7))
    assert k1 == k2
    assert len(k1.digits) == 2
    assert all(0 <= d < 3 for d in k1.digits)


# ---------------------------------------------------------------- symbolic view


def test_message_letter():
    assert message_letter(0) == "a"
    assert message_letter(2) == "c"
    assert message_letter(25) == "z"
    assert message_letter(26) == "w26"


def test_symbolic_answer():
    code = make_nary(3, 3)
    assert symbolic_answer(code, QueryVector((0, 1, 2), 3)) == "a0+b1+c2"
    assert symbolic_answer(code, QueryVector((0, 1, 2), 3), include_dummies=False) == "b1+c2"
    assert symbolic_answer(code, QueryVector((0, 0, 0), 3)) == "0"


def test_answer_table_22():
    code = make_nary(2, 2)
    assert answer_table(code) == (
        (("00", "0"), ("11", "a1+b1")),
        (("01", "a0+b1"), ("10", "a1+b0")),
    )


# ---------------------------------------------------------------- export


def test_export_matches_direct_evaluation():
    code = make_nary(2, 2, modulus=3)
    exported = export_decomposable(code)
    L = code.params.msg_len
    for rows in itertools.product(
        itertools.product(range(3), repeat=L), repeat=2
    ):
        msgs = MessageSet.from_values(rows, 3)
        for n in range(2):
            for qi, q in enumerate(query_set(code, n)):
                assert exported.eval_answer(n, qi, msgs) == answer(code, n, q, msgs)


def test_export_query_map_follows_construction():
    for n_servers in (2, 3, 4):
        for n_messages in (1, 2, 3, 4):
            code = make_nary(n_servers, n_messages)
            exported = export_decomposable(code)
            for k in range(n_messages):
                for f, key in enumerate(key_space(code)):
                    for n in range(n_servers):
                        qi = exported.query_map[(k, f)][n]
                        assert exported.query_label(n, qi) == query_vector(
                            code, n, k, key
                        ).label()


def test_export_reconstruct_round_trip():
    code = make_nary(3, 2)
    exported = export_decomposable(code)
    msgs = MessageSet.from_values(((1, 0), (0, 1)), 2)
    for k in range(2):
        for f in range(len(exported.keys)):
            answers = tuple(
                exported.eval_answer(n, exported.query_map[(k, f)][n], msgs)
                for n in range(3)
            )
            assert exported.reconstruct(k, f, answers) == msgs.values[k]
