import itertools

import pytest
from hypothesis import given, strategies as st

from pirlab.groups import (
    CodeParams,
    Message,
    MessageSet,
    RandomKey,
    digits_label,
)
from pirlab.nary import (
    answer,
    export_decomposable,
    key_space,
    make_nary,
    query_set,
    reconstruct,
    retrieve,
)


def _pair_set(a, b, m):
    return MessageSet.from_values(((a,), (b,)), m)


def _add(m, *xs):
    # the all-ones query of a (2, len(xs), m) code sums one symbol of each
    # message; its digit sum names the server it goes to
    code = make_nary(2, len(xs), m)
    q = (1,) * len(xs)
    msgs = MessageSet.from_values(tuple((x,) for x in xs), m)
    (out,) = answer(code, sum(q) % 2, q, msgs)
    return out


def _recover(m, a, b):
    # every key and target of the (2, 2, m) code: retrieval subtracts the
    # interference answer, so it must give back a and b
    code = make_nary(2, 2, m)
    return {
        (k, retrieve(code, _pair_set(a, b, m), k, key).values)
        for key in key_space(code)
        for k in range(2)
    }


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_group_laws_exhaustive(m):
    # associativity, commutativity, identity, inverse for every pair/triple
    # of symbols, as the codes' answers and decoder compute them
    elems = range(m)
    for a in elems:
        assert _add(m, a, 0) == a
        assert _add(m, 0, a) == a
        for b in elems:
            assert _add(m, a, b) == _add(m, b, a)
            assert _recover(m, a, b) == {(0, (a,)), (1, (b,))}
            for c in elems:
                ab_c = _add(m, _add(m, a, b), c)
                assert ab_c == _add(m, a, _add(m, b, c)) == _add(m, a, b, c)


symbols = st.integers(min_value=2, max_value=64).flatmap(
    lambda m: st.tuples(
        st.integers(min_value=0, max_value=m - 1),
        st.integers(min_value=0, max_value=m - 1),
        st.just(m),
    )
)


@given(symbols)
def test_add_sub_roundtrip(triple):
    a, b, m = triple
    # (a + b) - b: retrieving a subtracts b's interference from the sum
    assert _recover(m, a, b) == {(0, (a,)), (1, (b,))}
    # (a - b) + b: the message a - b plus b answers a
    assert _add(m, (a - b) % m, b) == a


@given(symbols)
def test_operator_sugar_matches_functions(triple):
    # the exported component tables add and subtract exactly as the
    # construction's own answer and reconstruct do
    a, b, m = triple
    code = make_nary(2, 2, m)
    exported = export_decomposable(code)
    msgs = _pair_set(a, b, m)
    for n in range(2):
        for qi, q in enumerate(query_set(code, n)):
            assert exported.eval_answer(n, qi, msgs) == answer(code, n, q, msgs)
    for k in range(2):
        for f, key in enumerate(key_space(code)):
            answers = tuple(
                exported.eval_answer(n, exported.query_map[(k, f)][n], msgs)
                for n in range(2)
            )
            assert exported.reconstruct(k, f, answers) == reconstruct(
                code, answers, k, key
            )


def test_symbol_validation():
    # symbols are plain ints, checked where they enter a message
    for values, modulus in [
        ((2,), 2),  # a value >= m
        ((0, -1), 3),  # a negative value
        ((0,), 1),  # a modulus < 2
        ((), 2),  # an empty message
    ]:
        with pytest.raises(ValueError):
            Message(values, modulus)
        with pytest.raises(ValueError):
            MessageSet.from_values((values,), modulus)
    with pytest.raises(ValueError):
        MessageSet.from_values(((0, 1), (1,)), 2)  # ragged rows


def test_code_params_validation():
    CodeParams(2, 1, 1, 2, 2)  # minimal legal shape
    for bad in [
        dict(n_servers=1),
        dict(n_messages=0),
        dict(msg_len=0),
        dict(msg_modulus=1),
        dict(ans_modulus=1),
    ]:
        kwargs = dict(n_servers=2, n_messages=2, msg_len=1, msg_modulus=2, ans_modulus=2)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            CodeParams(**kwargs)


def test_message_from_values():
    msg = MessageSet.from_values([[0, 1, 2]], 3)[0]
    assert msg == Message((0, 1, 2), 3)
    assert msg.values == (0, 1, 2)
    assert msg.modulus == 3


def test_message_rejects_mixed_moduli():
    # one modulus per message set: a row in Z_3 does not fit a Z_2 set
    with pytest.raises(ValueError):
        MessageSet.from_values(((0, 1), (2, 0)), 2)
    with pytest.raises(ValueError):
        Message((0, 2), 2)
    assert MessageSet.from_values(((0, 1), (2, 0)), 3)[1].modulus == 3
    with pytest.raises(ValueError):
        Message((), 2)


def test_message_set_shape_checks():
    ms = MessageSet.from_values(((0, 1), (1, 0)), 2)
    assert ms.values == ((0, 1), (1, 0))
    assert ms.msg_len == 2
    assert ms.modulus == 2
    assert ms[1].values == (1, 0)
    assert len(ms) == 2
    with pytest.raises(ValueError):
        MessageSet.from_values((), 2)


def test_random_key_allows_empty():
    # K=1 codes carry no key digits at all
    k = RandomKey((), 2)
    assert k.digits == ()
    with pytest.raises(ValueError):
        RandomKey((2,), 2)


def test_answer_vector_empty_singleton():
    # answers are int tuples: the null query's is empty, every other one
    # holds a single group symbol
    code = make_nary(2, 2, 3)
    msgs = _pair_set(1, 2, 3)
    assert answer(code, 0, (0, 0), msgs) == ()
    assert answer(code, 1, (1, 0), msgs) == (1,)


@pytest.mark.parametrize(
    "digits,expected",
    [
        ((), "-"),
        ((0, 1, 2), "012"),
        ((10, 2), "10,2"),
        ((9, 9), "99"),
    ],
)
def test_digits_label(digits, expected):
    assert digits_label(digits) == expected


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
def test_digits_label_small_digits_concatenate(ds):
    assert digits_label(tuple(ds)) == "".join(str(d) for d in ds)


def test_symbols_hashable_and_frozen():
    msgs = MessageSet.from_values(((1, 2),), 3)
    assert hash(msgs) == hash(MessageSet(((1, 2),), 3))
    assert hash(msgs[0]) == hash(Message((1, 2), 3))
    with pytest.raises(AttributeError):
        msgs[0].values = (0, 0)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_all_sums_stay_in_range(m):
    # server 0's query 11 in the (2, 2, m) code adds one symbol of each message
    code, query = make_nary(2, 2, m), (1, 1)
    for a, b in itertools.product(range(m), repeat=2):
        (out,) = answer(code, 0, query, MessageSet.from_values(((a,), (b,)), m))
        assert 0 <= out < m
        assert out == (a + b) % m
