"""Component tables, answer varieties, and the two built-in reference codes."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pirlab.analysis import rate, verify_correctness, verify_privacy
from pirlab.groups import CodeParams, MessageSet
from pirlab.model import (
    BALANCED,
    CONSTANT,
    NEITHER,
    AnswerFunction,
    ComponentTable,
    DecomposableCode,
    QueryPmf,
    builtin_sunjafar22,
    builtin_table1,
    input_rank,
    input_unrank,
    is_uniformly_decomposable,
)
from pirlab.nary import export_decomposable, make_nary


# ---------------------------------------------------------------- ranking


def test_input_rank_row_major():
    # first symbol is the most significant digit
    assert input_rank((0, 0), 2) == 0
    assert input_rank((0, 1), 2) == 1
    assert input_rank((1, 0), 2) == 2
    assert input_rank((1, 2), 3) == 5


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(min_value=0, max_value=m - 1), min_size=1, max_size=5),
        )
    )
)
def test_rank_unrank_roundtrip(case):
    m, values = case
    values = tuple(values)
    r = input_rank(values, m)
    assert input_unrank(r, m, len(values)) == values


# ---------------------------------------------------------------- tables


def test_classify_constant():
    assert ComponentTable.constant(3, 2, 3, value=1).classify() == CONSTANT
    assert ComponentTable.constant(2, 1, 2).classify() == CONSTANT


def test_classify_balanced():
    # a coordinate projection hits every output m^(L-1) times
    assert ComponentTable.coordinate(2, 3, 2, 0).classify() == BALANCED
    assert ComponentTable.coordinate(3, 3, 3, 2).classify() == BALANCED


def test_classify_neither_uneven_counts():
    t = ComponentTable((0, 0, 0, 1), 2, 2, 2)
    assert t.classify() == NEITHER


def test_classify_neither_when_alphabet_does_not_divide():
    # 2 inputs cannot cover 3 outputs evenly
    t = ComponentTable((0, 1), 2, 1, 3)
    assert t.classify() == NEITHER


def test_table_shape_validation():
    with pytest.raises(ValueError):
        ComponentTable((0, 1, 0), 2, 2, 2)  # needs m^L = 4 entries
    with pytest.raises(ValueError):
        ComponentTable((0, 2), 2, 1, 2)  # output symbol out of range


def test_answer_function_label_rules():
    t = ComponentTable.constant(2, 1, 2)
    AnswerFunction("a+b", ((t, t),))
    with pytest.raises(ValueError):
        AnswerFunction("", ((t, t),))
    with pytest.raises(ValueError):
        AnswerFunction("a b", ((t, t),))


def test_query_pmf_must_sum_to_one():
    QueryPmf((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        QueryPmf((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        QueryPmf((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(TypeError):
        QueryPmf((0.5, 0.5))


# ---------------------------------------------------------------- code validation


def _tiny_code(**overrides):
    params = CodeParams(2, 1, 1, 2, 2)
    coord = ComponentTable.coordinate(2, 1, 2, 0)
    varieties = (
        (AnswerFunction("f", ((coord,),)),),
        (AnswerFunction("g", ((coord,),)),),
    )
    fields = dict(
        params=params,
        varieties=varieties,
        keys=("only",),
        query_map={(0, 0): (0, 0)},
    )
    fields.update(overrides)
    return DecomposableCode(**fields)


def test_code_accepts_minimal_shape():
    code = _tiny_code()
    assert code.query_count(0) == 1
    assert code.query_label(1, 0) == "g"
    assert code.answer_length(0, 0) == 1


def test_code_rejects_missing_map_entries():
    with pytest.raises(ValueError):
        _tiny_code(query_map={})


def test_code_rejects_out_of_range_query_index():
    with pytest.raises(ValueError):
        _tiny_code(query_map={(0, 0): (0, 5)})


def test_code_rejects_duplicate_labels():
    coord = ComponentTable.coordinate(2, 1, 2, 0)
    dup = (
        (AnswerFunction("f", ((coord,),)), AnswerFunction("f", ((coord,),))),
        (AnswerFunction("g", ((coord,),)),),
    )
    with pytest.raises(ValueError):
        _tiny_code(varieties=dup, query_map={(0, 0): (0, 0)})


def test_code_rejects_table_param_mismatch():
    bad = ComponentTable.coordinate(3, 1, 3, 0)  # modulus 3 in a mod-2 code
    varieties = (
        (AnswerFunction("f", ((bad,),)),),
        (AnswerFunction("g", ((bad,),)),),
    )
    with pytest.raises(ValueError):
        _tiny_code(varieties=varieties)


# ---------------------------------------------------------------- reference code: two-server XOR


def test_table1_shape():
    code = builtin_table1()
    assert code.params == CodeParams(2, 2, 1, 2, 2)
    assert code.query_count(0) == 2
    assert code.query_count(1) == 2
    assert [code.query_label(0, i) for i in range(2)] == ["0", "a+b"]
    assert [code.query_label(1, i) for i in range(2)] == ["a", "b"]
    assert code.answer_length(0, 0) == 0  # the null query downloads nothing


def test_table1_query_behaviour():
    code = builtin_table1()
    msgs = MessageSet.from_values(((1,), (0,)), 2)
    # (request, key) -> expected per-server downloads for W = (a,b) = (1,0)
    rows = {
        (0, 0): ((), (1,)),  # ask server 1 for a directly
        (0, 1): ((1,), (0,)),  # a+b and b
        (1, 0): ((), (0,)),  # ask server 1 for b directly
        (1, 1): ((1,), (1,)),  # a+b and a
    }
    for (k, f), expected in rows.items():
        q0, q1 = code.query_map[(k, f)]
        got = (code.eval_answer(0, q0, msgs), code.eval_answer(1, q1, msgs))
        assert got == expected


def test_table1_correct_private_capacity_rate():
    code = builtin_table1()
    assert verify_correctness(code).passed
    assert verify_privacy(code).passed
    assert rate(code) == Fraction(2, 3)


def test_table1_uniformly_decomposable():
    report = is_uniformly_decomposable(builtin_table1())
    assert report.uniform
    assert bool(report)
    assert report.neither == ()
    assert report.constant_count == 2
    assert report.balanced_count == 4


def test_table1_query_pmf_uniform_and_request_independent():
    code = builtin_table1()
    half = (Fraction(1, 2), Fraction(1, 2))
    for n in range(2):
        pmfs = {code.query_pmf(n, k).probs for k in range(2)}
        assert pmfs == {half}


def test_table1_matches_binary_construction_pointwise():
    # same downloads for every (request, key label, message realization)
    table1 = builtin_table1()
    nary = export_decomposable(make_nary(2, 2))
    assert nary.keys == table1.keys
    for values in itertools.product(range(2), repeat=2):
        msgs = MessageSet.from_values(((values[0],), (values[1],)), 2)
        for k in range(2):
            for f in range(2):
                a = [
                    table1.eval_answer(n, table1.query_map[(k, f)][n], msgs)
                    for n in range(2)
                ]
                b = [
                    nary.eval_answer(n, nary.query_map[(k, f)][n], msgs)
                    for n in range(2)
                ]
                assert a == b


# ---------------------------------------------------------------- reference code: permutation scheme


def test_sunjafar22_shape():
    code = builtin_sunjafar22()
    assert code.params == CodeParams(2, 2, 4, 2, 2)
    assert code.query_count(0) == 24
    assert code.query_count(1) == 24
    assert len(code.keys) == 24
    # every query downloads exactly 3 symbols
    assert {code.answer_length(n, i) for n in range(2) for i in range(24)} == {3}


def test_sunjafar22_correct_private():
    code = builtin_sunjafar22()
    assert verify_correctness(code).passed
    assert verify_privacy(code).passed


def test_sunjafar22_rate():
    assert rate(builtin_sunjafar22()) == Fraction(2, 3)


def test_sunjafar22_uniformly_decomposable():
    assert is_uniformly_decomposable(builtin_sunjafar22()).uniform


def test_answer_length_is_message_independent():
    code = builtin_sunjafar22()
    msg_sets = [
        MessageSet.from_values(rows, 2)
        for rows in [((0, 0, 0, 0), (0, 0, 0, 0)), ((1, 0, 1, 1), (0, 1, 1, 0))]
    ]
    for n in range(2):
        for qi in range(code.query_count(n)):
            lengths = {len(code.eval_answer(n, qi, m)) for m in msg_sets}
            assert lengths == {code.answer_length(n, qi)}


def test_structural_equality_ignores_reconstruct():
    a = builtin_table1()
    b = DecomposableCode(
        params=a.params,
        varieties=a.varieties,
        keys=a.keys,
        query_map=a.query_map,
        reconstruct=None,
    )
    assert a == b
    assert a != _tiny_code()
