"""Component tables, answer varieties, and the two built-in reference codes."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pirlab import model
from pirlab.analysis import rate, verify_correctness, verify_privacy
from pirlab.groups import CodeParams, MessageSet
from pirlab.model import (
    BALANCED,
    CONSTANT,
    NEITHER,
    AnswerFunction,
    DecomposableCode,
    builtin_sunjafar22,
    builtin_table1,
    classify,
    coordinate_table,
    input_rank,
    is_uniformly_decomposable,
    lift_table,
)
from pirlab.nary import export_decomposable, make_nary
from pirlab.symmetry import server_symmetrize


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
            st.lists(st.integers(min_value=0, max_value=m - 1), min_size=1, max_size=4),
        )
    )
)
def test_coordinate_table_projects_each_symbol(case):
    m, w = case
    r = input_rank(w, m)
    for j in range(len(w)):
        assert coordinate_table(m, len(w), j)[r] == w[j]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_a_lifted_coordinate_table_is_the_coordinate_table_of_the_longer_message(m):
    # symbol j of the slice that starts after `prefix` symbols is symbol prefix + j
    for total in range(1, 5):
        for prefix in range(total):
            for j in range(total - prefix):
                lifted = lift_table(coordinate_table(m, total - prefix, j), m, prefix, total)
                assert lifted == coordinate_table(m, total, prefix + j)


def test_a_lifted_table_repeats_entries_for_later_symbols_and_runs_for_earlier():
    assert lift_table((0, 1, 1), 3, 0, 2) == (0, 0, 0, 1, 1, 1, 1, 1, 1)
    assert lift_table((0, 1, 1), 3, 1, 2) == (0, 1, 1) * 3


# ---------------------------------------------------------------- tables


def test_classify_constant():
    assert classify((1,) * 9, 3) == CONSTANT
    assert classify((0, 0), 2) == CONSTANT


def test_classify_balanced():
    # a coordinate projection hits every output m^(L-1) times
    assert classify(coordinate_table(2, 3, 0), 2) == BALANCED
    assert classify(coordinate_table(3, 3, 2), 3) == BALANCED


def test_classify_neither_uneven_counts():
    assert classify((0, 0, 0, 1), 2) == NEITHER


def test_classify_neither_when_alphabet_does_not_divide():
    # 2 inputs cannot cover 3 outputs evenly
    assert classify((0, 1), 3) == NEITHER


@pytest.mark.parametrize(
    "table, message",
    [
        ((0,), "table needs 2 entries, got 1"),
        ((0, 2), r"table entries must lie in 0\.\.1"),
        ((-1, 0), r"table entries must lie in 0\.\.1"),
    ],
    ids=["too-short", "entry-at-y", "negative-entry"],
)
def test_code_rejects_bad_table(table, message):
    varieties = (
        (AnswerFunction("f", ((table,),)),),
        (AnswerFunction("g", ((coordinate_table(2, 1, 0),),)),),
    )
    with pytest.raises(ValueError, match=message):
        _tiny_code(varieties=varieties)


def test_answer_function_label_rules():
    t = (0, 0)
    AnswerFunction("a+b", ((t, t),))
    with pytest.raises(ValueError):
        AnswerFunction("", ((t, t),))
    with pytest.raises(ValueError):
        AnswerFunction("a b", ((t, t),))


# ---------------------------------------------------------------- code validation


def _tiny_code(**overrides):
    params = CodeParams(2, 1, 1, 2, 2)
    coord = coordinate_table(2, 1, 0)
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


_COVER = "^query map must cover exactly all \\(k, key\\) pairs$"


@pytest.mark.parametrize(
    "query_map, error",
    [
        ({(0, 0): (0, 0)}, _COVER),  # key 1 missing
        ({(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0)}, _COVER),  # no message 1
        ({(0, 0): (0, 0), (0, 1): (0,)}, "^query map entries need one query per server$"),
        (
            {(0, 0): (0, 0), (0, 1): (0, 1)},
            "^query map entry \\(0,1\\) out of range at server 1$",
        ),
        (
            {(0, 0): (-1, 0), (0, 1): (0, 0)},
            "^query map entry \\(0,0\\) out of range at server 0$",
        ),
        # the first faulty entry in map order wins, and a coverage fault
        # wins over any entry's
        ({(0, 1): (0, 5), (0, 0): (0,)}, "^query map entry \\(0,1\\) out of range at server 1$"),
        ({(0, 1): (0, 5)}, _COVER),
    ],
    ids=["missing", "extra", "arity", "range", "negative", "first-wins", "missing-and-range"],
)
def test_code_names_the_fault_of_its_query_map(query_map, error):
    with pytest.raises(ValueError, match=error):
        _tiny_code(keys=("a", "b"), query_map=query_map)


def test_code_rejects_duplicate_labels():
    coord = coordinate_table(2, 1, 0)
    dup = (
        (AnswerFunction("f", ((coord,),)), AnswerFunction("f", ((coord,),))),
        (AnswerFunction("g", ((coord,),)),),
    )
    with pytest.raises(ValueError):
        _tiny_code(varieties=dup, query_map={(0, 0): (0, 0)})


@pytest.mark.parametrize("label", ["", "a b", "a\tb", " a", "a\n", "a\xa0b"])
def test_code_rejects_key_labels_that_a_code_file_cannot_hold(label):
    # `emit` would write `key 0 ` for an empty label, and `parse` refuses that line
    code = builtin_table1()
    with pytest.raises(ValueError, match="^key labels must be non-empty and whitespace-free$"):
        DecomposableCode(code.params, code.varieties, (label, "1"), code.query_map)


def test_label_rule_matches_the_per_character_whitespace_rule():
    # every whitespace code point lies below U+3001
    for label in (f"a{c}b" for c in map(chr, range(0x3001))):
        try:
            AnswerFunction(label, ())
            refused = False
        except ValueError:
            refused = True
        assert refused == any(ch.isspace() for ch in label)


def test_code_rejects_table_param_mismatch():
    bad = coordinate_table(3, 1, 0)  # modulus 3 in a mod-2 code
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


def _counting_classify(monkeypatch):
    """Log every table `model.classify` is called on."""
    calls = []
    real = model.classify

    def counted(table, modulus):
        calls.append(table)
        return real(table, modulus)

    monkeypatch.setattr(model, "classify", counted)
    return calls


def test_uniform_decomposability_classifies_each_distinct_table_once(monkeypatch):
    calls = _counting_classify(monkeypatch)
    # 432 table references over 9 distinct table objects
    report = is_uniformly_decomposable(server_symmetrize(export_decomposable(make_nary(3, 2))))
    assert (report.uniform, report.constant_count, report.balanced_count) == (True, 108, 324)
    assert report.neither == ()
    assert len(calls) == len({id(t) for t in calls}) == 9


def test_shared_unbalanced_table_is_reported_at_every_reference(monkeypatch):
    calls = _counting_classify(monkeypatch)
    skew, zero = (0, 0, 0, 1), (0,) * 4
    variety = (AnswerFunction("s", ((skew, zero), (zero, skew))),)
    code = DecomposableCode(
        CodeParams(2, 2, 2, 2, 2), (variety, variety), ("0",), {(0, 0): (0, 0), (1, 0): (0, 0)}
    )
    report = is_uniformly_decomposable(code)
    assert not report.uniform
    assert (report.constant_count, report.balanced_count) == (4, 0)
    assert report.neither == ((0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0), (1, 0, 1, 1))
    assert calls == [skew, zero]


def test_table1_query_pmf_uniform_and_request_independent():
    code = builtin_table1()
    half = (Fraction(1, 2), Fraction(1, 2))
    for n in range(2):
        pmfs = {code.query_pmf(n, k) for k in range(2)}
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
