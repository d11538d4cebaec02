"""Server/message relabelings, space sharing, and length equalization."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from pirlab import codefile
from pirlab.analysis import (
    EnumerationCapExceeded,
    expected_answer_lengths,
    message_size_bits,
    rate,
    verify_correctness,
    verify_privacy,
)
from pirlab.groups import MessageSet
from pirlab.model import DecomposableCode, builtin_sunjafar22, builtin_table1
from pirlab.nary import export_decomposable, make_nary
from pirlab.symmetry import (
    SpaceShareCode,
    message_permute,
    message_symmetrize,
    server_permute,
    server_symmetrize,
    space_share,
    variety_symmetrize,
)


def _all_databases(code):
    p = code.params
    for flat in itertools.product(range(p.msg_modulus), repeat=p.n_messages * p.msg_len):
        rows = [flat[k * p.msg_len : (k + 1) * p.msg_len] for k in range(p.n_messages)]
        yield MessageSet.from_values(rows, p.msg_modulus)


def _assert_still_a_working_code(code):
    assert verify_correctness(code).passed
    assert verify_privacy(code).passed


# ---------------------------------------------------------------- server permutation


def test_server_permute_identity_is_noop():
    code = builtin_table1()
    assert server_permute(code, (0, 1)) == code


def test_server_permute_moves_answer_functions():
    code = export_decomposable(make_nary(3, 2))
    rolled = server_permute(code, (1, 2, 0))
    for n in range(3):
        assert rolled.varieties[n] == code.varieties[(n + 1) % 3]
    _assert_still_a_working_code(rolled)
    assert rate(rolled) == rate(code)


def test_server_permute_reconstruction_survives():
    code = export_decomposable(make_nary(3, 2))
    rolled = server_permute(code, (2, 0, 1))
    for msgs in [next(iter(_all_databases(code))), MessageSet.from_values(((1, 0), (0, 1)), 2)]:
        for k in range(2):
            for f in range(len(rolled.keys)):
                answers = tuple(
                    rolled.eval_answer(n, rolled.query_map[(k, f)][n], msgs)
                    for n in range(3)
                )
                assert rolled.reconstruct(k, f, answers) == msgs.values[k]


def test_server_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        server_permute(builtin_table1(), (0, 0))
    with pytest.raises(ValueError):
        server_permute(builtin_table1(), (0,))


# ---------------------------------------------------------------- message permutation


def test_message_permute_swap_relabels_tables():
    code = builtin_table1()
    swapped = message_permute(code, (1, 0))
    # new answer on database V = old answer on the message-swapped database
    for msgs in _all_databases(code):
        flipped = MessageSet.from_values(tuple(reversed(msgs.values)), 2)
        for n in range(2):
            for qi in range(code.query_count(n)):
                assert swapped.eval_answer(n, qi, msgs) == code.eval_answer(
                    n, qi, flipped
                )


def test_message_permute_swap_twice_is_identity():
    code = export_decomposable(make_nary(2, 2))
    assert message_permute(message_permute(code, (1, 0)), (1, 0)) == code


def test_message_permute_remains_correct_and_private():
    code = export_decomposable(make_nary(3, 2))
    swapped = message_permute(code, (1, 0))
    _assert_still_a_working_code(swapped)
    assert rate(swapped) == rate(code)


def test_message_permute_distributionally_equivalent():
    # each server sees the same query pmf, request by request, after the swap
    code = export_decomposable(make_nary(2, 3))
    perm = (2, 0, 1)
    moved = message_permute(code, perm)
    for n in range(2):
        for k in range(3):
            assert moved.query_pmf(n, k) == code.query_pmf(n, k)


def test_message_permute_requests_follow_the_relabeling():
    code = export_decomposable(make_nary(2, 2))
    moved = message_permute(code, (1, 0))
    msgs = MessageSet.from_values(((1,), (0,)), 2)
    for k in range(2):
        for f in range(len(moved.keys)):
            answers = tuple(
                moved.eval_answer(n, moved.query_map[(k, f)][n], msgs)
                for n in range(2)
            )
            assert moved.reconstruct(k, f, answers) == msgs.values[k]


# ---------------------------------------------------------------- space sharing


def test_space_share_concatenates_blocks():
    a = builtin_table1()
    b = export_decomposable(make_nary(2, 2))
    shared = space_share([a, b])
    assert isinstance(shared, SpaceShareCode)
    assert shared.params.msg_len == 2
    assert len(shared.keys) == 4
    assert shared.keys[0] == "0|0"
    assert [lbl for _, lbl in shared.blocks] == ["block0", "block1"]
    _assert_still_a_working_code(shared)
    assert rate(shared) == Fraction(2, 3)


def test_space_share_reconstruction_splits_answers():
    shared = space_share([builtin_table1(), builtin_table1()])
    for msgs in _all_databases(shared):
        for k in range(2):
            for f in range(len(shared.keys)):
                answers = tuple(
                    shared.eval_answer(n, shared.query_map[(k, f)][n], msgs)
                    for n in range(2)
                )
                assert shared.reconstruct(k, f, answers) == msgs.values[k]


def test_space_share_validates_blocks():
    with pytest.raises(ValueError):
        space_share([])
    with pytest.raises(ValueError):
        space_share([builtin_table1()], labels=("a", "b"))
    with pytest.raises(ValueError, match="agree"):
        space_share([builtin_table1(), export_decomposable(make_nary(3, 2))])


def test_space_share_cap_refusal():
    with pytest.raises(EnumerationCapExceeded):
        space_share([builtin_table1(), builtin_table1()], cap=2)


# ---------------------------------------------------------------- server symmetrization


def test_server_symmetrize_equalizes_query_counts_and_lengths():
    base = export_decomposable(make_nary(2, 2))
    sym = server_symmetrize(base)
    assert [sym.query_count(n) for n in range(2)] == [4, 4]
    lengths = expected_answer_lengths(sym)
    assert lengths[0] == lengths[1] == Fraction(3, 2)
    assert [lbl for _, lbl in sym.blocks] == ["shift0", "shift1"]
    _assert_still_a_working_code(sym)
    assert rate(sym) == rate(base)


def test_server_symmetrize_preserves_rate_on_table1():
    sym = server_symmetrize(builtin_table1())
    assert rate(sym) == Fraction(2, 3)
    counts = {sym.query_count(n) for n in range(2)}
    assert counts == {4}


# ---------------------------------------------------------------- message symmetrization


def test_message_symmetrize_doubles_the_message():
    base = builtin_table1()
    sym = message_symmetrize(base)
    assert sym.params.msg_len == 2
    assert len(sym.keys) == 4  # two blocks, two base keys each
    assert [lbl for _, lbl in sym.blocks] == ["perm01", "perm10"]
    _assert_still_a_working_code(sym)
    assert rate(sym) == rate(base)


def test_message_symmetrize_cap_refusal():
    with pytest.raises(EnumerationCapExceeded):
        message_symmetrize(export_decomposable(make_nary(2, 3)), cap=5)


# ---------------------------------------------------------------- variety symmetrization


def test_variety_symmetrize_table1_matches_known_layout():
    sym = variety_symmetrize(builtin_table1())
    assert sym.params.msg_len == 2
    assert sym.keys == ("01", "10")
    assert [
        [sym.query_label(n, qi) for qi in range(sym.query_count(n))] for n in range(2)
    ] == [["0|a+b", "a+b|0"], ["a|b", "b|a"]]
    # per-server answer lengths are now query-independent: 1 and 2 symbols
    assert {sym.answer_length(0, qi) for qi in range(2)} == {1}
    assert {sym.answer_length(1, qi) for qi in range(2)} == {2}
    assert message_size_bits(sym) == 2.0
    assert rate(sym) == Fraction(2, 3)
    _assert_still_a_working_code(sym)


def test_variety_symmetrize_reconstruction():
    sym = variety_symmetrize(builtin_table1())
    for msgs in _all_databases(sym):
        for k in range(2):
            for f in range(len(sym.keys)):
                answers = tuple(
                    sym.eval_answer(n, sym.query_map[(k, f)][n], msgs)
                    for n in range(2)
                )
                assert sym.reconstruct(k, f, answers) == msgs.values[k]


def test_variety_symmetrize_nary_message_growth():
    # the equalized message length is (base keys) x (base length)
    sym22 = variety_symmetrize(export_decomposable(make_nary(2, 2)))
    assert sym22.params.msg_len == 2
    sym32 = variety_symmetrize(export_decomposable(make_nary(3, 2)))
    assert sym32.params.msg_len == 6
    assert rate(sym32) == Fraction(3, 4)
    per_server = [
        {sym32.answer_length(n, qi) for qi in range(sym32.query_count(n))}
        for n in range(3)
    ]
    assert per_server == [{2}, {3}, {3}]
    _assert_still_a_working_code(sym32)


def test_variety_symmetrize_rejects_request_dependent_base():
    base = builtin_table1()
    leaky = DecomposableCode(
        params=base.params,
        varieties=base.varieties,
        keys=base.keys,
        query_map={(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (1, 0)},
    )
    with pytest.raises(ValueError, match="private base"):
        variety_symmetrize(leaky)


def test_variety_symmetrize_cap_refusal():
    # 9 base keys would need 9! orderings
    with pytest.raises(EnumerationCapExceeded):
        variety_symmetrize(export_decomposable(make_nary(3, 3)), cap=1000)


# ---------------------------------------------------------------- byte identity

_SOURCES = {
    "table1": builtin_table1,
    "nary 2 2": lambda: export_decomposable(make_nary(2, 2)),
    "nary 3 2": lambda: export_decomposable(make_nary(3, 2)),
    "nary 2 3": lambda: export_decomposable(make_nary(2, 3)),
    "nary 3 2 3": lambda: export_decomposable(make_nary(3, 2, 3)),
}
_TRANSFORMS = {
    "server": server_symmetrize,
    "message": message_symmetrize,
    "variety": variety_symmetrize,
}

# SHA-256 of the emitted pir-code text, recorded before the transforms shared
# one space-sharing engine; ("message", "nary 2 3") is the benchmark's code.
_EMIT_SHA256 = [
    ("server", "table1", "222c89034926b8ecf39e8f036e80fe034f80359df8c830e2b96d43d62337eafe"),
    ("server", "nary 2 2", "6fc3c1ccfa972de92c2149dd962ea945f78e2cb516d02464c65f24e256cb0fc3"),
    ("server", "nary 3 2", "df935344f193fce7a3936ef35742852a56b5a1526706e347bbce181dce943efc"),
    ("server", "nary 2 3", "688c61317771c671b355a3dc9b155bf12d8ad4dff2b76731cb069b718f0a8889"),
    ("server", "nary 3 2 3", "8476ddc8630e9b0a5abd2a63d9104bc7b0ee9b7d377716d7a3dab01fe9ca6168"),
    ("message", "table1", "4dc82a445e6c9f0aa7b8416f3b72e650e2991c743080286dd15fbd074371a9c8"),
    ("message", "nary 2 2", "eb3c964467b91b24760f07eb98669ac5ce0edd7350337a4950671be3c5ad68a6"),
    ("message", "nary 3 2", "18ac6d477566c66eb5d339ed1f20086677c91cf2415691c2db116440e100017a"),
    ("message", "nary 2 3", "639538103e83ade51d21d58742af26e62d7d8ded7b90471eb51c021cc6ed1446"),
    ("message", "nary 3 2 3", "e81f23e9eab86ffa22ff6a4e93bebface2dbb444901ef4afc8efc721c9594bbd"),
    ("variety", "table1", "03570a56292295f7b34a26fc18bc79768896467ddce9e3f64479809594ef4708"),
    ("variety", "nary 2 2", "45cbd80818f479c63f8ea8ad893e058b6573a1f3eac2f2bae09a356e924d83a0"),
    ("variety", "nary 3 2", "45b8944c0e384ff8a35c8404ecb6eb768e608eec24d48a4db8407151a0a08144"),
    ("variety", "nary 2 3", "cb39cad252114948a51b8a5a8f615b939a8543b802ce00505dab00937e41fe35"),
    ("variety", "nary 3 2 3", "32cc08495b0f8cdfdcee0b6e87522f06a6e69b7281115dadb3881dcde522acbb"),
]


def _emit_sha256(code) -> str:
    return hashlib.sha256(codefile.emit(code).encode("ascii")).hexdigest()


@pytest.mark.parametrize("transform,source,digest", _EMIT_SHA256)
def test_transform_output_is_byte_stable(transform, source, digest):
    assert _emit_sha256(_TRANSFORMS[transform](_SOURCES[source]())) == digest


def test_space_share_output_is_byte_stable():
    shared = space_share([builtin_table1(), _SOURCES["nary 2 2"]()])
    assert _emit_sha256(shared) == (
        "484857a495b9503de8d1e3c3734ac59c23f7d167e3cdc81fb0f0ffe530dac457"
    )


@pytest.mark.parametrize(
    "transform,source", [(transform, source) for transform, source, _ in _EMIT_SHA256]
)
def test_transform_output_round_trips_byte_identically(transform, source):
    text = codefile.emit(_TRANSFORMS[transform](_SOURCES[source]()))
    assert codefile.emit(codefile.parse(text)) == text


def test_space_share_output_round_trips_byte_identically():
    text = codefile.emit(space_share([builtin_table1(), _SOURCES["nary 2 2"]()]))
    assert codefile.emit(codefile.parse(text)) == text


def test_variety_symmetrize_refuses_table2():
    # 24 base keys would need 24! orderings
    with pytest.raises(EnumerationCapExceeded):
        variety_symmetrize(builtin_sunjafar22())


def test_variety_symmetrize_output_is_byte_stable_with_repeated_queries():
    # every base query serves two keys, so each server has 4!/(2!2!) = 6
    # distinct block orderings rather than 24
    base = builtin_table1()
    doubled = DecomposableCode(
        base.params,
        base.varieties,
        ("0", "1", "2", "3"),
        {(k, f): base.query_map[(k, f % 2)] for k in range(2) for f in range(4)},
        lambda k, f, answers: base.reconstruct(k, f % 2, answers),
    )
    sym = variety_symmetrize(doubled)
    assert [sym.query_count(n) for n in range(2)] == [6, 6]
    assert _emit_sha256(sym) == (
        "5d10b2889fa4ae8a86316619c281239a06395acd847366a26b9eeff36cd50fdf"
    )
    _assert_still_a_working_code(sym)
