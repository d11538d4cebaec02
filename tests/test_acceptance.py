"""Acceptance gate: the headline guarantees, one printed line per criterion.

Each test exercises one end-to-end claim at its stated tolerance and time
budget and reports `acceptance NN <title>: PASS/FAIL (elapsed)` on the real
terminal, bypassing capture.
"""

import io
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pirlab.analysis import (
    capacity,
    check_P1,
    check_P2,
    check_P3,
    check_lemma1_equality,
    check_lemma2_equality,
    expected_answer_lengths,
    message_size_bits,
    positive_query_tuples,
    rate,
    upload_cost_bits,
    verify_correctness,
    verify_privacy,
)
from pirlab.groups import MessageSet, RandomKey
from pirlab.model import (
    AnswerFunction,
    ComponentTable,
    DecomposableCode,
    builtin_sunjafar22,
    builtin_table1,
)
from pirlab.nary import (
    answer_table,
    export_decomposable,
    key_space,
    make_nary,
    query_vector,
    retrieve,
    symbolic_answer,
)
from pirlab.net import (
    Frame,
    KIND_ANSWER,
    KIND_ERROR,
    KIND_QUERY,
    KIND_SETUP,
    PirServer,
    client_retrieve,
    encode_frame,
    read_frame,
    setup_endpoint,
)
from pirlab.symmetry import server_symmetrize, variety_symmetrize


GRID = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
PROPERTY_GRID = [(2, 2), (3, 2), (2, 3), (3, 3)]


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(num: int, title: str):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(
                    f"acceptance {num:02d} {title}: FAIL "
                    f"({time.perf_counter() - start:.2f}s)"
                )
            raise
        with capsys.disabled():
            print(
                f"acceptance {num:02d} {title}: PASS "
                f"({time.perf_counter() - start:.2f}s)"
            )

    return run


def test_criterion_01_capacity_formula(criterion):
    with criterion(1, "capacity formula"):
        cases = {
            (2, 2): Fraction(2, 3),
            (3, 3): Fraction(9, 13),
            (2, 1): Fraction(1),
            (5, 1): Fraction(1),
        }
        capacity(2, 2)  # warm the code path before timing
        for (n, k), expected in cases.items():
            start = time.perf_counter()
            got = capacity(n, k)
            elapsed = time.perf_counter() - start
            assert got == expected
            assert elapsed < 1e-3


def test_criterion_02_rate_meets_capacity(criterion):
    with criterion(2, "rate meets capacity on the grid"):
        start = time.perf_counter()
        for n, k in GRID:
            code = export_decomposable(make_nary(n, k))
            assert rate(code) == capacity(n, k), (n, k)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_exhaustive_correctness_and_privacy(criterion):
    with criterion(3, "exhaustive correctness and privacy"):
        start = time.perf_counter()
        shapes = [(n, k, 2) for n, k in GRID] + [(2, 2, 3)]
        for n, k, m in shapes:
            code = export_decomposable(make_nary(n, k, m))
            correctness = verify_correctness(code)
            privacy = verify_privacy(code)
            assert correctness.passed, (n, k, m, correctness.witness)
            assert privacy.passed, (n, k, m, privacy.witness)
        assert time.perf_counter() - start < 30.0


EXPECTED_TABLE_33 = (
    (
        ("000", "0"),
        ("012", "a0+b1+c2"),
        ("021", "a0+b2+c1"),
        ("102", "a1+b0+c2"),
        ("111", "a1+b1+c1"),
        ("120", "a1+b2+c0"),
        ("201", "a2+b0+c1"),
        ("210", "a2+b1+c0"),
        ("222", "a2+b2+c2"),
    ),
    (
        ("001", "a0+b0+c1"),
        ("010", "a0+b1+c0"),
        ("022", "a0+b2+c2"),
        ("100", "a1+b0+c0"),
        ("112", "a1+b1+c2"),
        ("121", "a1+b2+c1"),
        ("202", "a2+b0+c2"),
        ("211", "a2+b1+c1"),
        ("220", "a2+b2+c0"),
    ),
    (
        ("002", "a0+b0+c2"),
        ("011", "a0+b1+c1"),
        ("020", "a0+b2+c0"),
        ("101", "a1+b0+c1"),
        ("110", "a1+b1+c0"),
        ("122", "a1+b2+c2"),
        ("200", "a2+b0+c0"),
        ("212", "a2+b1+c2"),
        ("221", "a2+b2+c1"),
    ),
)


def test_criterion_04_reference_tables(criterion):
    with criterion(4, "reference tables and worked retrieval"):
        code = make_nary(3, 3)
        assert answer_table(code) == EXPECTED_TABLE_33

        key = RandomKey((0, 2), 3)
        queries = [query_vector(code, n, 1, key) for n in range(3)]
        assert [q.digits for q in queries] == [(0, 1, 2), (0, 2, 2), (0, 0, 2)]
        assert [symbolic_answer(code, q, include_dummies=False) for q in queries] == [
            "b1+c2",
            "b2+c2",
            "c2",
        ]
        for rows in itertools.product(
            itertools.product(range(2), repeat=2), repeat=3
        ):
            msgs = MessageSet.from_values(rows, 2)
            assert retrieve(code, msgs, 1, key).values == rows[1]

        for builtin in (builtin_table1(), builtin_sunjafar22()):
            assert verify_correctness(builtin).passed
            assert verify_privacy(builtin).passed
            assert rate(builtin) == Fraction(2, 3)


def test_criterion_05_structural_properties(criterion):
    with criterion(5, "answer structure properties P1/P2/P3"):
        start = time.perf_counter()
        for n, k_count in PROPERTY_GRID:
            code = export_decomposable(make_nary(n, k_count))
            for k in range(k_count):
                tuples = positive_query_tuples(code, k)
                assert len(tuples) == n ** (k_count - 1)
                for queries in tuples:
                    assert check_P1(code, k, queries).passed, (n, k_count, k, queries)
                    assert check_P2(code, k, queries).passed, (n, k_count, k, queries)
                    assert check_P3(code, k, queries).passed, (n, k_count, k, queries)
        assert time.perf_counter() - start < 60.0


def test_criterion_06_information_residuals(criterion):
    with criterion(6, "information residual identities"):
        for n, k_count in PROPERTY_GRID:
            code = export_decomposable(make_nary(n, k_count))
            for k in range(k_count):
                assert abs(check_lemma1_equality(code, k)) < 1e-9, (n, k_count, k)
            identity = tuple(range(k_count))
            flipped = tuple(reversed(identity))
            for k in range(1, k_count):
                assert abs(check_lemma2_equality(code, k, identity)) < 1e-9
                assert abs(check_lemma2_equality(code, k, flipped)) < 1e-9

        # two servers, two messages: the leaked side information is half a bit
        code22 = export_decomposable(make_nary(2, 2))
        bound = float(
            code22.params.msg_len * (1 / rate(code22) - 1)
        ) * math.log2(code22.params.msg_modulus)
        assert bound == 0.5
        for k in range(2):
            residual = check_lemma1_equality(code22, k)
            assert residual == 0.0
            assert residual + bound == 0.5


def test_criterion_07_message_size_and_upload_optimality(criterion):
    with criterion(7, "message size and upload cost meet the bounds"):
        for n, k in GRID:
            for m in (2, 3):
                code = export_decomposable(make_nary(n, k, m))
                assert message_size_bits(code) == (n - 1) * math.log2(m)
                cost = upload_cost_bits(code)
                assert cost.per_server == (n ** (k - 1),) * n
                assert abs(cost.total_bits - n * (k - 1) * math.log2(n)) < 1e-12


def test_criterion_08_symmetrization(criterion):
    with criterion(8, "symmetrization transforms"):
        rebuilt = []

        sym1 = variety_symmetrize(builtin_table1())
        assert {sym1.answer_length(0, qi) for qi in range(sym1.query_count(0))} == {1}
        assert {sym1.answer_length(1, qi) for qi in range(sym1.query_count(1))} == {2}
        assert message_size_bits(sym1) == 2.0
        assert rate(sym1) == Fraction(2, 3)
        rebuilt.append((sym1, rate(builtin_table1())))

        nary22 = export_decomposable(make_nary(2, 2))
        sym22 = variety_symmetrize(nary22)
        assert sym22.params.msg_len == 2  # N^(K-1) * (N-1)
        rebuilt.append((sym22, rate(nary22)))

        nary32 = export_decomposable(make_nary(3, 2))
        sym32 = variety_symmetrize(nary32)
        assert sym32.params.msg_len == 6
        rebuilt.append((sym32, rate(nary32)))

        shared = server_symmetrize(nary22)
        assert [shared.query_count(n) for n in range(2)] == [4, 4]
        lengths = expected_answer_lengths(shared)
        assert lengths[0] == lengths[1]
        rebuilt.append((shared, rate(nary22)))

        for code, base_rate in rebuilt:
            assert verify_correctness(code).passed
            assert verify_privacy(code).passed
            assert rate(code) == base_rate


def _table_positions(code):
    out = []
    for n, per_server in enumerate(code.varieties):
        for qi, variety in enumerate(per_server):
            for row_i, row in enumerate(variety.tables):
                for k, table in enumerate(row):
                    for idx in range(len(table.values)):
                        out.append((n, qi, row_i, k, idx))
    return out


def _mutate_one_entry(code, rng):
    n, qi, row_i, msg_k, idx = rng.choice(_table_positions(code))
    m = code.params.ans_modulus
    delta = rng.randrange(1, m)
    varieties = []
    for si, per_server in enumerate(code.varieties):
        if si != n:
            varieties.append(per_server)
            continue
        new_server = []
        for vi, variety in enumerate(per_server):
            if vi != qi:
                new_server.append(variety)
                continue
            rows = []
            for ri, row in enumerate(variety.tables):
                if ri != row_i:
                    rows.append(row)
                    continue
                cols = []
                for ki, table in enumerate(row):
                    if ki != msg_k:
                        cols.append(table)
                        continue
                    values = list(table.values)
                    values[idx] = (values[idx] + delta) % m
                    cols.append(
                        ComponentTable(
                            tuple(values),
                            table.msg_modulus,
                            table.msg_len,
                            table.ans_modulus,
                        )
                    )
                rows.append(tuple(cols))
            new_server.append(AnswerFunction(variety.label, tuple(rows)))
        varieties.append(tuple(new_server))
    mutated = DecomposableCode(
        code.params, tuple(varieties), code.keys, code.query_map, code.reconstruct
    )
    return mutated, (n, qi, row_i, msg_k, idx)


def test_criterion_09_mutation_sensitivity(criterion):
    with criterion(9, "single-entry mutations are always detected"):
        base = export_decomposable(make_nary(2, 2))
        for seed in range(20):
            rng = random.Random(seed)
            mutated, where = _mutate_one_entry(base, rng)
            witnesses = []
            report = verify_correctness(mutated)
            if not report.passed:
                witnesses.append(report.witness)
            for check in (check_P1, check_P2, check_P3):
                for k in range(2):
                    for queries in positive_query_tuples(mutated, k):
                        rep = check(mutated, k, queries)
                        if not rep.passed:
                            witnesses.append(rep.witness)
            assert witnesses, f"mutation at {where} (seed {seed}) went undetected"
            assert all(w is not None for w in witnesses)


def test_criterion_10_network_end_to_end(criterion):
    with criterion(10, "loopback network retrievals and framing"):
        start = time.perf_counter()
        code = make_nary(3, 3)
        rng = random.Random(33)
        msgs = MessageSet.from_values(
            [[rng.randrange(2) for _ in range(2)] for _ in range(3)], 2
        )
        servers = [PirServer(n).start() for n in range(3)]
        try:
            endpoints = [s.address for s in servers]
            for ep in endpoints:
                setup_endpoint(ep, code, msgs)
            for i in range(100):
                seeded = random.Random(i)
                k = seeded.randrange(3)
                key = RandomKey((seeded.randrange(3), seeded.randrange(3)), 3)
                over_wire = client_retrieve(code, endpoints, k, key=key)
                assert over_wire == retrieve(code, msgs, k, key)
                assert over_wire.values == msgs[k].values
        finally:
            for s in servers:
                s.stop()

        frame_rng = random.Random(1000)
        kinds = (KIND_SETUP, KIND_QUERY, KIND_ANSWER, KIND_ERROR)
        for _ in range(1000):
            frame = Frame(
                frame_rng.choice(kinds),
                bytes(frame_rng.randrange(256) for _ in range(frame_rng.randrange(64))),
            )
            stream = io.BytesIO(encode_frame(frame))
            assert read_frame(stream) == frame
            assert read_frame(stream) is None  # the frame used every byte
        assert time.perf_counter() - start < 10.0
