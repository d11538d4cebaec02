"""A fixed corpus of broken codes, and the `pirlab verify` text each yields.

Three families of mutants are generated from a base code, every one of them
and in a fixed order, none sampled:

* single-entry: one table entry shifted by each nonzero d (answer lengths
  stay, so the base code's decoder still applies);
* extra-row: one answer function gains a copy of a row its server already
  has (the code stays decodable, but downloads more);
* query-swap: two (k, key) entries exchange their query at one server.

The verify text of all mutants of one (code, family, decoder) is pinned by
one SHA-256, so every verdict, witness and `checked` count stays as it is.
"""

import hashlib
import itertools

import pytest

from pirlab.analysis import (
    DEFAULT_CAP,
    FLOAT_TOL,
    CheckRecord,
    check_P1,
    check_P2,
    check_P3,
    check_lemma1_equality,
    check_lemma2_equality,
    positive_query_tuples,
    verify,
    verify_correctness,
)
from pirlab.model import AnswerFunction, DecomposableCode, builtin_table1
from pirlab.nary import export_decomposable, make_nary


def _with_rows(code, n, qi, rows):
    """`code`'s varieties with server n's answer function qi given `rows`."""
    per_server = list(code.varieties[n])
    per_server[qi] = AnswerFunction(per_server[qi].label, rows)
    varieties = list(code.varieties)
    varieties[n] = tuple(per_server)
    return tuple(varieties)


def _single_entry(code):
    y = code.params.ans_modulus
    for n, per_server in enumerate(code.varieties):
        for qi, variety in enumerate(per_server):
            rows = variety.tables
            for i, row in enumerate(rows):
                for j, table in enumerate(row):
                    for r, d in itertools.product(range(len(table)), range(1, y)):
                        shifted = table[:r] + ((table[r] + d) % y,) + table[r + 1 :]
                        new_row = row[:j] + (shifted,) + row[j + 1 :]
                        new_rows = rows[:i] + (new_row,) + rows[i + 1 :]
                        yield _with_rows(code, n, qi, new_rows), code.query_map


def _extra_row(code):
    for n, per_server in enumerate(code.varieties):
        # the server's distinct rows, in order of first appearance
        server_rows = list(dict.fromkeys(row for v in per_server for row in v.tables))
        for qi, variety in enumerate(per_server):
            for row in server_rows:
                yield _with_rows(code, n, qi, variety.tables + (row,)), code.query_map


def _query_swap(code):
    entries = sorted(code.query_map)
    for n in range(code.params.n_servers):
        for a, b in itertools.combinations(entries, 2):
            qa, qb = code.query_map[a], code.query_map[b]
            if qa[n] == qb[n]:
                continue  # the swap would change nothing
            query_map = dict(code.query_map)
            query_map[a] = qa[:n] + (qb[n],) + qa[n + 1 :]
            query_map[b] = qb[:n] + (qa[n],) + qb[n + 1 :]
            yield code.varieties, query_map


FAMILIES = {"single-entry": _single_entry, "extra-row": _extra_row, "query-swap": _query_swap}


def mutants(code, family, decoder=False):
    """Every mutant of `code` in `family`, in a fixed order; each keeps the
    base code's decoder when `decoder` is set and has none otherwise."""
    reconstruct = code.reconstruct if decoder else None
    for varieties, query_map in FAMILIES[family](code):
        yield DecomposableCode(code.params, varieties, code.keys, query_map, reconstruct)


def verify_text(code) -> str:
    """What `pirlab verify` prints for `code`."""
    records = verify(code, DEFAULT_CAP)
    failed = sum(not r.passed for r in records)
    lines = [r.text_line() for r in records]
    lines.append(f"RESULT {'FAIL' if failed else 'pass'} ({len(records)} checks, {failed} failed)")
    return "\n".join(lines) + "\n"


BASE_CODES = {
    "table1": builtin_table1,
    "nary 2 2": lambda: export_decomposable(make_nary(2, 2)),
    "nary 3 2": lambda: export_decomposable(make_nary(3, 2)),
    "nary 2 3": lambda: export_decomposable(make_nary(2, 3)),
}

# (code, family, decoder) -> (mutant count, SHA-256 of their verify texts)
MUTANT_DIGESTS = {
    ("table1", "single-entry", "decoder"): (
        12,
        "d94b2402c3d8c18e9f055e41d3b381fe4876df8da673f51cc1bfdd59de00c2b4",
    ),
    ("table1", "single-entry", "no-decoder"): (
        12,
        "5a5000f35632bc2fe823df7810fb518660f0ee43d706b97f012e9a0537125713",
    ),
    ("table1", "extra-row", "decoder"): (
        6,
        "7b4c83cd3d2ba8fb3c37a5d9b444a0ba9e4046d4624a6bd6810343792457f977",
    ),
    ("table1", "extra-row", "no-decoder"): (
        6,
        "7b4c83cd3d2ba8fb3c37a5d9b444a0ba9e4046d4624a6bd6810343792457f977",
    ),
    ("table1", "query-swap", "decoder"): (
        8,
        "2afe0b266af4d8015de8325414bff0dd3836c8d0f3684825fc4c3cd0f2d4f804",
    ),
    ("table1", "query-swap", "no-decoder"): (
        8,
        "58a34e80d045aa58c80b6d98af1e898236021e5de0e3f6e0b0f62a880137edff",
    ),
    ("nary 2 2", "single-entry", "decoder"): (
        12,
        "3caa8f6275be9fde085a4d4cc9326ec95b27d729779d554071bdb52dfd6ee4e5",
    ),
    ("nary 2 2", "single-entry", "no-decoder"): (
        12,
        "cfd45a1c80b44a54731238e6581e3e4f0573dad050b36856ee814d125c2ae93f",
    ),
    ("nary 2 2", "extra-row", "decoder"): (
        6,
        "0565b1a41eaa52464e4fda1e672ac6b8a8d33c866b9d8e872c078bcfd19ebe20",
    ),
    ("nary 2 2", "extra-row", "no-decoder"): (
        6,
        "21c408d94587075ce8eeaa33ee90f9c162e608f5e64475fda6733b3090824781",
    ),
    ("nary 2 2", "query-swap", "decoder"): (
        8,
        "60bbeb85c53b22c32886eb3b1cbde917f199f28db447d6011ea7b25e9594a49b",
    ),
    ("nary 2 2", "query-swap", "no-decoder"): (
        8,
        "e198b9cc04c9c0f31958329b83dc42e2b90e2fb745c62d0f52d40a36c43172d4",
    ),
    ("nary 3 2", "single-entry", "decoder"): (
        64,
        "3411ce4bf7afa4016b9c505b12101bc95a648acfafd428fecfd1d0f0b94fc980",
    ),
    ("nary 3 2", "single-entry", "no-decoder"): (
        64,
        "690a253a09ac5270782372fa45a9a895fd77e4cf591cf5cd487a6b28365b2087",
    ),
    ("nary 3 2", "extra-row", "decoder"): (
        24,
        "b4ef538f8bab594358fcc451e9d57b1941e382cb863e6d619ab47df98222650a",
    ),
    ("nary 3 2", "extra-row", "no-decoder"): (
        24,
        "1f71ed24cf7bcd16d132c961e0cac62844f00d58241ac792ffc5b1fbb8046f33",
    ),
    ("nary 3 2", "query-swap", "decoder"): (
        36,
        "73c665c7f695789d12ffaa52b2cc0cd57b283d3306eec954cf424e165f52cd66",
    ),
    ("nary 3 2", "query-swap", "no-decoder"): (
        36,
        "ceb00372540c6075294b4ea3eb0e043a9458863da74e25d9f7bf81ab65e80c4c",
    ),
    ("nary 2 3", "single-entry", "decoder"): (
        42,
        "f9e76d0f407889b9b00353acb02ddd7df6d38bfef33d8fff3620ab70b9907ab6",
    ),
    ("nary 2 3", "single-entry", "no-decoder"): (
        42,
        "aa10408c172e09a2bf0c57924f73252788281a09da625b9b5b505b360f1e4a2e",
    ),
    ("nary 2 3", "extra-row", "decoder"): (
        28,
        "18c0f62066a5075af2d7579da76a5b15e08f4ebad3c020db854c613ad8c8c714",
    ),
    ("nary 2 3", "extra-row", "no-decoder"): (
        28,
        "5ea8bbfca62f5948ae6514045c1e4a08be026e54edabfcc824f44549dd4196d4",
    ),
    ("nary 2 3", "query-swap", "decoder"): (
        108,
        "b6553bbf9fda182edf703db94bb649e4d31c7107145415e42f49f063f6a96cd5",
    ),
    ("nary 2 3", "query-swap", "no-decoder"): (
        108,
        "449389642cbe7e3ab06d66195bc56da104ad03b84a99fc5b7be22cf68f957e17",
    ),
}


@pytest.mark.parametrize("case", sorted(MUTANT_DIGESTS), ids="-".join)
def test_verify_text_of_every_mutant_is_pinned(case):
    name, family, decoder = case
    texts = [verify_text(m) for m in mutants(BASE_CODES[name](), family, decoder == "decoder")]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == MUTANT_DIGESTS[case]
    assert all("RESULT FAIL" in text for text in texts)


@pytest.mark.parametrize("case", sorted(MUTANT_DIGESTS), ids="-".join)
def test_verify_agrees_with_the_one_check_entry_points(case):
    # verify's walk against verify_correctness, the first failing check_Pi
    # report over each request's positive query tuples, and each lemma's
    # residual from check_lemma1_equality or check_lemma2_equality
    name, family, decoder = case
    for code in mutants(BASE_CODES[name](), family, decoder == "decoder"):
        records = verify(code, DEFAULT_CAP)
        rep = verify_correctness(code, DEFAULT_CAP)
        assert records[0] == CheckRecord(
            "correctness", (("checked", str(rep.checked)),), rep.passed, None, rep.witness
        )
        expected = []
        for i, check in enumerate((check_P1, check_P2, check_P3), 1):
            for k in range(code.params.n_messages):
                tuples = positive_query_tuples(code, k)
                failed = [r for r in (check(code, k, q) for q in tuples) if not r.passed]
                params = (("k", str(k)), ("tuples", str(len(tuples))))
                witness = failed[0].witness if failed else None
                expected.append(CheckRecord(f"P{i}", params, not failed, None, witness))
        assert [r for r in records if r.name in ("P1", "P2", "P3")] == expected
        if code.params.ans_modulus != code.params.msg_modulus:
            continue
        order = tuple(range(code.params.n_messages))
        residuals = [("lemma1", (("k", str(k)),), check_lemma1_equality(code, k)) for k in order]
        for perm in (order, order[::-1]):
            for k in order[1:]:
                params = (("k", str(k)), ("perm", "".join(map(str, perm))))
                residuals.append(("lemma2", params, check_lemma2_equality(code, k, perm)))
        lemmas = [r for r in records if r.name.startswith("lemma")]
        assert [(r.name, r.params, repr(r.residual), r.passed) for r in lemmas] == [
            (lemma, params, repr(value), abs(value) <= FLOAT_TOL) for lemma, params, value in residuals
        ]
