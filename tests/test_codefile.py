"""pir-code v1 serialization: round trips, strictness, decodability of parsed codes."""

import hashlib
import random
import tracemalloc

import pytest

from pirlab import codefile
from pirlab.analysis import rate, verify_correctness, verify_privacy
from pirlab.codefile import CodeFormatError, emit, load, parse, save
from pirlab.model import DecomposableCode, builtin_sunjafar22, builtin_table1
from pirlab.nary import export_decomposable, make_nary
from pirlab.symmetry import message_symmetrize, server_symmetrize, variety_symmetrize


CODES = {
    "table1": builtin_table1,
    "table2": builtin_sunjafar22,
    "nary22": lambda: export_decomposable(make_nary(2, 2)),
    "nary32": lambda: export_decomposable(make_nary(3, 2)),
    "nary23m3": lambda: export_decomposable(make_nary(2, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_round_trip_structural_identity(name):
    code = CODES[name]()
    assert parse(emit(code)) == code


def test_round_trip_of_transformed_codes():
    base = export_decomposable(make_nary(2, 2))
    for transformed in [variety_symmetrize(base), server_symmetrize(base)]:
        assert parse(emit(transformed)) == transformed


def test_emit_is_byte_stable():
    a = emit(builtin_sunjafar22())
    b = emit(builtin_sunjafar22())
    assert a == b
    assert a.endswith("end\n")


def test_save_load(tmp_path):
    path = tmp_path / "code.pir"
    save(builtin_table1(), path)
    assert load(path) == builtin_table1()


def test_failed_save_leaves_the_file_unchanged(tmp_path):
    # DecomposableCode takes any whitespace-free label; the file format does not
    path = tmp_path / "code.pir"
    save(builtin_table1(), path)
    before = path.read_bytes()
    code = builtin_table1()
    non_ascii = DecomposableCode(
        code.params, code.varieties, ("a\xe9b",) + code.keys[1:], code.query_map
    )
    with pytest.raises(UnicodeEncodeError):
        save(non_ascii, path)
    assert path.read_bytes() == before


def test_parse_rejects_non_ascii_label():
    text = emit(builtin_table1())
    assert "a+b" in text
    with pytest.raises(CodeFormatError) as exc:
        parse(text.replace("a+b", "a\xe9b"))
    assert str(exc.value) == f"not ASCII text: '\xe9' at offset {text.index('a+b') + 1}"


def test_parsed_code_has_no_reconstructor_but_verifies():
    code = parse(emit(export_decomposable(make_nary(2, 2))))
    assert code.reconstruct is None
    # correctness falls back to a unique-decodability check
    assert verify_correctness(code).passed
    assert verify_privacy(code).passed
    assert rate(code) == rate(builtin_table1())


def test_parse_rejects_bad_magic():
    with pytest.raises(CodeFormatError):
        parse("pir-code v2 2 2 1 2 2\nend\n")
    with pytest.raises(CodeFormatError):
        parse("who-knows v1 2 2 1 2 2\nend\n")


def test_parse_rejects_truncation():
    text = emit(builtin_table1())
    lines = text.splitlines()
    for cut in [1, 3, len(lines) - 1]:
        with pytest.raises(CodeFormatError):
            parse("\n".join(lines[:cut]) + "\n")


def test_parse_rejects_trailing_content():
    with pytest.raises(CodeFormatError, match="trailing"):
        parse(emit(builtin_table1()) + "extra stuff\n")


def test_parse_rejects_out_of_order_blocks():
    text = emit(builtin_table1())
    swapped = text.replace("server 0 2", "server 1 2", 1)
    with pytest.raises(CodeFormatError, match="order"):
        parse(swapped)


def test_parse_rejects_non_integer_tokens():
    text = emit(builtin_table1()).replace("map 0 0 0 0", "map 0 0 zero 0")
    with pytest.raises(CodeFormatError, match="bad integer"):
        parse(text)


@pytest.mark.parametrize("token", ["+1", "0_2", "01", "\u0661", "-0", "00", "-01"])
@pytest.mark.parametrize(
    "where,line,position",
    [
        ("table value", "table 0 0 0 1", 4),
        ("header", "pir-code v1", 2),
        ("map query", "map 0 1", 4),
    ],
)
def test_parse_accepts_only_canonical_integers(token, where, line, position):
    # int() reads each of these tokens, but emit never writes them
    lines = emit(builtin_table1()).splitlines()
    i = next(i for i, text in enumerate(lines) if text.startswith(line))
    tokens = lines[i].split()
    tokens[position] = token
    lines[i] = " ".join(tokens)
    with pytest.raises(CodeFormatError) as exc:
        parse("\n".join(lines) + "\n")
    assert str(exc.value) == f"bad integer for {where}: {token!r}"


@pytest.mark.parametrize(
    "change,message",
    [
        # the third non-blank line sits on line 6 after three blank lines
        (lambda line: "bogus", "expected 'query' at line 6, got 'bogus'"),
        (lambda line: line + " extra", "'query' at line 6 needs 4 tokens, got 5"),
    ],
    ids=["directive", "token count"],
)
def test_parse_errors_name_the_line_counting_blank_lines(change, message):
    lines = emit(builtin_table1()).splitlines()
    assert lines[2].startswith("query 0 ")
    lines[2] = change(lines[2])
    text = "\n \n\t\n" + "\n".join(lines) + "\n"
    with pytest.raises(CodeFormatError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_load_rejects_non_ascii_file(tmp_path):
    path = tmp_path / "code.pir"
    text = emit(builtin_table1())
    path.write_bytes(text.encode("ascii") + b"\xff\n")
    with pytest.raises(CodeFormatError) as exc:
        load(path)
    assert str(exc.value) == f"not an ASCII file: byte 0xff at offset {len(text)}"


def test_parse_rejects_bad_header_params():
    with pytest.raises(CodeFormatError):
        parse("pir-code v1 1 2 1 2 2\nend\n")  # one server is not a code


def test_parse_rejects_symbol_out_of_alphabet():
    text = emit(builtin_table1()).replace("table 0 0 0 1", "table 0 0 0 7", 1)
    with pytest.raises(CodeFormatError):
        parse(text)


def test_parse_rejects_a_table_value_at_the_answer_modulus_where_it_reads_it():
    lines = emit(builtin_table1()).splitlines(keepends=True)
    at = lines.index("table 0 0 0 1\n")
    lines[at] = "table 0 0 0 2\n"  # y = 2
    # cut the document after that line: the value fails first, not the end
    with pytest.raises(CodeFormatError, match=r"^table entries must lie in 0\.\.1$"):
        parse("".join(lines[: at + 1]))


def test_parse_rejects_dangling_query_reference():
    text = emit(builtin_table1()).replace("map 1 1 1 0", "map 1 1 9 0")
    with pytest.raises(CodeFormatError):
        parse(text)


def test_mutated_table_entry_changes_behaviour_not_format():
    # flipping one table value keeps the document well-formed but breaks the code
    text = emit(export_decomposable(make_nary(2, 2)))
    mutated = text.replace("table 0 0 0 1", "table 0 0 1 1", 1)
    assert mutated != text
    code = parse(mutated)
    assert not verify_correctness(code).passed or not verify_privacy(code).passed


# ------------------------------------------------- error messages and sharing


def _outcome(text: str) -> str:
    try:
        parse(text)
    except Exception as exc:  # a crash other than CodeFormatError is pinned too
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _mutation_corpus() -> list[str]:
    """One-line mutations of a code whose table lines repeat, in a fixed order.

    Every line of the emitted message-symmetrized `nary 2 2` is cut at,
    dropped, swapped with its successor, preceded by a blank line, given one
    token more and one token fewer, and has each of its tokens replaced in
    turn by a non-integer, a negative, an out-of-range, a shifted and an
    overlong integer.  Each of the 24 table lines repeats one of three value
    tuples, so the first and the repeated occurrences are both hit.
    """
    lines = emit(message_symmetrize(export_decomposable(make_nary(2, 2)))).splitlines()

    def doc(rows):
        return "\n".join(rows) + "\n"

    texts = []
    for i, line in enumerate(lines):
        tokens = line.split()
        before, after = lines[:i], lines[i + 1 :]
        texts.append(doc(before))
        texts.append(doc(before + after))
        texts.append(doc(before + after[:1] + [line] + after[1:]))
        texts.append(doc(before + [""] + [line] + after))
        texts.append(doc(before + [line + " 0"] + after))
        texts.append(doc(before + [" ".join(tokens[:-1])] + after))
        for j, token in enumerate(tokens):
            shifted = str(int(token) + 1) if token.isdigit() else token + "x"
            for bad in ("x", "-1", "2", shifted, "9" * 5000):
                replaced = " ".join(tokens[:j] + [bad] + tokens[j + 1 :])
                texts.append(doc(before + [replaced] + after))
    return texts


def test_error_messages_are_stable():
    # SHA-256 of every outcome in corpus order, recorded before the parser
    # learned to read each distinct table text once
    outcomes = [_outcome(text) for text in _mutation_corpus()]
    assert len(outcomes) == 1634
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "55d99921a7011c3a973896159d96a8e0e859497164240f967c4bb4b15605efeb"


_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_BLANKS = ("", " ", "\t", "\x1f", " \x1f\t")  # \x1f is whitespace but no line break


def _line_break_corpus() -> list[str]:
    """Emitted documents laid out with every `str.splitlines` break, in a fixed order.

    The message-symmetrized `nary 2 2` (its 24 table lines repeat three value
    tuples) is laid out with each break throughout, with and without a final
    break; with each blank or whitespace-only line before each table line; and
    then 1,500 times at random (seeded): one break or a mix of them, blank
    lines, a missing final break, and at most one line mutated, dropped,
    duplicated or swapped with a table line.
    """
    lines = emit(message_symmetrize(export_decomposable(make_nary(2, 2)))).splitlines()
    tables = [i for i, line in enumerate(lines) if line.startswith("table ")]
    texts = []
    for brk in _BREAKS:
        texts.append(brk.join(lines) + brk)
        texts.append(brk.join(lines))
    for i in tables:
        for blank in _BLANKS:
            texts.append("\n".join(lines[:i] + [blank] + lines[i:]) + "\n")
    rng = random.Random(1808)
    for _ in range(1500):
        rows = list(lines)
        change = rng.randrange(5)
        at = rng.choice(tables) if rng.random() < 0.7 else rng.randrange(len(rows))
        if change == 1:
            tokens = rows[at].split()
            j = rng.randrange(len(tokens))
            tokens[j] = rng.choice(("x", "2", "01", "-1", str(len(tokens)), tokens[j] + "0"))
            rows[at] = " ".join(tokens)
        elif change == 2:
            del rows[at]
        elif change == 3:
            rows.insert(at, rows[at])
        elif change == 4:
            other = rng.choice(tables)
            rows[at], rows[other] = rows[other], rows[at]
        laid = []
        for row in rows:
            while rng.random() < 0.08:
                laid.append(rng.choice(_BLANKS))
            laid.append(row)
        # one break throughout, or a mix of the ASCII breaks, or of all of them
        one = (rng.choice(_BREAKS + ("\n",)),)
        pool = rng.choice((one, _BREAKS[:7] + ("\n",) * 7, _BREAKS + ("\n",) * 10))
        text = []
        for row in laid:
            text.append(row)
            text.append(rng.choice(pool))
        if rng.random() < 0.25:
            text.pop()  # no final break
        texts.append("".join(text))
    return texts


def test_line_breaks_are_those_of_splitlines():
    # SHA-256 of every outcome in corpus order (the emitted code when parse
    # succeeds), recorded while `parse` still read the `str.splitlines` lines
    def outcome(text: str) -> str:
        try:
            return emit(parse(text))
        except Exception as exc:  # a crash other than CodeFormatError is pinned too
            return f"{type(exc).__name__}: {exc}"

    outcomes = [outcome(text) for text in _line_break_corpus()]
    assert len(outcomes) == 1640
    assert sum(o.startswith("pir-code") for o in outcomes) == 347
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "ac6b70eecb8a4db14925f134f81a6c2a3177b97cf41ba6ace915a3932018b0ee"


def test_parse_reads_a_repeated_table_text_once_and_shares_the_table():
    # parse copies out only the lines it reads, and emit holds its text once
    code = message_symmetrize(export_decomposable(make_nary(2, 3)))
    text = emit(code)
    tracemalloc.start()
    try:
        parsed = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]  # the parsed code
        tracemalloc.reset_peak()
        assert emit(code) == text
        emit_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert emit_peak < 1.25 * len(text)
    assert parsed == code
    tables = {
        id(table): table
        for per_server in parsed.varieties
        for variety in per_server
        for row in variety.tables
        for table in row
    }
    assert len(tables) == len(set(tables.values())) == 7


@pytest.fixture(scope="module")
def nary23_lines() -> tuple[str, ...]:
    """The emitted message-symmetrized `nary 2 3`: 129,024 table lines, 7 value texts."""
    return tuple(emit(message_symmetrize(export_decomposable(make_nary(2, 3)))).splitlines())


def _repeated_line_mutations(lines: list[str]) -> dict[str, list[str]]:
    """Mutations built from `table` lines that repeat earlier lines.

    Query 7 of server 0 sits at lines 33-39 (counted from 0): its row 0
    repeats the lines of queries 5 and 6, and its last line repeats the last
    line of query 6.
    """
    assert lines[33].startswith("query 7 ") and lines[40].startswith("query 8 ")
    assert lines[34] in lines[:34] and lines[39] in lines[:39]
    cached = lines[34]
    tokens = cached.split()
    one = tokens.index("1", 3)
    return {
        "wrong row": lines[:37] + [cached] + lines[38:],
        "wrong col": lines[:35] + [cached] + lines[36:],
        "whole row at the wrong row": lines[:37] + lines[34:37] + lines[40:],
        "moved into the next query block": lines[:39] + [lines[40], lines[39]] + lines[41:],
        "value dropped": lines[:34] + [" ".join(tokens[:-1])] + lines[35:],
        "non-canonical 01": lines[:34]
        + [" ".join(tokens[:one] + ["01"] + tokens[one + 1 :])]
        + lines[35:],
        "trailing space": lines[:34] + [cached + " "] + lines[35:],
    }


@pytest.mark.parametrize(
    "mutation,outcome",
    [
        ("wrong row", "CodeFormatError: table blocks must appear row-major, got (0,0)"),
        ("wrong col", "CodeFormatError: table blocks must appear row-major, got (0,0)"),
        ("whole row at the wrong row", "CodeFormatError: table blocks must appear row-major, got (0,0)"),
        ("moved into the next query block", "CodeFormatError: expected 'table' at line 40, got 'query'"),
        ("value dropped", "CodeFormatError: 'table' at line 35 needs 67 tokens, got 66"),
        ("non-canonical 01", "CodeFormatError: bad integer for table value: '01'"),
        ("trailing space", "ok"),
    ],
)
def test_repeated_table_lines_fail_as_every_other_line(nary23_lines, mutation, outcome):
    # recorded before `parse` learned to take a repeated row from a cache
    text = "\n".join(_repeated_line_mutations(list(nary23_lines))[mutation]) + "\n"
    assert _outcome(text) == outcome


def _key_and_map_mutations(lines: list[str]) -> dict[str, list[str]]:
    """Mutations of the key and map sections of the emitted `nary 2 3` code."""
    keys = lines.index("keys 4096") + 1
    maps = keys + 4096
    assert lines[maps].startswith("map 0 0 ") and lines[-1] == "end"
    mid = (maps + len(lines) - 1) // 2
    last = lines[-2].split()

    def replaced(at: int, *new: str) -> list[str]:
        return lines[:at] + list(new) + lines[at + 1 :]

    return {
        "non-canonical 01 on the last map line": replaced(-2, " ".join(last[:3] + ["01"] + last[4:])),
        "two map lines swapped": lines[:mid] + [lines[mid + 1], lines[mid]] + lines[mid + 2 :],
        "key index out of order": lines[: keys + 7] + [lines[keys + 8], lines[keys + 7]] + lines[keys + 9 :],
        "blank line and CRLF in the map section": replaced(mid, "", lines[mid] + "\r"),
        "map entry out of range at server 1": replaced(mid, " ".join(lines[mid].split()[:4] + ["4096"])),
        "extra token on a map line": replaced(mid, lines[mid] + " 0"),
        "key label split by a tab": replaced(keys + 9, lines[keys + 9].replace("|", "\t", 1)),
    }


@pytest.mark.parametrize(
    "mutation,outcome",
    [
        ("non-canonical 01 on the last map line", "CodeFormatError: bad integer for map query: '01'"),
        ("two map lines swapped", "CodeFormatError: map entries must appear k-major, got (1,2049)"),
        ("key index out of order", "CodeFormatError: key entries must appear in order, got 8"),
        ("blank line and CRLF in the map section", "ok"),
        (
            "map entry out of range at server 1",
            "CodeFormatError: query map entry (1,2048) out of range at server 1",
        ),
        ("extra token on a map line", "CodeFormatError: 'map' at line 147461 needs 5 tokens, got 6"),
        ("key label split by a tab", "CodeFormatError: 'key' at line 137230 needs 3 tokens, got 4"),
    ],
)
def test_key_and_map_lines_fail_as_every_other_line(nary23_lines, mutation, outcome):
    # recorded when `parse` converted every index token of these sections
    text = "\n".join(_key_and_map_mutations(list(nary23_lines))[mutation]) + "\n"
    assert _outcome(text) == outcome
    if outcome == "ok":
        assert emit(parse(text)) == "\n".join(nary23_lines) + "\n"


def test_emit_and_parse_work_per_distinct_table_not_per_line(nary23_lines, monkeypatch):
    # the 129,024 table lines hold 12 table objects and 7 value texts; each
    # value is rendered and converted per distinct table, never per line
    code = message_symmetrize(export_decomposable(make_nary(2, 3)))
    objects = {id(t) for per in code.varieties for v in per for row in v.tables for t in row}
    table_lines = [line for line in nary23_lines if line.startswith("table ")]
    table_size = code.params.msg_modulus**code.params.msg_len
    assert (len(table_lines), len(objects), table_size) == (129_024, 12, 64)

    renders = []

    def counting_map(fn, *iterables):
        if fn is str:
            renders.append(fn)
        return map(fn, *iterables)

    monkeypatch.setattr(codefile, "map", counting_map, raising=False)
    text = emit(code)
    monkeypatch.delattr(codefile, "map")
    assert tuple(text.splitlines()) == nary23_lines
    assert 0 < len(renders) <= len(objects)

    conversions = []
    real_int = codefile._int

    def counting_int(token, what):
        if what == "table value":
            conversions.append(token)
        return real_int(token, what)

    monkeypatch.setattr(codefile, "_int", counting_int)
    assert parse(text) == code
    assert 0 < len(conversions) <= len(set(table_lines)) * table_size < len(table_lines)
