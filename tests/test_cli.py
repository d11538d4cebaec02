"""CLI behaviour: deterministic reports, exit codes, live subcommands."""

import contextlib
import gc
import hashlib
import json
import os
import random
import re
import socket
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

from pirlab import analysis, cli
from pirlab.cli import main
from pirlab.codefile import emit, parse, save
from pirlab.model import DecomposableCode, builtin_table1
from pirlab.nary import export_decomposable, make_nary
from test_analysis import NARY_GRID
from test_net import EMPTY_ERROR, scripted_servers


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_metrics_33(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--servers", "3", "--messages", "3")
    assert code == 0
    assert "capacity            9/13" in out
    assert "rate                9/13" in out
    assert "message size        2.0000 bits" in out
    assert "upload cost         9.5098 bits" in out
    assert "queries per server  (9, 9, 9)" in out
    assert "expected download   26/9 symbols" in out
    assert "rate equals capacity" in out


def test_metrics_output_is_byte_stable(capsys):
    first = run_cli(capsys, "metrics", "--servers", "2", "--messages", "3")
    second = run_cli(capsys, "metrics", "--servers", "2", "--messages", "3")
    assert first == second


def test_demo_retrieves_and_is_deterministic(capsys):
    args = ("demo", "--servers", "3", "--messages", "3", "--seed", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "query/answer table" in out
    assert "a1+b1+c1" in out  # the all-ones diagonal row of server 0
    assert "(matches stored message)" in out
    assert run_cli(capsys, *args) == (code, out, "")


def test_demo_rejects_bad_shape(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--servers", "1", "--messages", "2"])
    assert exc.value.code == 2


def test_verify_nary22_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "nary", "2", "2")
    assert code == 0
    assert "correctness checked=16 pass" in out
    assert "privacy checked=2 pass" in out
    assert "uniform-decomposable constant=2 balanced=4 neither=0 pass" in out
    for prop in ("P1", "P2", "P3"):
        assert f"{prop} k=0 tuples=2 pass" in out
        assert f"{prop} k=1 tuples=2 pass" in out
    assert "lemma1 k=0 pass residual=0.000e+00" in out
    assert "lemma2 k=1 perm=01 pass residual=0.000e+00" in out
    assert out.rstrip().endswith("RESULT pass (13 checks, 0 failed)")


def test_verify_table_sources(capsys):
    assert run_cli(capsys, "verify", "table1")[0] == 0
    assert run_cli(capsys, "verify", "table2")[0] == 0


def test_verify_writes_jsonl(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    code, _, _ = run_cli(capsys, "verify", "nary", "2", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 13
    records = [json.loads(line) for line in lines]
    assert all(rec["passed"] for rec in records)
    assert {rec["name"] for rec in records} == {
        "correctness",
        "privacy",
        "uniform-decomposable",
        "P1",
        "P2",
        "P3",
        "lemma1",
        "lemma2",
    }


def test_verify_detects_a_broken_code_file(tmp_path, capsys):
    text = emit(export_decomposable(make_nary(2, 2)))
    broken = text.replace("table 0 0 0 1", "table 0 0 1 1", 1)
    path = tmp_path / "broken.pir"
    path.write_text(broken)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "RESULT FAIL" in out
    assert "witness[" in out


def test_verify_cap_exceeded_exit_code(capsys):
    code = main(["verify", "nary", "2", "2", "--cap", "3"])
    _, err = capsys.readouterr()
    assert code == 3
    # the export's 2 tables of 2 entries and 2 x 2 x 2^2 query cells, charged
    # before verify's 4 splits of 2 x (1 + 2 + 2) sums and 2^2 databases
    assert err == "refusing exact enumeration: needs 20 table entries and query cells, cap is 3\n"


@pytest.mark.parametrize(
    "servers, messages, required", [("20", "2", 22265131433984), ("2", "16", 2147483648)]
)
def test_verify_refuses_a_nary_shape_before_exporting_it(servers, messages, required, capsys):
    # the costliest check: at 20 2 the splits, 40 of 2^19 x (1 + 2 x 2^19)
    # sums, and 2^38 databases; at 2 16 a lemma term, m^(KL) databases x
    # N^(K-1) keys
    tracemalloc.start()
    try:
        code = main(["verify", "nary", servers, messages])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (
        3,
        "",
        f"refusing exact enumeration: needs {required} evaluations, cap is 16777216\n",
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ("demo", "--servers", "12", "--messages", "2", "--modulus", "13"),
        ("metrics", "--servers", "12", "--messages", "2", "--modulus", "13"),
        ("symmetrize", "server", "nary", "12", "2", "13"),
    ],
)
def test_a_nary_shape_too_large_to_export_is_refused_before_export(argv, capsys):
    # 12 tables of 13^11 entries and 2 x 2 x 12^2 query cells
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    required = 12 * 13**11 + 2 * 2 * 12**2
    assert (code, *capsys.readouterr()) == (
        3,
        "",
        f"refusing exact enumeration: needs {required} table entries and query cells,"
        " cap is 16777216\n",
    )


@pytest.mark.parametrize(
    "transform, required",
    [
        ("server", 20**20),  # 20 blocks of 20 keys each
        ("message", 2**38),  # 2 blocks, each table lifted to 2^(2 x 19) entries
    ],
    ids=["server-nary-20-2", "message-nary-20-2"],
)
def test_a_transform_refuses_a_nary_shape_before_export(transform, required, capsys):
    # the export of nary 20 2 fits the cap, so the transform's shape is charged;
    # the running product stops at the first power past the cap, 20^6 or 2^25,
    # and reports it as a lower bound on the whole requirement
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["symmetrize", transform, "nary", "20", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert required >= 1 << 25
    assert (code, *capsys.readouterr()) == (
        3,
        "",
        "refusing exact enumeration: needs at least 2^25 evaluations, cap is 16777216\n",
    )


@pytest.mark.parametrize("shape", NARY_GRID)
def test_verify_charges_a_nary_shape_as_analysis_charges_its_export(shape, monkeypatch, capsys):
    export = export_decomposable(make_nary(*shape))
    with pytest.raises(analysis.EnumerationCapExceeded) as exc:
        analysis.verify(export, cap=0)

    def no_export(*args):
        raise AssertionError("exported before the charge")

    # the export's own charge, made first, is lifted so that verify's shows
    monkeypatch.setattr(cli.nary, "export_size", lambda shape: 0)
    monkeypatch.setattr(cli.nary, "export_decomposable", no_export)
    assert run_cli(capsys, "verify", "nary", *map(str, shape), "--cap", "0") == (
        3,
        "",
        f"refusing exact enumeration: needs {exc.value.required} evaluations, cap is 0\n",
    )


def test_symmetrize_refusal_stops_the_running_product_at_2_30_and_exits_3(capsys):
    # 64 keys over 7! = 5040 blocks: 64^5040 has more digits than str() allows,
    # and the running product stops at 64^5 = 2^30, a lower bound on it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "symmetrize", "message", "nary", "2", "7")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "refusing exact enumeration: needs at least 2^30 evaluations, cap is 16777216\n"


def test_verify_refusal_too_long_for_decimal_exits_3(capsys):
    # the export of nary 2 15000 holds 2 x 15000 x 2^15000 query cells, more
    # digits than str() allows, so the refusal names the power of 2 below it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "nary", "2", "15000")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == (
        "refusing exact enumeration: needs at least 2^15014 table entries and query cells,"
        " cap is 16777216\n"
    )


def test_verify_rejects_bad_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nary", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "/no/such/file.pir"])
    assert exc.value.code == 2


GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden")

# SHA-256 of `pirlab verify SOURCE` stdout followed by its --out JSONL
VERIFY_DIGESTS = {
    "table1": "f394acb570324311b7059cb1c05dd32f44c97b8b2ffa4b64251afe1a0ddd533a",
    "table2": "25a705898f3fad13c5e09d8ac11feb52a8076a439d401be622bc63a5df49471f",
    "nary 2 2": "f394acb570324311b7059cb1c05dd32f44c97b8b2ffa4b64251afe1a0ddd533a",
    "nary 3 3": "340d0010692008a50ac3058aa5d0906e5c01248b313b19617d47972f8bdeb39b",
    "nary 2 3 3": "52d5f48d582bfd57174caad74144d161acc2f105c3bb2da53aec5711bac3b959",
    "nary 2 4": "c682e66db3444e7cb6129ef25fd8f0677428769f19442746627085b84e1c74b5",
    "nary 2 5": "feb255f979e4d0fef756bf88830de1a0a8cb842df152fcd1e130ebbd9c2976cc",
    "nary 4 3": "f71b5e8f7f67dd4f540c54f8016f872d9452123180a1cee1863c3d306625e775",
}

# seed -> (digest, witnesses) for `nary 3 3` with one table entry flipped
MUTATION_DIGESTS = {
    0: (
        "f4b9e8871c52950d52c94d7475f8d27ac555523c2fc623135e613d61c187417e",
        [
            "answers consistent with both (0, 0) and (0, 1) k=0 key=20 "
            "queries=120,220,020 messages=01;01;00",
            "first offender (1, 8, 0, 1)",
            "joint probability 0 of ((0,), (0,), (1,)) differs from product 1/8 "
            "k=1 queries=210,220,200",
            "residual at server 0 value (1,) co-occurs with both (0,) and (1,) "
            "at server 1 k=0 queries=120,220,020",
            "residual at server 0 value (0,) co-occurs with both (0,) and (1,) "
            "at server 1 k=2 queries=222,220,221",
            "joint probability 1/4 of ((0,), (0,), (0,)) differs from product 3/8 "
            "k=1 queries=210,220,200",
        ],
    ),
    1: (
        "be1db11c7d1b333d2d30116c480f12695624d833e182c023c759fc63b101f2ac",
        [
            "answers consistent with both (0, 0) and (0, 1) k=0 key=01 "
            "queries=201,001,101 messages=01;00;00",
            "first offender (0, 6, 0, 2)",
            "joint probability 0 of ((0,), (0,), (0,)) differs from product 1/8 "
            "k=2 queries=201,202,200",
            "residual at server 0 value (1,) co-occurs with both (0,) and (1,) "
            "at server 1 k=0 queries=201,001,101",
            "residual at server 0 value (0,) co-occurs with both (0,) and (1,) "
            "at server 1 k=1 queries=201,211,221",
            "joint probability 0 of ((0,), (0,), (0,)) differs from product 1/8 "
            "k=2 queries=201,202,200",
        ],
    ),
    2: (
        "5a8aef0d512470234cfa9c0d68c0dd0e3f9ea49a6f1982c3faad134eb513cca5",
        [
            "answers consistent with both (0, 0) and (1, 0) k=0 key=02 "
            "queries=102,202,002 messages=10;00;00",
            "first offender (0, 3, 0, 1)",
            "joint probability 0 of ((0,), (0,), (0,)) differs from product 1/8 "
            "k=1 queries=102,112,122",
            "residual at server 0 value (0,) co-occurs with both (0,) and (1,) "
            "at server 1 k=0 queries=102,202,002",
            "residual at server 0 value (0,) co-occurs with both (0,) and (1,) "
            "at server 1 k=2 queries=102,100,101",
            "joint probability 0 of ((0,), (0,), (0,)) differs from product 3/16 "
            "k=1 queries=102,112,122",
        ],
    ),
    3: (
        "7a2cbb6490fbd2cab1d325c495f4e1984097fd7fd408a351403dfad48b3bbdcb",
        [
            "answers consistent with both (0, 1) and (1, 0) k=0 key=22 "
            "queries=222,022,122 messages=10;00;00",
            "first offender (1, 2, 0, 0)",
            "joint probability 1/4 of ((0,), (0,), (1,)) differs from product 1/8 "
            "k=0 queries=222,022,122",
            "residual at server 0 value (0,) co-occurs with both (0,) and (1,) "
            "at server 1 k=1 queries=012,022,002",
            "residual at server 0 value (0,) co-occurs with both (0,) and (1,) "
            "at server 1 k=2 queries=021,022,020",
            "joint probability 1/4 of ((0,), (0,), (0,)) differs from product 3/16 "
            "k=0 queries=222,022,122",
        ],
    ),
}


def _verify_outputs(capsys, tmp_path, *source):
    out_path = tmp_path / "records.jsonl"
    code, out, _ = run_cli(capsys, "verify", *source, "--out", str(out_path))
    return code, out, out_path.read_text()


def _flip_one_entry(text: str, seed: int) -> str:
    """Flip one binary table entry of an emitted code, chosen by `seed`."""
    lines = text.splitlines()
    rng = random.Random(seed)
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith("table ")])
    tokens = lines[i].split()
    j = rng.randrange(3, len(tokens))
    tokens[j] = str(1 - int(tokens[j]))
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", sorted(VERIFY_DIGESTS))
def test_verify_records_are_byte_stable(source, tmp_path, capsys):
    code, out, jsonl = _verify_outputs(capsys, tmp_path, *source.split())
    assert code == 0
    assert hashlib.sha256((out + jsonl).encode()).hexdigest() == VERIFY_DIGESTS[source]


@pytest.mark.parametrize("seed", sorted(MUTATION_DIGESTS))
def test_verify_records_of_mutated_code_are_byte_stable(seed, tmp_path, capsys):
    path = tmp_path / "mutated.pir"
    path.write_text(_flip_one_entry(emit(export_decomposable(make_nary(3, 3))), seed))
    code, out, jsonl = _verify_outputs(capsys, tmp_path, str(path))
    digest, witnesses = MUTATION_DIGESTS[seed]
    assert code == 1
    assert re.findall(r"witness\[(.*)\]$", out, re.MULTILINE) == witnesses
    assert hashlib.sha256((out + jsonl).encode()).hexdigest() == digest


def test_verify_records_of_server_symmetrized_file_are_byte_stable(tmp_path, capsys):
    # answers of several symbols, and no decoder: the file carries none
    path = str(tmp_path / "sym.pir")
    assert main(["symmetrize", "server", "nary", "3", "2", "--out", path]) == 0
    capsys.readouterr()
    code, out, jsonl = _verify_outputs(capsys, tmp_path, path)
    assert code == 0
    assert (
        hashlib.sha256((out + jsonl).encode()).hexdigest()
        == "6ff7904171f7bffb464482affecf333aea76a605cad6bce1f69c29120f3493d6"
    )


def test_verify_nary34_matches_benchmark_golden(tmp_path, capsys):
    code, out, jsonl = _verify_outputs(capsys, tmp_path, "nary", "3", "4")
    assert code == 0
    with open(os.path.join(GOLDEN, "verify-nary-3-4.txt"), encoding="ascii") as fh:
        assert out == fh.read()
    with open(os.path.join(GOLDEN, "verify-nary-3-4.jsonl"), encoding="ascii") as fh:
        assert jsonl == fh.read()


def test_symmetrize_message_nary23_matches_benchmark_golden(tmp_path, capsys):
    out_path = str(tmp_path / "transform.pircode")
    code, out, _ = run_cli(
        capsys, "symmetrize", "message", "nary", "2", "3", "--out", out_path
    )
    assert code == 0
    with open(os.path.join(GOLDEN, "transform-stdout.txt"), encoding="ascii") as fh:
        assert out == fh.read().replace("{out}", out_path)
    with open(os.path.join(GOLDEN, "transform.sha256"), encoding="ascii") as fh:
        digest = fh.read().strip()
    with open(out_path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.mark.parametrize("command", [["verify"], ["symmetrize", "message"]])
def test_unreadable_code_file_is_usage_error(command, tmp_path, capsys):
    text = emit(builtin_table1())
    non_ascii = tmp_path / "non-ascii.pir"
    non_ascii.write_bytes(text.replace("a+b", "a\xe9b").encode("latin-1"))
    for path, message in [
        (non_ascii, f"not an ASCII file: byte 0xe9 at offset {text.index('a+b') + 1}"),
        (tmp_path, "cannot read code file"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(command + [str(path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_symmetrize_variety_to_file(tmp_path, capsys):
    out_path = tmp_path / "sym.pir"
    code, out, _ = run_cli(
        capsys, "symmetrize", "variety", "table1", "--out", str(out_path)
    )
    assert code == 0
    assert "before: rate 2/3" in out
    assert "after:  rate 2/3" in out
    sym = parse(out_path.read_text())
    assert sym.params.msg_len == 2


def test_symmetrize_emits_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "symmetrize", "server", "nary", "2", "2")
    assert code == 0
    body = out[out.index("pir-code") :]
    assert parse(body).params.msg_len == 2


def test_symmetrize_refuses_leaky_base(tmp_path, capsys):
    base = builtin_table1()
    leaky = DecomposableCode(
        params=base.params,
        varieties=base.varieties,
        keys=base.keys,
        query_map={(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (1, 0)},
    )
    path = tmp_path / "leaky.pir"
    save(leaky, path)
    code, _, err = run_cli(capsys, "symmetrize", "variety", str(path))
    assert code == 1
    assert "cannot symmetrize" in err


# ---------------------------------------------------------------- live subcommands


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@contextlib.contextmanager
def _serving(index: int, *extra, env_port: str | None = None):
    """Run `pirlab serve` and yield its address; on every exit path the server
    is stopped and its output pipe closed."""
    env = dict(os.environ)
    env.pop("PIRLAB_PORT", None)
    if env_port is not None:
        env["PIRLAB_PORT"] = env_port
    with subprocess.Popen(
        [sys.executable, "-m", "pirlab", "serve", "--server-index", str(index), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    ) as proc:  # leaving the block closes the pipe and reaps the process
        try:
            line = proc.stdout.readline().strip()
            match = re.fullmatch(rf"server {index} listening on ([\d.]+):(\d+)", line)
            assert match, f"unexpected banner: {line!r}"
            yield match.group(1), int(match.group(2))
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def _run_without_leaks(monkeypatch, body) -> None:
    """Run `body`, then collect its garbage: an unclosed pipe or socket warns."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        body()
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


def test_serve_setup_retrieve_end_to_end(capsys, monkeypatch):
    def body():
        with _serving(0) as first, _serving(1) as second:
            ep_text = ",".join(f"{h}:{p}" for h, p in (first, second))

            code, out, _ = run_cli(
                capsys,
                "setup",
                "--endpoints",
                ep_text,
                "--messages",
                "2",
                "--data",
                "1,0",
            )
            assert code == 0
            assert "installed a = 1" in out
            assert "installed b = 0" in out

            code, out, _ = run_cli(
                capsys,
                "retrieve",
                "--endpoints",
                ep_text,
                "--messages",
                "2",
                "--target",
                "0",
                "--key",
                "1",
            )
            assert code == 0
            assert "key 1" in out
            assert "recovered message 0: 1" in out

    _run_without_leaks(monkeypatch, body)


def test_serve_honors_port_env_and_flag_precedence(monkeypatch):
    def body():
        env_port = _free_port()
        with _serving(0, env_port=str(env_port)) as addr:
            assert addr[1] == env_port

        flag_port = _free_port()
        other_env = _free_port()
        with _serving(0, "--port", str(flag_port), env_port=str(other_env)) as addr:
            assert addr[1] == flag_port  # explicit flag beats the environment

    _run_without_leaks(monkeypatch, body)


@pytest.mark.parametrize(
    "argv,env_port",
    [
        (["--server-index", "0", "--port", "abc"], None),
        (["--server-index", "0", "--port", "65536"], None),
        (["--server-index", "0", "--port", "-1"], None),
        (["--server-index", "0"], "abc"),
        (["--server-index", "0"], "1.5"),
        (["--server-index", "0"], "70000"),
        (["--server-index", "0"], "-5"),
        (["--server-index", "-1"], None),
    ],
    ids=[
        "port-flag-text",
        "port-flag-too-big",
        "port-flag-negative",
        "port-env-text",
        "port-env-fraction",
        "port-env-too-big",
        "port-env-negative",
        "negative-server-index",
    ],
)
def test_serve_bad_input_is_usage_error(argv, env_port, monkeypatch, capsys):
    def no_server(*args, **kwargs):
        raise AssertionError("bad input reached the server")

    monkeypatch.setattr(cli.net, "PirServer", no_server)
    monkeypatch.delenv("PIRLAB_PORT", raising=False)
    if env_port is not None:
        monkeypatch.setenv("PIRLAB_PORT", env_port)
    with pytest.raises(SystemExit) as exc:
        main(["serve", *argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_serve_stops_the_server_on_ctrl_c(monkeypatch, capsys):
    calls = []

    class InterruptedServer:
        address = ("127.0.0.1", 5555)

        def __init__(self, *args):
            pass

        def serve_forever(self):
            calls.append("serve_forever")
            raise KeyboardInterrupt

        def stop(self):
            calls.append("stop")

    monkeypatch.setattr(cli.net, "PirServer", InterruptedServer)
    assert main(["serve", "--server-index", "0", "--port", "0"]) == 0
    assert calls == ["serve_forever", "stop"]
    assert capsys.readouterr().out == "server 0 listening on 127.0.0.1:5555\n"


def test_retrieve_fails_cleanly_without_servers(capsys):
    dead = _free_port()
    code, _, err = run_cli(
        capsys,
        "retrieve",
        "--endpoints",
        f"127.0.0.1:{dead},127.0.0.1:{dead}",
        "--messages",
        "2",
        "--target",
        "0",
        "--key",
        "0",
    )
    assert code == 1
    assert "retrieval failed" in err


def test_retrieve_fails_cleanly_on_an_error_without_a_code(capsys):
    # server 0 gets the all-zero query and replies ERROR with an empty payload
    with scripted_servers(EMPTY_ERROR, EMPTY_ERROR) as endpoints:
        code, _, err = run_cli(
            capsys,
            "retrieve",
            "--endpoints",
            ",".join(f"{host}:{port}" for host, port in endpoints),
            "--messages",
            "2",
            "--target",
            "0",
            "--key",
            "0",
        )
    assert code == 1
    assert err == "retrieval failed: server 0 replied error: empty ERROR payload\n"


def test_setup_validates_endpoint_syntax(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["setup", "--endpoints", "nonsense", "--messages", "2"])
    assert exc.value.code == 2


def test_retrieve_validates_key_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "retrieve",
                "--endpoints",
                "127.0.0.1:1,127.0.0.1:2",
                "--messages",
                "2",
                "--target",
                "0",
                "--key",
                "0,1",
            ]
        )
    assert exc.value.code == 2


def _no_connection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bad input reached the network")

    monkeypatch.setattr(cli.net.socket, "create_connection", refuse)


_LIVE_COMMANDS = {
    "setup": ["setup", "--messages", "2"],
    "retrieve": ["retrieve", "--messages", "2", "--target", "0", "--key", "0"],
}


@pytest.mark.parametrize("command", sorted(_LIVE_COMMANDS))
@pytest.mark.parametrize("port", ["70000", "-1"])
def test_endpoint_port_out_of_range_is_usage_error(command, port, monkeypatch, capsys):
    _no_connection(monkeypatch)
    endpoints = f"127.0.0.1:{port},127.0.0.1:9"
    with pytest.raises(SystemExit) as exc:
        main([*_LIVE_COMMANDS[command], "--endpoints", endpoints])
    assert exc.value.code == 2
    assert "outside 0..65535" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_LIVE_COMMANDS))
def test_shape_beyond_wire_limits_is_usage_error(command, monkeypatch, capsys):
    _no_connection(monkeypatch)
    argv = [*_LIVE_COMMANDS[command], "--endpoints", "127.0.0.1:1,127.0.0.1:2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--modulus", "300"])
    assert exc.value.code == 2
    assert "modulus 300 exceeds wire limit 256" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_LIVE_COMMANDS))
@pytest.mark.parametrize("servers", ["0", "2"])
def test_servers_flag_is_gone_from_live_commands(command, servers, monkeypatch, capsys):
    # the server count is the endpoint count; there is no flag to disagree with it
    _no_connection(monkeypatch)
    argv = [*_LIVE_COMMANDS[command], "--endpoints", "127.0.0.1:1,127.0.0.1:2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--servers", servers])
    assert exc.value.code == 2
    assert "unrecognized arguments: --servers" in capsys.readouterr().err
