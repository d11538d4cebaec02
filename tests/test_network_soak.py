"""Smoke test of scripts/network_soak.py against live loopback servers."""

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from pirlab.analysis import expected_answer_lengths
from pirlab.nary import export_decomposable, make_nary
from pirlab.net import RetrievalError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "network_soak.py")


def load_soak():
    spec = importlib.util.spec_from_file_location("network_soak", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, k, m", [(2, 1, 2), (2, 3, 2), (3, 2, 5), (3, 3, 2), (4, 3, 3)])
def test_expected_download_matches_the_exported_code(n, k, m):
    # the script's closed form against the verifier's tabulated expectation
    code = make_nary(n, k, m)
    tabulated = sum(expected_answer_lengths(export_decomposable(code)), Fraction(0))
    assert load_soak().expected_download(code) == tabulated


@pytest.mark.parametrize(
    "args, download",
    [
        (["--rounds", "200"], "expected 2.8889"),
        (
            ["--servers", "3", "--messages", "1000", "--modulus", "256", "--rounds", "30"],
            "observed 3.0000, expected 3.0000",
        ),
    ],
    ids=["defaults", "wide"],
)
def test_network_soak_recovers_every_message(args, download):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, SCRIPT, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 failures" in proc.stdout
    assert download in proc.stdout


def test_network_soak_counts_a_failed_retrieval_and_goes_on(monkeypatch, capsys):
    soak = load_soak()
    real = soak.client_retrieve
    calls = []

    def fail_the_third(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise RetrievalError("server 1 closed the connection")
        return real(*args, **kwargs)

    monkeypatch.setattr(soak, "client_retrieve", fail_the_third)
    monkeypatch.setattr(sys, "argv", ["network_soak.py", "--rounds", "10"])
    assert soak.main() == 1
    out = capsys.readouterr().out
    assert "failed: server 1 closed the connection" in out
    assert out.count("round 2: retrieval of message") == 1
    assert "10 retrievals in" in out and ", 1 failures" in out
    assert "download/round: observed" in out
    assert len(calls) == 10
