"""README's library example runs as written, its CLI usage matches the parser,
and its kill matrix matches the mutant corpus."""

import argparse
import itertools
import os
import re
import subprocess
import sys

from pirlab import cli
from pirlab.analysis import DEFAULT_CAP, verify, verify_correctness
from pirlab.model import builtin_table1
from test_mutants import BASE_CODES, FAMILIES, mutants

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _subcommand_parsers():
    (subparsers,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices


def test_readme_cli_usage_matches_the_parser():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"^## Command line\n\n```\n(.*?)^```$", text, re.M | re.S)
    documented = {}
    for line in block.splitlines():
        command, rest = re.fullmatch(r"pirlab (\w+)\s+(.*)", line).groups()
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    actual = {
        command: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for command, parser in _subcommand_parsers().items()
    }
    assert documented == actual


def _kill_matrix_rows():
    """README's kill matrix, recomputed: per base code and family, each
    check's `fails/only` counts over the mutants without a decoder, then how
    many correctness fails when the base code's decoder is kept."""
    checks = list(dict.fromkeys(r.name for r in verify(builtin_table1(), DEFAULT_CAP)))
    rows = [
        ["code", "family", "mutants", *checks, "correctness, decoder kept"],
        ["---"] * (len(checks) + 4),
    ]
    for name, family in itertools.product(BASE_CODES, FAMILIES):
        failed = [
            {r.name for r in verify(m, DEFAULT_CAP) if not r.passed}
            for m in mutants(BASE_CODES[name](), family)
        ]
        decoded = [verify_correctness(m) for m in mutants(BASE_CODES[name](), family, decoder=True)]
        rows.append(
            [f"`{name}`", family, str(len(failed))]
            + [f"{sum(c in f for f in failed)}/{sum(f == {c} for f in failed)}" for c in checks]
            + [str(sum(not r.passed for r in decoded))]
        )
    return rows


def test_readme_kill_matrix_matches_the_mutant_corpus():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    lines = re.findall(r"^\| code \|.*?\n(?=[^|])", text, re.M | re.S)
    assert len(lines) == 1
    documented = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[0].splitlines()]
    assert documented == _kill_matrix_rows()
