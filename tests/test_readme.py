"""README's library example runs as written, and its CLI usage matches the parser."""

import argparse
import os
import re
import subprocess
import sys

from pirlab import cli

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
