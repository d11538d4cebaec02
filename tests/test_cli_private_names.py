"""The command line and the scripts call only the public names of the
library's modules.

A charge, a check or a helper that `cli` or a script needs belongs to the
module whose work it is, under a public name; a front end reaching for
another module's underscore-prefixed name means a policy has leaked into it.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FRONT_ENDS = [os.path.join(ROOT, "src", "pirlab", "cli.py")]
FRONT_ENDS += sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """`line: module.name` for every private name of another pirlab module
    that `source` imports or reads as an attribute of that module."""
    tree = ast.parse(source)
    modules = set()  # local names bound to pirlab modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            pirlab = node.level > 0 or (node.module or "").split(".")[0] == "pirlab"
            if not pirlab:
                continue
            for alias in node.names:
                if node.module in (None, "pirlab"):  # `from . import analysis`
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    out.append(f"{node.lineno}: {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pirlab":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            out.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(out, key=lambda use: int(use.split(":")[0]))


@pytest.mark.parametrize("path", FRONT_ENDS, ids=os.path.basename)
def test_cli_names_no_private_name_of_another_module(path):
    with open(path, encoding="utf-8") as fh:
        assert private_uses(fh.read()) == []


def test_the_scan_sees_private_imports_and_attributes():
    source = (
        "from . import analysis, nary as n\n"
        "from .analysis import _require_within_cap, verify\n"
        "import pirlab.symmetry\n"
        "analysis._require_within_cap(1, 2)\n"
        "n._query_digits\n"
        "analysis.verify\n"
        "analysis.__name__\n"
        "local._private\n"
    )
    assert private_uses(source) == [
        "2: analysis._require_within_cap",
        "4: analysis._require_within_cap",
        "5: n._query_digits",
    ]
