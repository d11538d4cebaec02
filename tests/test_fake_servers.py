"""The wire tests' fake servers live in one helper.

Every fake server in `tests/test_net.py` is a peer script played by
`_scripted`, the only function there that accepts a connection.  An ad-hoc
fake (a function with its own `listener.accept()`) fails this test until it
is moved onto `scripted_servers`.
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
HELPER = "_scripted"


def _accept_callers(node, function=None) -> list:
    """The innermost enclosing function of every `.accept()` call under `node`,
    in file order; `None` for a call outside any function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    callers = []
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "accept":
        callers.append(function)
    for child in ast.iter_child_nodes(node):
        callers += _accept_callers(child, function)
    return callers


def test_only_the_fake_server_helper_accepts_connections():
    with open(os.path.join(HERE, "test_net.py"), encoding="utf-8") as fh:
        callers = _accept_callers(ast.parse(fh.read()))
    assert callers == [HELPER], f"fake servers outside {HELPER}: {callers}"
