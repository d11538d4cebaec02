"""Every library name kept only for the benchmark tracer is one it patches.

A name marked as kept for `perfbench/tracing.py` (an unused import with the
marker comment, or a class or function whose docstring names the tracer) has
no caller of its own.  Once the tracer stops patching it, this test fails
until the name is deleted.
"""

import ast
import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "pirlab")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402

TRACER = "perfbench/tracing.py"
MARK = f"# noqa: F401  unused; {TRACER} patches it here"


def _kept_for_tracer():
    """(module, name, node) of every name the library keeps for the tracer alone."""
    out = []
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            source = fh.read()
        if TRACER not in source:
            continue
        module = importlib.import_module(f"pirlab.{filename[:-3]}")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                if any(MARK in line for line in lines[node.lineno - 1 : node.end_lineno]):
                    out.extend((module, alias.asname or alias.name, node) for alias in node.names)
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if TRACER in (ast.get_docstring(node) or ""):
                    out.append((module, node.name, node))
    return out


def _patched():
    """The (owner, attribute) pairs that installing the tracer replaces."""
    tracer = tracing.Tracer()
    try:
        tracer.install()
        return [(owner, attr) for owner, attr, _ in tracer._saved]
    finally:
        tracer.uninstall()


def test_every_name_kept_for_the_tracer_is_patched_by_it():
    patched = _patched()
    owners = [owner for owner, _ in patched]
    for module, name, _ in _kept_for_tracer():
        # a module global the tracer replaces, or a class whose attribute it replaces
        obj = getattr(module, name)
        assert (module, name) in patched or any(obj is owner for owner in owners), (
            f"{module.__name__}.{name} is kept for the tracer, which no longer patches it"
        )


def test_the_scan_sees_every_mention_of_the_tracer():
    # one name per line that names the tracer, so no marked name slips past
    mentions = 0
    for filename in os.listdir(SRC):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
                mentions += sum(TRACER in line for line in fh)
    assert len(_kept_for_tracer()) == mentions


def test_a_class_kept_for_the_tracer_defines_only_what_it_patches():
    # its docstring and the attributes the tracer replaces, so it cannot grow back
    patched = _patched()
    for module, name, node in _kept_for_tracer():
        if not isinstance(node, ast.ClassDef):
            continue
        owner = getattr(module, name)
        replaced = {attr for obj, attr in patched if obj is owner}
        assert not node.decorator_list, f"{module.__name__}.{name} is decorated"
        for statement in node.body[1:]:  # the first is the docstring
            defined = getattr(statement, "name", None)
            assert defined in replaced, (
                f"{module.__name__}.{name} defines more than the tracer patches: "
                f"{ast.unparse(statement).splitlines()[0]}"
            )
