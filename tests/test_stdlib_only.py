"""The package stays stdlib-only: it imports nothing outside the standard
library and declares no dependencies."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Runs without `site` (-S), so no .pth file imports anything first; the
# installed packages stay importable, so a third-party import would load.
_PROBE = """
import importlib, site, sys
sys.path[:0] = [sys.argv[1], *site.getsitepackages()]
for name in sys.argv[2:]:
    importlib.import_module(name)
loaded = {name.partition(".")[0] for name in sys.modules} - {"__main__"}
print(" ".join(sorted(loaded - {"pirlab"} - set(sys.stdlib_module_names))))
"""


def test_every_module_imports_only_the_standard_library():
    modules = [
        "pirlab" if path.stem == "__init__" else f"pirlab.{path.stem}"
        for path in sorted((SRC / "pirlab").glob("*.py"))
        if path.stem != "__main__"  # running it would start the CLI
    ]
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE, str(SRC), *modules],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "pirlab.cli" in modules
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
