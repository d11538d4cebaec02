"""scripts/reproduce_tables.py runs and its report is byte-stable."""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "reproduce_tables.py")

# SHA-256 of the script's stdout at its default grid
STDOUT_SHA256 = "11a94a02ee941d66326a7fff99a0c5082bf0bb6cc892e47ae57d2b8814cf280c"


def test_reproduce_tables_output_is_byte_stable():
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, SCRIPT],
        capture_output=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256
