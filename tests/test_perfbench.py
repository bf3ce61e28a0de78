"""The benchmark harness in perfbench/ patches maploc names where their
callers look them up. Its smoke run fails when a hooked name moves or stops
firing, so a refactor that breaks the traced benchmark fails here first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
