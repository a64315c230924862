"""The benchmark's per-layer tracer must wrap every traced function binding."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_self_test_wraps_every_binding():
    # renaming or deleting a traced function must not leave a binding the
    # tracer cannot see; the self-test exits 1 and names it if one does
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "tracing.py")],
                       capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    assert "all bindings wrapped" in r.stdout
