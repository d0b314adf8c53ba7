import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `install` rewraps docprune's module functions for the whole process, so the
# probe runs in its own interpreter.
PROBE = (
    "import sys; sys.path.insert(0, 'perfbench'); import tracer; "
    "tracer.install(tracer.Tracer('probe'))"
)


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/tracer.py wraps docprune functions by name; a rename or
    deletion of one of them must fail here, not only in a traced benchmark run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
