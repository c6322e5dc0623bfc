"""The benchmark's tracer still finds every package name it wraps.

``bench/tracer.py`` rebinds functions and methods of the package by name, so
renaming or deleting one of them breaks ``bench/run.py --trace 1``.  The
full ``bench/tests`` suite takes minutes; its binding check takes seconds
and runs here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_benchmark_binding_is_wrapped():
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "bench/tests/test_bench.py::test_every_binding_is_wrapped",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
