"""The benchmark's tracer still finds every package name it wraps, and reads
the shapes it counts.

``bench/tracer.py`` rebinds functions and methods of the package by name, so
renaming or deleting one of them breaks ``bench/run.py --trace 1``; its hooks
also count the entries of what some of them take and return, and
``bench/run.py`` requires each workload's layers to record calls.  The
binding check takes seconds, and the traced run of each workload, which
compares its outputs with an untraced run, about twenty; both run here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_test(node: str, timeout: int) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"bench/tests/test_bench.py::{node}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_benchmark_binding_is_wrapped():
    _bench_test("test_every_binding_is_wrapped", 300)


def test_traced_benchmark_runs_reach_their_layers_and_match_untraced():
    _bench_test("test_traced_run_reaches_required_layers_and_matches_untraced", 600)
