"""Self-tests of the benchmark: trace bindings, layer coverage, output checks.

    python3 -m pytest -q bench/tests

The traced-run test starts one trace run per workload (a few minutes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_every_binding_is_wrapped():
    proc = _python(
        "import aciring, aciring.resolution as r, aciring.linalg as la, aciring.quotient as q\n"
        "from tracer import Tracer, unbound_originals\n"
        "t = Tracer('test'); t.install()\n"
        "assert unbound_originals(t) == [], unbound_originals(t)\n"
        "for f in (aciring.koszul_betti, r.sparse_rank, q.gf_matmul, r.kernel_basis, la.Echelon.insert,\n"
        "          q.QuotientRing.__init__, aciring.normal_form, aciring.gorenstein.normal_form):\n"
        "    assert f.__wrapped__ is not f, f\n"
        "print('ok')\n"
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_a_missed_binding_is_reported():
    proc = _python(
        "import aciring, aciring.resolution as r\n"
        "from tracer import Tracer, unbound_originals\n"
        "t = Tracer('test'); t.install()\n"
        "r.sparse_rank = r.sparse_rank.__wrapped__\n"
        "print(unbound_originals(t))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['aciring.resolution.sparse_rank']"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [tracer.unit_of(m) for m in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_wrong_cli_payload_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("ACIRING_CACHE_DIR", str(tmp_path))
    ref = json.loads(json.dumps(workloads.REFS["cli"]["betti-R-n7"]))
    ref["results"][0]["koszul"][1]["value"] += 1
    monkeypatch.setitem(workloads.REFS["cli"], "betti-R-n7", ref)
    ps = workloads.Pass()
    workloads._run_table(ps, "betti-R-n7", tmp_path)
    assert ps.attempted == 3
    assert [f.split(":")[0:2] for f in ps.failures] == [["betti-R-n7", "miss"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "koszul-n8-gf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.DIAGNOSTIC_WORKLOADS)
def test_traced_run_reaches_required_layers_and_matches_untraced(workload):
    """run.py's trace mode fails when a required span records no calls or outputs differ."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"], proc.stdout[-3000:]
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
