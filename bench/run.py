"""aciring benchmark: one run of one workload.

    python3 bench/run.py --workload koszul-n8-gf --seed 1 --seconds 45 --trace 0

Run from the repository root.  Every pass runs in a fresh interpreter
(``bench/worker.py``) against the sources in ``src/``, with its own
temporary cache directory under ``.bench_runs/``.  Passes repeat while the
next one is expected to end within ``--seconds`` (always at least the
workload's ``MIN_PASSES``, one unless stated);
each end-to-end metric is the median over the passes, and ``setup_s`` the
median over several fresh interpreters that only import the package.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics of
the traced one, plus the tracing overhead as traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong output
makes ``correct`` false and the exit code 1; a missing program (no
``src/aciring``) or a bad argument exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, layer_metrics, unit_of
from workloads import DIAGNOSTIC_WORKLOADS, MIN_PASSES, WORKLOADS, plan

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "aciring"
OUT_DIR = ROOT / ".bench_runs"
END_TO_END = {
    "wall_s": "s",
    "table_R_s": "s",
    "table_A_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_PROBES = 9
PASS_TIMEOUT_S = 170
# A trace run (two passes) must stay inside the per-run limit; so must
# --seconds, which only bounds when the next pass may start.
RUN_LIMIT_S = 175


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(seed % 4294967296),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
    )
    env.pop("ACIRING_CACHE_DIR", None)
    return env


def spawn(extra: list[str], env: dict, tag: str, timeout: float) -> dict | None:
    """Run worker.py once; its JSON result, or None if it failed."""
    out = OUT_DIR / f"worker-{os.getpid()}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--out", str(out)]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(started), *extra],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not out.exists():
        print(f"# worker {tag} failed with exit {proc.returncode}:\n{proc.stdout[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    out.unlink()
    return result


def machine(first_pass: dict | None) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
        "blas_threads": len(os.sched_getaffinity(0)),
    }
    if first_pass:
        info.update(first_pass["versions"])
    return info


def source_id() -> dict:
    """The git commit when there is one, and always a hash of the package sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_passes(args, env) -> list[dict | None]:
    """Untraced passes (at least the workload's minimum) while the next is expected
    to fit in --seconds; or, with --trace 1, one untraced and one traced pass
    in a seed-chosen order."""
    passes: list[dict | None] = []
    flags = [1, 0] if args.seed % 2 else [0, 1]
    t0 = time.perf_counter()
    while True:
        k = len(passes)
        trace = flags[k] if args.trace else 0
        left = RUN_LIMIT_S - (time.perf_counter() - t0)
        extra = ["--workload", args.workload, "--seed", str(args.seed), "--pass-id", f"{args.seed}.{k}", "--trace", str(trace)]
        try:
            result = spawn(extra, env, f"pass{k}", min(PASS_TIMEOUT_S, max(left, 1.0)))
        except subprocess.TimeoutExpired:
            print(f"# pass {k} timed out", file=sys.stderr)
            result = None
        if result is not None:
            result["traced"] = trace
        passes.append(result)
        if result is None:
            break
        elapsed = time.perf_counter() - t0
        if args.trace:
            if len(passes) == 2:
                break
            continue
        if len(passes) >= MIN_PASSES.get(args.workload, 1) and elapsed + elapsed / len(passes) > args.seconds:
            break
    return passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + DIAGNOSTIC_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no aciring package at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env(args.seed)

    # The first import in a fresh checkout also compiles the bytecode: not timed.
    setups: list[float] = []
    for k in range(SETUP_PROBES + 1):
        probe = spawn(["--probe"], env, f"probe{k}", 60)
        if probe is None:
            print("error: the aciring package does not import", file=sys.stderr)
            return 2
        if k:
            setups.append(probe["setup_s"])

    passes = run_passes(args, env)
    good = [p for p in passes if p is not None]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    setups.extend(p["setup_s"] for p in good)
    samples: dict[str, list[float]] = {
        "wall_s": [p["wall_s"] for p in untraced],
        "table_R_s": [t for p in untraced for t in p["times"].get("table_R_s", [])],
        "table_A_s": [t for p in untraced for t in p["times"].get("table_A_s", [])],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "setup_s": setups,
    }

    # one failed operation per wrong output, per crashed pass and per failed run-level check
    failures = [f for p in good for f in p["failures"]]
    failures += ["a pass crashed or timed out"] * (len(passes) - len(good))
    attempted = sum(p["attempted"] for p in good) + len(passes) - len(good)
    split = {}
    if args.trace:
        run_checks = run_level_checks(args.workload, good, traced, untraced)
        attempted += len(run_checks)
        failures += [name for name, ok in run_checks if not ok]
        layers = {}
        if traced and untraced:
            layers = layer_metrics(traced[0]["trace"])
            layers["trace.wall_s"] = traced[0]["wall_s"]
            layers["trace.overhead_s"] = traced[0]["wall_s"] - untraced[0]["wall_s"]
            layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced[0]["wall_s"]
            split = layer_split(args.workload, traced[0]["trace"]["self_s"])
        metrics = {m: {"value": layers[m], "unit": unit_of(m)} for m in PER_LAYER if m in layers}
        expected = len(PER_LAYER)
    else:
        metrics = {m: {"value": statistics.median(samples[m]), "unit": u} for m, u in END_TO_END.items() if samples[m]}
        expected = len(END_TO_END)
    correct = not failures and len(metrics) == expected

    plan_ = plan(args.workload, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "prime": plan_["prime"],
        "order": plan_["order"],
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "samples": {k: len(v) for k, v in samples.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "machine": machine(good[0] if good else None),
        "source": source_id(),
        "metrics": metrics,
        "split": split,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print_human(report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


# Spans a workload must reach, or the trace wrappers are not bound where the work happens.
REQUIRED_SPANS = {
    "koszul-n8-gf": ("linalg.gf_rank", "linalg.gf_matmul", "linalg.sparse_rank", "resolution.ci_differential"),
    "koszul-n8-qq": ("linalg.qq_rank", "linalg.sparse_rank", "resolution.ci_differential", "groebner.normal_form"),
    "verify-n7-cli": (
        "cache.lookup",
        "cache.store",
        "verify.run_suite",
        "cli.main",
        "groebner.normal_form",
        "linalg.sparse_rank",
        "linalg.qq_rank",
    ),
}
# The layer expected to dominate self time on each workload at the baseline commit.
SPLIT = {
    "koszul-n8-gf": ("linalg.gf_rank", "linalg.gf_matmul"),
    "koszul-n8-qq": ("linalg.sparse_rank", "linalg.qq_rank"),
    "verify-n7-cli": ("groebner.normal_form",),
}


def run_level_checks(workload: str, good: list, traced: list, untraced: list) -> list[tuple[str, bool]]:
    checks = [("a traced and an untraced pass both completed", bool(traced) and bool(untraced))]
    checks.append(("traced and untraced outputs are equal", len({p["digest"] for p in good}) == 1))
    calls = traced[0]["trace"]["calls"] if traced else {}
    for name in REQUIRED_SPANS[workload]:
        checks.append((f"{name} recorded calls", calls.get(name, 0) > 0))
    return checks


def layer_split(workload: str, self_s: dict) -> dict:
    """Self time of the workload's expected dominant group against the largest other span."""
    group = SPLIT[workload]
    ours = sum(self_s.get(name, 0.0) for name in group)
    rest = max((v for k, v in self_s.items() if k not in group), default=0.0)
    return {"group": list(group), "self_s": ours, "largest_other_s": rest, "largest": ours > rest}


def print_human(report: dict) -> None:
    print(
        f"# {report['workload']}  seed={report['seed']}  prime={report['prime']}  "
        f"order={','.join(report['order'])}  passes={report['passes']}  trace={report['trace']}"
    )
    for name, m in report["metrics"].items():
        n = report["samples"].get(name)
        count = f"  samples={n}" if n is not None else ""
        print(f"#   {name:40s} {m['value']:>16.6g} {m['unit']}{count}")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"#   {'fail_ratio':40s} {ratio:>16.6g} 1  ({report['failed']} failed / {report['attempted']} attempted)")
    for failure in report["failures"][:20]:
        print(f"#   FAILED {failure}")
    s = report["split"]
    if s:
        verdict = "largest" if s["largest"] else "not largest"
        print(f"#   split: {'+'.join(s['group'])} self {s['self_s']:.3f} s, {verdict} (next {s['largest_other_s']:.3f} s)")
    print(f"#   machine {json.dumps(report['machine'])}")
    print(f"#   source {json.dumps(report['source'])}")


if __name__ == "__main__":
    sys.exit(main())
