"""Run the benchmark over many seeds and summarize it as a baseline.

    python3 bench/capture.py --seeds 1-10 --trace-seeds 1 --out bench/baseline.json

Runs ``run.py`` for every workload and seed (seed-major, so slow drift in
the machine's load spreads over all workloads), then the traced runs.  For
each end-to-end metric it reports the median, the quartiles and the spread
(interquartile range / median), and flags any spread above a third of the
metric's bound in ``BENCHMARK.json``.  Per-layer values are medians over
the traced runs.  Any wrong output stops it with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_runs" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-3000:]}{proc.stderr[-2000:]}")
    return {"values": {k: m["value"] for k, m in result["metrics"].items()}, "report": report}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    listed = {w["name"] for w in spec["workloads"]}

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds_of(args.seeds):
        for w in args.workloads:
            runs[w].append(one_run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {runs[w][-1]['values']}", flush=True)
    traced: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds_of(args.trace_seeds) if args.trace_seeds else []:
        for w in args.workloads:
            traced[w].append(one_run(w, seed, seconds, 1))

    out = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for w in args.workloads:
        e2e = {m: summary([r["values"][m] for r in runs[w]]) for m in bounds}
        entry = {"in_benchmark_json": w in listed, "seeds": args.seeds, "end_to_end": e2e}
        for m, s in e2e.items():
            flag = ""
            if m != "setup_s" and s["spread"] > bounds[m] / 3:
                flag, steady = "  <-- above a third of the bound", False
            per_run = runs[w][0]["report"]["samples"][m]
            print(
                f"{w:14s} {m:12s} {units[m]:3s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                f"spread {s['spread']:.4f} (bound {bounds[m]})  runs {len(s['values'])} x {per_run} samples{flag}"
            )
        attempted = sum(r["report"]["attempted"] for r in runs[w] + traced[w])
        failed = sum(r["report"]["failed"] for r in runs[w] + traced[w])
        print(f"{w:14s} {'fail_ratio':12s} 1   {failed / attempted:g} ({failed} failed / {attempted} attempted)")
        entry["fail_ratio"] = {"failed": failed, "attempted": attempted}
        if traced[w]:
            layers = {m: statistics.median(r["values"][m] for r in traced[w]) for m in traced[w][0]["values"]}
            entry["trace_seeds"] = args.trace_seeds
            entry["per_layer"] = layers
            entry["split"] = traced[w][0]["report"]["split"]
        out["workloads"][w] = entry
        first = (runs[w] or traced[w])[0]["report"]
        out["machine"], out["source"] = first["machine"], first["source"]
        if w == "koszul-n8-gf":
            entry["primes"] = sorted({r["report"]["prime"] for r in runs[w]})
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
