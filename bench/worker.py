"""One benchmark pass, or one set-up probe, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON it writes to
``--out``.  ``--spawned-at`` is the parent's ``time.perf_counter()`` just
before the start; on Linux that clock is system-wide, so set-up time is
measured from before the interpreter exists to ``import aciring`` finishing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true", help="only time the import")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pass-id", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    import aciring

    setup_s = time.perf_counter() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if not args.probe:
        result.update(run(args, aciring))
    Path(args.out).write_text(json.dumps(result))
    return 0


def run(args, aciring) -> dict:
    import numpy

    import workloads

    tracer = None
    missed: list[str] = []
    if args.trace:
        from tracer import Tracer, unbound_originals

        tracer = Tracer(args.pass_id)
        tracer.install()
        missed = unbound_originals(tracer)

    scratch = Path(args.out).parent
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    ps = workloads.run_pass(args.workload, args.seed, scratch, tracer)
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    failures = list(ps.failures)
    if missed:
        failures.append("trace wrappers not bound at " + ", ".join(missed))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "times": ps.times,
        "attempted": ps.attempted + (tracer is not None),  # the binding check counts as one
        "failures": failures,
        "digest": ps.digest(),
        "versions": {
            "aciring": aciring.__version__,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "blas": {k: v for k, v in blas.items() if k in ("name", "version", "openblas configuration")},
        },
    }
    if tracer is not None:
        self_s, calls = tracer.self_times()
        out["trace"] = {"self_s": self_s, "calls": calls, "counters": dict(tracer.counters), "spans": len(tracer.span_start)}
        tracer.dump(scratch / f"spans-{args.workload}.json")
    return out


if __name__ == "__main__":
    sys.exit(main())
