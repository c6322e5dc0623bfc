"""The three benchmark workloads, run as one pass in the current process.

Every operation goes through aciring's public API (or ``aciring.cli.main``)
and every output is checked against the frozen references in
``refs.json``, never only against code from the package under test.

* ``koszul-n8-gf``: Koszul Betti tables of R and A at n=8 over GF(p); the
  seed picks p from ``refs.json``'s ``primes``.  R always runs first: A
  costs about 15% more when it comes first, and a seed-chosen order would
  turn that into run-to-run spread.
* ``koszul-n8-qq`` (diagnostic only): the same two tables over QQ, the seed
  picks the order.
* ``verify-n7-cli``: the n=7 CLI tables, each twice (cache miss with store,
  then cache hit) in a fresh cache directory, then
  ``verify --suite all --n-range 2..7``; the seed picks the order of the
  tables within each round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFS = json.loads((BENCH_DIR / "refs.json").read_text())
# The workloads BENCHMARK.json lists.  koszul-n8-qq is kept runnable as a
# diagnostic for changes to the rational elimination path, but is not one of
# them: on a shared 2-CPU machine its ten-seed spread reached 0.20-0.24,
# against a bound that may not exceed 0.25.
WORKLOADS = ("koszul-n8-gf", "verify-n7-cli")
DIAGNOSTIC_WORKLOADS = ("koszul-n8-qq",)
# Passes a run makes at least.  One verify-n7-cli pass is mostly single-
# threaded Python, whose speed drifts with the machine's load over tens of
# seconds, so its run covers two passes.
MIN_PASSES = {"verify-n7-cli": 2}

CLI_TABLES = {
    "betti-R-n7": ["betti", "--ring", "R", "--n", "7", "--cross-check", "--format", "json"],
    "betti-A-n7": ["betti", "--ring", "A", "--n", "7", "--cross-check", "--format", "json"],
    "hilbert-A-n2..8": ["hilbert", "--ring", "A", "--n-range", "2..8", "--cross-check", "--format", "json"],
}
VERIFY_ARGV = ["verify", "--suite", "all", "--n-range", "2..7", "--format", "json"]
# The n=7 Betti tables take under two seconds each, so one timing is at the
# mercy of a single pause; they run in ROUNDS rounds, each in a fresh cache
# directory, and the run reports the median miss time.  The verify suite
# runs last so that the table timings never see the heap it leaves behind.
ROUNDS = 3
TIMED_TABLES = {"betti-R-n7": "table_R_s", "betti-A-n7": "table_A_s"}


def plan(workload: str, seed: int) -> dict:
    """The inputs one seed gives: the prime (GF only) and the order of the operations."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-n7-cli":
        rounds = [list(CLI_TABLES)] + [list(TIMED_TABLES) for _ in range(ROUNDS - 1)]
        for commands in rounds:
            rng.shuffle(commands)
        return {"order": [*(f"{r}:{c}" for r, cmds in enumerate(rounds) for c in cmds), "verify"], "prime": None}
    if workload == "koszul-n8-gf":
        return {"order": ["R", "A"], "prime": rng.choice(REFS["primes"]["pinned"])}
    order = ["R", "A"]
    rng.shuffle(order)
    return {"order": order, "prime": 0}


class Pass:
    """Operations of one pass: timings, checks and canonical outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}  # end-to-end metric -> its timings
        self.outputs: dict[str, object] = {}

    def check(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{op}: {detail}" if detail else op)

    def span(self, name: str):
        return self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()

    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _entries(table) -> list:
    return [[i, j, v] for (i, j), v in sorted(table.entries.items())]


def run_koszul(ps: Pass, plan_: dict) -> None:
    from aciring import GF, QQ, hilbert_function, koszul_betti, named_quotient

    p = plan_["prime"]
    field = GF(p) if p else QQ
    for ring in plan_["order"]:
        t0 = time.perf_counter()
        with ps.span(f"table_{ring}"):
            q = named_quotient(ring, 8, field)
            table = koszul_betti(q)
            got = _entries(table)
        ok = got == REFS["betti_n8"][ring] and table.characteristic == p
        ps.times[f"table_{ring}_s"] = [time.perf_counter() - t0]
        ps.check(f"betti-{ring}-n8", ok, f"got {got}")
        h = hilbert_function(q)
        ps.check(f"hilbert-{ring}-n8", h == REFS["hilbert"][ring]["8"], f"got {h}")
        ps.outputs[f"betti-{ring}-n8"] = got
        ps.outputs[f"hilbert-{ring}-n8"] = h


def _cli(argv):
    from aciring.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _payload(ps: Pass, op: str, code, text: str, err: str, schema_name: str):
    """Parse and schema-check one CLI payload; None (and a failure) if unusable."""
    import jsonschema

    if code != 0:
        ps.check(op, False, f"exit {code}: {err.strip()[-300:]}")
        return None
    try:
        payload = json.loads(text)
        schema = json.loads((BENCH_DIR.parent / "src" / "aciring" / "schemas" / schema_name).read_text())
        jsonschema.validate(payload, schema)
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        ps.check(op, False, f"invalid payload: {str(exc)[:300]}")
        return None
    return payload


def _cache_state(directory: Path) -> dict:
    return {f.name: f.stat().st_mtime_ns for f in directory.iterdir()}


def _run_verify(ps: Pass) -> None:
    code, text, err, _ = _cli(VERIFY_ARGV)
    payload = _payload(ps, "verify", code, text, err, "verify.schema.json")
    if payload is None:
        return
    got = [[c["check"], c["n"], c["expected"], c["computed"]] for c in payload["checks"]]
    ps.check("verify", payload["pass"] and len(got) == len(REFS["verify_n7"]), "suite did not pass in full")
    for c, ref in zip(payload["checks"], REFS["verify_n7"]):
        rec = [c["check"], c["n"], c["expected"], c["computed"]]
        ps.check(f"verify:{c['check']}:n={c['n']}", c["pass"] and rec == ref, f"got {rec}, want {ref}")
    ps.outputs["verify"] = got


def _run_table(ps: Pass, op: str, cache_dir: Path) -> None:
    """One CLI table twice: the first call must miss and store, the second hit."""
    schema = "betti.schema.json" if op.startswith("betti") else "hilbert.schema.json"
    before = _cache_state(cache_dir)
    code, text, err, seconds = _cli(CLI_TABLES[op])
    if op in TIMED_TABLES:
        ps.times.setdefault(TIMED_TABLES[op], []).append(seconds)
    miss = _payload(ps, f"{op}:miss", code, text, err, schema)
    stored = _cache_state(cache_dir)
    if miss is not None:
        ps.check(f"{op}:miss", miss == REFS["cli"][op], f"payload differs from reference: {text[:300]}")
        ps.check(f"{op}:store", len(stored) == len(before) + 1, "the miss stored no cache entry")
    code, hit_text, err, _ = _cli(CLI_TABLES[op])
    hit = _payload(ps, f"{op}:hit", code, hit_text, err, schema)
    if hit is not None:
        ok = hit_text == text and _cache_state(cache_dir) == stored
        ps.check(f"{op}:hit", ok, "cache hit differs from its miss, or was recomputed and stored again")
    ps.outputs[op] = [text, hit_text]


def run_cli(ps: Pass, plan_: dict, scratch: Path) -> None:
    old = os.environ.get("ACIRING_CACHE_DIR")
    cache_dirs: dict[str, Path] = {}
    try:
        for step in plan_["order"]:
            with ps.span(step.split(":")[-1]):
                if step == "verify":
                    _run_verify(ps)
                    continue
                rnd, op = step.split(":")
                if rnd not in cache_dirs:
                    cache_dirs[rnd] = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
                    os.environ["ACIRING_CACHE_DIR"] = str(cache_dirs[rnd])
                _run_table(ps, op, cache_dirs[rnd])
    finally:
        if old is None:
            os.environ.pop("ACIRING_CACHE_DIR", None)
        else:
            os.environ["ACIRING_CACHE_DIR"] = old
        for directory in cache_dirs.values():
            shutil.rmtree(directory, ignore_errors=True)


def run_pass(workload: str, seed: int, scratch: Path, tracer=None) -> Pass:
    ps = Pass(tracer)
    plan_ = plan(workload, seed)
    if workload == "verify-n7-cli":
        run_cli(ps, plan_, scratch)
    else:
        run_koszul(ps, plan_)
    return ps
