"""Byte-identity of the CLI between two source trees.

Runs every argv of a fixed corpus as ``python -m aciring`` against two
checkouts of this repository, each run in a fresh cache directory, home and
working directory, and compares stdout, stderr, the exit code and the
``--out`` file.  Timings are masked first: the ``runtime_ms`` values of
``verify --format json`` and the ``(N ms)`` of its text form.

    python tools/cli_identity.py OLD_TREE NEW_TREE

A tree is a directory holding ``src/aciring``.  Each argv runs twice in the
same directories: first as a cache miss, then as the cache hit that reads what
the first run wrote.  A run that exceeds the timeout is recorded as an outcome
of its own and reported as a difference, on either tree.  Exits 0
when every run is identical, 1 otherwise; each difference is printed.  The
corpus takes a few minutes per tree, two argvs at a time.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_JOBS = 2
_TIMEOUT_S = 900
_TIMINGS = (
    (re.compile(r'"runtime_ms": [0-9.eE+-]+'), '"runtime_ms": 0'),
    (re.compile(r"\(\d+ ms\)"), "(N ms)"),
)


def corpus() -> list[str]:
    """The argvs, one shell-quoted string each, without the leading ``aciring``."""
    out = [
        # the README's example lines
        "hilbert --ring R --n 5",
        "hilbert --ring A --n-range 2..8 --format csv",
        "hilbert --ring R --n 6 --cross-check",
        "betti --ring A --n 5",
        "betti --ring R --n 8 --char 32003 --method koszul",
        "sequence rho --n 6",
        "gorenstein --n 4 --format json",
        "verify --suite all --n-range 2..5",
    ]
    # degree caps on the quotient route: complete, refused (exit 3) and in between
    for ring in "PRA":
        for n in (4, 5):
            out += [f"hilbert --ring {ring} --n {n} --method quotient --degree-cap {k} --no-cache" for k in range(11)]
    # the smallest caps at the smallest n, where a ring's relations may be monomials
    for ring in "PRA":
        for n in (2, 3):
            out += [f"hilbert --ring {ring} --n {n} --method quotient --degree-cap {k} --no-cache" for k in (-1, 0, 1)]
    # every table layout: hilbert and betti by both methods, plain and cross-checked
    for command, rings, computed in (("hilbert", "PRA", "quotient"), ("betti", "RA", "koszul")):
        for ring in rings:
            for ns in ("--n 4", "--n-range 3..5"):
                for fmt in ("text", "json", "csv"):
                    for method in ("formula", computed):
                        for cross in ("", " --cross-check"):
                            out.append(f"{command} --ring {ring} {ns} --method {method} --format {fmt}{cross}")
    for kind in ("rho", "gamma"):
        for ns in ("--n 4", "--n-range 3..8"):
            out += [f"sequence {kind} {ns} --format {fmt}" for fmt in ("text", "json", "csv")]
    out += [
        "gorenstein --n 4",
        "gorenstein --n 4 --char 7",
        "gorenstein --n-range 2..6 --char 7",
        *(f"gorenstein --n-range 2..7 --format {fmt}{char}" for fmt in ("text", "json") for char in ("", " --char 101", " --char 7")),
        "verify --suite all --n-range 2..7",
        "verify --suite all --n-range 2..7 --format json",
        "verify --suite all --n-range 2..7 --format json --char 32003",
        "verify --suite ezd",
        "verify --suite ezd --format json",
        "verify",
        "betti --ring R --n 4 --char 0 --format json",
        "hilbert --ring A --n 5 --method quotient --char 0",
        "betti --ring A --n 7 --char 0 --cross-check",
        *(f"betti --ring {r} --n 5 --method koszul --degree-cap {k}" for r in "RA" for k in (2, 4)),
        *(f"betti --ring {r} --n 8 --method koszul --char 32003 --no-cache" for r in "RA"),
        "betti --ring A --n 8 --method koszul --char 32003 --format json",
        "betti --ring R --n-range 2..3 --format csv --char 4",
        # --out: a file, a missing directory, a directory
        "betti --ring R --n 4 --out out.txt",
        "sequence rho --n 4 --no-cache --out missing/x.txt",
        "verify --suite groebner --out .",
        # usage errors (exit 2), help and version
        "hilbert --ring R --n 1",
        "hilbert --ring R --n-range 4..2",
        "hilbert --ring R --n-range nope",
        "hilbert --ring R --n 5 --char 10",
        "hilbert --ring R --n 5 --char 5",
        "hilbert --ring R --n 5 --char 1",
        "hilbert --ring R --n 5 --char 2147483647",
        "verify --suite hilbert --char 5",
        "betti --ring A --n 6 --char 2147483647 --cross-check --no-cache",
        "sequence rho --n-range 3..3",
        "sequence gamma --n 5",
        "verify --suite ezd --n 4",
        "verify --format csv",
        "gorenstein --n 4 --format csv",
        "betti --ring R --n-range 2..3 --format csv",
        "hilbert --ring Q --n 4",
        "betti --ring P --n 4",
        "hilbert --ring R --n 4 --format xml",
        "verify --suite nope",
        "hilbert --ring R",
        "",
        "--version",
        "--help",
        *(f"{command} --help" for command in ("hilbert", "betti", "sequence", "gorenstein", "verify")),
    ]
    return out


def _masked(text: str) -> str:
    for pattern, replacement in _TIMINGS:
        text = pattern.sub(replacement, text)
    return text


def _out_file(argv: list[str], work: Path) -> str | None:
    if "--out" not in argv:
        return None
    target = work / argv[argv.index("--out") + 1]
    return _masked(target.read_text()) if target.is_file() else None


def run(tree: Path, line: str) -> list[tuple]:
    """(exit code, stdout, stderr, --out file) of the miss and the hit of one argv at one tree."""
    argv = shlex.split(line)
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        home, work = Path(tmp, "home"), Path(tmp, "work")
        home.mkdir()
        work.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "XDG_CACHE_HOME"}
        env.update(
            PYTHONPATH=str(tree / "src"),
            HOME=str(home),
            ACIRING_CACHE_DIR=str(Path(tmp, "cache")),
            PYTHONDONTWRITEBYTECODE="1",
        )
        results = []
        for _ in range(2):
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "aciring", *argv],
                    cwd=work,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                results.append((f"timeout after {_TIMEOUT_S} s", "", "", None))
                continue
            results.append((proc.returncode, _masked(proc.stdout), _masked(proc.stderr), _out_file(argv, work)))
        return results


def compare(old: Path, new: Path, line: str) -> tuple[int | str, list[str]]:
    """The first run's exit code at the old tree, and a description of each difference."""
    a, b = run(old, line), run(new, line)
    problems = []
    for k, (x, y) in enumerate(zip(a, b)):
        label = "cache hit" if k else "first run"
        if isinstance(x[0], str) or isinstance(y[0], str):
            problems.append(f"{label}: {x[0]} vs {y[0]}")
            continue
        for name, u, v in zip(("exit code", "stdout", "stderr", "--out file"), x, y):
            if u != v:
                problems.append(f"{label}: {name} differs: {str(u)[:200]!r} vs {str(v)[:200]!r}")
    return a[0][0], problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="source tree of the reference side")
    ap.add_argument("new", type=Path, help="source tree of the side under test")
    args = ap.parse_args()
    for tree in (args.old, args.new):
        if not (tree / "src" / "aciring").is_dir():
            ap.error(f"{tree} holds no src/aciring")
    old, new = args.old.resolve(), args.new.resolve()
    lines = corpus()
    codes: Counter = Counter()
    failed = 0
    with ThreadPoolExecutor(_JOBS) as pool:
        outcomes = pool.map(lambda line: compare(old, new, line), lines)
        for line, (code, problems) in zip(lines, outcomes):
            codes[code] += 1
            if problems:
                failed += 1
                print(f"DIFF  aciring {line}")
                for p in problems:
                    print(f"      {p}")
    summary = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items(), key=str))
    print(f"{len(lines)} argvs ({summary}): {len(lines) - failed} identical, {failed} different")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
