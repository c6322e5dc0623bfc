"""Identity of the rings P, R and A between two source trees.

Builds P, R and A with ``named_quotient`` at n = 2..9 over GF(32003) and
n = 2..7 over QQ, in each of two checkouts of this repository, and digests
per ring: its generators, and in every degree from 0 to one past the socle
degree its echelon form (rows and pivots), its standard monomial basis and
its variable maps.  On the same grid it digests G/J, grown as
``GradedModuleSpan(P, lifts)`` from the lifts of ``gorenstein_presentation``:
in every degree from 0 to one past P's socle degree its echelon basis (rows
and pivots) and its variable maps.  Each digest hashes the ``repr`` of those
values, so a value of another type (an ``np.int64`` for an int, an integral
``Fraction`` for an int) is a difference too.

    python tools/ring_identity.py OLD_TREE NEW_TREE

A tree is a directory holding ``src/aciring``.  The two trees run at the same
time, one process each.  Exits 0 when every digest is identical, 1
otherwise; each difference, and a tree whose run fails, is printed.  It takes
under a minute per tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# (characteristic, the n to build), 0 for QQ
CASES = ((32003, range(2, 10)), (0, range(2, 8)))
RINGS = "PRA"
_TIMEOUT_S = 1800


def ring_digest(q) -> str:
    """sha256 of q's generators, and its forms, bases and variable maps through one past its socle degree."""
    h = hashlib.sha256(repr([str(g) for g in q.generators]).encode())
    for d in range(q.socle_degree() + 2):
        form = q._echelon(d)
        h.update(repr((d, form.pivots, form.rows, q.basis(d))).encode())
        for i in range(q.n):
            h.update(repr(q.variable_map(i, d)).encode())
    return h.hexdigest()


def module_digest(module) -> str:
    """sha256 of a module's echelon bases and variable maps through one past its ambient's socle degree."""
    h = hashlib.sha256()
    for d in range(module.ambient.socle_degree() + 2):
        span = module._span(d)
        h.update(repr((d, span.pivots, span.rows)).encode())
        for i in range(module.n):
            h.update(repr(module.variable_map(i, d)).encode())
    return h.hexdigest()


def digests() -> dict[str, str]:
    """Every case's digest, keyed ring-n-field, from the ``aciring`` on the path."""
    from aciring import GF, QQ
    from aciring.quotient import GradedModuleSpan
    from aciring.resolution import gorenstein_presentation, named_quotient

    out = {}
    for p, ns in CASES:
        field = GF(p) if p else QQ
        for n in ns:
            for ring in RINGS:
                out[f"{ring}-n{n}-{field}"] = ring_digest(named_quotient(ring, n, field))
            P, gens = gorenstein_presentation(n, field)
            out[f"G/J-n{n}-{field}"] = module_digest(GradedModuleSpan(P, [g for g in gens if P.nf(g)]))
    return out


def run(tree: Path) -> dict[str, str] | str:
    """The digests of one tree, or the failure of its run as a string."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--digests"], env=env, capture_output=True, text=True, timeout=_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"timeout after {_TIMEOUT_S} s"
    if proc.returncode:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout)


def main() -> int:
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps(digests()))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="source tree of the reference side")
    ap.add_argument("new", type=Path, help="source tree of the side under test")
    args = ap.parse_args()
    for tree in (args.old, args.new):
        if not (tree / "src" / "aciring").is_dir():
            ap.error(f"{tree} holds no src/aciring")
    with ThreadPoolExecutor(2) as pool:
        old, new = pool.map(run, (args.old.resolve(), args.new.resolve()))
    for tree, result in ((args.old, old), (args.new, new)):
        if isinstance(result, str):
            print(f"FAILED  {tree}: {result}")
    if isinstance(old, str) or isinstance(new, str):
        return 1
    keys = sorted(old.keys() | new.keys())
    different = [k for k in keys if old.get(k) != new.get(k)]
    for k in different:
        print(f"DIFF  {k}: {old.get(k, 'missing')[:16]} vs {new.get(k, 'missing')[:16]}")
    print(f"{len(keys)} rings and modules: {len(keys) - len(different)} identical, {len(different)} different")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
