"""Command-line front end: compute tables, print sequences, run verification.

Subcommands
-----------
hilbert     Hilbert function of P, R or A, by closed formula or from the
            quotient ring itself; ``--cross-check`` runs both and compares.
betti       Graded Betti table of R or A, by closed formula or through the
            Koszul-complex resolution; ``--cross-check`` compares.
sequence    The rho or gamma integer sequence for even n.
gorenstein  Generators of the Gorenstein ideal, predicted vs computed
            initial ideal, ballot sequences, Hessian determinants, and the
            strong-Lefschetz verdict.
verify      Run a named verification suite and report PASS/FAIL per check.

``hilbert`` and ``betti`` share one cross-check rule: for each n the result
holds the formula value, the computed value and whether they ``match``, and
the command exits 1 if any n does not match.  Text shows both values and
``match: yes`` or ``match: NO``; csv shows the formula value.

Exit codes: 0 success / all checks pass, 1 verification or cross-check
failure, 2 usage error or an ``--out`` file that cannot be written, 3 resource
cap exceeded (a degree cap, or a ``MemoryError`` anywhere), 4 internal failure.

Results of the compute subcommands are cached as JSON under the directory
named by the ``ACIRING_CACHE_DIR`` environment variable (defaulting to the
user cache directory); ``--no-cache`` bypasses the cache entirely.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import warnings

from . import __version__
from .cache import cache_key, lookup, store
from .errors import AciringError, DegreeCapExceeded
from .fields import MAX_PRIME, QQ, default_characteristic, field_for_char, is_prime
from .formulas import betti_table_formula, ell, gamma_sequence, hilbert_formula, rho_sequence
from .gorenstein import (
    G_from_orbit,
    ballot_sequences,
    g_polynomial,
    hessian,
    predicted_initial_ideal,
    slp_check_A,
)
from .groebner import groebner_basis
from .poly import _format_mono, format_poly
from .quotient import hilbert_function
from .resolution import BettiTable, koszul_betti, named_quotient
from .verify import SUITE_NAMES, run_suite, suite_field_ns

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aciring",
        description="Exact computations for the almost-complete-intersection "
        "quadric quotients and their linked Gorenstein rings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n(p, required=True):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--n", type=int, help="number of variables")
        group.add_argument("--n-range", metavar="A..B", help="inclusive range of n values")

    def add_char(p):
        p.add_argument("--char", type=int, default=None, help="coefficient characteristic (0 = rationals)")

    def add_output(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    for name, help_, rings, computed, cap_help in (
        ("hilbert", "Hilbert function of P, R or A", ("P", "R", "A"), "quotient",
         "abort if the computation needs higher degrees"),
        ("betti", "graded Betti table of R or A", ("R", "A"), "koszul",
         "compute the table only through this internal degree"),
    ):
        p = sub.add_parser(name, help=help_)
        add_n(p)
        p.add_argument("--ring", choices=rings, required=True)
        add_char(p)
        p.add_argument("--method", choices=("formula", computed), default="formula")
        p.add_argument("--cross-check", action="store_true", help="run both methods and compare")
        p.add_argument("--degree-cap", type=int, default=None, help=cap_help)
        p.add_argument("--no-cache", action="store_true")
        add_output(p)

    ps = sub.add_parser("sequence", help="rho or gamma sequence (even n)")
    ps.add_argument("kind", choices=("rho", "gamma"))
    add_n(ps)
    ps.add_argument("--no-cache", action="store_true")
    add_output(ps)

    pg = sub.add_parser("gorenstein", help="Gorenstein ideal: generators, initial ideal, Lefschetz data")
    add_n(pg)
    add_char(pg)
    pg.add_argument("--no-cache", action="store_true")
    add_output(pg)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    add_n(pv, required=False)
    add_char(pv)
    add_output(pv)

    return parser


def _parse_ns(args, parser) -> list[int] | None:
    if args.n is not None:
        if args.n < 2:
            parser.error("--n must be at least 2")
        return [args.n]
    if args.n_range is not None:
        m = re.fullmatch(r"(\d+)\.\.(\d+)", args.n_range)
        if m is None:
            parser.error("--n-range must look like A..B")
        a, b = int(m.group(1)), int(m.group(2))
        if a < 2 or b < a:
            parser.error("--n-range needs 2 <= A <= B")
        return list(range(a, b + 1))
    return None


def _resolve_char(args, ns, parser) -> int:
    if args.char is None:
        return default_characteristic(max(ns))
    c = args.char
    if c == 0:
        return 0
    if c > MAX_PRIME:
        parser.error(f"--char must be at most {MAX_PRIME}, the largest prime the mod-p kernels handle exactly")
    if not is_prime(c) or c <= max(ns, default=0):
        parser.error("--char must be 0 or a prime larger than every requested n")
    return c


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cached(args, ns, header: dict, result, **params) -> dict:
    """``{command, **header, "results": [result(n) for n in ns]}``, cached under the
    command, ``ns``, the header and ``params``; ``--no-cache`` recomputes."""
    key = cache_key(args.command, ns=ns, **header, **params)
    if not args.no_cache:
        hit = lookup(key)
        if hit is not None:
            return hit
    payload = {"command": args.command, **header, "results": [result(n) for n in ns]}
    if not args.no_cache:
        try:
            store(key, payload)
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
    return payload


def _words(values) -> str:
    return " ".join(map(str, values))


def _verdict(match: bool) -> str:
    return "yes" if match else "NO"


def _per_n_text(results: list[dict]) -> str:
    """The values alone for a single n, else one ``n=N: values`` line per n."""
    if len(results) == 1:
        return _words(results[0]["values"]) + "\n"
    return "".join(f"n={r['n']}: {_words(r['values'])}\n" for r in results)


def _per_n_csv(results: list[dict], index: str, key: str) -> str:
    return f"n,{index},value\n" + "".join(f"{r['n']},{i},{v}\n" for r in results for i, v in enumerate(r[key]))


# ----------------------------------------------------------------------
# hilbert and betti: one value per n, or the cross-check of two
# ----------------------------------------------------------------------


def _table(args, parser, ns, value, plain: str, computed: str) -> tuple[dict, int]:
    """The payload of ``hilbert`` or ``betti`` over ``ns``, and its exit code.

    ``value(method, n, characteristic)`` is one n's value by ``"formula"`` or
    by the ``computed`` method.  A plain run stores the chosen method's value
    under ``plain``; a cross-check stores both values and ``match``, and exits
    1 if any n does not match.
    """
    characteristic = _resolve_char(args, ns, parser)
    method = "cross-check" if args.cross_check else args.method

    def result(n):
        if not args.cross_check:
            return {"n": n, plain: value(args.method, n, characteristic)}
        by_formula, by_computed = value("formula", n, characteristic), value(computed, n, characteristic)
        return {"n": n, "formula": by_formula, computed: by_computed, "match": by_formula == by_computed}

    header = {"ring": args.ring, "characteristic": characteristic, "method": method}
    payload = _cached(args, ns, header, result, degree_cap=args.degree_cap)
    return payload, int(args.cross_check and not all(r["match"] for r in payload["results"]))


def _hilbert_by_quotient(ring: str, n: int, characteristic: int, degree_cap: int | None) -> list[int]:
    q = named_quotient(ring, n, field_for_char(characteristic), degree_cap=degree_cap)
    return hilbert_function(q)


def cmd_hilbert(args, parser) -> tuple[str, int]:
    ns = _parse_ns(args, parser)

    def value(method, n, characteristic):
        if method == "formula":
            return hilbert_formula(args.ring, n)
        return _hilbert_by_quotient(args.ring, n, characteristic, args.degree_cap)

    payload, code = _table(args, parser, ns, value, "values", "quotient")
    results = payload["results"]
    if args.format == "json":
        return _json_text(payload), code
    if args.format == "csv":
        return _per_n_csv(results, "i", "formula" if args.cross_check else "values"), code
    if not args.cross_check:
        return _per_n_text(results), code
    lines = []
    for r in results:
        lines.append(f"n={r['n']} formula:  {_words(r['formula'])}")
        lines.append(f"n={r['n']} quotient: {_words(r['quotient'])}")
        lines.append(f"n={r['n']} match: {_verdict(r['match'])}")
    return "\n".join(lines) + "\n", code


def cmd_betti(args, parser) -> tuple[str, int]:
    ns = _parse_ns(args, parser)
    if args.format == "csv" and len(ns) > 1:
        parser.error("csv output needs a single --n")

    def value(method, n, characteristic):
        if method == "formula":
            entries = betti_table_formula(args.ring, n).entries
            if args.degree_cap is not None:
                entries = {(i, j): v for (i, j), v in entries.items() if j <= args.degree_cap}
        else:
            module = named_quotient(args.ring, n, field_for_char(characteristic))
            entries = koszul_betti(module, max_j=args.degree_cap).entries
        return [{"i": i, "j": j, "value": v} for (i, j), v in sorted(entries.items())]

    payload, code = _table(args, parser, ns, value, "entries", "koszul")
    if args.format == "json":
        return _json_text(payload), code
    if args.format == "csv":
        items = payload["results"][0]["formula" if args.cross_check else "entries"]
        return "i,j,value\n" + "".join(f"{e['i']},{e['j']},{e['value']}\n" for e in items), code

    def table(r, key):
        return BettiTable(r["n"], {(e["i"], e["j"]): e["value"] for e in r[key]}).format()

    blocks = []
    for r in payload["results"]:
        head = f"{args.ring}, n = {r['n']}"
        if args.cross_check:
            blocks.append(
                f"{head}\nformula:\n{table(r, 'formula')}\nkoszul:\n{table(r, 'koszul')}\nmatch: {_verdict(r['match'])}"
            )
        else:
            blocks.append(f"{head}\n{table(r, 'entries')}")
    return "\n\n".join(blocks) + "\n", code


# ----------------------------------------------------------------------
# sequence
# ----------------------------------------------------------------------


def cmd_sequence(args, parser) -> tuple[str, int]:
    ns = _parse_ns(args, parser)
    if args.n_range is not None:
        # the sequences live on even n only; a range keeps its even part
        ns = [n for n in ns if n % 2 == 0]
        if not ns:
            parser.error("--n-range contains no even n")
    fn = rho_sequence if args.kind == "rho" else gamma_sequence

    payload = _cached(args, ns, {"kind": args.kind}, lambda n: {"n": n, "values": fn(n)})
    if args.format == "json":
        return _json_text(payload), 0
    if args.format == "csv":
        return _per_n_csv(payload["results"], "k", "values"), 0
    return _per_n_text(payload["results"]), 0


# ----------------------------------------------------------------------
# gorenstein
# ----------------------------------------------------------------------


def _gorenstein_result(n: int, characteristic: int) -> dict:
    field = field_for_char(characteristic)
    gens = G_from_orbit(n, field)
    gb = groebner_basis(gens)
    computed = gb.initial_ideal()
    predicted = predicted_initial_ideal(n)
    dets = [str(hessian(n, i, QQ).determinant_at_ones()) for i in range(ell(n) + 1)]
    return {
        "n": n,
        "orbit_generator": format_poly(g_polynomial(n, field)),
        "generators": [format_poly(g) for g in gens],
        "predicted_initial_ideal": [_format_mono(m, "x") for m in predicted.gens],
        "computed_initial_ideal": [_format_mono(m, "x") for m in computed.gens],
        "initial_ideals_match": computed == predicted,
        "ballot_sequences": [list(seq) for seq in ballot_sequences(n)],
        "hessian_determinants": dets,
        "slp": bool(slp_check_A(n, characteristic=characteristic)),
    }


def cmd_gorenstein(args, parser) -> tuple[str, int]:
    ns = _parse_ns(args, parser)
    if args.format == "csv":
        parser.error("gorenstein output is text or json")
    characteristic = _resolve_char(args, ns, parser)

    payload = _cached(args, ns, {"characteristic": characteristic}, lambda n: _gorenstein_result(n, characteristic))
    if args.format == "json":
        return _json_text(payload), 0

    blocks = []
    for r in payload["results"]:
        lines = [f"n = {r['n']}"]
        lines.append(f"orbit generator: {r['orbit_generator']}")
        lines.append(f"ideal generators ({len(r['generators'])}):")
        lines.extend(f"  {g}" for g in r["generators"])
        lines.append("predicted initial ideal: " + ", ".join(r["predicted_initial_ideal"]))
        lines.append("computed initial ideal:  " + ", ".join(r["computed_initial_ideal"]))
        lines.append("initial ideals match: " + _verdict(r["initial_ideals_match"]))
        lines.append(
            f"ballot sequences ({len(r['ballot_sequences'])}): "
            + ", ".join("(" + ",".join(map(str, s)) + ")" for s in r["ballot_sequences"])
        )
        for i, det in enumerate(r["hessian_determinants"]):
            lines.append(f"hessian determinant i={i}: {det}")
        lines.append("slp: " + ("true" if r["slp"] else "false"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n", 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def cmd_verify(args, parser) -> tuple[str, int]:
    ns = _parse_ns(args, parser)
    if args.format == "csv":
        parser.error("verify output is text or json")
    if args.char is not None:
        # without --n or --n-range, every n the suite would run over the field
        _resolve_char(args, ns or suite_field_ns(args.suite), parser)
    try:
        report = run_suite(args.suite, ns=ns, characteristic=args.char)
    except ValueError as exc:  # the requested n values select no check
        parser.error(str(exc))
    code = 0 if report.passed else 1
    if args.format == "json":
        return _json_text(report.to_json()), code
    return report.format_text() + "\n", code


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


_DISPATCH = {
    "hilbert": cmd_hilbert,
    "betti": cmd_betti,
    "sequence": cmd_sequence,
    "gorenstein": cmd_gorenstein,
    "verify": cmd_verify,
}


def _unwritable(path: str) -> str | None:
    """Why opening ``path`` for writing would fail for want of a directory, found without touching it."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reason = args.out and _unwritable(args.out)
    if reason:
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                text, code = _DISPATCH[args.command](args, parser)
            finally:  # each distinct warning once, as one line
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except (DegreeCapExceeded, MemoryError) as exc:
        print(f"error: resource cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except Exception as exc:
        if isinstance(exc, ValueError) and not isinstance(exc, AciringError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # the package's own errors and failed assertions are bugs, not bad input
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
