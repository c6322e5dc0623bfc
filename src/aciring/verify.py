"""Verification suites: every headline identity re-checked by computation.

Each suite runs a family of independent checks over a range of n, timing
each one and recording expected versus computed values.  Suites mirror the
module-level invariants: closed-form Hilbert functions against quotient
computations, Betti tables by formula against actual resolutions, the
Gorenstein ideal built three ways, socle structure, exact zero divisors,
reduction/lifting across the hypersurface, duality, the sequence
recursions, and the strong Lefschetz checks.

One ``run_suite`` call builds what its checks share once: the rings P, R
and A per n and field (A's generators are the colon presentation of G),
G's orbit and dual-form generators, and the Koszul table of a ring.  They
live in a memo that the run opens and drops on return (``runmemo``).  The
colon, orbit and dual routes to G stay three separate constructions, and
each check still compares one route against another or against a closed
formula.  A check's
``runtime_ms`` leaves out what an earlier check of the same run built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import AciringError
from .fields import default_characteristic, field_for_char
from .formulas import betti_table_formula, catalan, ell, gamma_sequence, hilbert_formula, rho_sequence
from .gorenstein import (
    G_from_orbit,
    ann_of_form,
    ballot_sequences,
    disjointness_invertible,
    g_identity_check,
    predicted_initial_ideal,
    slp_check_A,
)
from .groebner import groebner_basis, ideal_equal, is_groebner_basis
from .resolution import (
    ci_resolution_betti,
    duality_check,
    koszul_betti,
    lifting_identity_check,
    named_quotient,
)
from .runmemo import _run_scope

# frozen reference data for the sequences suite (even n only)
RHO_LISTS = {
    2: [0, 3, 2],
    4: [0, 0, 15, 16, 5],
    6: [0, 0, 14, 105, 132, 70, 14],
    8: [0, 0, 42, 288, 945, 1216, 819, 288, 42],
}
GAMMA_LISTS = {
    2: [1, 2, 1],
    4: [0, 9, 16, 9, 0],
    6: [0, 14, 85, 132, 85, 14, 0],
    8: [0, 42, 288, 875, 1216, 875, 288, 42, 0],
}


@dataclass
class CheckRecord:
    check_id: str
    n: int
    expected: str
    computed: str
    passed: bool
    runtime_ms: float

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "n": self.n,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "runtime_ms": round(self.runtime_ms, 3),
        }


@dataclass
class VerificationReport:
    suite: str
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [r.to_json() for r in self.records],
        }

    def format_text(self) -> str:
        lines = []
        for r in self.records:
            verdict = "PASS" if r.passed else "FAIL"
            line = f"{verdict}  {r.check_id}  n={r.n}  ({r.runtime_ms:.0f} ms)"
            if not r.passed:
                line += f"\n      expected {r.expected}\n      computed {r.computed}"
            lines.append(line)
        total = len(self.records)
        good = sum(r.passed for r in self.records)
        lines.append(f"{self.suite}: {good}/{total} checks passed")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# individual checks; each returns (expected, computed, passed)
# ----------------------------------------------------------------------


def _check_hilbert(ring: str, n: int, field):
    expected = hilbert_formula(ring, n)
    computed = named_quotient(ring, n, field).hilbert_series()
    return str(expected), str(computed), expected == computed


def _check_hilbert_step_down(ring: str, n: int, field):
    """For odd n the Hilbert function drops to n-1 variables by h(i+1) + h(i)."""
    big = named_quotient(ring, n, field).hilbert_series()
    small = named_quotient(ring, n - 1, field).hilbert_series()

    def val(seq, i):
        return seq[i] if 0 <= i < len(seq) else 0

    top = max(len(big), len(small) + 1)
    ok = all(val(small, i + 1) + val(small, i) == val(big, i + 1) for i in range(-1, top))
    return f"pairwise sums of {small}", str(big), ok


def _check_betti(ring: str, n: int, field):
    expected = betti_table_formula(ring, n)
    computed = koszul_betti(named_quotient(ring, n, field))
    return str(sorted(expected.entries.items())), str(sorted(computed.entries.items())), (
        expected.entries == computed.entries
    )


def _check_duality(n: int, field):
    ok = duality_check(n, field)
    return "flip-symmetric tables", "match" if ok else "mismatch", ok


def _check_socle_R(n: int, field):
    dims = named_quotient("R", n, field).socle_dimensions()
    expected = [0] * (n - ell(n) - 1) + [catalan(ell(n) + 2)]
    return str(expected), str(dims), dims == expected


def _check_socle_gens(n: int, field):
    want = catalan(ell(n) + 2)
    degs = sorted(g.degree for g in named_quotient("A", n, field).ideal.generators)
    expected = [ell(n) + 1] * want
    return f"{want} generators in degree {ell(n) + 1}", str(degs), degs == expected


def _check_ezd(ring: str, n: int, field):
    ok, rows = named_quotient(ring, n, field).variable_annihilator_is_principal(n - 1)
    return "annihilator = principal ideal", f"dimension rows {rows}", ok


def _check_reduction(ring: str, n: int, field):
    """Resolving over the single-square hypersurface matches the ring one
    variable down."""
    big = named_quotient(ring, n, field)
    small = named_quotient(ring, n - 1, field)
    over_small = koszul_betti(small)
    max_i = n - 1
    max_j = max_i + max(big.socle_degree(), small.socle_degree())
    over_t = ci_resolution_betti(big, U=(n - 1,), max_i=max_i, max_j=max_j)
    keys = set(over_t.entries) | set(over_small.entries)
    ok = all(over_t.get(i, j) == over_small.get(i, j) for i, j in keys)
    return str(sorted(over_small.entries.items())), str(sorted(over_t.entries.items())), ok


def _check_lifting(n: int, field):
    ok = lifting_identity_check(n, field)
    return "additive two-term splitting", "holds" if ok else "fails", ok


def _check_three_way(n: int, field):
    colon = named_quotient("A", n, field).generators
    orbit = G_from_orbit(n, field)
    dual = ann_of_form(n, field)
    ok = ideal_equal(colon, orbit, dual)
    return "three equal ideals", "equal" if ok else "different", ok


def _check_initial_ideal(n: int, field):
    gb = groebner_basis(G_from_orbit(n, field))
    predicted = predicted_initial_ideal(n)
    computed = gb.initial_ideal()
    degs = sorted({g.degree for g in gb.polys})
    # the S-pair criterion certifies the basis independently of the echelon forms it came from
    ok = computed == predicted and set(degs) <= {2, ell(n) + 1} and is_groebner_basis(gb.polys)
    return (
        f"{sorted(predicted.gens)} in degrees {{2, {ell(n) + 1}}}",
        f"{sorted(computed.gens)} in degrees {degs}",
        ok,
    )


def _check_g_identity(n: int, field):
    ok = g_identity_check(n, field)
    return "product reduces to zero", "zero" if ok else "nonzero", ok


def _check_slp(n: int, field):
    ok = slp_check_A(n, field.characteristic)
    return "Lefschetz in every degree and power", "holds" if ok else "fails", ok


def _check_disjointness(n: int):
    bad = [i for i in range(1, ell(n) + 1) if not disjointness_invertible(n, i)]
    return "all orders invertible", "all invertible" if not bad else f"singular at {bad}", not bad


def _check_ballot_count(n: int):
    expected = catalan(ell(n) + 2)
    computed = len(ballot_sequences(n))
    return str(expected), str(computed), expected == computed


def _check_sequence_list(kind: str, n: int):
    table = RHO_LISTS if kind == "rho" else GAMMA_LISTS
    fn = rho_sequence if kind == "rho" else gamma_sequence
    expected = table[n]
    computed = fn(n)
    return str(expected), str(computed), expected == computed


def _check_rho_properties(n: int):
    from .formulas import _rho_values

    values = _rho_values(n, n + 4)
    L = ell(n)
    problems = []
    if n >= 4 and values[1] != 0:
        problems.append("rho_1 != 0")
    if any(values[k] != 0 for k in range(n + 1, n + 4)):
        problems.append("tail not zero")
    if any(values[k] != values[n - k + 2] for k in range(0, L + 1)):
        problems.append("symmetry fails")
    if values[n] != catalan(L + 2):
        problems.append("end value not Catalan")
    if n >= 6 and values[2] != catalan(L + 2):
        problems.append("second value not Catalan")
    from math import comb

    if values[L + 1] != values[L + 3] + comb(n + 1, L + 1):
        problems.append("middle-column identity fails")
    return "all properties", "all hold" if not problems else "; ".join(problems), not problems


def _check_gamma_properties(n: int):
    values = gamma_sequence(n)
    L = ell(n)
    rho = rho_sequence(n)
    problems = []
    if n >= 6 and (values[1] != catalan(L + 2) or values[n - 1] != catalan(L + 2)):
        problems.append("edge values not Catalan")
    if any(values[i] != rho[i + 1] for i in range(0, L)):
        problems.append("interleaving with the first sequence fails")
    if any(values[k] != values[n - k] for k in range(0, n + 1)):
        problems.append("symmetry fails")
    return "all properties", "all hold" if not problems else "; ".join(problems), not problems


# ----------------------------------------------------------------------
# suite assembly
# ----------------------------------------------------------------------


def _per_ring(prefix: str, check, rings: str):
    return [(f"{prefix}-{r}", lambda n, f, r=r: check(r, n, f)) for r in rings]


# Each suite is a list of groups (default n values, over a field, checks).
# A group runs its checks in order for each n; a check is (id, fn), called
# as fn(n, field) in a group over a field and as fn(n) otherwise.  Without
# an explicit range the defaults stay within the documented runtime budgets:
# rationals through n = 7 and the default prime field at n = 8.
_SUITES = {
    "hilbert": [
        (range(2, 9), True, _per_ring("hilbert", _check_hilbert, "PRA")),
        ((3, 5, 7), True, _per_ring("hilbert-step-down", _check_hilbert_step_down, "RA")),
    ],
    "betti-even": [((2, 4, 6, 8), True, _per_ring("betti-even", _check_betti, "RA"))],
    "betti-odd": [((3, 5, 7), True, _per_ring("betti-odd", _check_betti, "RA"))],
    "duality": [(range(2, 7), True, [("duality", _check_duality)])],
    "socle": [(range(2, 8), True, [("socle-level", _check_socle_R), ("socle-generators", _check_socle_gens)])],
    "ezd": [
        (
            (3, 5, 7),
            True,
            [
                *_per_ring("ezd", _check_ezd, "R"),
                *_per_ring("ezd-reduction", _check_reduction, "R"),
                *_per_ring("ezd", _check_ezd, "A"),
                *_per_ring("ezd-reduction", _check_reduction, "A"),
            ],
        )
    ],
    "lifting": [((3, 5, 7), True, [("lifting", _check_lifting)])],
    "groebner": [
        (range(2, 8), True, [("groebner-three-way", _check_three_way), ("groebner-initial-ideal", _check_initial_ideal)]),
        (range(2, 10), True, [("groebner-identity", _check_g_identity)]),
    ],
    "slp": [
        (range(2, 8), True, [("slp-both-routes", _check_slp)]),
        (range(2, 11), False, [("slp-disjointness", _check_disjointness)]),
    ],
    "sequences": [
        (
            (2, 4, 6, 8),
            False,
            [
                ("sequences-rho-list", lambda n: _check_sequence_list("rho", n)),
                ("sequences-gamma-list", lambda n: _check_sequence_list("gamma", n)),
            ],
        ),
        (
            (2, 4, 6, 8, 10),
            False,
            [("sequences-rho-properties", _check_rho_properties), ("sequences-gamma-properties", _check_gamma_properties)],
        ),
        (range(2, 13), False, [("sequences-ballot-count", _check_ballot_count)]),
    ],
}
SUITE_NAMES = tuple(_SUITES)


def _field(n: int, characteristic: int | None):
    if characteristic is None:
        characteristic = default_characteristic(n)
    return field_for_char(characteristic)


def _timed(records: list[CheckRecord], check_id: str, n: int, fn):
    t0 = time.perf_counter()
    try:
        expected, computed, ok = fn()
    except AciringError as exc:
        ms = (time.perf_counter() - t0) * 1000.0
        records.append(CheckRecord(check_id, n, "completes within caps", f"resource: {exc}", False, ms))
        return
    ms = (time.perf_counter() - t0) * 1000.0
    records.append(CheckRecord(check_id, n, expected, computed, ok, ms))


def _wanted(ns, default):
    if ns is None:
        return list(default)
    return [n for n in ns if n in set(default)]


def suite_field_ns(suite: str) -> list[int]:
    """The n values at which the suite (or "all"), run without a range,
    computes over a field."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    return sorted({n for name in names for default, over_field, _ in _SUITES[name] if over_field for n in default})


def run_suite(suite: str, ns: list[int] | None = None, characteristic: int | None = None) -> VerificationReport:
    """Run one suite (or "all") over the requested n values, or over each
    group's default n values without a range.

    A characteristic p > 0 must exceed every requested n, or without a range
    every n at which the suite computes over a field; otherwise ValueError.
    So are requested n values at which the suite has no check.
    """
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}")
    top = max(ns if ns is not None else suite_field_ns(suite), default=0)
    if characteristic and characteristic <= top:
        raise ValueError(f"characteristic {characteristic} must be 0 or larger than n = {top}")
    groups = [group for name in (SUITE_NAMES if suite == "all" else (suite,)) for group in _SUITES[name]]
    if not any(_wanted(ns, default) for default, _, _ in groups):
        raise ValueError(f"suite {suite!r} has no check at n = {', '.join(map(str, ns))}")

    records: list[CheckRecord] = []
    with _run_scope():
        for default, over_field, checks in groups:
            for n in _wanted(ns, default):
                args = (n, _field(n, characteristic)) if over_field else (n,)
                for check_id, fn in checks:
                    _timed(records, check_id, n, lambda: fn(*args))
    return VerificationReport(suite, records)
