"""Buchberger's algorithm, normal forms and monomial ideals.

Everything is in the graded reverse lexicographic order with x1 > x2 > ...;
for homogeneous input a degree-capped run still yields a basis that is
complete through the cap, because S-pairs are processed by increasing lcm
degree and a new basis element never creates a pair of smaller degree.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DegreeCapExceeded
from .fields import Field
from .poly import (
    Mono,
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    revlex_key,
    squared_variable_sum,
)

# ----------------------------------------------------------------------
# division
# ----------------------------------------------------------------------


def normal_form(f: Polynomial, basis, exponent_cap: int | None = None) -> Polynomial:
    """Remainder of f under division by the listed polynomials.

    Divisors are tried in listed order.  The remainder has no term divisible
    by any leading monomial, so against a Gröbner basis it is the canonical
    representative.
    """
    divisors = list(basis.polys) if isinstance(basis, GroebnerBasis) else [g for g in basis if g]
    field = f.field
    rem_terms = []
    h = f
    while h:
        lm, lc = h.lt()
        hit = None
        for g in divisors:
            if mono_divides(g.lm, lm):
                hit = g
                break
        if hit is None:
            rem_terms.append((lm, lc))
            h = h - Polynomial.monomial(h.n, field, lm, lc)
        else:
            c = field.div(lc, hit.lc)
            h = h - hit.term_mul(mono_div(lm, hit.lm), c, exponent_cap)
    return Polynomial(f.n, field, rem_terms, _sorted=True)


def s_polynomial(f: Polynomial, g: Polynomial, exponent_cap: int | None = None) -> Polynomial:
    L = mono_lcm(f.lm, g.lm)
    a = f.term_mul(mono_div(L, f.lm), f.field.inv(f.lc), exponent_cap)
    b = g.term_mul(mono_div(L, g.lm), g.field.inv(g.lc), exponent_cap)
    return a - b


# ----------------------------------------------------------------------
# monomial ideals
# ----------------------------------------------------------------------


class MonomialIdeal:
    """A monomial ideal kept as the antichain of its minimal generators."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, monomials: Iterable[Mono]):
        self.n = n
        monos = sorted(set(monomials), key=revlex_key)
        minimal = []
        for m in monos:  # ascending, so divisors are seen first
            if not any(mono_divides(g, m) for g in minimal):
                minimal.append(m)
        self.gens = tuple(minimal)

    def contains(self, m: Mono) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def standard_monomials(self, d: int) -> list[Mono]:
        """Monomials of degree d outside the ideal, in descending order."""
        out = [m for m in monomials_of_degree(self.n, d) if not self.contains(m)]
        out.sort(key=revlex_key, reverse=True)
        return out

    def standard_count(self, d: int) -> int:
        return sum(1 for m in monomials_of_degree(self.n, d) if not self.contains(m))

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, {len(self.gens)} generators)"


# ----------------------------------------------------------------------
# Gröbner bases
# ----------------------------------------------------------------------


class GroebnerBasis:
    """An interreduced basis, possibly only complete through a degree cap.

    When ``truncated_at`` is an integer D, the basis decides membership and
    initial-ideal questions for homogeneous elements of degree <= D only;
    asking beyond that raises DegreeCapExceeded rather than guessing.
    """

    __slots__ = ("n", "field", "polys", "truncated_at")

    def __init__(self, n: int, field: Field, polys: Sequence[Polynomial], truncated_at: int | None = None):
        self.n = n
        self.field = field
        self.polys = tuple(polys)
        self.truncated_at = truncated_at

    @property
    def is_complete(self) -> bool:
        return self.truncated_at is None

    def _guard(self, degree: int):
        if self.truncated_at is not None and degree > self.truncated_at:
            raise DegreeCapExceeded(
                self.truncated_at,
                f"basis is only complete through degree {self.truncated_at}, asked about degree {degree}",
            )

    def normal_form(self, f: Polynomial, exponent_cap: int | None = None) -> Polynomial:
        self._guard(f.degree)
        return normal_form(f, self, exponent_cap)

    def contains(self, f: Polynomial) -> bool:
        return not f or not self.normal_form(f)

    def initial_ideal(self, through_degree: int | None = None) -> MonomialIdeal:
        if through_degree is not None:
            self._guard(through_degree)
            return MonomialIdeal(self.n, [g.lm for g in self.polys if g.degree <= through_degree])
        if not self.is_complete:
            raise DegreeCapExceeded(self.truncated_at, "initial ideal of a truncated basis needs through_degree")
        return MonomialIdeal(self.n, [g.lm for g in self.polys])

    def standard_monomials(self, d: int) -> list[Mono]:
        self._guard(d)
        lead = MonomialIdeal(self.n, [g.lm for g in self.polys if g.degree <= d])
        return lead.standard_monomials(d)

    def standard_count(self, d: int) -> int:
        return len(self.standard_monomials(d))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        trunc = "" if self.is_complete else f", truncated_at={self.truncated_at}"
        return f"GroebnerBasis(n={self.n}, {len(self.polys)} elements{trunc})"


def interreduce(polys: Iterable[Polynomial], exponent_cap: int | None = None) -> list[Polynomial]:
    """Fully interreduced monic generating set of the same ideal.

    Repeated left-to-right reduction passes in ascending leading-monomial
    order; an element whose lead cancels re-enters at its new position on
    the next pass, so nothing is discarded until it genuinely reduces to
    zero.  At the fixpoint no term of any element is divisible by the
    leading monomial of another.
    """
    work = [g.monic() for g in polys if g]
    while True:
        work.sort(key=lambda g: revlex_key(g.lm))
        passed: list[Polynomial] = []
        changed = False
        for g in work:
            r = normal_form(g, passed, exponent_cap)
            if not r:
                changed = True
                continue
            r = r.monic()
            if r != g:
                changed = True
            passed.append(r)
        work = passed
        if not changed:
            return work


def buchberger(
    generators: Sequence[Polynomial],
    *,
    degree_cap: int | None = None,
    exponent_cap: int | None = None,
    strict: bool = True,
    n: int | None = None,
    field: Field | None = None,
) -> GroebnerBasis:
    """Gröbner basis of the given generators.

    With a degree_cap, pairs whose lcm exceeds the cap are either an error
    (strict) or dropped, in which case the result is marked truncated.
    """
    gens = [g for g in generators if g]
    if not gens:
        if n is None or field is None:
            raise ValueError("zero ideal needs explicit n and field")
        return GroebnerBasis(n, field, ())
    n = gens[0].n
    field = gens[0].field

    basis = interreduce(gens, exponent_cap)
    heap: list = []
    counter = 0

    def push_pair(i: int, j: int):
        nonlocal counter
        lmi, lmj = basis[i].lm, basis[j].lm
        L = mono_lcm(lmi, lmj)
        if L == mono_mul(lmi, lmj, None):  # coprime leading monomials
            return
        heapq.heappush(heap, (mono_deg(L), revlex_key(L), counter, i, j))
        counter += 1

    for i, j in combinations(range(len(basis)), 2):
        push_pair(i, j)

    truncated = None
    while heap:
        d, _, _, i, j = heapq.heappop(heap)
        if degree_cap is not None and d > degree_cap:
            if strict:
                raise DegreeCapExceeded(degree_cap, f"S-pair of degree {d} exceeds the Buchberger cap")
            truncated = degree_cap
            break  # heap is ordered by degree: everything left is past the cap
        s = normal_form(s_polynomial(basis[i], basis[j], exponent_cap), basis, exponent_cap)
        if s:
            basis.append(s.monic())
            t = len(basis) - 1
            for i2 in range(t):
                push_pair(i2, t)

    return GroebnerBasis(n, field, interreduce(basis, exponent_cap), truncated)


def is_groebner_basis(polys: Sequence[Polynomial], exponent_cap: int | None = None) -> bool:
    """Check the Buchberger criterion directly: every S-polynomial reduces to zero."""
    gens = [g for g in polys if g]
    for f, g in combinations(gens, 2):
        if mono_lcm(f.lm, g.lm) == mono_mul(f.lm, g.lm, None):
            continue
        if normal_form(s_polynomial(f, g, exponent_cap), gens, exponent_cap):
            return False
    return True


def ideal_equal(
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    *,
    degree_bound: int | None = None,
    exponent_cap: int | None = None,
) -> bool:
    """Equality of two homogeneous ideals by mutual membership.

    Both Gröbner bases are computed through ``degree_bound`` (default 2n),
    which must be at least the top generator degree.  Reducing every
    generator of one ideal against the other basis (and vice versa) proves
    containment both ways; the truncated initial ideals are also compared,
    which equality forces.
    """
    a = [g for g in gens_a if g]
    b = [g for g in gens_b if g]
    if not a or not b:
        return not a and not b
    if degree_bound is None:
        degree_bound = 2 * a[0].n
    top = max(g.degree for g in a + b)
    if top > degree_bound:
        raise DegreeCapExceeded(degree_bound, f"generator of degree {top} exceeds the comparison bound")
    gb_a = buchberger(a, degree_cap=degree_bound, exponent_cap=exponent_cap, strict=False)
    gb_b = buchberger(b, degree_cap=degree_bound, exponent_cap=exponent_cap, strict=False)
    if any(gb_b.normal_form(g) for g in a):
        return False
    if any(gb_a.normal_form(g) for g in b):
        return False
    return gb_a.initial_ideal(degree_bound) == gb_b.initial_ideal(degree_bound)


# ----------------------------------------------------------------------
# the ideals of interest
# ----------------------------------------------------------------------


def squares_ideal(n: int, field: Field) -> list[Polynomial]:
    """x_i^2 for every variable: the monomial complete intersection."""
    gens = []
    for i in range(n):
        e = tuple(2 if j == i else 0 for j in range(n))
        gens.append(Polynomial.monomial(n, field, e))
    return gens


def aci_ideal(n: int, field: Field) -> list[Polynomial]:
    """The squares together with the square of the variable sum."""
    return squares_ideal(n, field) + [squared_variable_sum(n, field)]


def primed_squares_ideal(n: int, field: Field) -> list[Polynomial]:
    """x_i^2 - x_n^2 for i < n: n-1 quadrics cutting out a dimension-one ring."""
    gens = []
    last = tuple(0 if j < n - 1 else 2 for j in range(n))
    for i in range(n - 1):
        e = tuple(2 if j == i else 0 for j in range(n))
        gens.append(
            Polynomial(n, field, [(e, field.one()), (last, field.neg(field.one()))])
        )
    return gens


def primed_aci_ideal(n: int, field: Field) -> list[Polynomial]:
    """The primed squares together with (sum of variables)^2 - x_n^2."""
    h2 = squared_variable_sum(n, field)
    last = tuple(0 if j < n - 1 else 2 for j in range(n))
    f = h2 - Polynomial.monomial(n, field, last)
    return primed_squares_ideal(n, field) + [f]
