"""Gröbner bases, polynomial division and monomial ideals.

Everything is in the graded reverse lexicographic order with x1 > x2 > ....
``groebner_basis`` reads the complete reduced basis of a homogeneous
Artinian ideal off the reduced echelon forms that
:class:`.quotient.QuotientRing` keeps in every degree (the Macaulay-matrix
view of Gröbner bases).  Polynomial division, S-polynomials and the
Buchberger criterion stay here as an independent certificate:
``is_groebner_basis`` checks a basis without knowing how it was found.
"""

from __future__ import annotations

from itertools import combinations
from math import inf
from operator import ge
from typing import Iterable, Sequence

from .fields import Field
from .poly import (
    Mono,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    revlex_key,
    squared_variable_sum,
)

# ----------------------------------------------------------------------
# division
# ----------------------------------------------------------------------


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under division by the listed polynomials.

    Divisors are tried in listed order.  The remainder has no term divisible
    by any leading monomial, so against a Gröbner basis it is the canonical
    representative.
    """
    divisors = [g for g in basis if g]
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
        if hit is None or len(hit.terms) == 1:  # a single-term divisor takes off the leading term alone
            h = Polynomial(h.n, field, h.terms[1:], _sorted=True)
        else:
            c = field.div(lc, hit.lc)
            h = h - hit.term_mul(mono_div(lm, hit.lm), c)
    return Polynomial(f.n, field, rem_terms, _sorted=True)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    L = mono_lcm(f.lm, g.lm)
    a = f.term_mul(mono_div(L, f.lm), f.field.inv(f.lc))
    b = g.term_mul(mono_div(L, g.lm), g.field.inv(g.lc))
    return a - b


# ----------------------------------------------------------------------
# monomial ideals
# ----------------------------------------------------------------------


class MonomialIdeal:
    """A monomial ideal kept as the antichain of its minimal generators.

    Membership tests the pure powers x_i^a among the generators by exponent
    bounds, m_i >= a, and divides by the other generators.
    """

    __slots__ = ("n", "gens", "_bounds", "_mixed")

    def __init__(self, n: int, monomials: Iterable[Mono]):
        self.n = n
        monos = sorted(set(monomials), key=revlex_key)
        minimal = []
        for m in monos:  # ascending, so divisors are seen first
            if not any(mono_divides(g, m) for g in minimal):
                minimal.append(m)
        self.gens = tuple(minimal)
        bounds = [inf] * n  # minimal generators hold at most one pure power per variable
        self._mixed = []
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e]
            if len(support) == 1:
                bounds[support[0]] = g[support[0]]
            else:
                self._mixed.append(g)
        self._bounds = tuple(bounds)

    def contains(self, m: Mono) -> bool:
        return any(map(ge, m, self._bounds)) or any(mono_divides(g, m) for g in self._mixed)

    def standard_monomials(self, d: int) -> list[Mono]:
        """Monomials of degree d outside the ideal, in descending order (none if d < 0)."""
        layer = [m for m in [mono_one(self.n)] if d >= 0 and not self.contains(m)]
        for _ in range(d):
            layer = self.grow(layer)
        return layer

    def grow(self, layer: Iterable[Mono]) -> list[Mono]:
        """Monomials outside the ideal one degree above ``layer``, in descending order.

        All of them if ``layer`` is all of its degree: their divisors are outside too.
        """
        up = {m[:k] + (m[k] + 1,) + m[k + 1:] for m in layer for k in range(self.n)}
        return sorted((m for m in up if not self.contains(m)), key=revlex_key, reverse=True)

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
    """The complete reduced Gröbner basis of a homogeneous ideal."""

    __slots__ = ("n", "field", "polys")

    def __init__(self, n: int, field: Field, polys: Sequence[Polynomial]):
        self.n = n
        self.field = field
        self.polys = tuple(polys)

    def initial_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.n, [g.lm for g in self.polys])

    def standard_monomials(self, d: int) -> list[Mono]:
        return self.initial_ideal().standard_monomials(d)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis(n={self.n}, {len(self.polys)} elements)"


def groebner_basis(generators: Sequence[Polynomial]) -> GroebnerBasis:
    """The reduced Gröbner basis of a homogeneous Artinian ideal, read off its quotient ring.

    The minimal generators of in(I) are among the leading monomials of the
    ring's base B and the pivots of its echelon forms through one past the
    socle degree; each one, m, gives the element m - nf(m).  A non-Artinian
    ideal raises ValueError.
    """
    from .quotient import QuotientRing  # quotient builds on this module

    if not any(generators):
        raise ValueError("the zero ideal has no Gröbner basis to read off")
    ring = QuotientRing(generators)
    if not ring.is_artinian:
        raise ValueError("groebner_basis reads the basis of an Artinian ideal only")
    leads = (Polynomial.monomial(ring.n, ring.field, m) for m in ring.initial_generators(ring.socle_degree() + 1))
    return GroebnerBasis(ring.n, ring.field, [lead - ring.nf(lead) for lead in leads])


def is_groebner_basis(polys: Sequence[Polynomial]) -> bool:
    """Check the Buchberger criterion directly: every S-polynomial reduces to zero."""
    gens = [g for g in polys if g]
    for f, g in combinations(gens, 2):
        if mono_lcm(f.lm, g.lm) == mono_mul(f.lm, g.lm):
            continue
        if normal_form(s_polynomial(f, g), gens):
            return False
    return True


def ideal_equal(
    gens_a: Sequence[Polynomial], gens_b: Sequence[Polynomial], *more: Sequence[Polynomial]
) -> bool:
    """Equality of two or more homogeneous ideals, each given by generators.

    Each ideal gets one ring, and each list's generators are reduced against
    the echelon forms of the next ideal's ring, cyclically: I_1 ⊆ I_2 ⊆ ... ⊆
    I_k ⊆ I_1 makes them all equal.  For two ideals this is mutual membership.
    """
    from .quotient import QuotientRing  # quotient builds on this module

    lists = [[g for g in gens if g] for gens in (gens_a, gens_b, *more)]
    if not all(lists):
        return not any(lists)
    rings = [QuotientRing(gens) for gens in lists]
    return not any(rings[(k + 1) % len(rings)].nf(g) for k, gens in enumerate(lists) for g in gens)


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
