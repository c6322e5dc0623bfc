"""Reduction, Gröbner bases from the echelon forms, initial ideals, ideal equality."""

import random

import pytest

from aciring.fields import GF, QQ
from aciring.gorenstein import G_from_orbit, ann_of_form
from aciring.groebner import (
    GroebnerBasis,
    MonomialIdeal,
    aci_ideal,
    groebner_basis,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    primed_squares_ideal,
    squares_ideal,
)
from aciring.poly import Polynomial, monomials_of_degree, parse_poly, squared_variable_sum
from aciring.quotient import QuotientRing, annihilator
from aciring.resolution import named_quotient

from _oracle import standard_monomials_slow


def P(text, n, field=QQ):
    return parse_poly(text, n, field)


# ----------------------------------------------------------------------
# normal form
# ----------------------------------------------------------------------


def test_normal_form_worked_examples():
    assert not normal_form(P("x1^2", 4), squares_ideal(4, QQ))
    assert normal_form(P("x1*x2", 2), squares_ideal(2, QQ)) == P("x1*x2", 2)
    # (x1+x2+x3)^2 lies in G for n=3 (A has Hilbert function (1,1))
    gb = groebner_basis(G_from_orbit(3, QQ))
    assert not normal_form(squared_variable_sum(3), gb)


def test_normal_form_idempotent_and_sound():
    basis = [P("x1^2 - x2^2", 3), P("x2*x3", 3)]
    f = P("x1^2*x3 + x1*x2*x3 + x2^2", 3)
    r = normal_form(f, basis)
    assert normal_form(r, basis) == r
    # no term of the remainder is divisible by a basis leading monomial
    for m, _ in r.terms:
        assert not any(all(a <= b for a, b in zip(g.lm, m)) for g in basis)


# ----------------------------------------------------------------------
# groebner_basis
# ----------------------------------------------------------------------


def test_gb_of_squares_is_the_generators():
    gb = groebner_basis(squares_ideal(5, QQ))
    assert sorted(g.lm for g in gb) == sorted(m.lm for m in squares_ideal(5, QQ))
    assert is_groebner_basis(list(gb))
    with pytest.raises(ValueError):  # the primed squares cut out a dimension-one ring
        groebner_basis(primed_squares_ideal(3, QQ))


def test_gb_of_full_quadric_ideal_keeps_shared_lead_terms():
    # x1^2, x2^2 and (x1+x2)^2 all have leading monomial among the squares;
    # reduction must produce the third element x1*x2, not drop it
    gb = groebner_basis(aci_ideal(2, QQ))
    assert {g.lm for g in gb} == {(2, 0), (1, 1), (0, 2)}
    assert len(gb.standard_monomials(2)) == 0  # Hilbert function of R for n=2 is (1,2)
    assert len(gb.standard_monomials(1)) == 2


def test_extracted_basis_is_reduced():
    for gens in (aci_ideal(3, QQ), aci_ideal(5, GF(101)), G_from_orbit(5, QQ), G_from_orbit(6, GF(101))):
        polys = list(groebner_basis(gens))
        for i, g in enumerate(polys):
            assert g.lc == 1
            others = polys[:i] + polys[i + 1 :]
            for m, _ in g.terms:
                assert not any(all(a <= b for a, b in zip(h.lm, m)) for h in others)


def test_raw_aci_generators_are_not_a_gb():
    assert not is_groebner_basis(aci_ideal(3, QQ))


def test_gb_of_gorenstein_ideal_n3():
    gb = groebner_basis(G_from_orbit(3, QQ))
    assert gb.initial_ideal() == MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])


def test_gb_of_gorenstein_ideal_n5_degree2_count():
    gb = groebner_basis(G_from_orbit(5, QQ))
    squares = {tuple(2 if j == i else 0 for j in range(5)) for i in range(5)}
    deg2 = [g.lm for g in gb if g.degree == 2 and g.lm not in squares]
    assert len(deg2) == 5  # Catalan number C_3


def test_gb_works_over_prime_field():
    gb = groebner_basis(aci_ideal(3, GF(32003)))
    assert len(gb.standard_monomials(2)) == 2  # h_R(3) = (1,3,2)


def _ideals(n, field):
    yield from (list(named_quotient(label, n, field).generators) for label in "PRA")
    yield G_from_orbit(n, field)
    yield ann_of_form(n, field)


def _random_form(rng, n, field, d):
    terms = [(m, field.coerce(rng.randint(-3, 3))) for m in monomials_of_degree(n, d) if rng.random() < 0.6]
    return Polynomial(n, field, terms)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_extracted_basis_is_certified_and_divides_like_the_ring(field):
    rng = random.Random(6)
    for n in range(2, 6):
        for gens in _ideals(n, field):
            ring = QuotientRing(gens)
            gb = groebner_basis(gens)
            assert is_groebner_basis(gb.polys)
            for _ in range(4):
                d = rng.randint(0, ring.socle_degree() + 1)
                f = _random_form(rng, n, field, d) + _random_form(rng, n, field, d + 1)
                assert ring.nf(f) == normal_form(f, gb)


# ----------------------------------------------------------------------
# monomial ideals
# ----------------------------------------------------------------------


def test_monomial_ideal_minimalizes():
    ideal = MonomialIdeal(3, [(1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0)])
    assert set(ideal.gens) == {(1, 1, 0), (2, 0, 0)}
    assert ideal.contains((1, 2, 1))
    assert not ideal.contains((0, 2, 2))


def test_monomial_ideal_membership_matches_divisibility():
    # pure powers are tested by exponent bounds, the other generators by
    # division; the constant monomial holds everything
    rng = random.Random(5)
    for gens in (
        [(2, 0, 0, 0), (0, 3, 0, 0), (1, 0, 1, 0), (0, 1, 0, 2)],
        [(0, 0, 0, 1), (0, 0, 4, 0), (0, 0, 2, 0)],
        [(1, 1, 1, 1)],
        [(0, 0, 0, 0), (5, 0, 0, 0)],
        [],
    ):
        ideal = MonomialIdeal(4, gens)
        for _ in range(200):
            m = tuple(rng.randint(0, 4) for _ in range(4))
            want = any(all(a <= b for a, b in zip(g, m)) for g in gens)
            assert ideal.contains(m) is want, (gens, m)


def test_standard_monomials_match_brute_force():
    gb = groebner_basis(aci_ideal(4, QQ))
    leads = [g.lm for g in gb]
    for d in range(0, 5):
        got = set(gb.standard_monomials(d))
        assert got == standard_monomials_slow(leads, 4, d)


# ----------------------------------------------------------------------
# ideal equality
# ----------------------------------------------------------------------


def test_ideal_equal_reflexive_and_strict():
    J3 = squares_ideal(3, QQ)
    assert ideal_equal(J3, J3)
    # I has one extra quadric: dim J_2 = 3 < 4 = dim I_2
    I3 = aci_ideal(3, QQ)
    assert not ideal_equal(J3, I3)
    # three ideals: equal presentations agree, and the cycle J ⊆ I ⊆ I holds
    # until its closing step I ⊆ J fails
    assert ideal_equal(I3, I3[::-1], I3 + [J3[0] + J3[1]])
    assert not ideal_equal(J3, I3, I3)
    assert not ideal_equal(I3, J3, I3)


def test_ideal_equal_colon_vs_orbit_n5():
    P5 = QuotientRing(squares_ideal(5, QQ), name="P")
    colon_gens = list(P5.generators) + annihilator(P5, squared_variable_sum(5, QQ))
    assert ideal_equal(colon_gens, G_from_orbit(5, QQ))
