"""Polynomial arithmetic, the monomial order, orbits, and contraction."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aciring.errors import DimensionMismatch
from aciring.fields import GF, QQ
from aciring.gorenstein import g_polynomial, inverse_form
from aciring.poly import (
    DividedPowerForm,
    Polynomial,
    contract,
    format_poly,
    monomials_of_degree,
    parse_form,
    parse_poly,
    revlex_key,
    squared_variable_sum,
    squarefree_monomials,
    symmetric_orbit,
    variable_sum,
)

from _oracle import all_monomials, dict_mul, revlex_greater


def P(text, n, field=QQ):
    return parse_poly(text, n, field)


# ----------------------------------------------------------------------
# monomial order
# ----------------------------------------------------------------------


def test_revlex_order_worked_examples():
    # x1*x2 > x1*x3 (n=3): smaller exponent on the last differing variable
    assert revlex_key((1, 1, 0)) > revlex_key((1, 0, 1))
    # x1^2 > x1*x2
    assert revlex_key((2, 0)) > revlex_key((1, 1))
    # leading monomial of (x1-x2)(x3-x4) in n=5 is x1*x3
    g = P("x1*x3 - x1*x4 - x2*x3 + x2*x4", 5)
    assert g.lm == (1, 0, 1, 0, 0)


def _random_monos(n, max_deg):
    return st.tuples(*[st.integers(min_value=0, max_value=max_deg) for _ in range(n)])


@given(_random_monos(4, 3), _random_monos(4, 3))
def test_revlex_matches_oracle_and_antisymmetry(a, b):
    ka, kb = revlex_key(a), revlex_key(b)
    assert (ka > kb) == revlex_greater(a, b)
    assert (ka < kb) == revlex_greater(b, a)
    assert (ka == kb) == (a == b)


@given(_random_monos(5, 2), _random_monos(5, 2), _random_monos(5, 2))
def test_revlex_transitive_and_multiplicative(a, b, w):
    if revlex_key(a) > revlex_key(b):
        aw = tuple(x + y for x, y in zip(a, w))
        bw = tuple(x + y for x, y in zip(b, w))
        assert revlex_key(aw) > revlex_key(bw)
        # transitivity, judged by the oracle
        if revlex_key(b) > revlex_key(w):
            assert revlex_greater(a, w)


def test_monomial_enumeration_counts():
    # C(n+d-1, d) monomials of degree d; C(n, d) squarefree ones
    assert len(list(monomials_of_degree(4, 3))) == 20
    assert sorted(monomials_of_degree(3, 2)) == all_monomials(3, 2)
    assert len(squarefree_monomials(5, 2)) == 10
    assert len(squarefree_monomials(4, 5)) == 0


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------


def test_product_worked_examples():
    f = P("x1 + x2", 2)
    assert f.mul(f) == P("x1^2 + 2*x1*x2 + x2^2", 2)
    assert not (f - f)  # zero polynomial has empty term list
    h3 = variable_sum(3)
    assert h3.mul(h3) == P(
        "x1^2 + x2^2 + x3^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3", 3
    )
    assert squared_variable_sum(3) == h3.mul(h3)


coeffs = st.integers(min_value=-3, max_value=3)


def _poly_strategy(n, field):
    mono = _random_monos(n, 2)
    return st.lists(st.tuples(mono, coeffs), max_size=5).map(
        lambda items: Polynomial(
            n, field, [(m, field.coerce(c)) for m, c in items if c % (field.characteristic or 10**9)]
        )
    )


@settings(max_examples=60)
@given(_poly_strategy(3, QQ), _poly_strategy(3, QQ), _poly_strategy(3, QQ))
def test_ring_laws_rationals(f, g, h):
    assert f.mul(g) == g.mul(f)
    assert (f + g).mul(h) == f.mul(h) + g.mul(h)
    assert f.mul(g.mul(h)) == f.mul(g).mul(h)
    assert f + (-f) == Polynomial(3, QQ, [])


@settings(max_examples=60)
@given(_poly_strategy(3, GF(5)), _poly_strategy(3, GF(5)))
def test_mul_matches_dict_oracle_gf5(f, g):
    got = f.mul(g)
    want = dict_mul(dict(f.terms), dict(g.terms))
    want = {m: c % 5 for m, c in want.items() if c % 5}
    assert dict(got.terms) == want


@settings(max_examples=60)
@given(_poly_strategy(2, QQ), _poly_strategy(2, QQ))
def test_mul_matches_dict_oracle_qq(f, g):
    got = f.mul(g)
    want = {m: c for m, c in dict_mul(dict(f.terms), dict(g.terms)).items() if c}
    assert dict(got.terms) == want


def test_constructors_map_coefficients_into_the_field():
    F7 = GF(7)
    seven_x1 = Polynomial(2, F7, [((1, 0), 7)])
    assert not seven_x1 and seven_x1.degree == -1
    assert Polynomial(2, F7, [((1, 0), -1)]) == Polynomial(2, F7, [((1, 0), 6)])
    assert str(Polynomial(2, F7, [((1, 0), -1)])) == "6*x1"
    assert Polynomial(2, F7, [((1, 0), Fraction(1, 2))]).terms == (((1, 0), 4),)
    zero = Polynomial.monomial(2, QQ, (1, 0), 0)
    assert not zero and zero.degree == -1
    assert not Polynomial.constant(2, F7, 14) and not P("x1", 2, F7) * 7
    assert not DividedPowerForm(2, F7, [((1, 1), 14)])
    # a rational with p in its denominator has no image mod p, and a float
    # is not an exact coefficient
    with pytest.raises(ZeroDivisionError):
        Polynomial.monomial(2, F7, (1, 0), Fraction(1, 7))
    with pytest.raises(TypeError):
        Polynomial.monomial(2, QQ, (1, 0), 0.5)
    with pytest.raises(DimensionMismatch):
        DividedPowerForm(2, QQ, [((1, 0, 0), 1)])
    # the one-term constructor maps its coefficient as the general one does
    for field in (QQ, F7):
        for c in (1, -1, 9, Fraction(3, 2), Fraction(4, 2), 0, 7):
            got = Polynomial.monomial(2, field, [1, 0], c)
            assert got == Polynomial(2, field, [((1, 0), c)]) and got.terms == Polynomial(2, field, [((1, 0), c)]).terms
    with pytest.raises(DimensionMismatch):
        Polynomial.monomial(2, QQ, (1, 0, 0))


def test_form_never_equals_polynomial():
    terms = [((1, 1), Fraction(1))]
    assert DividedPowerForm(2, QQ, terms) != Polynomial(2, QQ, terms)
    assert Polynomial(2, QQ, terms) != DividedPowerForm(2, QQ, terms)


def test_terms_stay_sorted_and_nonzero():
    f = P("x2^2 - x1*x2 + x1^2 + x1*x2", 2)
    monos = [m for m, _ in f.terms]
    assert monos == sorted(monos, key=revlex_key, reverse=True)
    assert all(c != 0 for _, c in f.terms)


def test_term_mul_maps_its_coefficient_into_the_field():
    F7 = GF(7)
    x1 = Polynomial.variable(2, F7, 0)
    killed = x1.term_mul((1, 0), 7)
    assert not killed and killed.terms == () and killed.degree == -1
    assert x1.term_mul((0, 1), 9).terms == (((1, 1), 2),)
    assert x1.term_mul((0, 1), -1) == Polynomial(2, F7, [((1, 1), 6)])
    assert not P("x1 + x2", 2).term_mul((1, 0), 0)
    assert P("x1", 2).term_mul((0, 1), Fraction(1, 2)) == P("1/2*x1*x2", 2)


def test_exponents_have_no_cap():
    f = P("x1^2", 2)
    assert f.mul(f.mul(f)).lm == (6, 0)
    assert (f * f * f).lm == (6, 0)
    assert P("x1 + x2", 2).power(5) == P(
        "x1^5 + 5*x1^4*x2 + 10*x1^3*x2^2 + 10*x1^2*x2^3 + 5*x1*x2^4 + x2^5", 2
    )


def test_parse_format_round_trip():
    # texts already in canonical (descending grevlex) term order
    for text in ["x1^2 - 2*x1*x2", "x1*x3 - x2*x3 - x1*x4 + x2*x4", "3*x2"]:
        n = 4
        assert format_poly(parse_poly(text, n)) == text
    # and in general parse . format is the identity on polynomials
    f = parse_poly("x2*x4 - x2*x3 + 5*x1^2", 4)
    assert parse_poly(format_poly(f), 4) == f


def test_parse_form_round_trip():
    for field in (QQ, GF(7)):
        for n in range(2, 6):
            F = inverse_form(n, field)
            assert parse_form(str(F), n, field) == F, (n, field)
    # a fractional coefficient and a square: -3/4 is 1 mod 7, -5 is 2
    text = "-3/4*y1^2*y3 + y2*y3 - 5"
    F = parse_form(text, 3)
    assert F == DividedPowerForm(3, QQ, [((2, 0, 1), Fraction(-3, 4)), ((0, 1, 1), 1), ((0, 0, 0), -5)])
    assert str(F) == text and parse_form(str(F), 3) == F
    F7 = parse_form(text, 3, GF(7))
    assert F7 == DividedPowerForm(3, GF(7), [((2, 0, 1), 1), ((0, 1, 1), 1), ((0, 0, 0), 2)])
    assert parse_form(str(F7), 3, GF(7)) == F7


# ----------------------------------------------------------------------
# symmetric orbit
# ----------------------------------------------------------------------


def test_orbit_worked_examples():
    assert {format_poly(q) for q in symmetric_orbit(P("x1", 2))} == {"x1", "x2"}
    orbit3 = symmetric_orbit(P("x1 - x2", 3))
    assert len(orbit3) == 6  # includes both signs of each difference
    assert P("x2 - x1", 3) in orbit3 and P("x1 - x3", 3) in orbit3
    orbit4 = symmetric_orbit(P("x1*x3 - x2*x3", 4))
    assert len(orbit4) == 24  # all of S_4, pairwise exactly distinct
    # the closure under adjacent transpositions is the image under all of S_n
    for n in range(5, 8):
        g = g_polynomial(n, QQ)
        images = {g.permute(sigma) for sigma in itertools.permutations(range(n))}
        order = sorted(images, key=lambda f: [(revlex_key(m), str(c)) for m, c in f.terms])
        assert symmetric_orbit(g) == order


def test_orbit_closed_under_transpositions():
    f = P("x1*x2 - x3", 4)
    orbit = set(symmetric_orbit(f))
    for i in range(3):
        perm = list(range(4))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        assert all(g.permute(perm) in orbit for g in orbit)
    assert len(orbit) in {1, 2, 3, 4, 6, 8, 12, 24}  # divides 4!


# ----------------------------------------------------------------------
# contraction
# ----------------------------------------------------------------------


def test_contract_monomial_rules():
    F = DividedPowerForm(2, QQ, [((1, 1), Fraction(1))])  # y1*y2
    assert contract(P("x1", 2), F) == DividedPowerForm(2, QQ, [((0, 1), Fraction(1))])
    assert not contract(P("x1^2", 2), F)  # over-contraction is zero


def test_contract_h_squared_on_top_form():
    # (x1+..+xn)^2 applied to y1..yn leaves 2 * (all squarefree of degree n-2)
    for n in (3, 4, 5):
        top = DividedPowerForm(n, QQ, [(tuple([1] * n), Fraction(1))])
        got = contract(squared_variable_sum(n), top)
        want = {
            m: Fraction(2)
            for m in map(tuple, all_monomials(n, n - 2))
            if max(m) <= 1
        }
        assert dict(got.terms) == want


@settings(max_examples=40)
@given(_poly_strategy(3, QQ), _poly_strategy(3, QQ))
def test_contract_is_module_action(f, g):
    F = DividedPowerForm(3, QQ, [((1, 1, 1), Fraction(1)), ((2, 1, 0), Fraction(-2))])
    assert contract(f.mul(g), F) == contract(f, contract(g, F))
