"""The primality predicate, the characteristics a Field accepts, and the
canonical form of a rational coefficient."""

from fractions import Fraction

import pytest

from aciring.fields import GF, MAX_PRIME, QQ, Field, is_prime


def _is_prime_naive(p):
    return p >= 2 and all(p % d for d in range(2, p))


def test_is_prime_matches_naive_predicate():
    for p in range(-50, 2001):
        assert is_prime(p) == _is_prime_naive(p), p


@pytest.mark.parametrize("characteristic", [1, 4, -3])
def test_field_rejects_non_primes(characteristic):
    with pytest.raises(ValueError):
        Field(characteristic)


def test_field_bounds_the_prime():
    # Mersenne primes above the bound; 2^61 - 1 must be refused before the
    # trial division, which would not finish
    for p in (2**31 - 1, 2**61 - 1):
        with pytest.raises(ValueError):
            GF(p)
    assert GF(MAX_PRIME).characteristic == MAX_PRIME
    # the largest prime p with (p-1)^2 < 2^53; the next prime is 94906297
    assert MAX_PRIME == 94906249 and (MAX_PRIME - 1) ** 2 < 2**53 <= (94906297 - 1) ** 2


def test_inverse_reduces_before_refusing_zero():
    F7 = GF(7)
    for zero in (0, 7, 14, -7):
        with pytest.raises(ZeroDivisionError):
            F7.inv(zero)
    with pytest.raises(ZeroDivisionError):
        F7.div(3, 14)
    assert F7.inv(8) == F7.inv(1) == 1
    assert F7.inv(-1) == 6 and F7.div(3, 9) == 5
    with pytest.raises(ZeroDivisionError):
        Field(0).inv(0)


def test_rational_coefficients_are_ints_unless_the_denominator_exceeds_one():
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert type(QQ.coerce(Fraction(4, 2))) is int and QQ.coerce(Fraction(4, 2)) == 2
    assert type(QQ.coerce(True)) is int and QQ.coerce(Fraction(-3, 6)) == Fraction(-1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    # sums, products and quotients that land on an integer come back as ints, never as floats
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(5, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), 3)) is int
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert QQ.div(1, 2) == Fraction(1, 2) and QQ.parse_coeff("6/3") == 2
