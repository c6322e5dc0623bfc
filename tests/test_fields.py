"""The primality predicate and the characteristics a Field accepts."""

import pytest

from aciring.fields import Field, is_prime


def _is_prime_naive(p):
    return p >= 2 and all(p % d for d in range(2, p))


def test_is_prime_matches_naive_predicate():
    for p in range(-50, 2001):
        assert is_prime(p) == _is_prime_naive(p), p


@pytest.mark.parametrize("characteristic", [1, 4, -3])
def test_field_rejects_non_primes(characteristic):
    with pytest.raises(ValueError):
        Field(characteristic)
