"""Coefficient fields: exact rationals and prime fields GF(p).

A rational coefficient is canonical: an integral value is a Python int, and
a ``fractions.Fraction`` appears only when the denominator is above 1, so
the integral values that P, R and A mostly hold pay int arithmetic, not
``Fraction`` arithmetic.  Prime-field coefficients are ints in ``range(p)``.
A ``Field`` instance bundles the arithmetic so polynomial and matrix code
can stay field-agnostic; over QQ each of its operations returns the
canonical value.  An int or a ``Fraction`` from outside becomes a
coefficient only through ``Field.coerce``, the one rule for entering the
field.  The only true division is ``inv`` of a ``Fraction``, so no int
divides an int and no float can appear.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import index

from .errors import FieldMismatch

DEFAULT_PRIME = 32003


def is_prime(p: int) -> bool:
    """Trial division: at most about 10^4 steps up to MAX_PRIME."""
    return p >= 2 and not any(p % q == 0 for q in range(2, min(p, 1 + int(p ** 0.5) + 1)))


# The largest prime p with (p-1)^2 < 2^53, the bound below which the mod-p
# kernels of ``linalg`` are exact (see the notes on gf_matmul and gf_rank).
MAX_PRIME = next(p for p in range(isqrt((1 << 53) - 1) + 1, 1, -1) if is_prime(p))


def canonical(a):
    """A rational as its canonical coefficient: the int if it is integral, else the ``Fraction``."""
    if type(a) is int or a.denominator != 1:
        return a
    return a.numerator


def canonical_vector(vec: list) -> list:
    """``vec`` with each integral ``Fraction`` made an int; ``vec`` itself when it holds no ``Fraction``."""
    return [canonical(a) for a in vec] if Fraction in map(type, vec) else vec


class Field:
    """The rationals (characteristic 0) or GF(p) for a prime p."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        if characteristic < 0:
            raise ValueError("characteristic must be 0 or a prime")
        if characteristic > MAX_PRIME:
            raise ValueError(f"characteristic {characteristic} exceeds {MAX_PRIME}, the largest prime handled exactly")
        if characteristic and not is_prime(characteristic):
            raise ValueError(f"{characteristic} is not prime")
        self.characteristic = characteristic

    # -- basic queries ------------------------------------------------
    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, a):
        """An int or a ``Fraction`` as an element of this field; TypeError otherwise.

        Over QQ an int stays itself and a ``Fraction`` with denominator 1
        becomes its numerator, so the result is canonical.  Over GF(p) an int
        is reduced mod p and a fraction maps through the inverse of its
        denominator, so p dividing it raises ZeroDivisionError.
        """
        p = self.characteristic
        if isinstance(a, Fraction):
            return self.div(a.numerator, a.denominator % p) if p else canonical(a)
        return index(a) % p if p else index(a)

    # -- arithmetic ---------------------------------------------------
    def add(self, a, b):
        if self.characteristic:
            return (a + b) % self.characteristic
        return canonical(a + b)

    def sub(self, a, b):
        if self.characteristic:
            return (a - b) % self.characteristic
        return canonical(a - b)

    def mul(self, a, b):
        if self.characteristic:
            return (a * b) % self.characteristic
        return canonical(a * b)

    def neg(self, a):
        if self.characteristic:
            return (-a) % self.characteristic
        return -a

    def inv(self, a):
        p = self.characteristic
        if p:
            # int() guards against numpy scalars, which 3-arg pow rejects
            a = int(a) % p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p) if p else canonical(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- misc ---------------------------------------------------------
    def parse_coeff(self, s: str):
        return self.coerce(Fraction(s))

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "QQ" if not self.characteristic else f"GF({self.characteristic})"


QQ = Field(0)


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    return Field(p)


def field_for_char(characteristic: int | None) -> Field:
    if not characteristic:
        return QQ
    return GF(characteristic)


def check_same_field(a: Field, b: Field):
    if a.characteristic != b.characteristic:
        raise FieldMismatch(f"mixed coefficient fields {a} and {b}")


def default_characteristic(n: int) -> int:
    """Default coefficient choice: exact rationals up to n=7, GF(32003) beyond.

    Rank computations at n = 8 get large enough that the single-large-prime
    path is the practical default; callers can always force characteristic 0.
    Measured on a 2-CPU machine (process start and ring construction
    included, two runs each), the n = 8 Koszul table (``betti --method
    koszul --no-cache``) takes 0.55-0.82 s for R (the table alone takes
    0.53 s, the median of ten benchmark runs) and 0.24 s for A over
    GF(32003), against 1.2-1.4 s and 0.25-0.27 s over QQ (A with
    ``OPENBLAS_NUM_THREADS=1``).  A is cheap in both fields because the
    Koszul route ranks one slice per dual pair of a Gorenstein ring and A's
    echelon forms come from the colon that defines it, and R's slices leave
    out the columns that the slice above pivots on; R's table over QQ is
    what the prime still saves.
    The prime comfortably exceeds every n in scope, matching the standing
    hypothesis that the characteristic is zero or larger than n.
    """
    return 0 if n <= 7 else DEFAULT_PRIME
