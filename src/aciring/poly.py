"""Multivariate polynomial arithmetic over an exact coefficient field.

Monomials are exponent tuples.  A ``Polynomial`` and a ``DividedPowerForm``
(the contraction side of Macaulay duality, in ``y``-variables) share one term
list: an association list sorted in descending graded reverse lexicographic
order, so the leading term is ``terms[0]`` and merges during reduction are
linear.  Every constructor maps its coefficients into the field with
``Field.coerce`` and merges its terms in one place, so each stored
coefficient is canonical and nonzero.
"""

from __future__ import annotations

import itertools
import re
from operator import le
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch
from .fields import Field, QQ, check_same_field

Mono = tuple  # exponent tuple, one entry per variable


# ----------------------------------------------------------------------
# monomial helpers
# ----------------------------------------------------------------------

def mono_one(n: int) -> Mono:
    return (0,) * n


def mono_deg(m: Mono) -> int:
    return sum(m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """Whether a | b exponentwise."""
    return all(map(le, a, b))


def mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def revlex_key(m: Mono):
    """Sort key realizing grevlex: tuples compare the way monomials do."""
    return (sum(m), tuple(-e for e in reversed(m)))


def monomials_of_degree(n: int, d: int) -> Iterator[Mono]:
    """All exponent tuples of total degree d in n variables."""
    if d == 0:
        yield mono_one(n)
        return
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        yield tuple(e)


def squarefree_monomials(n: int, d: int) -> list[Mono]:
    """0/1 exponent tuples of degree d, sorted descending in grevlex."""
    out = []
    for supp in itertools.combinations(range(n), d):
        e = [0] * n
        for i in supp:
            e[i] = 1
        out.append(tuple(e))
    out.sort(key=revlex_key, reverse=True)
    return out


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

class _TermList:
    """The n, field and sorted terms that polynomials and dual forms share.

    The unsorted path merges arbitrary terms: each coefficient enters the
    field through ``field.coerce``, duplicates are summed, zeros dropped and
    the monomials sorted.  ``_sorted=True`` stores the terms as given, for
    internal callers whose terms come out of field operations already
    canonical, nonzero and in order.  The other merge is ``_merge``, behind
    ``+`` and ``-``: a linear pass over two sorted lists.  Routing those
    through this constructor instead took ``groebner_basis`` of the n = 8
    orbit ideal over GF(32003), plus ``is_groebner_basis``, from 1.8-1.9 s
    to 2.9-3.3 s (three runs each, one core of a 2-CPU machine), so it stays.
    """

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field: Field, terms: Iterable[tuple[Mono, object]], _sorted=False):
        self.n = n
        self.field = field
        if _sorted:
            self.terms = tuple(terms)
            return
        coerce, add = field.coerce, field.add
        acc: dict = {}
        for m, c in terms:
            if len(m) != n:
                raise DimensionMismatch(f"monomial {m} in {n} variables")
            c = coerce(c)
            cur = acc.get(m)
            acc[m] = c if cur is None else add(cur, c)
        monos = sorted((m for m, c in acc.items() if c != 0), key=revlex_key, reverse=True)
        self.terms = tuple((m, acc[m]) for m in monos)

    @property
    def degree(self) -> int:
        """Total degree (of the leading term); -1 for zero."""
        return sum(self.terms[0][0]) if self.terms else -1

    def _check(self, other: "_TermList"):
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n} variables")
        check_same_field(self.field, other.field)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.field.characteristic, self.terms))

    def __bool__(self):
        return bool(self.terms)


class Polynomial(_TermList):
    """A polynomial with terms kept sorted in descending grevlex order."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, n: int, field: Field) -> "Polynomial":
        return cls(n, field, (), _sorted=True)

    @classmethod
    def constant(cls, n: int, field: Field, c) -> "Polynomial":
        return cls(n, field, ((mono_one(n), c),))

    @classmethod
    def variable(cls, n: int, field: Field, i: int) -> "Polynomial":
        """The variable x_{i+1} (0-based index i)."""
        e = [0] * n
        e[i] = 1
        return cls(n, field, ((tuple(e), field.one()),), _sorted=True)

    @classmethod
    def monomial(cls, n: int, field: Field, m: Mono, c=1) -> "Polynomial":
        m = tuple(m)
        if len(m) != n:
            raise DimensionMismatch(f"monomial {m} in {n} variables")
        c = field.coerce(c)
        return cls(n, field, ((m, c),) if c else (), _sorted=True)

    # -- term access ------------------------------------------------------
    def lt(self):
        """Leading (monomial, coefficient) pair, or None for the zero polynomial."""
        return self.terms[0] if self.terms else None

    @property
    def lm(self) -> Mono:
        return self.terms[0][0]

    @property
    def lc(self):
        return self.terms[0][1]

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.n, self.field, _merge(self.field, self.terms, other.terms, 1), _sorted=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.n, self.field, _merge(self.field, self.terms, other.terms, -1), _sorted=True)

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return Polynomial(self.n, self.field, tuple((m, neg(c)) for m, c in self.terms), _sorted=True)

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == 0:
            return Polynomial.zero(self.n, self.field)
        mul = self.field.mul
        return Polynomial(self.n, self.field, tuple((m, mul(coeff, c)) for m, coeff in self.terms), _sorted=True)

    def term_mul(self, m: Mono, c) -> "Polynomial":
        """Multiply by the single term c * x^m.  Preserves the sort order."""
        c = self.field.coerce(c)
        if c == 0:
            return Polynomial.zero(self.n, self.field)
        mul = self.field.mul
        return Polynomial(
            self.n, self.field,
            tuple((mono_mul(mm, m), mul(cc, c)) for mm, cc in self.terms),
            _sorted=True,
        )

    def mul(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        products = [(mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms for m2, c2 in other.terms]
        return Polynomial(self.n, self.field, products)

    def __mul__(self, other):
        return self.mul(other) if isinstance(other, Polynomial) else self.scale(other)

    __rmul__ = __mul__

    def power(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, self.field, self.field.one())
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.field.inv(self.lc))

    def permute(self, sigma: Sequence[int]) -> "Polynomial":
        """Apply the variable substitution x_i -> x_{sigma(i)} (0-based tuple)."""
        out = []
        for m, c in self.terms:
            e = [0] * self.n
            for i, exp in enumerate(m):
                if exp:
                    e[sigma[i]] += exp
            out.append((tuple(e), c))
        return Polynomial(self.n, self.field, out)

    # -- text -------------------------------------------------------------
    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r}, n={self.n}, field={self.field})"


def _merge(field: Field, a, b, sign: int):
    """Merge two descending term lists, adding (sign=1) or subtracting (sign=-1)."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ma, ca = a[i]
        mb, cb = b[j]
        if ma == mb:
            c = field.add(ca, cb) if sign > 0 else field.sub(ca, cb)
            if c != 0:
                out.append((ma, c))
            i += 1
            j += 1
        elif revlex_key(ma) > revlex_key(mb):
            out.append((ma, ca))
            i += 1
        else:
            out.append((mb, cb if sign > 0 else field.neg(cb)))
            j += 1
    out.extend(a[i:])
    if sign > 0:
        out.extend(b[j:])
    else:
        neg = field.neg
        out.extend((m, neg(c)) for m, c in b[j:])
    return out


# ----------------------------------------------------------------------
# standard elements of the rings under study
# ----------------------------------------------------------------------

def variable_sum(n: int, field: Field = QQ) -> Polynomial:
    """x1 + x2 + ... + xn."""
    one = field.one()
    terms = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        terms.append((tuple(e), one))
    return Polynomial(n, field, terms)


def squared_variable_sum(n: int, field: Field = QQ) -> Polynomial:
    """(x1 + ... + xn)^2."""
    return variable_sum(n, field).power(2)


# ----------------------------------------------------------------------
# symmetric group orbits
# ----------------------------------------------------------------------

def symmetric_orbit(f: Polynomial) -> list[Polynomial]:
    """All distinct images of f under permutations of the variables.

    The orbit is the closure of f under the adjacent transpositions, which
    generate S_n: each distinct image is permuted n - 1 times, where applying
    all of S_n to f would take n! permutations.  Equality is exact (same term
    list); the orbit is returned sorted by the term-list key so it is
    deterministic.
    """
    swaps = []
    for i in range(f.n - 1):
        sigma = list(range(f.n))
        sigma[i], sigma[i + 1] = i + 1, i
        swaps.append(sigma)
    seen = {f.terms: f}
    todo = [f]
    while todo:
        g = todo.pop()
        for sigma in swaps:
            h = g.permute(sigma)
            if h.terms not in seen:
                seen[h.terms] = h
                todo.append(h)
    return [seen[k] for k in sorted(seen, key=lambda terms: [(revlex_key(m), str(c)) for m, c in terms])]


# ----------------------------------------------------------------------
# text form
# ----------------------------------------------------------------------

def _format_mono(m: Mono, var: str) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"{var}{i + 1}")
        elif e > 1:
            parts.append(f"{var}{i + 1}^{e}")
    return "*".join(parts)


def _format_terms(terms, field: Field, var: str) -> str:
    if not terms:
        return "0"
    chunks = []
    for k, (m, c) in enumerate(terms):
        mono = _format_mono(m, var)
        neg = _coeff_is_negative(c, field)
        mag = field.neg(c) if neg else c
        body = mono if (mag == 1 and mono) else (str(mag) if not mono else f"{mag}*{mono}")
        if k == 0:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def _coeff_is_negative(c, field: Field) -> bool:
    # prime-field coefficients are canonical in [0, p) and never print negated
    return not field.characteristic and c < 0


def format_poly(f: Polynomial) -> str:
    return _format_terms(f.terms, f.field, "x")


_TOKEN = re.compile(r"\s*(?:(?P<coeff>\d+(?:/\d+)?)|(?P<var>[A-Za-z])(?P<idx>\d+)(?:\^(?P<exp>\d+))?|(?P<op>[+\-*]))")


def parse_poly(text: str, n: int, field: Field = QQ, var: str = "x") -> Polynomial:
    """Parse strings like ``x1^2 - 2*x1*x2 + 5/3``.

    The grammar has no parentheses: a sum of terms, each term an optional
    coefficient with ``*``-separated powers of variables.  Round-trips with
    :func:`format_poly` exactly.
    """
    pos = 0
    terms = []
    sign = 1
    cur_coeff = None
    cur_mono = None
    started = False

    def flush():
        nonlocal cur_coeff, cur_mono, sign, started
        if not started:
            return
        c = cur_coeff if cur_coeff is not None else field.one()
        if sign < 0:
            c = field.neg(c)
        terms.append((tuple(cur_mono) if cur_mono is not None else mono_one(n), c))
        cur_coeff = None
        cur_mono = None
        sign = 1
        started = False

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("op"):
            op = m.group("op")
            if op == "*":
                if not started:
                    raise ValueError("misplaced '*'")
                continue
            flush()
            if op == "-":
                sign = -sign
        elif m.group("coeff"):
            if started and cur_coeff is not None:
                raise ValueError("two coefficients in one term")
            cur_coeff = field.parse_coeff(m.group("coeff"))
            started = True
        else:
            if m.group("var") != var:
                raise ValueError(f"unexpected variable letter {m.group('var')!r}")
            idx = int(m.group("idx"))
            if not 1 <= idx <= n:
                raise ValueError(f"variable {var}{idx} outside 1..{n}")
            exp = int(m.group("exp") or 1)
            if cur_mono is None:
                cur_mono = [0] * n
            cur_mono[idx - 1] += exp
            started = True
    flush()
    return Polynomial(n, field, terms)


# ----------------------------------------------------------------------
# divided-power forms and contraction
# ----------------------------------------------------------------------

class DividedPowerForm(_TermList):
    """A dual form in divided-power variables y1..yn.

    Stored in the term list a polynomial uses, but never equal to one; the
    interesting operation is contraction by ring elements, see :func:`contract`.
    """

    __slots__ = ()

    def evaluate_at_ones(self):
        """Sum of the coefficients, i.e. the value at y1 = ... = yn = 1."""
        return self.field.coerce(sum(c for _, c in self.terms))

    def __str__(self):
        return _format_terms(self.terms, self.field, "y")

    def __repr__(self):
        return f"DividedPowerForm({str(self)!r}, n={self.n})"


def parse_form(text: str, n: int, field: Field = QQ) -> DividedPowerForm:
    p = parse_poly(text, n, field, var="y")
    return DividedPowerForm(n, field, p.terms)


def contract(f: Polynomial, form: DividedPowerForm) -> DividedPowerForm:
    """Contraction action of the polynomial ring on divided-power forms.

    On monomials: x^d acts on y^(e) giving y^(e-d) when e-d is nonnegative
    in every coordinate, and 0 otherwise; extended bilinearly.
    """
    f._check(form)
    terms = [(mono_div(e, d), c * k) for d, c in f.terms for e, k in form.terms if mono_divides(d, e)]
    return DividedPowerForm(form.n, form.field, terms)
