"""The Gorenstein quotient through its explicit generators and inverse system.

Three independent presentations of the same ideal meet here: the colon
construction lives in :mod:`.resolution`, while this module builds the
symmetric-orbit generators, the annihilator of a single dual form, and the
predicted initial ideal whose squarefree part is indexed by ballot
sequences.  It also carries the strong Lefschetz check for A by two
independent routes that share no construction: Hessian determinants of the
dual form, and ranks of the powers of the variable sum on A built by the
colon construction (``named_quotient("A", ...)``).
"""

from __future__ import annotations

import warnings

from .fields import GF, QQ, Field
from .formulas import ell
from .groebner import MonomialIdeal, normal_form, squares_ideal
from .linalg import Echelon, compose, int_det_bareiss, kernel_basis, rank
from .poly import (
    DividedPowerForm,
    Mono,
    Polynomial,
    contract,
    monomials_of_degree,
    revlex_key,
    squarefree_monomials,
    squared_variable_sum,
    symmetric_orbit,
    variable_sum,
)
from .resolution import named_quotient
from .runmemo import _per_run

__all__ = [
    "BallotSequence",
    "HessianMatrix",
    "G_from_orbit",
    "ann_of_form",
    "ballot_sequences",
    "disjointness_invertible",
    "disjointness_matrix",
    "g_identity_check",
    "g_polynomial",
    "hessian",
    "inverse_form",
    "predicted_initial_ideal",
    "slp_check_A",
]

BallotSequence = tuple[int, ...]


def g_polynomial(n: int, field: Field = QQ) -> Polynomial:
    """Product of consecutive variable differences, expanded.

    For odd n the factors are (x1-x2)(x3-x4)...(x_{n-2}-x_{n-1}); for even
    n the product stops one pair short and is closed off by the bare
    variable x_{n-1}.  Either way the degree is ell(n) + 1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pairs = (n - 1) // 2 if n % 2 else (n - 2) // 2
    f = Polynomial.constant(n, field, field.one())
    for t in range(pairs):
        diff = Polynomial.variable(n, field, 2 * t) - Polynomial.variable(n, field, 2 * t + 1)
        f = f.mul(diff)
    if n % 2 == 0:
        f = f.mul(Polynomial.variable(n, field, n - 2))
    return f


@_per_run
def G_from_orbit(n: int, field: Field = QQ) -> list[Polynomial]:
    """The variable squares together with the full symmetric orbit of
    :func:`g_polynomial`."""
    return list(squares_ideal(n, field)) + symmetric_orbit(g_polynomial(n, field))


def g_identity_check(n: int, field: Field = QQ) -> bool:
    """Whether g_polynomial(n) times the squared variable sum reduces to
    zero against the variable squares."""
    product = g_polynomial(n, field).mul(squared_variable_sum(n, field))
    # the squares have pairwise coprime leading terms, so plain reduction decides
    return not normal_form(product, squares_ideal(n, field))


def ballot_sequences(n: int) -> list[BallotSequence]:
    """All strictly increasing tuples (i_1, ..., i_{ell+1}) with i_j <= 2j.

    Entries are 1-based variable indices; the count is catalan(ell(n)+2).
    """
    length = ell(n) + 1
    out: list[BallotSequence] = []

    def extend(prefix: list[int]):
        j = len(prefix) + 1
        if j > length:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] + 1 if prefix else 1
        for i in range(lo, 2 * j + 1):
            prefix.append(i)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def predicted_initial_ideal(n: int) -> MonomialIdeal:
    """The variable squares plus one squarefree monomial per ballot
    sequence, minimalized."""
    mons: list[Mono] = []
    for i in range(n):
        e = [0] * n
        e[i] = 2
        mons.append(tuple(e))
    for seq in ballot_sequences(n):
        e = [0] * n
        for i in seq:
            e[i - 1] = 1
        mons.append(tuple(e))
    return MonomialIdeal(n, mons)


# ----------------------------------------------------------------------
# the inverse system
# ----------------------------------------------------------------------


def inverse_form(n: int, field: Field = QQ) -> DividedPowerForm:
    """Contraction of the squared variable sum against y1...yn.

    The result is twice the sum of all squarefree dual monomials of degree
    n - 2 (a constant for n = 2).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    ones = tuple([1] * n)
    target = DividedPowerForm(n, field, [(ones, field.one())])
    return contract(squared_variable_sum(n, field), target)


def _contraction_kernel(n: int, field: Field, form: DividedPowerForm, cols: list[Mono]):
    """Kernel vectors of m -> m ∘ form on the span of the given monomials."""
    rowindex: dict[Mono, int] = {}
    columns = []
    for m in cols:
        fm = contract(Polynomial.monomial(n, field, m), form)
        columns.append([(rowindex.setdefault(mm, len(rowindex)), c) for mm, c in fm.terms])
    return kernel_basis(columns, field)


@_per_run
def ann_of_form(n: int, field: Field = QQ) -> list[Polynomial]:
    """Minimal generators, found through degree n, of the ideal of
    polynomials whose contraction against :func:`inverse_form` vanishes.

    In each degree, the kernel of the contraction modulo the variable
    multiples of the kernel one degree lower gives the new generators.
    Degree two runs in full monomial coordinates, where the squares appear;
    every other degree in squarefree ones: a monomial with a square lies in
    the ideal already, so a multiple that lands on one projects away.
    """
    F = inverse_form(n, field)
    gens: list[Polynomial] = []
    prev_cols: list[Mono] = []
    prev_ker: list = []
    for d in range(1, n + 1):
        if d == 2:
            cols = sorted(monomials_of_degree(n, 2), key=revlex_key, reverse=True)
        else:
            cols = squarefree_monomials(n, d)
        idx = {m: j for j, m in enumerate(cols)}
        span = Echelon(field, len(cols))
        for v in prev_ker:
            for i in range(n):
                w = [field.zero()] * len(cols)
                for m, c in zip(prev_cols, v):
                    j = idx.get(m[:i] + (m[i] + 1,) + m[i + 1:])
                    if j is not None and c != 0:
                        w[j] = field.add(w[j], c)
                span.insert(w)
        ker = _contraction_kernel(n, field, F, cols)
        for v in ker:
            # nothing lies below degree one, so its kernel basis stays as it is
            residue = v if d == 1 else span.insert(list(v))
            if residue is not None:
                gens.append(Polynomial(n, field, zip(cols, residue)).monic())
        prev_cols, prev_ker = cols, ker
    return gens


# ----------------------------------------------------------------------
# Hessians and the strong Lefschetz check
# ----------------------------------------------------------------------


class HessianMatrix:
    """Symmetric contraction matrix of the dual form on a squarefree basis.

    ``entries[r][c]`` is the form (basis[r] * basis[c]) ∘ F; evaluating
    every entry at y = (1, ..., 1) gives an exact scalar matrix.
    """

    __slots__ = ("n", "order", "basis", "entries", "field")

    def __init__(self, n: int, order: int, basis: list[Mono], entries, field: Field):
        self.n = n
        self.order = order
        self.basis = basis
        self.entries = entries
        self.field = field

    def at_ones(self):
        return [[e.evaluate_at_ones() for e in row] for row in self.entries]

    def determinant_at_ones(self) -> int:
        """Exact determinant of the evaluated matrix (meaningful over QQ)."""
        return int_det_bareiss(self.at_ones())

    def __repr__(self):
        return f"HessianMatrix(n={self.n}, order={self.order}, dim={len(self.basis)})"


def hessian(n: int, i: int, field: Field = QQ) -> HessianMatrix:
    """The order-i contraction matrix of the dual form.

    The basis is the squarefree monomials of degree i in descending revlex
    order; i must lie between 0 and ell(n).
    """
    if not (0 <= i <= ell(n)):
        raise ValueError(f"hessian order must satisfy 0 <= i <= {ell(n)}, got {i}")
    F = inverse_form(n, field)
    basis = squarefree_monomials(n, i)
    polys = [Polynomial.monomial(n, field, m) for m in basis]
    entries = [[contract(pu.mul(pv), F) for pv in polys] for pu in polys]
    return HessianMatrix(n, i, basis, entries, field)


def disjointness_matrix(n: int, i: int) -> list[list[int]]:
    """0/1 matrix over pairs of squarefree degree-i monomials: 1 exactly
    when the supports are disjoint."""
    basis = squarefree_monomials(n, i)
    sup = [frozenset(k for k, e in enumerate(m) if e) for m in basis]
    return [[0 if (a & b) else 1 for b in sup] for a in sup]


def disjointness_invertible(n: int, i: int) -> bool:
    """Invertibility of the disjointness matrix, by exact determinant."""
    return int_det_bareiss(disjointness_matrix(n, i)) != 0


def _lefschetz_by_ranks(n: int, field: Field) -> bool:
    """Maximal-rank test for all powers of the variable sum acting on A.

    A is ``named_quotient("A", n, field)``, the colon construction
    (squares) : h^2, whose socle degree is n - 2; it never reads the dual
    form.  The power ℓ^j out of degree d is the composite of the column maps
    of ℓ between consecutive degrees, ``multiplication_map(ℓ, d)``.
    """
    A = named_quotient("A", n, field)
    top = n - 2
    steps = [A.multiplication_map(variable_sum(n, field), d) for d in range(top)]
    dims = [A.hilbert_function(d) for d in range(top + 1)]
    for d in range(top + 1):
        if dims[d] == 0:
            continue
        M = None
        for j in range(1, top - d + 1):
            if dims[d + j] == 0:
                break
            step = steps[d + j - 1]
            M = step if M is None else compose([(step, M)], field)
            if rank(M, field) != min(dims[d], dims[d + j]):
                return False
    return True


def slp_check_A(n: int, characteristic: int = 0) -> bool:
    """Strong Lefschetz check for A.

    Over the rationals two independent routes must agree and both hold:
    every Hessian determinant of the dual form is nonzero at the all-ones
    point, and every power of the variable sum multiplies with maximal rank
    between graded pieces of A built by the colon construction.  The
    Hessian-determinant criterion belongs to characteristic zero, so in
    positive characteristic a warning is issued and the rank route alone
    decides (sensible when the characteristic exceeds n).
    """
    if characteristic:
        warnings.warn(
            "the Hessian-determinant criterion applies in characteristic zero; "
            f"using only the direct rank route over GF({characteristic})",
            stacklevel=2,
        )
        return _lefschetz_by_ranks(n, GF(characteristic))
    hessian_ok = all(
        hessian(n, i).determinant_at_ones() != 0 for i in range(ell(n) + 1)
    )
    direct_ok = _lefschetz_by_ranks(n, QQ)
    if hessian_ok != direct_ok:
        raise AssertionError(
            f"Hessian route ({hessian_ok}) and rank route ({direct_ok}) disagree at n={n}"
        )
    return hessian_ok and direct_ok
