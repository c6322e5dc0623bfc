"""Graded quotients of the polynomial ring, degree by degree.

A QuotientRing owns a Gröbner basis and exposes the graded pieces through
standard monomials: Hilbert function, coordinate vectors, multiplication
maps as matrices, socle, and annihilators of elements.  Rings built with a
degree cap answer only up to the cap and raise beyond it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegreeCapExceeded
from .fields import Field
from .groebner import GroebnerBasis, buchberger
from .linalg import Echelon, kernel_basis, rank
from .linalg import gf_matmul  # noqa: F401  bench/tests/test_bench.py dereferences quotient.gf_matmul
from .poly import Mono, Polynomial, mono_deg


class QuotientRing:
    """k[x1..xn] modulo a homogeneous ideal, presented by its Gröbner basis."""

    def __init__(
        self,
        generators: Sequence[Polynomial] = (),
        *,
        n: int | None = None,
        field: Field | None = None,
        degree_cap: int | None = None,
        exponent_cap: int | None = None,
        gb: GroebnerBasis | None = None,
        name: str = "",
    ):
        if gb is None:
            gb = buchberger(
                generators,
                degree_cap=degree_cap,
                exponent_cap=exponent_cap,
                strict=False,
                n=n,
                field=field,
            )
        self.gb = gb
        self.n = gb.n
        self.field = gb.field
        self.name = name
        self.generators = tuple(generators)
        self._basis_cache: dict[int, tuple[Mono, ...]] = {}
        self._index_cache: dict[int, dict[Mono, int]] = {}
        self._varmap_cache: dict[tuple[int, int], object] = {}

    # -- graded pieces -------------------------------------------------

    @property
    def degree_cap(self) -> int | None:
        return self.gb.truncated_at

    @property
    def is_artinian(self) -> bool:
        """Whether every variable is nilpotent, judged from the leading terms."""
        lead = [g.lm for g in self.gb.polys]
        for i in range(self.n):
            if not any(sum(m) == m[i] and m[i] > 0 for m in lead):
                if self.gb.is_complete:
                    return False
                raise DegreeCapExceeded(self.gb.truncated_at, "cannot decide Artinian from a truncated basis")
        return True

    def basis(self, d: int) -> tuple[Mono, ...]:
        """Standard monomials of degree d, in descending grevlex order."""
        if d not in self._basis_cache:
            if d < 0:
                self._basis_cache[d] = ()
            else:
                self._basis_cache[d] = tuple(self.gb.standard_monomials(d))
        return self._basis_cache[d]

    def index(self, d: int) -> dict[Mono, int]:
        if d not in self._index_cache:
            self._index_cache[d] = {m: i for i, m in enumerate(self.basis(d))}
        return self._index_cache[d]

    def hilbert_function(self, d: int) -> int:
        return len(self.basis(d))

    def hilbert_series(self, through: int | None = None) -> list[int]:
        """Values of the Hilbert function from degree 0 on.

        For an Artinian ring the list stops at the last nonzero value; once
        a degree has no standard monomials no later degree can (every longer
        monomial has a divisor of that degree).
        """
        if through is not None:
            return [self.hilbert_function(d) for d in range(through + 1)]
        if not self.is_artinian:
            raise ValueError("hilbert_series of a non-Artinian ring needs `through`")
        out = []
        d = 0
        while True:
            h = self.hilbert_function(d)
            if h == 0:
                return out
            out.append(h)
            d += 1

    def socle_degree(self) -> int:
        return len(self.hilbert_series()) - 1

    # -- elements --------------------------------------------------------

    def nf(self, f: Polynomial) -> Polynomial:
        return self.gb.normal_form(f)

    def to_vector(self, f: Polynomial, d: int | None = None):
        """Coordinates of nf(f) in the degree-d standard monomial basis."""
        r = self.nf(f)
        if d is None:
            d = r.degree
            if d < 0:
                raise ValueError("zero element needs an explicit degree")
        idx = self.index(d)
        v = [self.field.zero()] * len(idx)
        for m, c in r.terms:
            if mono_deg(m) != d:
                raise ValueError("element is not homogeneous of the requested degree")
            v[idx[m]] = c
        return v

    def from_vector(self, d: int, vec) -> Polynomial:
        terms = [(m, c) for m, c in zip(self.basis(d), vec) if c]
        return Polynomial(self.n, self.field, terms)

    # -- multiplication as linear algebra ---------------------------------

    def multiplication_map(self, f: Polynomial, d: int):
        """Matrix of multiplication by f from degree d to degree d + deg f.

        Rows are indexed by the target basis, columns by the source basis.
        """
        e = f.degree
        if e < 0:
            raise ValueError("multiplication by zero has no well-defined degree")
        src = self.basis(d)
        tgt_idx = self.index(d + e)
        M = [[self.field.zero()] * len(src) for _ in range(len(tgt_idx))]
        for j, m in enumerate(src):
            img = self.nf(f.term_mul(m, self.field.one(), None))
            for mm, c in img.terms:
                M[tgt_idx[mm]][j] = c
        return M

    def variable_map(self, i: int, d: int):
        key = (i, d)
        if key not in self._varmap_cache:
            xi = Polynomial.variable(self.n, self.field, i)
            self._varmap_cache[key] = self.multiplication_map(xi, d)
        return self._varmap_cache[key]

    # -- socle -------------------------------------------------------------

    def socle_dimension(self, d: int) -> int:
        """dim of {v in degree d : x_i v = 0 for all i}."""
        hd = self.hilbert_function(d)
        if hd == 0:
            return 0
        stacked = []
        for i in range(self.n):
            stacked.extend(self.variable_map(i, d))
        return hd - rank(stacked, self.field)

    def socle_dimensions(self) -> list[int]:
        return [self.socle_dimension(d) for d in range(self.socle_degree() + 1)]

    # -- annihilators --------------------------------------------------------

    def annihilator_of_element(self, f: Polynomial, through_degree: int | None = None) -> list[Polynomial]:
        """Minimal generators of {g : g * f = 0}, as lifted normal forms.

        Works degree by degree: in each degree the annihilator piece is the
        kernel of the multiplication-by-f matrix, and new generators are the
        kernel vectors that the ideal generated so far does not already span.
        Multipliers for the span only need to run over standard monomials.
        """
        e = f.degree
        if through_degree is None:
            if not self.is_artinian:
                raise ValueError("annihilator in a non-Artinian ring needs through_degree")
            through_degree = self.socle_degree()
        gens: list[Polynomial] = []
        for d in range(through_degree + 1):
            hd = self.hilbert_function(d)
            if hd == 0:
                break
            M = self.multiplication_map(f, d)
            ker = kernel_basis(M, self.field, ncols=hd)
            if len(ker) == 0:
                continue
            span = Echelon(self.field, hd)
            for g in gens:
                for m in self.basis(d - g.degree):
                    prod = self.nf(g.term_mul(m, self.field.one(), None))
                    if prod:
                        span.insert(self.to_vector(prod, d))
            if span.rank == len(ker):
                continue  # ideal so far already fills the kernel
            for v in ker:
                residue = span.insert(v)
                if residue is not None:
                    gens.append(self.from_vector(d, residue))
        return gens

    def variable_annihilator_is_principal(self, i: int) -> tuple[bool, list[tuple[int, int, int]]]:
        """Whether ann(x_i) equals (x_i), with per-degree dimension evidence.

        Both spaces live inside each graded piece and the principal ideal is
        always contained in the annihilator (x_i^2 = 0 here), so comparing
        dimensions degree by degree decides equality.  Returns the verdict
        and rows (degree, dim ann, dim principal).
        """
        xi_sq = Polynomial.monomial(self.n, self.field, tuple(2 if j == i else 0 for j in range(self.n)))
        if self.nf(xi_sq):
            raise ValueError("variable_annihilator_is_principal expects x_i^2 to vanish in the ring")
        top = self.socle_degree()
        rows = []
        ok = True
        prev_rank = 0
        for d in range(top + 2):
            hd = self.hilbert_function(d)
            if hd == 0:
                break
            M = self.variable_map(i, d)
            r = rank(M, self.field)
            dim_ann = hd - r
            dim_principal = prev_rank  # image of multiplication from degree d-1
            rows.append((d, dim_ann, dim_principal))
            if dim_ann != dim_principal:
                ok = False
            prev_rank = r
        return ok, rows


def ring_of_polynomials(n: int, field: Field) -> QuotientRing:
    """The ambient ring itself (zero ideal)."""
    return QuotientRing((), n=n, field=field, name="Q")


class GradedModuleSpan:
    """A graded submodule of a quotient ring, e.g. G/J sitting inside P.

    Keeps one reduced echelon basis per degree and exposes the same
    degreewise interface the resolution engines use on rings:
    ``hilbert_function``, ``variable_map``, ``socle_degree``.
    """

    def __init__(self, ambient: QuotientRing, generators: Sequence[Polynomial], name: str = ""):
        self.ambient = ambient
        self.n = ambient.n
        self.field = ambient.field
        self.name = name
        self.generators = tuple(generators)
        self._span_cache: dict[int, Echelon] = {}
        self._varmap_cache: dict[tuple[int, int], object] = {}

    def _span(self, d: int) -> Echelon:
        if d not in self._span_cache:
            ech = Echelon(self.field, self.ambient.hilbert_function(d))
            if ech.ncols:
                for g in self.generators:
                    e = g.degree
                    if e < 0 or e > d:
                        continue
                    for m in self.ambient.basis(d - e):
                        prod = self.ambient.nf(g.term_mul(m, self.field.one(), None))
                        if prod:
                            ech.insert(self.ambient.to_vector(prod, d))
            self._span_cache[d] = ech
        return self._span_cache[d]

    def hilbert_function(self, d: int) -> int:
        if d < 0:
            return 0
        return self._span(d).rank

    def socle_degree(self) -> int:
        top = -1
        for d in range(self.ambient.socle_degree() + 1):
            if self.hilbert_function(d):
                top = d
        return top

    def basis_vectors(self, d: int) -> list:
        """The reduced echelon basis of the degree-d piece, in ambient coordinates."""
        return list(self._span(d).rows)

    def variable_map(self, i: int, d: int):
        """Multiplication by x_i from the degree-d piece to degree d + 1.

        Rows are coordinates in the target echelon basis: because that basis
        is fully reduced, the coordinate of a member vector along basis row r
        is simply its entry at the row's pivot column.
        """
        key = (i, d)
        if key in self._varmap_cache:
            return self._varmap_cache[key]
        src = self._span(d)
        tgt = self._span(d + 1)
        nrows, ncols = tgt.rank, src.rank
        M = [[self.field.zero()] * ncols for _ in range(nrows)]
        for c, row in enumerate(src.rows):
            p = self.ambient.from_vector(d, row)
            img = self.ambient.nf(p.term_mul(tuple(1 if a == i else 0 for a in range(self.n)), self.field.one(), None))
            if not img:
                continue
            vec = self.ambient.to_vector(img, d + 1)
            if not tgt.contains(vec):
                raise AssertionError("submodule span is not closed under multiplication")
            for r, piv in enumerate(tgt.pivots):
                M[r][c] = vec[piv]
        self._varmap_cache[key] = M
        return M


class GradedMap:
    """An exact matrix between two graded pieces (rows: target, columns: source)."""

    __slots__ = ("source_degree", "target_degree", "matrix")

    def __init__(self, source_degree: int, target_degree: int, matrix):
        self.source_degree = source_degree
        self.target_degree = target_degree
        self.matrix = matrix

    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)


# ----------------------------------------------------------------------
# ring-level operations, functional style
# ----------------------------------------------------------------------


def build_quotient(
    ideal: Sequence[Polynomial],
    degree_bound: int | None = None,
    *,
    n: int | None = None,
    field: Field | None = None,
    name: str = "",
) -> QuotientRing:
    """Quotient of the polynomial ring by a homogeneous ideal."""
    return QuotientRing(ideal, n=n, field=field, degree_cap=degree_bound, name=name)


def hilbert_function(q: QuotientRing, through: int | None = None) -> list[int]:
    """The Hilbert function of the quotient as a sequence from degree 0."""
    return q.hilbert_series(through)


def mult_map(q: QuotientRing, f: Polynomial, d: int) -> GradedMap:
    """Multiplication by a homogeneous f from degree d, as an exact matrix."""
    return GradedMap(d, d + f.degree, q.multiplication_map(f, d))


def annihilator(q: QuotientRing, f: Polynomial, through_degree: int | None = None) -> list[Polynomial]:
    """Generators of the preimage in the polynomial ring of ann_q(f).

    The result is the defining ideal of q together with the degreewise
    kernel generators of multiplication by f (the colon construction).
    """
    return list(q.generators) + q.annihilator_of_element(f, through_degree)


def socle(q: QuotientRing) -> list[int]:
    """Dimension of the joint kernel of all variable multiplications, per degree."""
    return q.socle_dimensions()


def max_rank_check(q: QuotientRing, f: Polynomial, through: int | None = None) -> bool:
    """True when multiplication by f has maximal rank out of every degree."""
    e = f.degree
    if e <= 0:
        raise ValueError("expected a homogeneous element of positive degree")
    if through is None:
        if not q.is_artinian:
            raise ValueError("a non-Artinian ring needs an explicit degree bound")
        through = q.socle_degree()
    for d in range(through + 1):
        src = q.hilbert_function(d)
        tgt = q.hilbert_function(d + e)
        if src == 0:
            continue
        M = q.multiplication_map(f, d)
        if rank(M, q.field) != min(src, tgt):
            return False
    return True


def exact_zero_divisor_check(q: QuotientRing, v: Polynomial) -> bool:
    """True when ann_q(v) = v*q degree by degree (v linear with v^2 = 0).

    Since v^2 = 0 forces v*q into the annihilator, equality of dimensions in
    every degree is equality of the subspaces.
    """
    if v.degree != 1:
        raise ValueError("expected a linear form")
    if q.nf(v.mul(v, None)):
        return False
    top = q.socle_degree()
    prev_rank = 0
    for d in range(top + 2):
        hd = q.hilbert_function(d)
        r = rank(q.multiplication_map(v, d), q.field) if hd else 0
        if hd - r != prev_rank:
            return False
        prev_rank = r
    return True


def regular_element_check(q: QuotientRing, v: Polynomial, degree_bound: int) -> bool:
    """True when multiplication by v is injective in all degrees up to the bound."""
    e = v.degree
    if e <= 0:
        raise ValueError("expected a homogeneous element of positive degree")
    for d in range(degree_bound - e + 1):
        hd = q.hilbert_function(d)
        if hd == 0:
            continue
        if rank(q.multiplication_map(v, d), q.field) != hd:
            return False
    return True
