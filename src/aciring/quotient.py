"""Graded quotients of the polynomial ring, one reduced echelon form per degree.

The base B of an ideal I is its single-term generators plus each generator
whose leading monomial is coprime to the rest of B: a Gröbner basis by
Buchberger's first criterion, so reducing modulo B needs no elimination
(for P, R and A, B is the squares).  In degree d the columns are the
monomials outside in(B), in descending grevlex order, and I_d modulo B is
kept in reduced echelon form over them, built from x_k times the rows of
degree d-1 and the degree-d generators.  The pivots are in(I)_d outside
in(B), the other columns are the standard monomials: the Macaulay-matrix
view of Gröbner bases (Lazard, EUROCAL '83; Faugère's F4, JPAA 139, 1999).
The form is reduced, so normal forms need no elimination: a standard column
is its own basis element and a pivot column is minus its row's standard
entries, and nf(m) is the sum of those over m's terms modulo B.  In a
degree whose form has no pivots, as in every degree of P, the columns are
the standard monomials and nf(m) is m modulo B.  A degree cap stops the
elimination; see ``QuotientRing.is_complete``.  The forms are ``Echelon``
row spaces, so over GF(p) their rows live in int64 arrays inside
:mod:`.linalg`; this module sees lists.

Every graded ideal here grows one way, ``GradedModuleSpan._span``: its
degree-d piece is its degree-d generators plus x_1..x_n times its
degree-(d-1) piece.  A ring with relations is a relation-free ring modulo
such an ideal, ``ideal``: it takes B and the column and base tables from the
ideal's ambient, and its forms are the ideal's spans.  Built from generators,
the ambient is Q/B, the relation-free ring on B; for R and A it is P.
``variable_map(i, d)`` is multiplication by x_i out of degree d, built once
per ring as sparse columns: one list per standard monomial m of degree d,
holding the (position in ``basis(d + 1)``, coefficient) pairs of nf(x_i·m).
That is the package's one format for linear maps (see :mod:`.linalg`).
``times_variable`` scatters coordinate vectors through those columns, and
the annihilator of an element and a ``GradedModuleSpan`` are built with it.
``multiplication_map(f, d)`` gives multiplication by any homogeneous f in
the same format, composed from the variable maps by Horner's rule; a linear
form is the sum of the scaled variable maps (``linalg.linear_combination``).

``annihilator_of_element(f)`` grows ann(f) as such a module and keeps the
whole one per f: ann_P(h^2) is the ideal of A = P/ann_P(h^2), which
``resolution.duality_check`` resolves as G/J.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations
from typing import Sequence

from .errors import DegreeCapExceeded, DimensionMismatch
from .fields import Field, canonical_vector, check_same_field
from .groebner import MonomialIdeal, normal_form
from .linalg import Echelon, compose, kernel_basis, linear_combination, rank
from .linalg import gf_matmul  # noqa: F401  bench/tests/test_bench.py dereferences quotient.gf_matmul
from .poly import Mono, Polynomial, mono_deg


class QuotientRing:
    """k[x1..xn] modulo a homogeneous ideal, one reduced echelon form per degree.

    Built from ``generators``, or as a relation-free ring modulo ``ideal``, a
    ``GradedModuleSpan`` of it, given alone; the relations among generators
    become such an ideal of Q/B.  Anything else raises ``ValueError``.
    """

    def __init__(
        self,
        generators: Sequence[Polynomial] = (),
        *,
        n: int | None = None,
        field: Field | None = None,
        degree_cap: int | None = None,
        name: str = "",
        ideal: GradedModuleSpan | None = None,
    ):
        if ideal is None:
            gens = [g for g in generators if g]
            n = gens[0].n if n is None and gens else n
            field = gens[0].field if field is None and gens else field
            if n is None or field is None:
                raise ValueError("zero ideal needs explicit n and field")
            if any(mono_deg(m) != g.degree for g in gens for m, _ in g.terms):
                raise ValueError("a quotient ring needs homogeneous generators")
            base: list[Polynomial] = []
            relations: list[Polynomial] = []
            for g in sorted(gens, key=lambda g: len(g.terms) > 1):  # single terms first
                if len(g.terms) == 1 or all(not any(map(min, g.lm, b.lm)) for b in base):
                    base.append(g.monic())
                else:
                    relations.append(g)
            self.generators = tuple(generators)
            if relations:  # I modulo B, grown in Q/B: the relation-free ring on B
                ideal = GradedModuleSpan(QuotientRing(base, n=n, field=field), relations)
            else:
                self.n, self.field, self.base = n, field, base
                self.base_leads = MonomialIdeal(n, [b.lm for b in base])
                self._columns: dict[int, dict[Mono, int]] = {}
                self._base_nf_cache: dict[Mono, list] = {}
        elif generators or n is not None or field is not None:
            raise ValueError("a ring modulo an ideal takes its generators, n and field from the ideal")
        elif ideal.ambient.ideal is not None:
            raise ValueError("an ideal of a ring with relations: its coordinates are not that ring's columns")
        else:
            self.generators = ideal.ambient.generators + ideal.generators
        self.ideal = ideal
        if ideal is not None:  # B, the columns and the normal forms modulo B are the ambient's
            ambient = ideal.ambient
            self.n, self.field, self.base, self.base_leads = ambient.n, ambient.field, ambient.base, ambient.base_leads
            self._columns, self._base_nf_cache = ambient._columns, ambient._base_nf_cache
        for g in self.generators:
            self._check(g)
        self.name = name
        self.degree_cap = degree_cap
        self._top_degree = max((g.degree for g in self.generators if g), default=1)
        self._nf_columns: dict[int, list] = {}
        self._colons: dict[Polynomial, GradedModuleSpan] = {}
        self._basis_cache: dict[int, tuple[Mono, ...]] = {}
        self._varmap_cache: dict[tuple[int, int], list] = {}

    def _check(self, f: Polynomial) -> None:
        """Refuse a polynomial in another number of variables or over another field."""
        if f.n != self.n:
            raise DimensionMismatch(f"a polynomial in {f.n} variables, in a ring in {self.n}")
        check_same_field(f.field, self.field)

    # -- the echelon forms -------------------------------------------------

    def _column_index(self, d: int) -> dict[Mono, int]:
        """The monomials of degree d outside in(B), in descending order, with their positions."""
        if d not in self._columns:
            leads = self.base_leads
            cols = leads.grow(self._column_index(d - 1)) if d > 0 else leads.standard_monomials(d)
            self._columns[d] = {m: j for j, m in enumerate(cols)}
        return self._columns[d]

    def _base_nf(self, m: Mono) -> list:
        """The monomial m modulo B, as (column, coefficient) pairs in its degree."""
        if m not in self._base_nf_cache:
            index = self._column_index(mono_deg(m))
            if m in index:
                out = [(index[m], self.field.one())]
            else:  # B is a Gröbner basis, so division by it reduces
                r = normal_form(Polynomial.monomial(self.n, self.field, m), self.base)
                out = [(index[t], c) for t, c in r.terms]
            self._base_nf_cache[m] = out
        return self._base_nf_cache[m]

    def _echelon(self, d: int) -> Echelon:
        """I_d modulo B in reduced echelon form, over the degree-d columns: the ideal's degree-d span.

        A ring without relations has no pivots.  Above its degree cap, and
        above degree 0, the span is read only when ``is_complete``;
        otherwise ``DegreeCapExceeded``.
        """
        ncols = len(self._column_index(d))
        if self.ideal is None or not ncols:
            return Echelon(self.field, ncols)
        cap = self.degree_cap
        if cap is not None and d > max(cap, 0) and not self.is_complete:
            raise DegreeCapExceeded(cap, f"basis is only complete through degree {cap}, asked about degree {d}")
        return self.ideal._span(d)

    def _column_normal_forms(self, d: int) -> list:
        """nf of each degree-d column, as (position in ``basis(d)``, coefficient) pairs.

        A standard column is its own basis element.  A row of the form has a
        1 at its pivot and a 0 at every other pivot, so the pivot column is
        minus the row's standard entries.
        """
        if d not in self._nf_columns:
            form = self._echelon(d)
            one, p = self.field.one(), self.field.characteristic
            pivots = set(form.pivots)
            standard = [j for j in range(form.ncols) if j not in pivots]
            table: list = [None] * form.ncols
            for at, j in enumerate(standard):
                table[j] = [(at, one)]
            for j, row in zip(form.pivots, form.rows):
                table[j] = [(at, p - row[k] if p else -row[k]) for at, k in enumerate(standard) if row[k]]
            self._nf_columns[d] = table
        return self._nf_columns[d]

    def _normal_forms(self, d: int, sums) -> list:
        """nf of each sum of degree-d terms, as sparse columns over ``basis(d)``.

        Each monomial goes to its columns modulo B (``_base_nf``) and each
        column to its normal form (``_column_normal_forms``): no elimination.
        """
        inner = [[(j, c * c2) for m, c in terms for j, c2 in self._base_nf(m)] for terms in sums]
        return compose([(self._column_normal_forms(d), inner)], self.field)

    def initial_generators(self, through: int) -> tuple[Mono, ...]:
        """Minimal generators of in(I): those of in(B), and the pivots through the given degree."""
        leads = list(self.base_leads.gens)
        for d in range(through + 1):
            columns = list(self._column_index(d))
            leads += [columns[j] for j in self._echelon(d).pivots]
        return MonomialIdeal(self.n, leads).gens

    @cached_property
    def is_complete(self) -> bool:
        """Whether degrees above the cap can be answered too.

        By Buchberger's criterion they can when the Gröbner basis through
        the cap is complete: no generator lies above the cap, and any two
        leading monomials whose lcm does are coprime.
        """
        cap = self.degree_cap
        if cap is None or self.ideal is None:
            return True
        if cap < 0 or any(g.degree > cap for g in self.ideal.generators):
            return False
        leads = self.initial_generators(cap)
        return all(sum(map(max, a, b)) <= cap or not any(map(min, a, b)) for a, b in combinations(leads, 2))

    # -- graded pieces -------------------------------------------------

    @property
    def is_artinian(self) -> bool:
        """Whether Q/I is finite dimensional.

        Yes when in(B) holds a power of every variable.  Otherwise the
        Hilbert function decides: an Artinian ideal generated in degrees
        <= D has socle degree <= n(D-1), so it vanishes by degree n(D-1)+1.
        """
        if all(any(sum(m) == m[i] for m in self.base_leads.gens) for i in range(self.n)):
            return True
        return any(self.hilbert_function(d) == 0 for d in range(self.n * (self._top_degree - 1) + 2))

    def basis(self, d: int) -> tuple[Mono, ...]:
        """Standard monomials of degree d, in descending grevlex order."""
        if d not in self._basis_cache:
            pivots = set(self._echelon(d).pivots)
            self._basis_cache[d] = tuple(m for m, j in self._column_index(d).items() if j not in pivots)
        return self._basis_cache[d]

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
        while h := self.hilbert_function(len(out)):
            out.append(h)
        return out

    def socle_degree(self) -> int:
        return len(self.hilbert_series()) - 1

    # -- elements --------------------------------------------------------

    def nf(self, f: Polynomial) -> Polynomial:
        """Normal form of f, one homogeneous component at a time."""
        self._check(f)
        by_degree: dict[int, list] = {}
        for m, c in f.terms:
            by_degree.setdefault(mono_deg(m), []).append((m, c))
        terms = []
        for d, part in by_degree.items():  # descending, as f.terms is
            basis = self.basis(d)
            terms.extend((basis[at], c) for at, c in self._normal_forms(d, [part])[0])
        return Polynomial(self.n, self.field, terms, _sorted=True)

    def to_vector(self, f: Polynomial, d: int):
        """Coordinates of nf(f) in the degree-d standard monomial basis."""
        self._check(f)
        if any(mono_deg(m) != d for m, _ in f.terms):
            raise ValueError("element is not homogeneous of the requested degree")
        vec = [self.field.zero()] * self.hilbert_function(d)
        for at, c in self._normal_forms(d, [f.terms])[0]:
            vec[at] = c
        return vec

    def from_vector(self, d: int, vec) -> Polynomial:
        """The element with coordinates ``vec`` in ``basis(d)``; another length raises ``DimensionMismatch``."""
        basis, coerce = self.basis(d), self.field.coerce
        if len(vec) != len(basis):
            raise DimensionMismatch(f"a vector of length {len(vec)} in degree {d}, of dimension {len(basis)}")
        terms = [(m, x) for m, c in zip(basis, vec) if c and (x := coerce(c))]
        return Polynomial(self.n, self.field, terms, _sorted=True)

    # -- multiplication as linear algebra ---------------------------------

    def multiplication_map(self, f: Polynomial, d: int) -> list:
        """Multiplication by f from degree d to degree d + deg f, as sparse columns.

        One list per monomial m of ``basis(d)``, in order, holding the
        (position in ``basis(d + deg f)``, coefficient) pairs of nf(f·m) with
        nonzero coefficients.  Built by Horner's rule from the variable maps:
        f = sum_i x_i·f_i, with x_i the last variable of each term, so
        M_f(d) = sum_i V_i(d + deg f - 1)·M_{f_i}(d), down to linear forms,
        whose maps are sums of scaled variable maps.
        """
        self._check(f)
        e = f.degree
        if e < 0:
            raise ValueError("multiplication by zero has no well-defined degree")
        if any(mono_deg(m) != e for m, _ in f.terms):
            raise ValueError("multiplication by an inhomogeneous element")
        return self._product_map(f.terms, e, d)

    def _product_map(self, terms, e: int, d: int) -> list:
        """The columns of multiplication by a sum of degree-e terms, out of degree d."""
        if e == 0:
            ((_, c),) = terms
            return [[(j, c)] for j in range(self.hilbert_function(d))]
        if e == 1:  # a linear form: the scaled variable maps, summed
            return linear_combination([(self.variable_map(m.index(1), d), c) for m, c in terms], self.field)
        parts: dict[int, list] = {}  # x_i -> the terms of f_i
        for m, c in terms:
            i = max(k for k, x in enumerate(m) if x)
            parts.setdefault(i, []).append((m[:i] + (m[i] - 1,) + m[i + 1:], c))
        products = ((self.variable_map(i, d + e - 1), self._product_map(part, e - 1, d)) for i, part in parts.items())
        return compose(products, self.field)

    def _check_variable(self, i: int) -> None:
        if i not in range(self.n):
            raise DimensionMismatch(f"variable index {i} in a ring in {self.n} variables")

    def variable_map(self, i: int, d: int) -> list:
        """Multiplication by x_i from degree d to degree d + 1, as sparse columns.

        One list per monomial m of ``basis(d)``, in order, holding the
        (position in ``basis(d + 1)``, coefficient) pairs of nf(x_i·m) with
        nonzero coefficients, read off the pivot rows (``_normal_forms``),
        or, where degree d + 1 has no pivots, taken from the normal forms
        modulo B (``_base_nf``).  Built once per ring, variable and degree.
        An index outside ``range(n)`` raises ``DimensionMismatch``.
        """
        self._check_variable(i)
        key = (i, d)
        if key not in self._varmap_cache:
            products = [m[:i] + (m[i] + 1,) + m[i + 1:] for m in self.basis(d)]
            if self._echelon(d + 1).pivots:
                one = self.field.one()
                self._varmap_cache[key] = self._normal_forms(d + 1, [[(m, one)] for m in products])
            else:  # every column is standard, as in P: nf is the normal form modulo B
                self._varmap_cache[key] = [list(self._base_nf(m)) for m in products]
        return self._varmap_cache[key]

    def times_variable(self, i: int, d: int, vectors) -> list:
        """x_i times each degree-d coordinate vector (of length ``hilbert_function(d)``), one degree up."""
        self._check_variable(i)
        if not vectors:
            return []
        columns = self.variable_map(i, d)
        zero, size, p = self.field.zero(), self.hilbert_function(d + 1), self.field.characteristic
        out = []
        for vec in vectors:
            if len(vec) != len(columns):
                raise DimensionMismatch(f"a vector of length {len(vec)} in degree {d}, of dimension {len(columns)}")
            image = [zero] * size
            for column, v in zip(columns, vec):
                if v:
                    for r, w in column:
                        image[r] += v * w
            out.append([x % p for x in image] if p else canonical_vector(image))
        return out

    # -- socle -------------------------------------------------------------

    def socle_dimensions(self) -> list[int]:
        """dim of {v in degree d : x_i v = 0 for all i}, for d from 0 to the socle degree."""
        dims = []
        for d in range(self.socle_degree() + 1):
            h, up = self.hilbert_function(d), self.hilbert_function(d + 1)
            maps = [self.variable_map(i, d) for i in range(self.n)]
            # column m: column m of the maps x_1..x_n stacked
            stacked = [[(i * up + r, c) for i, columns in enumerate(maps) for r, c in columns[m]] for m in range(h)]
            dims.append(h - rank(stacked, self.field))
        return dims

    # -- annihilators --------------------------------------------------------

    def annihilator_of_element(self, f: Polynomial, through_degree: int | None = None) -> list[Polynomial]:
        """Minimal generators of {g : g * f = 0}, as lifted normal forms.

        Grows ann(f) as a ``GradedModuleSpan``: its degree-d piece, the
        kernel of multiplication by f, starts as x_k times the piece below,
        over every k, up to the kernel's dimension.  The residues of the
        kernel vectors that this does not span are the new generators, of
        the module too.  A module computed through the socle degree is kept
        per f, as the ideal of ``resolution.named_quotient("A")``.
        """
        complete = through_degree is None
        if complete:
            if not self.is_artinian:
                raise ValueError("annihilator in a non-Artinian ring needs through_degree")
            through_degree = self.socle_degree()
        module = GradedModuleSpan(self, ())
        gens: list[Polynomial] = []
        for d in range(through_degree + 1):
            if self.hilbert_function(d) == 0:
                complete = True
                break
            ker = kernel_basis(self.multiplication_map(f, d), self.field)
            span = module._span(d, len(ker))
            if span.rank == len(ker):
                continue  # ideal so far already fills the kernel
            for v in ker:
                residue = span.insert(v)
                if residue is not None:
                    gens.append(self.from_vector(d, residue))
        module.generators = tuple(gens)
        if complete:
            self._colons[f] = module
        return gens

    def variable_annihilator_is_principal(self, i: int) -> tuple[bool, list[tuple[int, int, int]]]:
        """Whether ann(x_i) equals (x_i), with per-degree dimension evidence.

        Both spaces live inside each graded piece and the principal ideal is
        always contained in the annihilator (x_i^2 = 0 here), so comparing
        dimensions degree by degree decides equality.  Returns the verdict
        and rows (degree, dim ann, dim principal).
        """
        xi = Polynomial.variable(self.n, self.field, i)
        if self.nf(xi.mul(xi)):
            raise ValueError("variable_annihilator_is_principal expects x_i^2 to vanish in the ring")
        return self._annihilator_is_principal(xi)

    def _annihilator_is_principal(self, v: Polynomial) -> tuple[bool, list[tuple[int, int, int]]]:
        rows = []
        prev_rank = 0  # dim of the principal part: the image of multiplication from degree d-1
        for d in range(self.socle_degree() + 1):
            r = rank(self.multiplication_map(v, d), self.field)
            rows.append((d, self.hilbert_function(d) - r, prev_rank))
            prev_rank = r
        return all(ann == principal for _, ann, principal in rows), rows


class GradedModuleSpan:
    """A graded submodule of a quotient ring, e.g. G/J sitting inside P.

    Keeps one reduced echelon basis per degree and exposes the same
    degreewise interface the resolution engines use on rings:
    ``hilbert_function``, ``variable_map``, ``socle_degree``.  The degree-d
    piece is the generators of degree d plus x_k times the degree-(d-1)
    piece, over every k (``_span``), which is how a ring's forms and the
    colon ann(f) grow too.  The Koszul route pairs dual slices only for a
    ``QuotientRing``: self-duality needs a ring, and G/J's top Koszul row is
    [0, ..., 0, 1] at n = 4, 5 and 6 while its table is not symmetric.
    """

    def __init__(self, ambient: QuotientRing, generators: Sequence[Polynomial], name: str = ""):
        self.ambient = ambient
        self.n = ambient.n
        self.field = ambient.field
        self.name = name
        self.generators = tuple(generators)
        self._span_cache: dict[int, Echelon] = {}
        self._varmap_cache: dict[tuple[int, int], list] = {}

    def _span(self, d: int, dim: int | None = None) -> Echelon:
        """The degree-d piece in reduced echelon form, grown until its dimension is ``dim`` (every column by default).

        The degree-d generators go in first, then x_k·r over the rows r below and each k, one at a time.
        """
        if d not in self._span_cache:
            ambient = self.ambient
            ech = Echelon(self.field, ambient.hilbert_function(d))
            dim = ech.ncols if dim is None else dim
            below = self._span(d - 1).rows if d > 0 and dim else []
            generators = (ambient.to_vector(g, d) for g in self.generators if g.degree == d)
            products = (ambient.times_variable(k, d - 1, [row])[0] for row in below for k in range(self.n))
            for v in chain(generators, products):
                if ech.rank == dim:
                    break
                ech.insert(v)
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

    def variable_map(self, i: int, d: int) -> list:
        """Multiplication by x_i from the degree-d piece to degree d + 1, as sparse columns.

        One list per echelon row of degree d, of (target row, coefficient) pairs
        in the degree-(d+1) echelon basis.  That basis is fully reduced, so the
        coordinate of a member vector along row r is its entry at r's pivot.
        An index outside ``range(n)`` raises ``DimensionMismatch``.
        """
        key = (i, d)
        if key not in self._varmap_cache:
            images = self.ambient.times_variable(i, d, self._span(d).rows)  # x_i times each source row
            tgt = self._span(d + 1)
            if not all(tgt.contains(v) for v in images):
                raise AssertionError("submodule span is not closed under multiplication")
            self._varmap_cache[key] = [[(r, v[piv]) for r, piv in enumerate(tgt.pivots) if v[piv]] for v in images]
        return self._varmap_cache[key]


# ----------------------------------------------------------------------
# ring-level operations, functional style
# ----------------------------------------------------------------------


def hilbert_function(q: QuotientRing) -> list[int]:
    """The Hilbert function of an Artinian quotient as a sequence from degree 0."""
    return q.hilbert_series()


def annihilator(q: QuotientRing, f: Polynomial, through_degree: int | None = None) -> list[Polynomial]:
    """Generators of the preimage in the polynomial ring of ann_q(f).

    The result is the defining ideal of q together with the degreewise
    kernel generators of multiplication by f (the colon construction).
    """
    return list(q.generators) + q.annihilator_of_element(f, through_degree)


def max_rank_check(q: QuotientRing, f: Polynomial) -> bool:
    """True when multiplication by f has maximal rank out of every degree of an Artinian ring."""
    e = f.degree
    if e <= 0:
        raise ValueError("expected a homogeneous element of positive degree")
    if not q.is_artinian:
        raise ValueError("max_rank_check needs an Artinian ring")
    for d in range(q.socle_degree() + 1):
        src, tgt = q.hilbert_function(d), q.hilbert_function(d + e)
        if src and rank(q.multiplication_map(f, d), q.field) != min(src, tgt):
            return False
    return True


def exact_zero_divisor_check(q: QuotientRing, v: Polynomial) -> bool:
    """True when ann_q(v) = v*q degree by degree (v linear with v^2 = 0).

    Since v^2 = 0 forces v*q into the annihilator, equality of dimensions in
    every degree is equality of the subspaces.
    """
    if v.degree != 1:
        raise ValueError("expected a linear form")
    return not q.nf(v.mul(v)) and q._annihilator_is_principal(v)[0]


def regular_element_check(q: QuotientRing, v: Polynomial, degree_bound: int) -> bool:
    """True when multiplication by v is injective in all degrees up to the bound."""
    e = v.degree
    if e <= 0:
        raise ValueError("expected a homogeneous element of positive degree")
    for d in range(degree_bound - e + 1):
        hd = q.hilbert_function(d)
        if hd and rank(q.multiplication_map(v, d), q.field) != hd:
            return False
    return True
