"""Quotient-ring behaviour: Hilbert functions, multiplication matrices,
annihilators, socles, and the zero-divisor / regular-element checks.

All expected numbers are frozen literals.  Rings are cached per test module
because several tests want the same handful of quotients.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb

import pytest

from aciring import (
    GF,
    QQ,
    G_from_orbit,
    Polynomial,
    QuotientRing,
    ann_of_form,
    annihilator,
    exact_zero_divisor_check,
    hilbert_function,
    ideal_equal,
    max_rank_check,
    named_quotient,
    parse_poly,
    primed_aci_ideal,
    primed_squares_ideal,
    regular_element_check,
    squared_variable_sum,
    squares_ideal,
    variable_sum,
)
from aciring.errors import DegreeCapExceeded, DimensionMismatch, FieldMismatch
from aciring.linalg import kernel_basis, rank
from aciring.quotient import GradedModuleSpan
from aciring.resolution import gorenstein_presentation
from aciring.runmemo import _run_scope

from _oracle import hilbert_function_slow


@lru_cache(maxsize=None)
def ring(label: str, n: int):
    return named_quotient(label, n, QQ)


def var(n: int, i: int) -> Polynomial:
    return Polynomial.variable(n, QQ, i)


# ---------------------------------------------------------------------------
# construction and Hilbert functions
# ---------------------------------------------------------------------------


def test_build_quotient_dimension_examples():
    assert hilbert_function(ring("P", 3)) == [1, 3, 3, 1]
    assert hilbert_function(ring("R", 5)) == [1, 5, 9, 5]
    # the n=2 Gorenstein quotient collapses to the ground field
    assert hilbert_function(ring("A", 2)) == [1]


def test_generators_that_vanish_in_the_field_are_dropped():
    # 7*x1 is zero over GF(7) and 0*x1 over QQ, so each ring is the squares'
    F7 = GF(7)
    squares = squares_ideal(2, F7)
    seven_x1 = Polynomial(2, F7, [((1, 0), 7)])
    assert QuotientRing(squares + [seven_x1]).hilbert_series() == [1, 2, 1]
    assert ideal_equal(squares + [seven_x1], squares)
    zero_x1 = Polynomial.monomial(2, QQ, (1, 0), 0)
    assert QuotientRing(squares_ideal(2, QQ) + [zero_x1]).hilbert_series() == [1, 2, 1]


def test_is_complete_above_the_cap_by_buchberger_criterion():
    # x1*x2 + x2^2 shares x1 with x1^2, so it is eliminated, not part of B;
    # x2^3 joins in(I) in degree 3, and its pair with x1*x2 has lcm degree 4
    gens = [Polynomial.monomial(2, QQ, (2, 0)), Polynomial(2, QQ, [((1, 1), 1), ((0, 2), 1)])]
    q = QuotientRing(gens, degree_cap=4)
    assert q.is_complete
    assert q.hilbert_function(5) == 0
    q = QuotientRing(gens, degree_cap=3)
    assert not q.is_complete
    with pytest.raises(DegreeCapExceeded):
        q.hilbert_function(4)


def test_hilbert_function_literals():
    assert hilbert_function(ring("P", 4)) == [1, 4, 6, 4, 1]
    assert hilbert_function(ring("R", 4)) == [1, 4, 5]
    assert hilbert_function(ring("A", 5)) == [1, 5, 5, 1]
    assert hilbert_function(ring("R", 2)) == [1, 2]
    assert hilbert_function(ring("R", 3)) == [1, 3, 2]
    assert hilbert_function(ring("A", 4)) == [1, 4, 1]


def test_hilbert_function_r8():
    assert hilbert_function(ring("R", 8)) == [1, 8, 27, 48, 42]


def test_polynomials_of_another_ring_are_refused():
    P = named_quotient("P", 3, GF(7))
    # over QQ, l/2 is not 4*l mod 7: refused, not answered with the wrong rank
    with pytest.raises(FieldMismatch):
        max_rank_check(P, variable_sum(3, QQ).scale(Fraction(1, 2)))
    with pytest.raises(FieldMismatch):
        P.to_vector(variable_sum(3, QQ), 1)
    four = variable_sum(4, GF(7))
    for call in (lambda: P.multiplication_map(four, 0), lambda: P.nf(four), lambda: P.to_vector(four, 1)):
        with pytest.raises(DimensionMismatch):
            call()
    x1_squared = var(3, 0).power(2)
    with pytest.raises(FieldMismatch):
        QuotientRing([x1_squared, variable_sum(3, GF(7))])
    with pytest.raises(DimensionMismatch):
        QuotientRing([x1_squared, variable_sum(4, QQ)])
    # an explicit n or field must agree with the generators
    with pytest.raises(DimensionMismatch):
        QuotientRing([x1_squared], n=4, field=QQ)
    with pytest.raises(FieldMismatch):
        QuotientRing([x1_squared], n=3, field=GF(7))


def test_a_variable_index_outside_the_ring_is_refused():
    P, gens = gorenstein_presentation(4, QQ)
    module = GradedModuleSpan(P, [g for g in gens if P.nf(g)], name="G/J")
    for i in (-1, 4):
        for call in (
            lambda: P.variable_map(i, 1),
            lambda: P.times_variable(i, 1, [[1] * P.hilbert_function(1)]),
            lambda: P.times_variable(i, 1, []),
            lambda: module.variable_map(i, 2),
        ):
            with pytest.raises(DimensionMismatch, match="variable index"):
                call()


# ---------------------------------------------------------------------------
# multiplication maps
# ---------------------------------------------------------------------------


def shape(M) -> tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def dense(column, size: int, field=QQ) -> list:
    """A sparse column as a dense vector of the given size."""
    vec = [field.zero()] * size
    for r, c in column:
        vec[r] = c
    return vec


def as_rows(columns, nrows: int) -> list:
    """A column map as a list of rows, nrows of them."""
    vectors = [dense(column, nrows) for column in columns]
    return [[vec[r] for vec in vectors] for r in range(nrows)]


def test_mult_map_by_x1_on_p2():
    P2 = ring("P", 2)
    M = as_rows(P2.multiplication_map(var(2, 0), 0), P2.hilbert_function(1))
    assert shape(M) == (2, 1)
    # degree-1 basis in descending order is (x1, x2); the image is x1
    assert [row[0] for row in M] == [QQ.one(), QQ.zero()]


def test_mult_map_by_h_squared_on_p5():
    P5 = ring("P", 5)
    M = P5.multiplication_map(squared_variable_sum(5, QQ), 1)
    assert shape(as_rows(M, P5.hilbert_function(3))) == (10, 5)
    assert rank(M, QQ) == 5


def test_mult_map_by_h_squared_on_p4_top():
    P4 = ring("P", 4)
    M = P4.multiplication_map(squared_variable_sum(4, QQ), 2)
    assert shape(as_rows(M, P4.hilbert_function(4))) == (1, 6)
    assert rank(M, QQ) == 1


def test_mult_map_columns_are_normal_forms():
    R3 = ring("R", 3)
    f = var(3, 0) + var(3, 1)
    M = R3.multiplication_map(f, 1)
    for column, m in zip(M, R3.basis(1), strict=True):
        image = R3.nf(f.mul(Polynomial.monomial(3, QQ, m)))
        assert R3.from_vector(2, dense(column, R3.hilbert_function(2))) == image
    # the sparse columns of variable_map(i, d) are the normal forms of x_i·m,
    # and times_variable agrees with multiplication_map(x_i, d)
    for field in (QQ, GF(101)):
        for label in "PRA":
            for n in range(2, 6):
                q = named_quotient(label, n, field)
                for d in range(q.socle_degree() + 1):
                    h = q.hilbert_function(d)
                    identity = [[field.one() if r == c else field.zero() for c in range(h)] for r in range(h)]
                    for i in range(n):
                        xi = Polynomial.variable(n, field, i)
                        for column, m in zip(q.variable_map(i, d), q.basis(d)):
                            image = q.to_vector(q.nf(xi.mul(Polynomial.monomial(n, field, m))), d + 1)
                            assert column == [(r, c) for r, c in enumerate(image) if c], (label, n, d, i, m)
                        M = q.multiplication_map(xi, d)
                        up = q.hilbert_function(d + 1)
                        assert q.times_variable(i, d, identity) == [dense(column, up, field) for column in M]
    # every column of multiplication_map(f, d) is the normal form of f·m, for
    # f a constant, h, h^2, h^3 and a cubic with negative and fractional terms
    for field in (QQ, GF(101)):
        for label in "PRA":
            for n in range(2, 6):
                q = named_quotient(label, n, field)
                h = variable_sum(n, field)
                x = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
                cubic = Polynomial(n, field, [
                    (tuple(3 * a for a in x[0]), field.parse_coeff("-1/2")),
                    (tuple(map(sum, zip(x[0], x[1], x[-1]))), field.parse_coeff("3/4")),
                    (tuple(3 * a for a in x[-1]), field.parse_coeff("-2")),
                ])
                for f in (Polynomial.constant(n, field, field.parse_coeff("-3/5")), h, h.power(2), h.power(3), cubic):
                    for d in range(q.socle_degree() + 1):
                        M = q.multiplication_map(f, d)
                        assert len(M) == q.hilbert_function(d)
                        for column, m in zip(M, q.basis(d)):
                            image = q.to_vector(q.nf(f.mul(Polynomial.monomial(n, field, m))), d + f.degree)
                            assert column == [(r, c) for r, c in enumerate(image) if c], (label, n, str(f), d, m)
    # G/J inside P: the columns are coordinates in the echelon basis one degree up
    P, gens = gorenstein_presentation(4, QQ)
    module = GradedModuleSpan(P, [g for g in gens if P.nf(g)], name="G/J")
    for d in range(module.socle_degree()):
        above = module.basis_vectors(d + 1)
        for i in range(4):
            images = P.times_variable(i, d, module.basis_vectors(d))
            columns = module.variable_map(i, d)
            assert len(columns) == len(images) == module.hilbert_function(d)
            for column, image in zip(columns, images):
                assert [sum(c * above[r][k] for r, c in column) for k in range(len(image))] == image


def _dense_normal_form(q: QuotientRing, d: int, m) -> list:
    """nf(m) in basis(d) by reducing the dense vector against the form, row by row."""
    dense = [q.field.zero()] * q._echelon(d).ncols
    for j, c in q._base_nf(m):
        dense[j] = c
    v = q._echelon(d).reduce(dense)
    pivots = set(q._echelon(d).pivots)
    return [c for j, c in enumerate(v) if j not in pivots]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_variable_maps_read_off_the_pivot_rows_are_the_normal_forms(field):
    # x1^2 + x2*x3 + x3*x4 joins the base, so x1^2 reduces to two terms
    # modulo B; the last two generators bring Fractions into the forms over QQ
    gens = ("x1^2 + x2*x3 + x3*x4", "x2^2", "x3^2", "x4^2", "2*x1*x2 + x3*x4", "3*x1*x3 - x2*x4")
    custom = QuotientRing([parse_poly(g, 4, field) for g in gens])
    assert any(len(custom._base_nf(m)) > 1 for m in [(2, 0, 0, 0), (3, 0, 0, 0), (2, 1, 0, 0)])
    rings = [custom] + [named_quotient(label, n, field) for label in "RA" for n in range(2, 7)]
    fractions = 0
    for q in rings:
        n = q.n
        for d in range(q.socle_degree() + 1):
            for i in range(n):
                xi = Polynomial.variable(n, field, i)
                columns = q.variable_map(i, d)
                assert len(columns) == q.hilbert_function(d)
                for column, m in zip(columns, q.basis(d)):
                    xm = m[:i] + (m[i] + 1,) + m[i + 1:]
                    image = q.to_vector(xi.mul(Polynomial.monomial(n, field, m)), d + 1)
                    assert column == [(r, c) for r, c in enumerate(image) if c], (q.name, n, d, i, m)
                    assert image == _dense_normal_form(q, d + 1, xm), (q.name, n, d, i, m)
                    fractions += sum(type(c) is Fraction for _, c in column)
    assert (fractions > 0) == (field == QQ)


# ---------------------------------------------------------------------------
# annihilators (the colon construction)
# ---------------------------------------------------------------------------


def test_annihilator_p2_is_maximal_ideal():
    P2 = ring("P", 2)
    extra = P2.annihilator_of_element(squared_variable_sum(2, QQ))
    assert sorted(str(g) for g in extra) == ["x1", "x2"]
    # the lifted ideal contains the defining squares as well
    assert len(annihilator(P2, squared_variable_sum(2, QQ))) == 4


def test_annihilator_p4_five_quadrics():
    P4 = ring("P", 4)
    extra = P4.annihilator_of_element(squared_variable_sum(4, QQ))
    assert len(extra) == 5
    assert all(g.degree == 2 for g in extra)


def test_annihilator_p7_catalan_many_cubics():
    P7 = ring("P", 7)
    extra = P7.annihilator_of_element(squared_variable_sum(7, QQ))
    assert len(extra) == 14  # the fourth Catalan number
    assert all(g.degree == 3 for g in extra)


def test_colon_generators_n3_n4_are_frozen():
    # the lifts of (squares) : h^2 beyond the squares, in the order they are found
    expected = {
        3: ["x1 - x2", "x2 - x3"],
        4: ["x1*x2 - x1*x3", "x1*x3 - x2*x3", "x2*x3 - x1*x4", "x1*x4 - x2*x4", "x2*x4 - x3*x4"],
    }
    for n, lifts in expected.items():
        _, gens = gorenstein_presentation(n, QQ)
        assert [str(g) for g in gens] == [f"x{i + 1}^2" for i in range(n)] + lifts


# ---------------------------------------------------------------------------
# socles
# ---------------------------------------------------------------------------


def test_socle_literals():
    assert ring("R", 5).socle_dimensions() == [0, 0, 0, 5]
    assert ring("A", 5).socle_dimensions() == [0, 0, 0, 1]
    assert ring("R", 2).socle_dimensions() == [0, 2]


def test_r_is_level_and_a_is_gorenstein():
    for n in range(2, 9):
        ell = (n - 2) // 2
        dims = ring("R", n).socle_dimensions()
        nonzero = [d for d, s in enumerate(dims) if s]
        assert nonzero == [n - ell - 1]
        catalan = comb(2 * (ell + 2), ell + 2) // (ell + 3)
        assert dims[n - ell - 1] == catalan
    for n in range(3, 8):
        dims = ring("A", n).socle_dimensions()
        assert [d for d, s in enumerate(dims) if s] == [n - 2]
        assert dims[n - 2] == 1


# ---------------------------------------------------------------------------
# maximal-rank and Lefschetz-style checks
# ---------------------------------------------------------------------------


def test_max_rank_check_h_squared_on_p():
    for n in range(2, 9):
        assert max_rank_check(ring("P", n), squared_variable_sum(n, QQ))


def test_max_rank_check_rejects_single_square():
    assert not max_rank_check(ring("P", 3), var(3, 0).mul(var(3, 0)))


def test_max_rank_check_refuses_a_non_artinian_ring():
    primed = QuotientRing(primed_squares_ideal(3, QQ))
    with pytest.raises(ValueError):
        max_rank_check(primed, variable_sum(3, QQ))


def test_p_has_strong_lefschetz():
    for n in range(2, 6):
        P = ring("P", n)
        h = variable_sum(n, QQ)
        for j in range(1, n + 1):
            assert max_rank_check(P, h.power(j))


# ---------------------------------------------------------------------------
# exact zero divisors and regular elements
# ---------------------------------------------------------------------------


def test_exact_zero_divisor_odd_n():
    assert exact_zero_divisor_check(ring("R", 5), var(5, 4))
    assert exact_zero_divisor_check(ring("A", 7), var(7, 6))


def test_exact_zero_divisor_fails_for_even_n():
    assert not exact_zero_divisor_check(ring("R", 4), var(4, 3))


def test_regular_element_in_primed_rings():
    R3p = QuotientRing(primed_aci_ideal(3, QQ), degree_cap=10, name="R'")
    assert regular_element_check(R3p, var(3, 2), 8)

    P5p = QuotientRing(primed_squares_ideal(5, QQ), degree_cap=12, name="P'")
    f = primed_aci_ideal(5, QQ)[-1]  # (x1+..+x5)^2 - x5^2
    A5p = QuotientRing(annihilator(P5p, f, 6), degree_cap=10, name="A'")
    assert regular_element_check(A5p, var(5, 4), 8)


def test_zero_divisor_is_not_regular():
    assert not regular_element_check(ring("R", 3), var(3, 2), 4)


# ---------------------------------------------------------------------------
# invariants tying P, R and A together
# ---------------------------------------------------------------------------


def test_short_exact_sequence_of_hilbert_functions():
    # h_A(i) = h_P(i+2) - h_R(i+2) for every degree i
    for n in range(2, 8):
        A, P, R = ring("A", n), ring("P", n), ring("R", n)
        for i in range(n + 1):
            assert A.hilbert_function(i) == P.hilbert_function(i + 2) - R.hilbert_function(i + 2)


def test_multiplicity_of_r():
    for n in range(2, 9):
        ell = (n - 2) // 2
        assert sum(hilbert_function(ring("R", n))) == comb(n + 1, ell + 2)
    assert sum(hilbert_function(ring("R", 5))) == 20
    assert sum(hilbert_function(ring("R", 2))) == 3
    assert sum(hilbert_function(ring("R", 8))) == 126


def test_primed_gorenstein_slices():
    # modding A' by the last square recovers A; modding by the last
    # variable recovers the (n-1)-variable analogue
    expected = {
        3: ([1, 1], [1]),
        5: ([1, 5, 5, 1], [1, 4, 1]),
        7: ([1, 7, 21, 21, 7, 1], [1, 6, 15, 6, 1]),
    }
    for n, (h_full, h_bar) in expected.items():
        Pp = QuotientRing(primed_squares_ideal(n, QQ), degree_cap=2 * n + 2, name="P'")
        f = primed_aci_ideal(n, QQ)[-1]
        gens = annihilator(Pp, f, n + 1)
        xn = var(n, n - 1)
        mod_square = QuotientRing(gens + [xn.mul(xn)])
        mod_var = QuotientRing(gens + [xn])
        assert hilbert_function(mod_square) == h_full
        assert hilbert_function(mod_var) == h_bar


def test_hilbert_step_down_for_odd_n():
    # going down one variable splits each value of the bigger ring
    for n in (3, 5, 7):
        for label in ("R", "A"):
            big = hilbert_function(ring(label, n))
            small = hilbert_function(ring(label, n - 1))

            def at(seq, i):
                return seq[i] if 0 <= i < len(seq) else 0

            for i in range(len(big) + 1):
                assert at(small, i + 1) + at(small, i) == at(big, i + 1)


# ---------------------------------------------------------------------------
# coordinate plumbing
# ---------------------------------------------------------------------------


def test_vector_round_trip():
    R4 = ring("R", 4)
    f = R4.nf(var(4, 0).mul(var(4, 1)) - var(4, 2).mul(var(4, 3)))
    v = R4.to_vector(f, 2)
    assert R4.from_vector(2, v) == f


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_coordinate_vectors_of_the_wrong_length_are_refused(field):
    # P in three variables has three degree-1 coordinates; zip would drop a
    # fourth entry, or read a short vector as if padded with zeros
    P = named_quotient("P", 3, field)
    for vec in ([1, 2, 3, 4], [1, 2], []):
        with pytest.raises(DimensionMismatch, match="length"):
            P.from_vector(1, vec)
    for vectors in ([[1, 0, 0, 5]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(DimensionMismatch, match="length"):
            P.times_variable(0, 1, vectors)


def test_from_vector_coerces_each_coordinate():
    x = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    gf7 = GF(7)
    P7 = named_quotient("P", 3, gf7)
    f = P7.from_vector(1, [8, 7, -1])
    assert f.terms == ((x[0], 1), (x[2], 6))
    assert f == Polynomial(3, gf7, zip(x, [8, 7, -1]))
    g = ring("P", 3).from_vector(1, [Fraction(4, 2), 0, Fraction(1, 3)])
    assert g.terms == ((x[0], 2), (x[2], Fraction(1, 3)))
    assert type(g.terms[0][1]) is int


def test_variable_annihilator_is_principal_report():
    ok, rows = ring("R", 5).variable_annihilator_is_principal(4)
    assert ok
    # each row records (degree, dim annihilator, dim principal part)
    assert all(a == b for _, a, b in rows)


def test_rational_coefficients_are_ints_unless_the_denominator_exceeds_one():
    # the weighted form 2*x1 + 3*x2 + ... brings denominators into kernels,
    # normal forms and annihilators; every integral value must still be an int
    seen = set()

    def check(values, where):
        for c in values:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (where, c)
            seen.add(type(c))

    for label in ("P", "R", "A"):
        for n in range(2, 6):
            q = named_quotient(label, n, QQ)
            weighted = Polynomial(n, QQ, [(tuple(int(j == k) for j in range(n)), k + 2) for k in range(n)])
            forms = (variable_sum(n, QQ), weighted)
            for d in range(q.socle_degree() + 1):
                where = (label, n, d)
                check((c for i in range(n) for column in q.variable_map(i, d) for _, c in column), where)
                check(chain.from_iterable(q._echelon(d).rows), where)
                for f in forms:
                    check(chain.from_iterable(kernel_basis(q.multiplication_map(f, d), QQ)), where)
                    check((c for _, c in q.nf(f.power(d).scale(Fraction(1, 3))).terms), where)
            for f in forms:
                check((c for g in q.annihilator_of_element(f) for _, c in g.terms), (label, n))
    assert seen == {int, Fraction}


# ---------------------------------------------------------------------------
# A's forms from the colon
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,top", [(GF(32003), 8), (QQ, 6)], ids=str)
def test_a_from_the_colon_equals_a_built_from_its_generators(field, top):
    # named_quotient("A") is P modulo the colon's module; rebuilding A from
    # the lifted generators must give the same bases and variable maps, so
    # the lifts generate the whole kernel.  At n = 2 the lifts are the
    # monomials x1, x2, which the rebuilt ring takes into its base, so only
    # from n = 3 on are the forms themselves the same
    for n in range(2, top + 1):
        with _run_scope():
            A = named_quotient("A", n, field)
            P, gens = gorenstein_presentation(n, field)
        rebuilt = QuotientRing(gens, name="A")
        assert A.generators == rebuilt.generators
        assert A.ideal.ambient is P and A._columns is P._columns, n
        assert A.socle_degree() == rebuilt.socle_degree()
        for d in range(A.socle_degree() + 2):
            if n > 2:
                form, want = A._echelon(d), rebuilt._echelon(d)
                assert (form.rows, form.pivots) == (want.rows, want.pivots), (n, d)
            assert A.basis(d) == rebuilt.basis(d), (n, d)
            for i in range(n):
                assert A.variable_map(i, d) == rebuilt.variable_map(i, d), (n, d, i)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_the_colon_module_is_the_span_of_its_lifts(field):
    # the colon grows ann_P(h^2) itself, stopping its products at the
    # kernel's dimension; growing the same module from the lifted generators
    # must give the same forms and variable maps
    for n in range(2, 7):
        P = QuotientRing(squares_ideal(n, field))
        h2 = squared_variable_sum(n, field)
        lifts = P.annihilator_of_element(h2)
        module = P._colons[h2]
        assert module.generators == tuple(lifts)
        grown = GradedModuleSpan(P, lifts)
        for d in range(P.socle_degree() + 2):
            span, want = module._span(d), grown._span(d)
            assert (span.rows, span.pivots) == (want.rows, want.pivots), (n, d)
            for i in range(n):
                assert module.variable_map(i, d) == grown.variable_map(i, d), (n, d, i)


def test_a_ring_modulo_an_ideal_refuses_generators_and_an_ideal_of_a_ring_with_relations():
    P = QuotientRing(squares_ideal(3, QQ))
    ideal = GradedModuleSpan(P, [squared_variable_sum(3, QQ)])
    with pytest.raises(ValueError, match="takes its generators"):
        QuotientRing(squares_ideal(3, QQ), ideal=ideal)
    R = QuotientRing(ideal=ideal)
    assert R.hilbert_series() == [1, 3, 2]
    with pytest.raises(ValueError, match="ring with relations"):
        QuotientRing(ideal=GradedModuleSpan(R, [var(3, 0)]))


def test_a_colon_cut_short_is_not_kept():
    # only a colon grown through a degree where P vanishes is kept for A
    n = 5
    h2 = squared_variable_sum(n, QQ)
    short = QuotientRing(squares_ideal(n, QQ))
    short.annihilator_of_element(h2, through_degree=2)
    assert h2 not in short._colons
    whole = QuotientRing(squares_ideal(n, QQ))
    whole.annihilator_of_element(h2, through_degree=n + 1)
    assert h2 in whole._colons


def test_r_and_a_of_one_run_are_rings_modulo_the_same_p():
    for n in (2, 5):
        with _run_scope():
            R, A = named_quotient("R", n, QQ), named_quotient("A", n, QQ)
            assert R.ideal.ambient is A.ideal.ambient is named_quotient("P", n, QQ)


def test_a_from_the_colon_keeps_its_degree_cap():
    # A at n = 5 is [1, 5, 5, 1]; its Gröbner basis is complete from degree 3
    _, gens = gorenstein_presentation(5, QQ)
    for cap in range(5):
        A = named_quotient("A", 5, QQ, degree_cap=cap)
        rebuilt = QuotientRing(gens, degree_cap=cap)
        assert A.is_complete == rebuilt.is_complete == (cap >= 3), cap
        assert A.hilbert_series(cap) == rebuilt.hilbert_series(cap), cap
        if not A.is_complete:
            with pytest.raises(DegreeCapExceeded):
                A.basis(cap + 1)
        else:
            assert A.hilbert_series() == rebuilt.hilbert_series() == [1, 5, 5, 1]


@pytest.mark.parametrize("label", ["P", "R", "A"])
def test_forms_and_variable_maps_over_gf_are_the_qq_ones_reduced(label):
    # Echelon keeps GF(p) rows in int64 arrays and QQ rows as lists of
    # rationals; for P, R and A the QQ forms and maps reduced mod p must be
    # the GF(p) ones, entry by entry
    gf = GF(32003)
    for n in range(2, 7):
        with _run_scope():
            over_q, over_p = named_quotient(label, n, QQ), named_quotient(label, n, gf)
        assert over_p.socle_degree() == over_q.socle_degree(), n
        for d in range(over_q.socle_degree() + 2):
            form_q, form_p = over_q._echelon(d), over_p._echelon(d)
            assert form_p.pivots == form_q.pivots, (n, d)
            assert form_p.rows == [[gf.coerce(x) for x in row] for row in form_q.rows], (n, d)
            assert over_p.basis(d) == over_q.basis(d), (n, d)
            for i in range(n):
                reduced = [[(r, gf.coerce(x)) for r, x in column if gf.coerce(x)] for column in over_q.variable_map(i, d)]
                assert over_p.variable_map(i, d) == reduced, (n, d, i)


# ---------------------------------------------------------------------------
# the echelon forms against the oracle's Macaulay matrices
# ---------------------------------------------------------------------------


def _oracle_values(gens, n, field, through):
    dicts = [dict(g.terms) for g in gens if g]
    return [hilbert_function_slow(dicts, n, d, field.characteristic) for d in range(through + 1)]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
@pytest.mark.parametrize("label", ["P", "R", "A", "G_from_orbit", "ann_of_form"])
def test_hilbert_function_matches_macaulay_oracle(label, field):
    for n in range(2, 6):
        if label == "G_from_orbit":
            gens = G_from_orbit(n, field)
        elif label == "ann_of_form":
            gens = ann_of_form(n, field)
        else:
            gens = list(named_quotient(label, n, field).generators)
        q = QuotientRing(gens)
        top = q.socle_degree() + 1
        assert q.hilbert_series(top) == _oracle_values(gens, n, field, top), (label, n)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_primed_rings_match_macaulay_oracle_through_their_caps(field):
    for n in (3, 4):
        cap = n + 3
        f = primed_aci_ideal(n, field)[-1]
        Pp = QuotientRing(primed_squares_ideal(n, field), degree_cap=cap)
        for gens in (primed_squares_ideal(n, field), primed_aci_ideal(n, field), annihilator(Pp, f, n)):
            q = QuotientRing(gens, degree_cap=cap)
            assert q.hilbert_series(cap) == _oracle_values(gens, n, field, cap), n


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_gj_span_matches_macaulay_oracle(field):
    # dim (J + gens)/J in degree d is h_J(d) - h_{J + gens}(d)
    for n in range(2, 6):
        P, gens = gorenstein_presentation(n, field)
        lifts = [g for g in gens if P.nf(g)]
        span = GradedModuleSpan(P, lifts, name="G/J")
        top = P.socle_degree() + 1
        assert [span.hilbert_function(d) for d in range(top + 1)] == [
            a - b for a, b in zip(_oracle_values(P.generators, n, field, top), _oracle_values(gens, n, field, top))
        ], n


def test_span_of_x1_over_cubes_matches_macaulay_oracle():
    cubes = [Polynomial.monomial(3, QQ, tuple(3 if a == t else 0 for a in range(3))) for t in range(3)]
    ambient = QuotientRing(cubes)
    span = GradedModuleSpan(ambient, [var(3, 0)])
    top = ambient.socle_degree() + 1
    assert [span.hilbert_function(d) for d in range(top + 1)] == [
        a - b for a, b in zip(_oracle_values(cubes, 3, QQ, top), _oracle_values(cubes + [var(3, 0)], 3, QQ, top))
    ]
