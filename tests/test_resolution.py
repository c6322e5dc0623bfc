"""Betti tables from actual resolutions: the Koszul route, the syzygy route,
and the identities relating the tables of R, A and G/J.

Expected tables are frozen dicts {(i, j): value}.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from aciring import (
    QQ,
    BettiTable,
    BoundTooSmall,
    Polynomial,
    ci_resolution_betti,
    duality_check,
    koszul_betti,
    lifting_identity_check,
    named_quotient,
    squared_variable_sum,
    syzygy_betti,
)
from aciring import resolution
from aciring.fields import GF, MAX_PRIME
from aciring.formulas import betti_table_formula
from aciring.linalg import gf_rank, qq_rank, sparse_rank
from aciring.poly import parse_poly
from aciring.quotient import GradedModuleSpan, QuotientRing
from aciring.resolution import ci_differential

R2_TABLE = {(0, 0): 1, (1, 2): 3, (2, 3): 2}
R3_TABLE = {(0, 0): 1, (1, 2): 4, (2, 3): 2, (2, 4): 3, (3, 5): 2}
R4_TABLE = {(0, 0): 1, (1, 2): 5, (2, 4): 15, (3, 5): 16, (4, 6): 5}
A2_TABLE = {(0, 0): 1, (1, 1): 2, (2, 2): 1}
A3_TABLE = {(0, 0): 1, (1, 1): 2, (2, 2): 1, (1, 2): 1, (2, 3): 2, (3, 4): 1}
A5_TABLE = {
    (0, 0): 1,
    (1, 2): 10,
    (2, 3): 16,
    (3, 4): 9,
    (2, 4): 9,
    (3, 5): 16,
    (4, 6): 10,
    (5, 8): 1,
}


@lru_cache(maxsize=None)
def ring(label: str, n: int):
    return named_quotient(label, n, QQ)


@lru_cache(maxsize=None)
def table(label: str, n: int) -> BettiTable:
    return koszul_betti(ring(label, n))


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# Koszul route
# ---------------------------------------------------------------------------


def test_koszul_betti_literals():
    assert table("R", 2).entries == R2_TABLE
    assert table("A", 3).entries == A3_TABLE
    assert table("A", 2).entries == A2_TABLE


def test_koszul_betti_bigger_literals():
    assert table("R", 4).entries == R4_TABLE
    assert table("A", 5).entries == A5_TABLE


def test_table_shape_invariants():
    for label in ("R", "A"):
        for n in range(2, 7):
            t = table(label, n)
            assert t.get(0, 0) == 1
            assert all(v > 0 for v in t.entries.values())
            assert all(j >= i for i, j in t.entries)


# ---------------------------------------------------------------------------
# Koszul route: one slice per dual pair of a Gorenstein ring
# ---------------------------------------------------------------------------


def ranked_slices(module, U=(), **window) -> tuple[BettiTable, dict]:
    """ci_resolution_betti's table, and for each slice it ranked, in order, the
    (i, j) and the columns it left out."""
    ranked = []

    def recording(module, U, i, j, drop_columns=()):
        ranked.append(((i, j), list(drop_columns)))
        return ci_differential(module, U, i, j, drop_columns)

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sparse_rank(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "ci_differential", recording)
        patch.setattr(resolution, "sparse_rank", counting)
        got = ci_resolution_betti(module, U, **window)
    assert len(calls) == len(ranked) == len(dict(ranked))
    return got, dict(ranked)


def nonzero_slices(module, U, max_i: int, max_j: int) -> set:
    """Every (i, j) in the window whose Koszul slice has rows and columns."""
    top = module.socle_degree()
    out = set()
    for i in range(1, max_i + 2):
        for j in range(i, min(max_j, i + top - 1) + 1):
            _, nrows, ncols = ci_differential(module, U, i, j)
            if nrows and ncols:
                out.add((i, j))
    return out


def read_slices(module, U, max_i: int, max_j: int) -> set:
    """The slices a table over the window reads: (i, j) and (i + 1, j) for each
    nonzero term (i, j), where the slice's source degree j - i and target
    degree j - i + 1 both lie in 0..top."""
    top = module.socle_degree()
    out = set()
    for i in range(max_i + 1):
        for j in range(i, min(max_j, i + top) + 1):
            if len(koszul_generators(module.n, U, i)) * module.hilbert_function(j - i):
                out.update((k, j) for k in (i, i + 1) if k >= 1 and 0 <= j - k < top)
    return out


def modules_up_to_six(field):
    """P, R, A and G/J at n = 2..6 over the field."""
    for n in range(2, 7):
        P, gens = resolution.gorenstein_presentation(n, field)
        yield named_quotient("P", n, field)
        yield named_quotient("R", n, field)
        yield named_quotient("A", n, field)
        yield GradedModuleSpan(P, [g for g in gens if P.nf(g)], name="G/J")


def bases_and_windows(module) -> list:
    """The polynomial ring, and the squares of the last variable with the window n, 2n."""
    n = module.n
    return [((), {}), ((n - 1,), {"max_i": n, "max_j": 2 * n})]


def xy_ring() -> QuotientRing:
    # h = (1, 2, 1) is symmetric, but the socle [0, 1, 1] is not Gorenstein's
    return QuotientRing([parse_poly(g, 2, QQ) for g in ("x1^2", "x1*x2", "x2^3")], name="T")


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
def test_gorenstein_a_ranks_one_slice_per_dual_pair(p):
    # each slice left out has the rank of its partner (n - i + 1, n + s - j),
    # both ranked directly here
    field = GF(p) if p else QQ
    for n in range(2, 8):
        A = named_quotient("A", n, field)
        s = A.socle_degree()
        got, ranked = ranked_slices(A)
        assert got == betti_table_formula("A", n), n
        for i, j in nonzero_slices(A, (), n, n + s) - set(ranked):
            partner = (n - i + 1, n + s - j)
            assert partner in ranked and partner[1] - partner[0] <= j - i, (n, i, j)
            skipped = sparse_rank(*ci_differential(A, (), i, j), field)
            assert skipped == sparse_rank(*ci_differential(A, (), *partner), field), (n, i, j)


def test_a_symmetric_h_vector_alone_does_not_pair_the_slices():
    T = xy_ring()
    assert T.hilbert_series() == [1, 2, 1] and T.socle_dimensions() == [0, 1, 1]
    # slice (1, 1) has rank 2 and its would-be partner (2, 3) rank 1
    assert sparse_rank(*ci_differential(T, (), 1, 1), QQ) == 2
    assert sparse_rank(*ci_differential(T, (), 2, 3), QQ) == 1
    got, ranked = ranked_slices(T)
    want = {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 4): 1}
    assert got.entries == want
    assert syzygy_betti(QuotientRing((), n=2, field=QQ, name="Q"), T, 2, 4) == got
    assert nonzero_slices(T, (), 2, 4) <= set(ranked)


def test_rank_calls_of_the_koszul_route(monkeypatch):
    # counted, not timed: A at n = 6 ranks 14 slices where ranking all takes 28
    A = named_quotient("A", 6, QQ)
    n, s = 6, A.socle_degree()
    ranked = ranked_slices(A)[1]
    assert len(ranked) == 14
    assert set(ranked) == {(i, j) for i, j in read_slices(A, (), n, n + s) if (s - j + i - 1, n - i + 1) >= (j - i, i)}
    monkeypatch.setattr(A, "socle_dimensions", lambda: [0, 0, 0, 0, 2])
    assert set(ranked_slices(A)[1]) == read_slices(A, (), n, n + s)
    monkeypatch.undo()
    # every other module, and every nonempty base, ranks each slice the table
    # reads, and no other: a slice ranked first for the one below it is one
    # the table reads anyway, also where the window cuts an endless complex
    R = named_quotient("R", 6, QQ)
    assert R.socle_dimensions() == [0, 0, 0, 14]
    P, gens = resolution.gorenstein_presentation(6, QQ)
    gj = GradedModuleSpan(P, [g for g in gens if P.nf(g)], name="G/J")
    counts = []
    for module in (R, xy_ring(), gj):
        n, top = module.n, module.socle_degree()
        ranked = ranked_slices(module)[1]
        assert set(ranked) == read_slices(module, (), n, n + top) >= nonzero_slices(module, (), n, n + top)
        counts.append(len(ranked))
    for module in (A, named_quotient("A", 5, QQ), named_quotient("P", 6, QQ)):
        n = module.n
        ranked = ranked_slices(module, (n - 1,), max_i=n, max_j=2 * n)[1]
        assert set(ranked) == read_slices(module, (n - 1,), n, 2 * n) >= nonzero_slices(module, (n - 1,), n, 2 * n)
        counts.append(len(ranked))
    assert counts == [21, 6, 28, 28, 18, 42]


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
def test_consecutive_koszul_slices_compose_to_zero(p):
    # d_i · d_{i+1} = 0, slice by slice, on the polynomial ring and over the
    # square of the last variable: what lets a slice leave out the pivot
    # columns of the slice above it
    field = GF(p) if p else QQ
    products = 0
    for module in modules_up_to_six(field):
        n, top = module.n, module.socle_degree()
        for U in ((), (n - 1,)):
            for i in range(1, n + 2):
                for j in range(i + 1, i + top):
                    low, *_ = ci_differential(module, U, i, j)
                    high, *_ = ci_differential(module, U, i + 1, j)
                    product: dict = {}
                    for c, column in high.items():
                        for k, w in column.items():
                            for r, v in low.get(k, {}).items():
                                product[r, c] = product.get((r, c), 0) + v * w
                    products += bool(product)
                    assert not any(x % p if p else x for x in product.values()), (module.name, n, U, i, j)
    assert products > 200


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
def test_a_slice_without_the_pivot_columns_above_it_keeps_its_rank(p):
    # every slice that the route ranks with columns left out, against the
    # whole slice; and the tables of R and A against the formula
    field = GF(p) if p else QQ
    narrowed = 0
    for module in modules_up_to_six(field):
        for U, window in bases_and_windows(module):
            got, ranked = ranked_slices(module, U, **window)
            if not U and module.name in ("R", "A"):
                assert got == betti_table_formula(module.name, module.n)
            for (i, j), drop in ranked.items():
                if drop:
                    narrowed += 1
                    whole = sparse_rank(*ci_differential(module, U, i, j), field)
                    assert sparse_rank(*ci_differential(module, U, i, j, drop), field) == whole, (module.name, U, i, j)
    assert narrowed > 200


# ---------------------------------------------------------------------------
# syzygy route
# ---------------------------------------------------------------------------



@pytest.mark.parametrize("p", [0, 7, 32003, MAX_PRIME], ids=["QQ", "GF7", "GF32003", "GFmax"])
def test_koszul_slices_sparse_rank_equals_dense_rank(p):
    # every nonzero slice of R and A for n <= 6: the sparse rounds against the
    # dense kernel on the whole matrix
    field = GF(p) if p else QQ
    for ring in ("R", "A"):
        for n in range(2, 7):
            q = named_quotient(ring, n, field)
            for i in range(1, n + 1):
                for j in range(i, i + q.socle_degree()):
                    rows, nrows, ncols = ci_differential(q, (), i, j)
                    if not (nrows and ncols):
                        continue
                    dense = [[rows.get(r, {}).get(c, 0) for c in range(ncols)] for r in range(nrows)]
                    want = gf_rank(np.array(dense, dtype=np.int64), p) if p else qq_rank(dense)
                    assert sparse_rank(rows, nrows, ncols, field) == want, (ring, n, i, j)


@pytest.mark.parametrize("ring", ["R", "A"])
def test_koszul_slices_rank_alike_over_gf_and_qq(ring):
    # every nonzero slice of the n = 6 Koszul differential: the sparse mod-p
    # pivoting pass against the QQ route, on the matrices the tables use
    n = 6
    over_qq, over_gf = named_quotient(ring, n, QQ), named_quotient(ring, n, GF(32003))
    top = over_qq.socle_degree()
    ranked = set()
    for i in range(1, n + 1):
        for j in range(i, i + top):
            rows_qq, nrows, ncols = ci_differential(over_qq, (), i, j)
            rows_gf, *shape = ci_differential(over_gf, (), i, j)
            assert shape == [nrows, ncols]
            if nrows and ncols:
                ranked.add(i)
                assert sparse_rank(rows_gf, nrows, ncols, GF(32003)) == sparse_rank(rows_qq, nrows, ncols, QQ), (i, j)
    assert ranked == set(range(1, n + 1))


def koszul_generators(n: int, U, i: int) -> list:
    """e_S z^(s) with |S| + 2|s| = i, ordered by |s|, then S, then s."""
    return [
        (S, s)
        for k in range(i // 2 + 1)
        for S in combinations(range(n), i - 2 * k)
        for s in combinations_with_replacement(U, k)
    ]


def koszul_slice(module, U, i: int, j: int) -> dict:
    """The degree-j slice of d_i as {(row, col): value}, straight from variable_map.

    d(e_S z^(s)) = sum over t in S of (-1)^#{u in S: u < t} x_t e_(S-t) z^(s)
    + (-1)^|S| e_S sum over t in s of x_t e_t z^(s-t), where e_S e_t is
    (-1)^#{u in S: u > t} e_(S+t), or 0 when t is in S.
    """
    d = j - i
    src, tgt = koszul_generators(module.n, U, i), koszul_generators(module.n, U, i - 1)
    h_src, h_tgt = module.hilbert_function(d), module.hilbert_function(d + 1)
    out = {}
    for a, (S, s) in enumerate(src):
        terms = [(t, (tuple(u for u in S if u != t), s), (-1) ** sum(u < t for u in S)) for t in S]
        for t in set(s) - set(S):
            rest = list(s)
            rest.remove(t)
            terms.append((t, (tuple(sorted(S + (t,))), tuple(rest)), (-1) ** (len(S) + sum(u > t for u in S))))
        for t, g, sign in terms:
            b = tgt.index(g)
            for c, column in enumerate(module.variable_map(t, d)):
                for r, v in column:
                    out[(b * h_tgt + r, a * h_src + c)] = sign * v
    return out


@pytest.mark.parametrize("char", [0, 101])
def test_ci_differential_is_a_positive_integer_multiple_of_the_koszul_matrix(char):
    field = GF(char) if char else QQ
    for label in ("R", "A"):
        for n in range(2, 6):
            module = named_quotient(label, n, field)
            top = module.socle_degree()
            for U in ((), (n - 1,)):
                scale = {}
                for i in range(1, n + 3):
                    for j in range(i, i + top):
                        columns, ncols, nrows = ci_differential(module, U, i, j)
                        want = koszul_slice(module, U, i, j)
                        got = {(r, c): v for c, rs in columns.items() for r, v in rs.items()}
                        assert (nrows, ncols) == (
                            len(koszul_generators(n, U, i - 1)) * module.hilbert_function(j - i + 1),
                            len(koszul_generators(n, U, i)) * module.hilbert_function(j - i),
                        )
                        assert all(type(v) is int for v in got.values())
                        assert got.keys() == want.keys(), (label, n, U, i, j)
                        for key, v in got.items():
                            if char:
                                assert 0 < v < char
                                ratio = v * pow(int(want[key]), -1, char) % char
                            else:
                                ratio = Fraction(v) / want[key]
                                assert ratio.denominator == 1 and ratio > 0
                            assert scale.setdefault(j - i, ratio) == ratio, (label, n, U, i, j)
                # the slices carry the variable maps' own values
                assert set(scale.values()) <= {1}, (label, n, U)


def test_ci_resolution_betti_of_a_module_span_over_a_hypersurface():
    # G/J inside P over Q/(x4^2): x4^2 is checked on the span's own maps
    n = 4
    P = ring("P", n)
    span = GradedModuleSpan(P, P.annihilator_of_element(squared_variable_sum(n, QQ)), name="G/J")
    got = ci_resolution_betti(span, U=(3,), max_i=3, max_j=8)
    assert got.window == (3, 8)
    assert {j: v for (i, j), v in got.entries.items() if i == 0} == {
        j: v for (i, j), v in gj_module_table(n).entries.items() if i == 0
    }
    # H_M = H_B * sum (-1)^i beta_ij t^j with H_B = (1 + t) / (1 - t)^3, in the
    # degrees the window sees all of: generators of F_i lie in degree >= i + 1
    h_base = [comb(k + 2, 2) + (comb(k + 1, 2) if k else 0) for k in range(9)]
    for j in range(5):
        alternating = sum((-1) ** i * v * h_base[j - jj] for (i, jj), v in got.entries.items() if jj <= j)
        assert alternating == span.hilbert_function(j), j


def test_ci_resolution_betti_refuses_a_square_that_does_not_kill_the_module():
    cubes = QuotientRing([Polynomial.monomial(3, QQ, tuple(3 if a == t else 0 for a in range(3))) for t in range(3)])
    x1 = Polynomial.variable(3, QQ, 0)
    with pytest.raises(ValueError):
        ci_resolution_betti(GradedModuleSpan(cubes, [x1]), U=(2,), max_i=2, max_j=6)
    with pytest.raises(ValueError):
        ci_resolution_betti(cubes, U=(0,), max_i=2, max_j=6)
    # x1^2 kills the submodule (x1) although not the ring: x1^3 = 0
    assert ci_resolution_betti(GradedModuleSpan(cubes, [x1]), U=(0,), max_i=2, max_j=6).get(0, 1) == 1


def test_ci_resolution_betti_refuses_a_variable_repeated_in_the_base():
    # a square listed twice would give its divided power generator twice and
    # read beta_{2,2} = 1 and beta_{2,3} = 5 off R at n = 3; listed once it
    # gives no beta_{2,2} and beta_{2,3} = 2
    R3 = ring("R", 3)
    once = ci_resolution_betti(R3, U=(2,), max_i=3, max_j=5)
    assert (once.get(2, 2), once.get(2, 3)) == (0, 2)
    for U in ((2, 2), (0, 2, 0)):
        with pytest.raises(ValueError, match="twice"):
            ci_resolution_betti(R3, U=U, max_i=3, max_j=5)
    with pytest.raises(ValueError, match="twice"):
        ci_differential(R3, (1, 1), 2, 3)


def test_koszul_route_on_variable_maps_with_fractions():
    # over QQ this ring's variable maps hold four Fractions: the slices carry
    # them exactly, and its table is the one mod p and the one of route two
    gens = ("x1^2", "x2^2", "x3^2", "x4^2", "2*x1*x2 + x3*x4", "3*x1*x3 - x2*x4")
    over_qq = QuotientRing([parse_poly(g, 4, QQ) for g in gens])
    over_gf = QuotientRing([parse_poly(g, 4, GF(32003)) for g in gens])
    top = over_qq.socle_degree()
    maps = [over_qq.variable_map(t, d) for t in range(4) for d in range(top)]
    assert sum(type(v) is Fraction for columns in maps for column in columns for _, v in column) == 4
    for U in ((), (3,)):
        for i in range(1, 6):
            for j in range(i, i + top):
                columns, ncols, nrows = ci_differential(over_qq, U, i, j)
                got = {(r, c): v for c, rs in columns.items() for r, v in rs.items()}
                assert got == koszul_slice(over_qq, U, i, j), (U, i, j)
    table = koszul_betti(over_qq)
    assert table == koszul_betti(over_gf)
    assert table == syzygy_betti(QuotientRing((), n=4, field=QQ, name="Q"), over_qq, 4, 4 + top)


def test_syzygy_over_hypersurface_matches_one_variable_down():
    x3sq = Polynomial.monomial(3, QQ, (0, 0, 2))
    T = QuotientRing([x3sq], name="T")
    got = syzygy_betti(T, ring("R", 3), 2, 4)
    assert got.entries == R2_TABLE
    assert got == table("R", 2)


def test_syzygy_over_all_squares_strand():
    # resolving R over P: the diagonal strand is binomial(1, i)
    got = syzygy_betti(ring("P", 6), ring("R", 6), 2, 6)
    assert [got.get(i, 2 * i) for i in range(3)] == [1, 1, 0]
    # at n = 2 the piece of F_0 = P under W_2's first generators is zero,
    # so every column of that evaluation matrix is a syzygy
    over_p = ci_resolution_betti(ring("R", 2), U=(0, 1), max_i=3, max_j=4)
    assert over_p.entries == {(0, 0): 1, (1, 2): 1, (2, 3): 2, (3, 4): 3}
    assert syzygy_betti(ring("P", 2), ring("R", 2), 3, 4) == over_p


def test_syzygy_over_polynomial_ring_agrees_with_koszul():
    Q4 = QuotientRing((), n=4, field=QQ, name="Q")
    assert syzygy_betti(Q4, ring("A", 4), 4, 6) == table("A", 4)
    # its variable maps have denominators 2 and 3, which its Koszul slices carry as they are
    gens = [parse_poly(s, 3, QQ) for s in ("2*x1*x2 + x3^2", "x1^2", "x2^2", "3*x1*x3 - x2*x3 + x3^2")]
    mixed = QuotientRing(gens)
    assert koszul_betti(mixed).entries == R3_TABLE
    assert syzygy_betti(QuotientRing((), n=3, field=QQ, name="Q"), mixed, 3, 5) == koszul_betti(mixed)
    F = GF(101)
    for n in (3, 4):
        for label in ("R", "A"):
            module = named_quotient(label, n, F)
            got = syzygy_betti(QuotientRing((), n=n, field=F, name="Q"), module, n, n + module.socle_degree())
            assert got == koszul_betti(module), (label, n)


def test_syzygy_window_too_small_raises():
    x3sq = Polynomial.monomial(3, QQ, (0, 0, 2))
    T = QuotientRing([x3sq], name="T")
    with pytest.raises(BoundTooSmall):
        syzygy_betti(T, ring("R", 3), 2, 2)
    # the first step fits; the second step's window probe finds its cubic generators missing
    with pytest.raises(BoundTooSmall, match="step 2"):
        syzygy_betti(QuotientRing((), n=4, field=QQ, name="Q"), ring("R", 4), 4, 3)


def test_syzygy_route_reads_only_generators_hilbert_function_and_name(monkeypatch):
    # the module's variable maps are route one's input; route two must not use them
    def refuse(*args):
        raise AssertionError("the syzygy route read the module's multiplication")

    A4, R4 = named_quotient("A", 4, QQ), named_quotient("R", 4, QQ)
    cases = [
        (QuotientRing((), n=4, field=QQ, name="Q"), A4, 4, 6, koszul_betti(A4)),
        (ring("P", 4), R4, 3, 5, ci_resolution_betti(R4, U=range(4), max_i=3, max_j=5)),
    ]
    for base, module, max_i, max_j, expected in cases:
        monkeypatch.setattr(module, "variable_map", refuse)
        monkeypatch.setattr(module, "multiplication_map", refuse)
        assert syzygy_betti(base, module, max_i, max_j) == expected


def test_hypersurface_route_two_engines_agree():
    # the sparse resolution over Q/(x3^2) must match the barred Koszul table
    R3 = ring("R", 3)
    over_t = ci_resolution_betti(R3, U=(2,), max_i=2, max_j=6)
    small = table("R", 2)
    keys = set(over_t.entries) | set(small.entries)
    assert all(over_t.get(i, j) == small.get(i, j) for i, j in keys)


# ---------------------------------------------------------------------------
# identities between the tables
# ---------------------------------------------------------------------------


def test_gorenstein_symmetry_of_a():
    # socle degree n-2 forces beta_{i,j} = beta_{n-i, 2n-2-j}
    for n in range(2, 8):
        t = table("A", n)
        for (i, j), v in t.entries.items():
            assert t.get(n - i, 2 * n - 2 - j) == v


def test_r_entries_shift_to_a_entries_off_diagonal():
    for n in range(2, 8):
        tR, tA = table("R", n), table("A", n)
        keys = set(tR.entries) | {(i + 1, j + 2) for i, j in tA.entries}
        for i, j in keys:
            if j in (2 * i, 2 * i - 2):
                continue
            assert tR.get(i, j) == tA.get(i - 1, j - 2)


def test_even_n_column_drop():
    for n in (4, 6):
        ell = (n - 2) // 2
        t = table("R", n)
        assert t.get(ell + 1, 2 * ell + 2) == t.get(ell + 3, 2 * ell + 4) + comb(n + 1, ell + 1)
    assert table("R", 4).get(2, 4) == 15 == 5 + 10


def test_last_column_and_second_column_are_catalan():
    for n in range(2, 8):
        ell = (n - 2) // 2
        c = catalan(ell + 2)
        assert table("R", n).get(n, 2 * n - ell - 1) == c
        if n not in (4, 5):
            assert table("R", n).get(2, ell + 3) == c
            assert table("A", n).get(1, ell + 1) == c
    # n = 4 and 5 pick up an extra binomial in those spots
    assert table("R", 4).get(2, 4) == comb(4, 2) + 4 + 5
    assert table("A", 4).get(1, 2) == 4 + 5
    assert table("R", 5).get(2, 4) == comb(5, 2) + 5 + 5
    assert table("A", 5).get(1, 2) == 5 + 5


def test_vanishing_beyond_the_socle_rows():
    for n in range(2, 8):
        ell = (n - 2) // 2
        assert all(j - i <= n - ell - 1 for i, j in table("R", n).entries)
        assert all(j - i <= n - 2 for i, j in table("A", n).entries)


# ---------------------------------------------------------------------------
# lifting and duality
# ---------------------------------------------------------------------------


def test_lifting_identity_for_odd_n():
    assert lifting_identity_check(3, QQ)
    assert lifting_identity_check(5, QQ)


def test_lifting_identity_rejects_even_n():
    with pytest.raises(ValueError):
        lifting_identity_check(4, QQ)


def test_lifting_identity_n3_by_hand():
    # over Q the table of R3 is the two-variable table plus its (1,2)-shift
    small = table("R", 2)
    big = table("R", 3)
    assert big.entries == R3_TABLE
    keys = set(big.entries) | set(small.entries) | {(i + 1, j + 2) for i, j in small.entries}
    for i, j in keys:
        assert big.get(i, j) == small.get(i, j) + small.get(i - 1, j - 2)
    assert big.get(1, 2) == 3 + 1
    assert big.get(2, 4) == 0 + 3
    assert big.get(3, 5) == 0 + 2


def gj_module_table(n: int) -> BettiTable:
    P = ring("P", n)
    lifts = P.annihilator_of_element(squared_variable_sum(n, QQ))
    return ci_resolution_betti(GradedModuleSpan(P, lifts, name="G/J"))


def test_duality_check_range():
    for field in (QQ, GF(32003)):
        for n in range(2, 7):
            assert duality_check(n, field), (n, field)


def test_duality_literal_corners():
    assert gj_module_table(2).get(0, 1) == 2 == table("R", 2).get(2, 3)
    assert gj_module_table(4).get(0, 2) == 5 == table("R", 4).get(4, 6)
    assert gj_module_table(5).get(0, 2) == 5 == table("R", 5).get(5, 8)


def test_g_mod_j_has_a_one_dimensional_top_koszul_row_but_no_symmetric_table():
    # why the Koszul route pairs dual slices of a ring only: G/J's top row
    # looks like a Gorenstein ring's socle, yet its table is not self-dual
    for n in (4, 5, 6):
        t = gj_module_table(n)
        s = max(j for _, j in t.entries) - n
        assert [t.get(n, j) for j in range(n, n + s + 1)] == [0] * s + [1], n
        assert t.entries != {(n - i, n + s - j): v for (i, j), v in t.entries.items()}, n
    t = gj_module_table(4)
    assert (t.get(0, 2), t.get(4, 8)) == (5, 1)


# ---------------------------------------------------------------------------
# the table type itself
# ---------------------------------------------------------------------------


def test_betti_table_format_layout():
    expected = (
        "       0  1   2   3  4\n"
        "total: 1  5  15  16  5\n"
        "    0: 1  -   -   -  -\n"
        "    1: -  5   -   -  -\n"
        "    2: -  -  15  16  5"
    )
    assert BettiTable(4, R4_TABLE).format() == expected


def test_betti_table_helpers():
    t = BettiTable(4, R4_TABLE)
    assert [t.total(i) for i in range(5)] == [1, 5, 15, 16, 5]
    assert t.max_i == 4
    assert t.get(3, 3) == 0
