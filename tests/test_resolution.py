"""Betti tables from actual resolutions: the Koszul route, the syzygy route,
and the identities relating the tables of R, A and G/J.

Expected tables are frozen dicts {(i, j): value}.
"""

from functools import lru_cache
from math import comb

import pytest

from aciring import (
    QQ,
    BettiTable,
    BoundTooSmall,
    Polynomial,
    build_quotient,
    ci_resolution_betti,
    duality_check,
    koszul_betti,
    lifting_identity_check,
    named_quotient,
    squared_variable_sum,
    syzygy_betti,
)
from aciring.fields import GF
from aciring.linalg import sparse_rank
from aciring.quotient import GradedModuleSpan, ring_of_polynomials
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
# syzygy route
# ---------------------------------------------------------------------------


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


def test_syzygy_over_hypersurface_matches_one_variable_down():
    x3sq = Polynomial.monomial(3, QQ, (0, 0, 2))
    T = build_quotient([x3sq], name="T")
    got = syzygy_betti(T, ring("R", 3), 2, 4)
    assert got.entries == R2_TABLE
    assert got == table("R", 2)


def test_syzygy_over_all_squares_strand():
    # resolving R over P: the diagonal strand is binomial(1, i)
    got = syzygy_betti(ring("P", 6), ring("R", 6), 2, 6)
    assert [got.get(i, 2 * i) for i in range(3)] == [1, 1, 0]


def test_syzygy_over_polynomial_ring_agrees_with_koszul():
    Q4 = ring_of_polynomials(4, QQ)
    assert syzygy_betti(Q4, ring("A", 4), 4, 6) == table("A", 4)


def test_syzygy_window_too_small_raises():
    x3sq = Polynomial.monomial(3, QQ, (0, 0, 2))
    T = build_quotient([x3sq], name="T")
    with pytest.raises(BoundTooSmall):
        syzygy_betti(T, ring("R", 3), 2, 2)


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
    for n in range(2, 7):
        assert duality_check(n, QQ)


def test_duality_literal_corners():
    assert gj_module_table(2).get(0, 1) == 2 == table("R", 2).get(2, 3)
    assert gj_module_table(4).get(0, 2) == 5 == table("R", 4).get(4, 6)
    assert gj_module_table(5).get(0, 2) == 5 == table("R", 5).get(5, 8)


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
    assert t.rows() == [(0, 0, 1), (1, 2, 5), (2, 4, 15), (3, 5, 16), (4, 6, 5)]
    assert t.shifted(1, 2).entries == {(i + 1, j + 2): v for (i, j), v in R4_TABLE.items()}
    assert t.restricted(2, 4).entries == {(0, 0): 1, (1, 2): 5, (2, 4): 15}
    assert t.get(3, 3) == 0
