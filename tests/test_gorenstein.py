"""The explicit Gorenstein ideal: orbit generators, ballot-indexed initial
ideal, the dual form and its annihilator, Hessians, and the Lefschetz checks.
"""

from math import comb

import pytest

from aciring import (
    QQ,
    G_from_orbit,
    QuotientRing,
    ann_of_form,
    annihilator,
    ballot_sequences,
    disjointness_invertible,
    disjointness_matrix,
    format_poly,
    g_polynomial,
    groebner_basis,
    hessian,
    hilbert_function,
    ideal_equal,
    inverse_form,
    named_quotient,
    parse_poly,
    predicted_initial_ideal,
    slp_check_A,
    squared_variable_sum,
)
from aciring.fields import GF
from aciring.gorenstein import _lefschetz_by_ranks, g_identity_check


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# the orbit generator g_n and the ideal it spans
# ---------------------------------------------------------------------------


def test_g_polynomial_literals():
    assert g_polynomial(2) == parse_poly("x1", 2)
    assert g_polynomial(3) == parse_poly("x1 - x2", 3)
    assert format_poly(g_polynomial(4)) == "x1*x3 - x2*x3"
    assert format_poly(g_polynomial(5)) == "x1*x3 - x2*x3 - x1*x4 + x2*x4"


def test_orbit_ideal_n2_is_the_maximal_ideal():
    gens = G_from_orbit(2, QQ)
    assert sorted(str(g) for g in gens) == ["x1", "x1^2", "x2", "x2^2"]
    assert ideal_equal(gens, [parse_poly("x1", 2), parse_poly("x2", 2)])


def test_orbit_ideal_sizes():
    # two squares + orbit of x1; the n=7 orbit keeps 210 distinct elements
    assert len(G_from_orbit(2, QQ)) == 2 + 2
    assert len(G_from_orbit(4, QQ)) == 4 + 24
    assert len(G_from_orbit(7, QQ)) == 7 + 210


def test_orbit_ideal_n4_quotient_hilbert():
    assert hilbert_function(QuotientRing(G_from_orbit(4, QQ))) == [1, 4, 1]


def test_three_descriptions_of_g_agree():
    for n in range(2, 6):
        P = named_quotient("P", n, QQ)
        colon = annihilator(P, squared_variable_sum(n, QQ))
        orbit = G_from_orbit(n, QQ)
        dual = ann_of_form(n, QQ)
        assert ideal_equal(colon, orbit)
        assert ideal_equal(orbit, dual)
        assert ideal_equal(colon, dual)


def test_g_times_h_squared_lands_in_the_square_ideal():
    for n in range(2, 10):
        assert g_identity_check(n, QQ)


# ---------------------------------------------------------------------------
# ballot sequences and the predicted initial ideal
# ---------------------------------------------------------------------------


def test_ballot_sequences_n5():
    assert ballot_sequences(5) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_ballot_sequence_counts_are_catalan():
    for n in range(2, 13):
        ell = (n - 2) // 2
        seqs = ballot_sequences(n)
        assert len(seqs) == catalan(ell + 2)
        for seq in seqs:
            assert len(seq) == ell + 1
            assert all(a < b for a, b in zip(seq, seq[1:]))
            assert all(v <= 2 * (j + 1) for j, v in enumerate(seq))


def test_predicted_initial_ideal_n3_minimalizes():
    assert set(predicted_initial_ideal(3).gens) == {(1, 0, 0), (0, 1, 0), (0, 0, 2)}


def test_predicted_initial_ideal_n5():
    squares = {tuple(2 if k == i else 0 for k in range(5)) for i in range(5)}
    products = {
        (1, 1, 0, 0, 0),  # x1*x2
        (1, 0, 1, 0, 0),  # x1*x3
        (1, 0, 0, 1, 0),  # x1*x4
        (0, 1, 1, 0, 0),  # x2*x3
        (0, 1, 0, 1, 0),  # x2*x4
    }
    assert set(predicted_initial_ideal(5).gens) == squares | products


def test_predicted_initial_ideal_n7_cubic_count():
    cubics = [m for m in predicted_initial_ideal(7).gens if sum(m) == 3]
    assert len(cubics) == 14
    assert all(max(m) == 1 for m in cubics)


def test_computed_initial_ideal_matches_prediction():
    for n in range(2, 7):
        ell = (n - 2) // 2
        gb = groebner_basis(G_from_orbit(n, QQ))
        assert gb.initial_ideal() == predicted_initial_ideal(n)
        assert {g.degree for g in gb.polys} <= {2, ell + 1}


# ---------------------------------------------------------------------------
# the dual socle form and its annihilator
# ---------------------------------------------------------------------------


def test_inverse_form_literals():
    assert str(inverse_form(2)) == "2"
    assert str(inverse_form(3)) == "2*y1 + 2*y2 + 2*y3"
    assert str(inverse_form(4)) == "2*y1*y2 + 2*y1*y3 + 2*y2*y3 + 2*y1*y4 + 2*y2*y4 + 2*y3*y4"


def test_ann_of_form_n2():
    assert sorted(str(g) for g in ann_of_form(2)) == ["x1", "x2"]


def test_ann_of_form_generators_n3_n4():
    # frozen: the generators in order, as the degree-by-degree sieve finds them
    assert [str(g) for g in ann_of_form(3, QQ)] == ["x1 - x2", "x1 - x3", "x3^2"]
    assert [str(g) for g in ann_of_form(4, QQ)] == [
        "x1^2", "x2^2", "x1*x2 - x1*x3", "x1*x3 - x2*x3", "x3^2",
        "x2*x3 - x1*x4", "x1*x4 - x2*x4", "x2*x4 - x3*x4", "x4^2",
    ]


def test_ann_of_form_n4_quotient_hilbert():
    assert hilbert_function(QuotientRing(ann_of_form(4, QQ))) == [1, 4, 1]


def test_ann_of_form_n5_equals_orbit_ideal():
    assert ideal_equal(ann_of_form(5, QQ), G_from_orbit(5, QQ))


# ---------------------------------------------------------------------------
# Hessians and the disjointness matrix
# ---------------------------------------------------------------------------


def test_hessian_order_zero_n4():
    h = hessian(4, 0)
    assert len(h.basis) == 1
    assert h.at_ones() == [[12]]  # F(1,...,1) = 2 * binom(4,2)
    assert h.determinant_at_ones() == 12


def test_hessian_order_one_n5():
    h = hessian(5, 1)
    assert h.basis == [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    ]
    ones = h.at_ones()
    assert all(ones[r][c] == (0 if r == c else 6) for r in range(5) for c in range(5))
    assert h.determinant_at_ones() == 31104  # 6^5 * det(all-ones - identity)
    # a repeated variable is never squarefree, so the diagonal form is zero
    assert not h.entries[0][0]


def test_hessian_order_out_of_range():
    with pytest.raises(ValueError):
        hessian(5, 2)


def test_hessian_is_scaled_disjointness_matrix():
    for n, i in ((6, 1), (6, 2), (7, 2), (8, 3)):
        scale = 2 * comb(n - 2 * i, 2)
        D = disjointness_matrix(n, i)
        assert hessian(n, i).at_ones() == [[scale * d for d in row] for row in D]


def test_disjointness_matrix_invertible():
    for n in range(2, 9):
        ell = (n - 2) // 2
        for i in range(1, ell + 1):
            assert disjointness_invertible(n, i)


# ---------------------------------------------------------------------------
# the strong Lefschetz property of A
# ---------------------------------------------------------------------------


def test_slp_holds_over_the_rationals():
    for n in range(2, 8):
        assert slp_check_A(n)


def test_slp_positive_characteristic_warns_and_uses_ranks():
    with pytest.warns(UserWarning):
        assert slp_check_A(3, 7)


# verdicts of the rank route for n = 2..8 over QQ, GF(3), GF(5), GF(7) and
# GF(32003): a prime at or below n - 2 can break the strong Lefschetz property
LEFSCHETZ_BY_RANKS = {
    2: (1, 1, 1, 1, 1),
    3: (1, 0, 1, 1, 1),
    4: (1, 0, 1, 1, 1),
    5: (1, 0, 0, 1, 1),
    6: (1, 0, 0, 1, 1),
    7: (1, 0, 0, 0, 1),
    8: (1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("n", sorted(LEFSCHETZ_BY_RANKS))
def test_lefschetz_by_ranks_frozen_verdicts(n):
    fields = (QQ, GF(3), GF(5), GF(7), GF(32003))
    assert tuple(int(_lefschetz_by_ranks(n, f)) for f in fields) == LEFSCHETZ_BY_RANKS[n]
