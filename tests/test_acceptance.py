"""Acceptance gate: the eleven headline claims, one test per criterion.

Each criterion prints a single PASS/FAIL line (with its runtime against the
pinned budget) and then asserts.  Budgets are wall-clock seconds and are part
of the acceptance bar, so they are asserted too, not just reported.
"""

import time
from functools import lru_cache
from math import comb

from aciring import (
    GF,
    QQ,
    G_from_orbit,
    ann_of_form,
    annihilator,
    betti_table_formula,
    ci_resolution_betti,
    disjointness_invertible,
    duality_check,
    exact_zero_divisor_check,
    gamma_sequence,
    groebner_basis,
    hilbert_formula,
    hilbert_function,
    ideal_equal,
    koszul_betti,
    lifting_identity_check,
    named_quotient,
    predicted_initial_ideal,
    rho_sequence,
    slp_check_A,
    squared_variable_sum,
)
from aciring.poly import Polynomial

# frozen literal tables (independent copies, not imported from anywhere)
LITERAL_TABLES = {
    ("R", 2): {(0, 0): 1, (1, 2): 3, (2, 3): 2},
    ("R", 3): {(0, 0): 1, (1, 2): 4, (2, 3): 2, (2, 4): 3, (3, 5): 2},
    ("R", 4): {(0, 0): 1, (1, 2): 5, (2, 4): 15, (3, 5): 16, (4, 6): 5},
    ("R", 5): {
        (0, 0): 1, (1, 2): 6, (2, 4): 20, (3, 5): 16, (4, 6): 5,
        (3, 6): 15, (4, 7): 16, (5, 8): 5,
    },
    ("A", 2): {(0, 0): 1, (1, 1): 2, (2, 2): 1},
    ("A", 3): {(0, 0): 1, (1, 1): 2, (2, 2): 1, (1, 2): 1, (2, 3): 2, (3, 4): 1},
    ("A", 4): {(0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1},
    ("A", 5): {
        (0, 0): 1, (1, 2): 10, (2, 3): 16, (3, 4): 9,
        (2, 4): 9, (3, 5): 16, (4, 6): 10, (5, 8): 1,
    },
}

RHO_LITERALS = {
    2: [0, 3, 2],
    4: [0, 0, 15, 16, 5],
    6: [0, 0, 14, 105, 132, 70, 14],
    8: [0, 0, 42, 288, 945, 1216, 819, 288, 42],
}
GAMMA_LITERALS = {
    2: [1, 2, 1],
    4: [0, 9, 16, 9, 0],
    6: [0, 14, 85, 132, 85, 14, 0],
    8: [0, 42, 288, 875, 1216, 875, 288, 42, 0],
}


def ell_of(n: int) -> int:
    return (n - 2) // 2


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def ring(label: str, n: int):
    return named_quotient(label, n, QQ)


@lru_cache(maxsize=None)
def qq_table(label: str, n: int):
    return koszul_betti(ring(label, n))


class Criterion:
    """Collects failures, then prints the one-line verdict and asserts."""

    def __init__(self, number: int, name: str, budget: float):
        self.number = number
        self.name = name
        self.budget = budget
        self.problems: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.budget
        ok = not self.problems and in_budget
        print(
            f"criterion {self.number:02d} {self.name}: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget {self.budget:.0f}s)"
        )
        assert not self.problems, "; ".join(self.problems)
        assert in_budget, f"ran {elapsed:.1f}s against a {self.budget:.0f}s budget"


def test_criterion_01_hilbert_closed_forms():
    c = Criterion(1, "hilbert functions match closed forms, n=2..8", 30)
    for n in range(2, 9):
        for label in ("P", "R", "A"):
            got = hilbert_function(ring(label, n))
            want = hilbert_formula(label, n)
            c.check(got == want, f"{label} n={n}: {got} != {want}")
    c.conclude()


def test_criterion_02_even_betti_tables():
    c = Criterion(2, "even-n Betti tables (QQ n=2,4,6; GF(32003) n=8)", 120 + 900)
    t_qq = time.perf_counter()
    for n in (2, 4, 6):
        for label in ("R", "A"):
            got = qq_table(label, n)
            c.check(got == betti_table_formula(label, n), f"{label} n={n} formula mismatch")
            if (label, n) in LITERAL_TABLES:
                c.check(got.entries == LITERAL_TABLES[(label, n)], f"{label} n={n} literal mismatch")
    c.check(time.perf_counter() - t_qq < 120, "rational even-n part exceeded 120s")
    t_gf = time.perf_counter()
    field = GF(32003)
    for label in ("R", "A"):
        got = koszul_betti(named_quotient(label, 8, field))
        c.check(got == betti_table_formula(label, 8), f"{label} n=8 over GF(32003) mismatch")
    c.check(time.perf_counter() - t_gf < 900, "n=8 modular part exceeded 900s")
    c.conclude()


def test_criterion_03_odd_betti_tables():
    c = Criterion(3, "odd-n Betti tables equal the closed forms, n=3,5,7", 300)
    for n in (3, 5, 7):
        for label in ("R", "A"):
            got = qq_table(label, n)
            c.check(got == betti_table_formula(label, n), f"{label} n={n} formula mismatch")
            if (label, n) in LITERAL_TABLES:
                c.check(got.entries == LITERAL_TABLES[(label, n)], f"{label} n={n} literal mismatch")
    c.conclude()


def test_criterion_04_sequences():
    c = Criterion(4, "rho/gamma literal lists and their properties", 5)
    for n, want in RHO_LITERALS.items():
        c.check(rho_sequence(n) == want, f"rho {n}")
    for n, want in GAMMA_LITERALS.items():
        c.check(gamma_sequence(n) == want, f"gamma {n}")
    for n in range(2, 11, 2):
        l = ell_of(n)
        rho = rho_sequence(n)
        gam = gamma_sequence(n)
        cat = catalan(l + 2)
        if n >= 4:
            c.check(rho[1] == 0, f"rho_1({n})")
        for k in range(l + 1):
            mirrored = rho[n - k + 2] if n - k + 2 <= n else 0
            c.check(rho[k] == mirrored, f"rho symmetry k={k} n={n}")
        c.check(rho[n] == cat, f"rho_n({n})")
        if n >= 6:
            c.check(rho[2] == cat, f"rho_2({n})")
        tail = rho[l + 3] if l + 3 <= n else 0
        c.check(rho[l + 1] == tail + comb(n + 1, l + 1), f"rho column drop n={n}")
        for k in range(1, n):
            c.check(gam[k] == gam[n - k], f"gamma symmetry k={k} n={n}")
        if n >= 6:
            c.check(gam[1] == gam[n - 1] == cat, f"gamma ends n={n}")
            for i in range(l):
                c.check(gam[i] == rho[i + 1], f"gamma-rho overlap i={i} n={n}")
    c.conclude()


def test_criterion_05_catalan_socle():
    c = Criterion(5, "level socle of R and Catalan-many generators of G/J", 60)
    for n in range(2, 8):
        l = ell_of(n)
        cat = catalan(l + 2)
        dims = ring("R", n).socle_dimensions()
        c.check(
            [d for d, s in enumerate(dims) if s] == [n - l - 1],
            f"socle of R not level at n={n}: {dims}",
        )
        c.check(dims[n - l - 1] == cat, f"socle dimension at n={n}: {dims}")
        lifts = ring("P", n).annihilator_of_element(squared_variable_sum(n, QQ))
        c.check(len(lifts) == cat, f"G/J generator count at n={n}: {len(lifts)}")
        c.check(all(g.degree == l + 1 for g in lifts), f"G/J generator degrees at n={n}")
    c.conclude()


def test_criterion_06_gorenstein_ideal_three_ways():
    c = Criterion(6, "colon, orbit and dual-form ideals agree to degree 2n", 180)
    for n in range(2, 8):
        colon = annihilator(ring("P", n), squared_variable_sum(n, QQ))
        orbit = G_from_orbit(n, QQ)
        dual = ann_of_form(n, QQ)
        c.check(ideal_equal(colon, orbit), f"colon != orbit at n={n}")
        c.check(ideal_equal(orbit, dual), f"orbit != dual at n={n}")
        c.check(ideal_equal(colon, dual), f"colon != dual at n={n}")
    c.conclude()


def test_criterion_07_initial_ideal():
    c = Criterion(7, "Groebner basis realizes the ballot initial ideal", 300)
    for n in range(2, 8):
        l = ell_of(n)
        gb = groebner_basis(G_from_orbit(n, QQ))
        c.check(gb.initial_ideal() == predicted_initial_ideal(n), f"initial ideal at n={n}")
        degs = {g.degree for g in gb.polys}
        c.check(degs <= {2, l + 1}, f"basis degrees {sorted(degs)} at n={n}")
    c.conclude()


def test_criterion_08_exact_zero_divisor_and_lifting():
    c = Criterion(8, "exact zero divisors, hypersurface reduction, lifting", 300)
    for n in (3, 5, 7):
        xn = Polynomial.variable(n, QQ, n - 1)
        for label in ("R", "A"):
            big = ring(label, n)
            c.check(exact_zero_divisor_check(big, xn), f"ezd fails for {label} n={n}")
            small_table = qq_table(label, n - 1)
            over_t = ci_resolution_betti(
                big, U=(n - 1,), max_i=n - 1,
                max_j=(n - 1) + max(big.socle_degree(), ring(label, n - 1).socle_degree()),
            )
            keys = set(over_t.entries) | set(small_table.entries)
            c.check(
                all(over_t.get(i, j) == small_table.get(i, j) for i, j in keys),
                f"hypersurface table != barred table for {label} n={n}",
            )
        c.check(lifting_identity_check(n, QQ), f"lifting identity fails at n={n}")
    c.conclude()


def test_criterion_09_duality():
    c = Criterion(9, "module duality between G/J and R", 180)
    for n in range(2, 7):
        c.check(duality_check(n, QQ), f"duality fails at n={n}")
    c.conclude()


def test_criterion_10_lefschetz_and_disjointness():
    c = Criterion(10, "strong Lefschetz for A and invertible disjointness matrices", 120)
    for n in range(2, 8):
        c.check(slp_check_A(n), f"slp fails at n={n}")
    for n in range(2, 11):
        for i in range(1, ell_of(n) + 1):
            c.check(disjointness_invertible(n, i), f"disjointness singular at n={n}, i={i}")
    c.conclude()


def test_criterion_11_proof_identity_spot_checks():
    c = Criterion(11, "membership identity and Hilbert step-downs", 60)
    from aciring.gorenstein import g_identity_check

    for n in range(2, 10):
        c.check(g_identity_check(n, QQ), f"g-identity fails at n={n}")
    for n in (3, 5, 7):
        for label in ("R", "A"):
            big = hilbert_function(ring(label, n))
            small = hilbert_function(ring(label, n - 1))

            def at(seq, i):
                return seq[i] if 0 <= i < len(seq) else 0

            for i in range(len(big) + 1):
                c.check(
                    at(small, i + 1) + at(small, i) == at(big, i + 1),
                    f"step-down fails for {label} at n={n}, degree {i + 1}",
                )
    c.conclude()
