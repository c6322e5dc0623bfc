"""Exact rank / kernel / determinant routines against slow reference code."""

import ast
import random
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aciring import linalg
from aciring.errors import DimensionMismatch
from aciring.fields import GF, MAX_PRIME, QQ
from aciring.linalg import (
    Echelon,
    compose,
    gf_matmul,
    gf_rank,
    int_det_bareiss,
    kernel_basis,
    qq_rank,
    sparse_rank,
)
from aciring.resolution import koszul_betti, named_quotient

from _oracle import EchelonModP, fraction_det, fraction_rank, gf_kernel_slow, gf_rank_slow


# QQ and the prime fields the kernel and echelon tests run over
FIELD_CHARS = [0, 2, 3, 101, 32003]
FIELD_IDS = ["QQ" if p == 0 else f"GF{p}" for p in FIELD_CHARS]


def _random_fraction_matrix(rng, nrows, ncols, density=0.6):
    return [
        [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def test_qq_rank_matches_oracle():
    rng = random.Random(11)
    for _ in range(80):
        M = _random_fraction_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert qq_rank(M) == fraction_rank(M)


def test_gf_rank_matches_oracle():
    rng = random.Random(12)
    p = 32003
    for _ in range(40):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        A = np.array(
            [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(ncols)] for _ in range(nrows)],
            dtype=np.int64,
        )
        assert gf_rank(A.copy(), p) == gf_rank_slow(A.tolist(), p)
    # tall and wide products L @ R of rank k, through four or five levels of
    # _echelon's row halving, where bottom rows that the top half's basis
    # reduces to zero are dropped before the rest recurses: row 7 repeats row 2
    # (in the same 8-row leaf or in the next one) and row 125 is zero, and a
    # repeated and a zero column of the factors make the pivot columns skip
    nprng = np.random.default_rng(12)
    for nrows, ncols, k in ((250, 130, 130), (130, 250, 125), (250, 245, 200), (241, 260, 170)):
        L = nprng.integers(0, p, size=(nrows, k))
        R = nprng.integers(0, p, size=(k, ncols))
        L[7], R[:, 5] = 3 * L[2] % p, R[:, 3]
        L[125], R[:, 126] = 0, 0
        A = (L @ R) % p  # entries stay below k * p^2 < 2^63
        assert gf_rank(A.copy(), p) == gf_rank_slow(A.tolist(), p)
    # the largest prime a Field accepts: gf_matmul's float64 products, which
    # both updates of each halving take, are still exact (at 2^31 - 1 they are not)
    p = MAX_PRIME
    L, R = nprng.integers(0, p, size=(140, 100)), nprng.integers(0, p, size=(100, 130))
    A = (L @ R) % p
    assert gf_rank(A.copy(), p) == gf_rank_slow(A.tolist(), p) == 100


def test_gf_matmul_matches_exact_products():
    # one chunk of the inner dimension at 32003, one column per chunk at
    # MAX_PRIME, and an empty inner dimension
    rng = np.random.default_rng(18)
    for p, k in ((32003, 37), (MAX_PRIME, 37), (32003, 0)):
        A, B = rng.integers(0, p, size=(23, k)), rng.integers(0, p, size=(k, 19))
        want = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in B.T] for row in A]
        got = gf_matmul(A, B, p)
        assert got.dtype == np.int64 and got.tolist() == want, (p, k)


def test_gf_rank_works_in_place():
    # traced allocations while gf_rank factors A, tall, wide and square:
    # no copy of A, and the trailing update made in place
    p = 32003
    rng = np.random.default_rng(19)
    for nrows, ncols in ((900, 500), (500, 900), (400, 400)):
        k = 3 * min(nrows, ncols) // 5
        A = (rng.integers(0, p, size=(nrows, k)) @ rng.integers(0, p, size=(k, ncols))) % p
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert gf_rank(A, p) == k
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * A.nbytes, (nrows, ncols, peak / A.nbytes)


def test_gf_kernels_refuse_primes_above_the_bound():
    # at p = 2^31 - 1, gf_rank used to return rank 200 for a 200x200 matrix of rank 150
    p = 2**31 - 1
    A = np.arange(12, dtype=np.int64).reshape(3, 4)
    with pytest.raises(ValueError, match="exceeds"):
        gf_rank(A.copy(), p)
    with pytest.raises(ValueError, match="exceeds"):
        gf_matmul(A, A.T.copy(), p)


def test_gf_kernels_refuse_a_modulus_that_is_not_prime():
    # gf_rank used to return 2 for diag(2, 2) mod 4 and 1 for [[5]] mod 25,
    # and gf_matmul mod 1 raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match="not prime"):
        gf_rank(np.diag([2, 2]).astype(np.int64), 4)
    with pytest.raises(ValueError, match="not prime"):
        gf_rank(np.array([[5]], dtype=np.int64), 25)
    A = np.arange(6, dtype=np.int64).reshape(2, 3)
    with pytest.raises(ValueError, match="at least 2"):
        gf_matmul(A, A.T.copy(), 1)
    # a product mod a composite is well defined
    assert gf_matmul(A, A.T.copy(), 4).tolist() == [[1, 2], [2, 2]]


def test_gf_rank_refuses_blocks_that_are_not_int64():
    # gf_rank factors in place, so it cannot cast: an int32 block at
    # p = 1 000 003 wrapped its products and read rank 12 for this matrix of
    # rank 9, and a uint32 block raised a numpy casting error
    p = 1_000_003
    A = np.random.default_rng(22).integers(0, p, size=(12, 9))
    assert gf_rank(A.copy(), p) == gf_rank_slow(A.tolist(), p) == 9
    for dtype in (np.int32, np.uint32, np.float64):
        with pytest.raises(TypeError, match="int64"):
            gf_rank(A.astype(dtype), p)


def _low_rank(rng, nrows, ncols, k, p):
    """A random nrows x ncols matrix mod p of rank at most k, as int64."""
    L = rng.integers(0, p, size=(nrows, k)).astype(object)
    R = rng.integers(0, p, size=(k, ncols)).astype(object)
    return (np.dot(L, R) % p).astype(np.int64) if k else np.zeros((nrows, ncols), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 32003, MAX_PRIME])
def test_gf_rank_recursion_matches_oracle(p):
    # row counts around the leaf size and the halvings, tall and wide, from
    # all-zero to full rank; each echelon form is checked as well as its rank
    leaf = linalg._LEAF
    rng = np.random.default_rng(21)
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((5, 0), dtype=np.int64)]
    for nrows in (1, leaf, leaf + 1, 2 * leaf, 2 * leaf + 1, 4 * leaf + 3):
        for ncols in (1, 5, 3 * nrows + 1):
            for k in sorted({0, 1, min(nrows, ncols) // 2, min(nrows, ncols)}):
                cases.append(_low_rank(rng, nrows, ncols, k, p))
    # the rank is complete after the top half, so the bottom half reduces to
    # zero; then the same top half under a bottom half whose pivots come first
    top = _low_rank(rng, leaf, 30, leaf, p)
    top[:, :3] = 0
    full = np.vstack((top, _low_rank(rng, leaf + 1, leaf, leaf, p) @ top % p))
    early = full.copy()
    early[-3:, :3] = rng.integers(1, p, size=(3, 3))
    # zero and repeated rows scattered through the bottom halves
    sparse = _low_rank(rng, 4 * leaf + 3, 12, 6, p)
    sparse[::3] = 0
    sparse[leaf + 2] = sparse[leaf + 1]
    cases += [full, early, sparse]
    for A in cases:
        want = gf_rank_slow(A.tolist(), p)
        assert gf_rank(A.copy(), p) == want, (A.shape, p)
        E = A.copy()
        piv = linalg._echelon(E, p)
        basis = E[:len(piv)]
        assert len(piv) == want and basis[:, piv].tolist() == np.eye(want, dtype=np.int64).tolist()
        assert gf_rank_slow(A.tolist() + basis.tolist(), p) == want, (A.shape, p)


def test_sparse_rank_matches_dense_both_fields():
    rng = random.Random(13)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = {}
        for r in range(nrows):
            cs = {}
            for c in range(ncols):
                if rng.random() < 0.35:
                    # rng can emit 0: sparse_rank must tolerate explicitly
                    # stored zero entries (regression: a structural singleton
                    # with value 0 used to be pivoted and inflate the rank)
                    cs[c] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if cs:
                rows[r] = cs
        dense = [[rows.get(r, {}).get(c, Fraction(0)) for c in range(ncols)] for r in range(nrows)]
        want = fraction_rank(dense)
        assert sparse_rank({r: dict(cs) for r, cs in rows.items()}, nrows, ncols, QQ) == want
        # the same rows times 12 as plain ints, stacked on their doubles: rows
        # with a common factor, and the same rank
        ints = {r: {c: int(v * 12) for c, v in cs.items()} for r, cs in rows.items()}
        ints.update({r + nrows: {c: 2 * v for c, v in cs.items()} for r, cs in ints.items()})
        assert sparse_rank(ints, 2 * nrows, ncols, QQ) == want
        if trial % 3 == 0:
            p = 101
            # scale the whole matrix by 12 (lcm of the denominators used above)
            # to land in integers, then reduce mod p; rank is unchanged
            gf_rows = {r: {c: int(v * 12) % p for c, v in cs.items()} for r, cs in rows.items()}
            dense_p = [[gf_rows.get(r, {}).get(c, 0) for c in range(ncols)] for r in range(nrows)]
            # the same matrix off by multiples of p, some entries negative and
            # the stored zeros now nonzero multiples of p: sparse_rank reduces them
            shifted = {r: {c: v + (c % 3 - 1) * p for c, v in cs.items()} for r, cs in gf_rows.items()}
            assert sparse_rank(gf_rows, nrows, ncols, GF(p)) == gf_rank_slow(dense_p, p)
            assert sparse_rank(shifted, nrows, ncols, GF(p)) == gf_rank_slow(dense_p, p)


def _sparse_mod_p(rng, nrows, ncols, per_row, p):
    """{row: {col: value}} with about ``per_row`` nonzeros in range(p) per row;
    every eighth row is left empty and the top columns are never used."""
    used = ncols - 3
    return {
        r: {rng.randrange(used): rng.randrange(1, p) for _ in range(rng.randint(1, 2 * per_row))}
        for r in range(nrows)
        if r % 8 != 5
    }


def test_sparse_rank_pivot_pass_matches_oracle(monkeypatch):
    # 60-150 rows and columns at 2-5% density: the pivoting pass does most of
    # the work, and either finishes or hands a dense rest to gf_rank
    handed_off = []
    dense_kernel = linalg.gf_rank
    monkeypatch.setattr(linalg, "gf_rank", lambda A, p: handed_off.append(A.shape) or dense_kernel(A, p))
    rng = random.Random(16)
    outcomes = set()
    for p in (2, 3, 101, 32003):
        for trial in range(6):
            nrows, ncols = rng.randint(60, 150), rng.randint(60, 150)
            per_row = max(1, round(ncols * rng.uniform(0.02, 0.05)))
            if trial % 2:
                # rank at most k: L @ R mod p with sparse factors, so sums
                # cancel exactly (often at p = 2 and 3)
                k = rng.randint(min(nrows, ncols) // 3, 2 * min(nrows, ncols) // 3)
                L = _sparse_mod_p(rng, nrows, k, 1, p)
                R = _sparse_mod_p(rng, k, ncols, max(1, per_row // 2), p)
                rows = {}
                for r, ls in L.items():
                    acc = {}
                    for t, a in ls.items():
                        for c, b in R.get(t, {}).items():
                            acc[c] = (acc.get(c, 0) + a * b) % p
                    rows[r] = acc  # keeps the sums that cancelled as stored zeros
            else:
                rows = _sparse_mod_p(rng, nrows, ncols, per_row, p)
                # twice another row (all stored zeros at p = 2), and explicit zero entries
                rows[1] = {c: 2 * v % p for c, v in rows[0].items()}
                for r in range(2, nrows, 9):
                    rows.setdefault(r, {})[rng.randrange(ncols)] = 0
            dense = [[rows.get(r, {}).get(c, 0) for c in range(ncols)] for r in range(nrows)]
            calls = len(handed_off)
            assert sparse_rank(rows, nrows, ncols, GF(p)) == gf_rank_slow(dense, p), (p, trial)
            outcomes.add(len(handed_off) > calls)
    assert outcomes == {False, True}
    # the dense rest arrives tall, its longer side as rows
    assert all(rows >= cols for rows, cols in handed_off), handed_off


def _check_round(r, c, v, piv, p):
    """Assert that ``piv`` is one round's pivot set on the live entries (r, c, v).

    Recomputed entry by entry: the first pass, the admissible entries
    cheapest by (Markowitz cost, index) over every row and column they meet,
    is all of a QQ round and part of a GF(p) round.  The pivots span a
    diagonal block.  Over GF(p) none costs more than the first pass's
    costliest, and the set is maximal under that ceiling: every entry
    outside the rows that meet a pivot column and the columns that meet a
    pivot row costs more.
    """
    rows, cols, vals = r.tolist(), c.tolist(), v.tolist()
    row_len, col_len = Counter(rows), Counter(cols)
    cost = [(row_len[i] - 1) * (col_len[j] - 1) for i, j in zip(rows, cols)]
    adm = [e for e, x in enumerate(vals) if (x if p else abs(x) == 1)]
    row_min, col_min = {}, {}
    for e in adm:
        row_min[rows[e]] = min(row_min.get(rows[e], (cost[e], e)), (cost[e], e))
        col_min[cols[e]] = min(col_min.get(cols[e], (cost[e], e)), (cost[e], e))
    rows_of_col, cols_of_row = defaultdict(set), defaultdict(set)
    for i, j in zip(rows, cols):
        rows_of_col[j].add(i)
        cols_of_row[i].add(j)
    first = {
        e for e in adm
        if all((cost[e], e) <= row_min.get(i, (cost[e], e)) for i in rows_of_col[cols[e]])
        and all((cost[e], e) <= col_min.get(j, (cost[e], e)) for j in cols_of_row[rows[e]])
    }
    taken = piv.tolist()
    if not p:
        assert taken == sorted(first)
    assert first <= set(taken) and set(taken) <= set(adm)
    pivot_rows, pivot_cols = {rows[e] for e in taken}, {cols[e] for e in taken}
    assert len(pivot_rows) == len(pivot_cols) == len(taken)
    # the only entries in a pivot row and a pivot column are the pivots
    assert sum(i in pivot_rows and j in pivot_cols for i, j in zip(rows, cols)) == len(taken)
    if p:
        ceiling = max(cost[e] for e in first)
        assert max(cost[e] for e in taken) == ceiling
        blocked_rows = set().union(*(rows_of_col[j] for j in pivot_cols))
        blocked_cols = set().union(*(cols_of_row[i] for i in pivot_rows))
        assert all(
            cost[e] > ceiling
            for e, (i, j) in enumerate(zip(rows, cols))
            if i not in blocked_rows and j not in blocked_cols
        )


def _checked_rounds(mp, log):
    """Patch ``_round_pivots`` to check every pivot set it returns and log
    (live entries, live density, pivots) per call, pivots None where the
    rounds stop."""
    search = linalg._round_pivots

    def checked(r, c, v, nrows, ncols, p):
        piv = search(r, c, v, nrows, ncols, p)
        if piv is not None:
            _check_round(r, c, v, piv, p)
        density = v.size / (np.unique(r).size * np.unique(c).size)
        log.append((v.size, density, None if piv is None else piv.size))
        return piv

    mp.setattr(linalg, "_round_pivots", checked)


def _transpose(rows: dict) -> dict:
    out: dict = {}
    for i, cs in rows.items():
        for j, x in cs.items():
            out.setdefault(j, {})[i] = x
    return out


@st.composite
def _sparse_matrix(draw, p):
    """{row: {col: value}} of up to 14 x 14 with values over GF(p) or QQ:
    units, repeats, stored zeros and, over QQ, fractions."""
    nrows, ncols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    if p:
        values = st.sampled_from([0, 1, 2, p - 1]) | st.integers(0, p - 1)
    else:
        values = st.sampled_from([1, -1, 2, -3, 0]) | st.fractions(-4, 4, max_denominator=3)
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    entries = draw(st.dictionaries(cells, values, max_size=3 * max(nrows, ncols)))
    rows = {}
    for (i, j), x in sorted(entries.items()):
        rows.setdefault(i, {})[j] = x
    return rows, nrows, ncols


@pytest.mark.parametrize("p", [0, 2, 3, 101, 32003, MAX_PRIME], ids=["QQ", "GF2", "GF3", "GF101", "GF32003", "GFmax"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_round_pivots_span_a_diagonal_block(p, data):
    rows, nrows, ncols = data.draw(_sparse_matrix(p))
    dense = [[rows.get(i, {}).get(j, 0) for j in range(ncols)] for i in range(nrows)]
    want = gf_rank_slow(dense, p) if p else fraction_rank(dense)
    with pytest.MonkeyPatch.context() as mp:
        _checked_rounds(mp, [])
        assert sparse_rank(rows, nrows, ncols, GF(p) if p else QQ) == want


@pytest.mark.parametrize("p", [0, 2, 101, 32003, MAX_PRIME], ids=["QQ", "GF2", "GF101", "GF32003", "GFmax"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_rank_lists_pivot_rows_of_full_row_rank(p, data):
    # ranked as its transpose, the way the Koszul route ranks a slice: the
    # transpose's listed pivot columns are distinct ints, no more than the
    # rank, independent rows of the matrix, and asking for them does not
    # change the rank
    rows, nrows, ncols = data.draw(_sparse_matrix(p))
    field = GF(p) if p else QQ
    listed = []
    rk = sparse_rank(_transpose(rows), ncols, nrows, field, pivot_cols=listed)
    assert rk == sparse_rank(rows, nrows, ncols, field)
    assert all(type(k) is int for k in listed)
    assert len(set(listed)) == len(listed) <= rk
    block = [[rows.get(i, {}).get(j, 0) for j in range(ncols)] for i in listed]
    assert (gf_rank_slow(block, p) if p else fraction_rank(block)) == len(listed)


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
def test_sparse_rank_extends_a_given_pivot_row_list(p):
    # the rounds take a diagonal of ones whole; ranked as the transpose of
    # a 6 x 5 matrix, its pivot columns, the matrix's rows, are appended
    # after what the list already holds
    rows = {r: {r: 1} for r in range(5)}
    listed = ["kept"]
    assert sparse_rank(_transpose(rows), 5, 6, GF(p) if p else QQ, pivot_cols=listed) == 5
    assert listed[0] == "kept" and sorted(listed[1:]) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("p", [101, 32003])
def test_sparse_rank_through_a_tail_just_under_the_dense_share(monkeypatch, p):
    # seven diagonal blocks of 24 x 24 at half density, rows and columns
    # shuffled, each with two rows that are sums of two others.  The blocks
    # fill in as they are eliminated, but full blocks only reach 1/7 of the
    # live rows times columns, just under _DENSE_SHARE: the rounds go on,
    # each taking one or two pivots per block, until the blocks run out or
    # the share is passed and gf_rank takes the rest
    blocks, size = int(1 / linalg._DENSE_SHARE) + 1, 24
    n = blocks * size
    rng = random.Random(23)
    perm_r, perm_c = rng.sample(range(n), n), rng.sample(range(n), n)
    rows = {}
    for b in range(blocks):
        block = [{j: rng.randrange(1, p) for j in range(size) if rng.random() < 0.5} for _ in range(size)]
        for k in (0, 1):
            block[k] = {j: (block[2 + k].get(j, 0) + 2 * block[4 + k].get(j, 0)) % p for j in set(block[2 + k]) | set(block[4 + k])}
        for i, cs in enumerate(block):
            rows[perm_r[b * size + i]] = {perm_c[b * size + j]: x for j, x in cs.items()}
    dense = [[rows.get(i, {}).get(j, 0) for j in range(n)] for i in range(n)]
    log = []
    _checked_rounds(monkeypatch, log)
    assert sparse_rank(rows, n, n, GF(p)) == gf_rank_slow(dense, p) == blocks * (size - 2)
    tail = [piv for _, share, piv in log if 0.95 * linalg._DENSE_SHARE < share <= linalg._DENSE_SHARE]
    assert len(tail) >= 6 and all(piv <= 2 * blocks for piv in tail), log


@pytest.mark.parametrize("p, most", [(32003, 66), (0, 159)], ids=["GF32003", "QQ"])
def test_rounds_of_r_at_n7(monkeypatch, p, most):
    # the rounds that take pivots in R's Koszul table at n = 7, each slice
    # ranked as its transpose.  Over GF(p) each round goes on choosing pivots
    # that the earlier ones leave free, where one pass per round takes 84
    # rounds; over QQ a round is one pass.  Each slice leaves out the columns
    # that carry the pivots of the slice above it: ranked whole, the slices
    # take 75 rounds over GF(p) and 212 over QQ
    rounds = []
    search = linalg._round_pivots
    monkeypatch.setattr(linalg, "_round_pivots", lambda *a: rounds.append(search(*a)) or rounds[-1])
    koszul_betti(named_quotient("R", 7, GF(p) if p else QQ))
    taken = sum(piv is not None for piv in rounds)
    assert taken <= most if p else taken == most


def test_sparse_rank_explicit_zero_regression():
    rows = {
        0: {1: Fraction(0), 4: Fraction(-1)},
        1: {2: Fraction(2, 3), 3: Fraction(3)},
        2: {3: Fraction(4)},
        3: {3: Fraction(3), 4: Fraction(-2)},
    }
    assert sparse_rank(rows, 4, 5, QQ) == 3



def test_sparse_rank_takes_entries_beyond_int64():
    # over QQ such a matrix goes to Bareiss whole; over GF(p) it is reduced first
    big = 2**70 + 1
    rows = {0: {0: big, 1: 1}, 1: {0: 3 * big, 1: 3}, 2: {0: big, 1: 2}}
    assert sparse_rank({r: dict(cs) for r, cs in rows.items()}, 3, 2, QQ) == 2
    assert sparse_rank({0: {0: big, 1: 1}, 1: {0: 1, 1: big}}, 2, 2, QQ) == 2
    # 2^70 + 1 = 3 mod 7, so the rows are proportional mod 7
    assert sparse_rank({0: {0: big, 1: 1}, 1: {0: 2 * big, 1: 2}}, 2, 2, GF(7)) == 1
    assert sparse_rank({0: {0: big, 1: 1}, 1: {0: 1, 1: big}}, 2, 2, GF(7)) == 2


def test_sparse_rank_sums_many_products_mod_the_largest_prime():
    # an arrow: k pivot rows {i: a_i, k: b_i} and one row {i: -a_i, k: d}, so
    # one round pivots on the whole diagonal and entry (k, k) receives k
    # products of about p^2; unreduced, their sum passes 2^63.  Spread over
    # 200 times as many rows and columns, the entries' keys times p pass
    # 2^63 too, so the products are merged by an argsort, not a packed sort
    p, k = MAX_PRIME, 2100
    # the multiplier of each product is -a_i / a_i = -1, so the complement is d + sum(b_i)
    rest = sum(p - 1 - i for i in range(k)) % p
    for stride in (1, 200):
        assert ((k * stride + 1) ** 2 * p >= 1 << 63) == (stride > 1)
        for shift, want in ((0, k), (1, k + 1)):
            rows = {i: {i: i + 2, k: p - 1 - i} for i in range(k)}
            rows[k] = {i: p - (i + 2) for i in range(k)}
            rows[k][k] = (shift - rest) % p
            spread = {stride * i: {stride * j: x for j, x in cs.items()} for i, cs in rows.items()}
            assert sparse_rank(spread, k * stride + 1, k * stride + 1, GF(p)) == want


def test_sparse_rank_hands_large_fill_to_bareiss(monkeypatch):
    # rows x and 2x + (first chain row); two chains of +-1 pivots carry x's
    # columns 0 and 4 to the pivot-free columns 3 and 7 with factors t^3.
    # The rest is [[a, b], [2a, 2b]] with |a|, |b| near t^4 > 2^63: the rounds
    # must stop at the first fill past 2^20 and leave the rest to Bareiss
    handed_off = []
    dense_kernel = linalg.qq_rank
    monkeypatch.setattr(linalg, "qq_rank", lambda M: handed_off.append(M) or dense_kernel(M))
    for t in range((1 << 19) - 43, (1 << 19) - 3, 2):
        rows = {0: {0: t, 4: -(t + 2)}, 1: {0: 2 * t + 1, 1: t, 4: -2 * (t + 2)}}
        for start, col in ((2, 0), (5, 4)):
            for i in range(3):
                rows[start + i] = {col + i: 1, col + i + 1: t}
        dense = [[rows.get(r, {}).get(c, 0) for c in range(8)] for r in range(8)]
        handed_off.clear()
        assert sparse_rank(rows, 8, 8, QQ) == fraction_rank(dense) == 7, t
        # one more round would multiply two of these: past 2^62
        assert max(abs(x) for row in handed_off[0] for x in row) > 1 << 31


def test_int_det_bareiss_matches_oracle():
    rng = random.Random(14)
    for size in (1, 2, 3, 4, 5, 6):
        for _ in range(12):
            M = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            assert int_det_bareiss([row[:] for row in M]) == fraction_det(M)


def test_int_det_bareiss_refuses_non_integral_entries():
    assert int_det_bareiss([[Fraction(4, 2), 0], [0, Fraction(3)]]) == 6
    assert int_det_bareiss([[1, 2], [2, 4]]) == 0
    for M in ([[Fraction(1, 2)]], [[Fraction(3, 2), 0], [0, 2]], [[1, 2]]):
        with pytest.raises(ValueError):
            int_det_bareiss(M)


def test_rref_shape_and_pivots():
    M = [
        [Fraction(0), Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(5)],
    ]
    ech = Echelon(QQ, 3)
    for row in M:
        ech.insert(row)
    pivots, rows = ech.pivots, ech.rows
    assert pivots == [0, 1]
    # each pivot column is a unit vector across the reduced rows
    for k, c in enumerate(pivots):
        assert rows[k][c] == 1
        assert all(rows[other][c] == 0 for other in range(len(rows)) if other != k)


@pytest.mark.parametrize("p", FIELD_CHARS, ids=FIELD_IDS)
def test_kernel_basis_rank_nullity(p):
    rng = random.Random(15)
    for trial in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if p:
            # negative entries and entries >= p, and every third matrix gets a
            # row that is 3 times the first one mod p
            M = [[rng.randint(-2 * p, 2 * p) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]
            if trial % 3 == 0:
                M.append([3 * x + p for x in M[0]])
            field, nullity = GF(p), ncols - gf_rank_slow(M, p)
        else:
            M = _random_fraction_matrix(rng, nrows, ncols)
            field, nullity = QQ, ncols - fraction_rank(M)
        columns = [[(r, row[c]) for r, row in enumerate(M) if row[c]] for c in range(ncols)]
        ker = kernel_basis(columns, field)
        assert len(ker) == nullity
        for v in ker:  # every kernel vector actually annihilates M (mod p)
            for row in M:
                dot = sum(row[c] * v[c] for c in range(ncols))
                assert (dot % p if p else dot) == 0
            if p:
                assert all(0 <= x < p for x in v)


def test_compose_qq_and_gf():
    # A = [[1, 2], [0, 1]] and B = [[3], [-1/2]] as column maps: A·B = [[2], [-1/2]]
    A = [[(0, Fraction(1))], [(0, Fraction(2)), (1, Fraction(1))]]
    B = [[(0, Fraction(3)), (1, Fraction(-1, 2))]]
    assert compose([(A, B)], QQ) == [[(0, Fraction(2)), (1, Fraction(-1, 2))]]
    # over GF(7): [[1, 2], [0, 1]]·[[3], [6]] = [[15 mod 7], [6]]
    p = 7
    Ap = [[(0, 1)], [(0, 2), (1, 1)]]
    Bp = [[(0, 3), (1, 6)]]
    assert compose([(Ap, Bp)], GF(p)) == [[(0, (3 + 12) % 7), (1, 6)]]


@pytest.mark.parametrize("p", FIELD_CHARS, ids=FIELD_IDS)
def test_echelon_insert_reports_dependence(p):
    def vec(*xs):
        # over GF(p) the entries are off by multiples of p, one of them negative
        return [x + (-1) ** j * j * p for j, x in enumerate(xs)] if p else [Fraction(x) for x in xs]

    ech = Echelon(GF(p) if p else QQ, 3)
    assert ech.insert(vec(1, 1, 0)) is not None
    assert ech.insert(vec(0, 1, 1)) is not None
    # dependent on the first two
    assert ech.insert(vec(1, 2, 1)) is None
    assert ech.insert(vec(0, 0, 5)) is not None
    if p:
        assert ech.rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert ech.contains(vec(p, -p, 2 * p))


def test_echelon_over_qq_keeps_integral_values_as_ints():
    # integral Fractions coming in, and a pivot 1/2 whose inverse 2 is an int
    ech = Echelon(QQ, 3)
    assert ech.insert([Fraction(1, 2), Fraction(1, 2), Fraction(4, 2)]) == [1, 1, 4]
    assert ech.insert([0, Fraction(2, 3), 1]) == [0, 1, Fraction(3, 2)]
    assert ech.rows == [[1, 0, Fraction(5, 2)], [0, 1, Fraction(3, 2)]]
    assert ech.reduce([Fraction(6, 3), 0, 1]) == [0, 0, -4]
    for values in (*ech.rows, ech.reduce([Fraction(6, 3), 0, 1]), ech.reduce([3, Fraction(1, 2), 0])):
        assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in values), values


@pytest.mark.parametrize("p", FIELD_CHARS, ids=FIELD_IDS)
def test_echelon_refuses_vectors_of_the_wrong_length(p):
    # Echelon(GF(7), 3).insert([1, 2]) used to store a two-entry row, and
    # later zips against it truncated
    field = GF(p) if p else QQ
    ech = Echelon(field, 3)
    ech.insert([field.one(), field.zero(), field.zero()])
    for vec in ([1, 2], [1, 2, 3, 4], []):
        for method in (ech.insert, ech.reduce, ech.contains):
            with pytest.raises(DimensionMismatch):
                method(vec)
    assert ech.rows == [[1, 0, 0]] and ech.pivots == [0]


# the primes the array Echelon and kernel_basis are checked at against the list oracle
ORACLE_PRIMES = [2, 3, 101, 32003, MAX_PRIME]


def _all_python_ints(values) -> bool:
    return all(type(x) is int for x in values)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_gf_echelon_matches_the_list_oracle(p):
    # rows, pivots, residuals, reductions and membership against EchelonModP,
    # on vectors drawn from a small span (so dependent ones recur), vectors
    # off by multiples of p, negative entries and entries beyond int64
    rng = random.Random(p)
    for trial in range(40):
        ncols = rng.randint(0, 11)
        ech, slow = Echelon(GF(p), ncols), EchelonModP(p, ncols)
        span = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randint(1, 5))]

        def draw():
            kind = rng.random()
            if kind < 0.5:
                coeffs = [rng.randrange(p) for _ in span]
                return [sum(c * row[j] for c, row in zip(coeffs, span)) for j in range(ncols)]
            if kind < 0.8:
                return [rng.randint(-2 * p, 2 * p) if rng.random() < 0.5 else 0 for _ in range(ncols)]
            return [rng.randrange(p) + rng.choice((-1, 1)) * p * rng.randrange(1 << 70, 1 << 72) for _ in range(ncols)]

        for _ in range(rng.randint(0, 14)):
            probe, vec = draw(), draw()
            reduced = ech.reduce(probe)
            assert reduced == slow.reduce(probe) and _all_python_ints(reduced)
            assert ech.contains(probe) is slow.contains(probe)
            got = ech.insert(vec)
            assert got == slow.insert(vec)
            assert got is None or _all_python_ints(got)
            rows = ech.rows
            assert rows == slow.rows and ech.pivots == slow.pivots and ech.rank == len(rows)
            assert _all_python_ints(ech.pivots) and all(_all_python_ints(row) for row in rows)
        for vec in ([0] * (ncols + 1), [1] * max(ncols - 1, 0) if ncols else [1]):
            for method in (ech.insert, ech.reduce, ech.contains):
                with pytest.raises(DimensionMismatch):
                    method(vec)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_gf_kernel_basis_matches_the_list_oracle(p):
    rng = random.Random(7 * p)
    maps = []
    for _ in range(25):
        nrows, ncols = rng.randint(1, 9), rng.randint(0, 9)
        maps.append([[(r, rng.randint(-p, 2 * p)) for r in range(nrows) if rng.random() < 0.5] for _ in range(ncols)])
    # an injective map (unit lower triangular, so the kernel is empty), a
    # zero map on 4 columns, a map with no columns, and a row that repeats
    # another one twice over
    maps.append([[(j, 1)] + [(r, rng.randrange(p)) for r in range(j + 1, 6)] for j in range(5)])
    maps.append([[] for _ in range(4)])
    maps.append([])
    maps.append([[(0, 1), (3, 2)], [(0, p - 1), (3, p - 2)], [(1, 5)]])
    for columns in maps:
        ker = kernel_basis(columns, GF(p))
        assert ker == gf_kernel_slow(columns, len(columns), p)
        assert all(_all_python_ints(v) for v in ker)
    assert kernel_basis(maps[-4], GF(p)) == []
    assert kernel_basis(maps[-3], GF(p)) == [[int(i == j) for i in range(4)] for j in range(4)]


def test_only_linalg_knows_the_matrix_format():
    # outside linalg every linear map is a list of sparse columns, one list of
    # (target position, value) pairs per source vector: no other module
    # imports numpy, asks which field it is working over, or transposes a
    # matrix with zip(*...) into a second format
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "numpy" for m in modules):
                offenders.append(f"{path.name}:{node.lineno} imports numpy")
            if isinstance(node, ast.Attribute) and node.attr == "is_prime_field":
                offenders.append(f"{path.name}:{node.lineno} tests is_prime_field")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "zip"
                and any(isinstance(a, ast.Starred) for a in node.args)
            ):
                offenders.append(f"{path.name}:{node.lineno} transposes with zip(*...)")
    assert offenders == []


def test_only_poly_stores_terms_unchecked():
    # a term list built with _sorted=True is stored without coercing, merging
    # or sorting; outside poly only the two reductions whose terms come out of
    # field operations, and from_vector, which coerces each coordinate over
    # the distinct monomials of basis(d), may build one; every other module
    # goes through the coercing constructor
    allowed = {("quotient.py", "nf"), ("quotient.py", "from_vector"), ("groebner.py", "normal_form")}
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function overrides its outer one
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(k.arg == "_sorted" for k in node.keywords):
                if (path.name, owner.get(node)) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno} stores terms with _sorted")
    assert offenders == []
