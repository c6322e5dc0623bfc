"""Exact linear algebra over the rationals and over GF(p).

A linear map is a list of sparse columns: one list per source basis vector,
holding the (target position, value) pairs of its image with nonzero
values.  ``compose``, ``linear_combination``, ``rank`` and ``kernel_basis``
take maps in that one format.  Vectors are dense lists of field elements:
Python ints in ``range(p)`` over GF(p); over QQ canonical rationals, an int
for an integral value and a ``Fraction`` only for a denominator above 1
(see :mod:`.fields`), and every map and vector handed out here keeps that
rule.  ``sparse_rank`` takes {row: {col: value}}.
numpy stays inside this module.

Over GF(p) the dense mod-p core does the echelon work: ``kernel_basis``
reads the kernel off ``_echelon`` of the map's rows, and ``Echelon``, the
incremental row space that the rings grow one insert at a time, keeps its
rows in one int64 array and reduces by ``gf_matmul`` products.  Over QQ
both work on lists of rationals, ``kernel_basis`` through ``Echelon``.
Ranks go through ``sparse_rank``: structured
Gaussian elimination (Faugere-Lachartre, PASCO 2010) in rounds of
independent pivots ranked by Markowitz cost (Management Sci. 3, 1957), on
flat numpy arrays.  Over QQ the pivots are the +-1 entries and the
arithmetic is int64, one pass of local minima per round.  Over GF(p) any
nonzero entry may pivot, and each round repeats the pass on the entries
its pivots leave free, under the cost of the first pass's costliest pivot,
until none is left: a maximal set of compatible pivots in Markowitz order
(Davis-Yew, SIAM J. Matrix Anal. Appl. 11, 1990).  The round's product
terms are merged by sorting one packed int64 array in place.  The rounds
go on until the rest is dense.  What is left goes to the dense kernel as one tall block:
fraction-free (Bareiss) elimination over QQ, and over GF(p) ``gf_rank``, a
row-recursive reduced echelon form in place whose work is ``gf_matmul``
products of the rank's size, with leaves of at most 8 rows (Dumas-Giorgi-
Pernet, TOMS 35, 2008; Jeannerod-Pernet-Storjohann, JSC 56, 2013).  Each
product is exact in float64 over chunks of floor((2^53 - 1) / (p-1)^2)
columns and reduced mod p at once.  On request (``pivot_cols``),
``sparse_rank`` also lists the columns its rounds pivot on: the Koszul route
ranks each slice's transpose and leaves those out of the slice below.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch
from .fields import MAX_PRIME, Field, canonical, canonical_vector, is_prime

# ----------------------------------------------------------------------
# generic helpers
# ----------------------------------------------------------------------


def compose(products, field: Field) -> list:
    """The column map sum_k outer_k · inner_k, from (outer_k, inner_k) pairs.

    Every inner_k has one column per source vector, the same source for all
    k, and its positions index the columns of outer_k.  Each result column
    holds its nonzero (target position, value) pairs in ascending order.
    """
    out: list[dict] = []
    for outer, inner in products:
        out = out or [{} for _ in inner]
        for acc, column in zip(out, inner):
            for k, v in column:
                for r, w in outer[k]:
                    acc[r] = acc.get(r, 0) + v * w
    return _columns(out, field.characteristic)


def linear_combination(maps, field: Field) -> list:
    """The column map sum_k c_k · M_k, from (M_k, c_k) pairs of maps with one source and target."""
    out: list[dict] = []
    for columns, c in maps:
        out = out or [{} for _ in columns]
        for acc, column in zip(out, columns):
            for r, w in column:
                acc[r] = acc.get(r, 0) + c * w
    return _columns(out, field.characteristic)


def _columns(out: list, p: int) -> list:
    """Each {position: value} accumulator as a sorted column of its nonzero values in the field."""
    if p:
        return [[(r, x % p) for r, x in sorted(acc.items()) if x % p] for acc in out]
    return [[(r, canonical(x)) for r, x in sorted(acc.items()) if x] for acc in out]


def rank(columns, field: Field) -> int:
    """Rank of a column map, through ``sparse_rank``."""
    rows = {j: dict(column) for j, column in enumerate(columns) if column}
    ncols = 1 + max((r for column in rows.values() for r in column), default=-1)
    return sparse_rank(rows, len(columns), ncols, field)


def kernel_basis(columns, field: Field):
    """Basis of {v : M v = 0} for the column map M, as dense vectors.

    Canonical: one vector per free column of the reduced echelon form of
    M's rows, 1 there, 0 at the other free columns, and minus that column
    of each pivot row at the row's pivot.  Over GF(p) the form is
    ``_echelon`` of M's nonzero rows as one dense block; over QQ the rows
    go into an ``Echelon`` one at a time.
    """
    ncols = len(columns)
    p = field.characteristic
    if p:
        return _gf_kernel_basis(columns, ncols, p)
    rows: dict[int, list] = {}
    for j, column in enumerate(columns):
        for r, v in column:
            rows.setdefault(r, [field.zero()] * ncols)[j] = v
    ech = Echelon(field, ncols)
    for r in sorted(rows):
        ech.insert(rows[r])
    pivots = set(ech.pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for row, pc in zip(ech.rows, ech.pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def _gf_array(values, p: int) -> np.ndarray:
    """Integers mod p as an int64 array; integers beyond int64 are reduced first."""
    try:
        a = np.array(values, dtype=np.int64)
    except OverflowError:
        a = (np.array(values, dtype=object) % p).astype(np.int64)
    a %= p
    return a


def _gf_kernel_basis(columns, ncols: int, p: int) -> list:
    """``kernel_basis`` over GF(p): the kernel read off ``_echelon`` of M's nonzero rows."""
    lengths = np.fromiter(map(len, columns), np.int64, ncols)
    sources = np.repeat(np.arange(ncols), lengths)
    targets = np.fromiter((r for column in columns for r, _ in column), np.int64, sources.size)
    live, at = np.unique(targets, return_inverse=True)
    M = np.zeros((live.size, ncols), dtype=np.int64)
    M[at, sources] = _gf_array([v for column in columns for _, v in column], p)
    pivots = _echelon(M, p)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    K = np.zeros((free.size, ncols), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, pivots] = -M[:len(pivots)][:, free].T % p
    return K.tolist()


# ----------------------------------------------------------------------
# sparse elimination in rounds of independent pivots
# ----------------------------------------------------------------------

# Over QQ the rounds stop once an entry passes _QQ_ENTRY_BOUND in absolute
# value, and no round takes more than _ROUND_PIVOTS pivots: each new entry is
# then an int64 sum of one old entry and at most 2^22 products of at most
# 2^40, which cannot overflow.  Over GF(p) the products are reduced mod p
# before they are summed.
_QQ_ENTRY_BOUND = 1 << 20
_ROUND_PIVOTS = 1 << 22

# Over GF(p) the rounds hand the rest to gf_rank once it holds more than this
# share of its live rows times live columns, unless a pivot without fill-in
# (a singleton row or column) is left.  With the recursive gf_rank, 0.1 made
# the n=8 tables over GF(p) 8% faster (wall 2.02 -> 1.85 s, four pairs) but
# raised their peak RSS from 79.5 to 87.9 MB, since the cores grow (A's
# largest from 11.3 to 14.2 MB), so 0.15 stays.
_DENSE_SHARE = 0.15


def sparse_rank(row_entries: dict, nrows: int, ncols: int, field: Field, *, pivot_cols: list | None = None) -> int:
    """Rank of a sparse matrix given as {row: {col: value}}; the dict is left as it is.

    Structured elimination in rounds on flat (row, col, value) arrays.  Each
    round ranks the admissible entries (any nonzero over GF(p), only +-1 over
    QQ) by Markowitz cost, (row length - 1) * (column length - 1), ties broken
    by entry index, and pivots on every entry that is cheapest over each row
    and column it meets.  Over GF(p) the round then drops the entries those
    pivots block (in a row that meets a pivot column, or a column that meets
    a pivot row) and repeats that pass on the rest, among the entries that
    cost no more than the first pass's costliest pivot, until a pass finds
    none.  The ceiling holds back the fill of costlier pivots, which would
    grow the dense cores.  The pivots span a diagonal block A of
    [A B; C D], so one product step replaces the rest by D - C A^-1 B; over
    GF(p) it merges the terms by sorting key * p + value in place.
    Singletons cost 0 and go first.  Over GF(p) the values are reduced mod p
    first, and the rounds stop once the rest is dense (``_DENSE_SHARE``);
    over QQ, rows of ``Fraction``s are scaled to integers, and the rounds
    stop when no +-1 is left or an entry passes ``_QQ_ENTRY_BOUND``.  What is
    left goes to the field's dense kernel, ``gf_rank`` or ``qq_rank``, longer
    side as rows.

    A ``pivot_cols`` list is extended with the columns the rounds pivot on,
    as ints.  They are distinct, and the matrix restricted to them has full
    column rank: with the rounds' pivot rows they hold a nonsingular block.
    The dense kernel's pivots are not listed, so there may be fewer of them
    than the rank.
    """
    p = field.characteristic
    if not p:
        row_entries = dict(row_entries)
        _scale_sparse_rows_to_int(row_entries)
    r, c, v = _coo(row_entries, nrows, ncols, p)
    rk = 0
    while v.size:
        piv = _round_pivots(r, c, v, nrows, ncols, p)
        if piv is None:
            break
        rk += piv.size
        if pivot_cols is not None:
            pivot_cols.extend(c[piv].tolist())
        r, c, v = _schur_step(r, c, v, piv, nrows, ncols, p)
    if not v.size:
        return rk
    # positions among the live rows and columns, the longer side as rows
    r_pos = np.cumsum(np.bincount(r, minlength=nrows) > 0) - 1
    c_pos = np.cumsum(np.bincount(c, minlength=ncols) > 0) - 1
    if r_pos[-1] < c_pos[-1]:
        r_pos, c_pos, r, c = c_pos, r_pos, c, r
    rest = np.zeros((r_pos[-1] + 1, c_pos[-1] + 1), dtype=v.dtype)
    rest[r_pos[r], c_pos[c]] = v
    del r, c, v  # the dense kernel's temporaries need the room
    return rk + (gf_rank(rest, p) if p else qq_rank(rest.tolist()))


def _coo(row_entries: dict, nrows: int, ncols: int, p: int):
    """The nonzero entries as flat (row, col, value) arrays in row-major order.

    Over GF(p) the values are reduced mod p.  Over QQ they are int64, or
    Python ints in an object array if one does not fit.
    """
    idx = np.int32 if max(nrows, ncols) < 2**31 else np.int64
    lengths = np.fromiter(map(len, row_entries.values()), np.int64, len(row_entries))
    nnz = int(lengths.sum())
    r = np.repeat(np.fromiter(row_entries, idx, len(row_entries)), lengths)
    c = np.fromiter(chain.from_iterable(row_entries.values()), idx, nnz)

    def values():
        return chain.from_iterable(cs.values() for cs in row_entries.values())

    try:
        v = np.fromiter(values(), np.int64, nnz)
    except OverflowError:
        v = np.fromiter((x % p for x in values()), np.int64, nnz) if p else np.array(list(values()), dtype=object)
    if p:
        v %= p
    keep = np.flatnonzero(v != 0)
    r, c, v = r[keep], c[keep], v[keep]
    order = np.argsort(r.astype(np.int64) * ncols + c, kind="stable")
    return r[order], c[order], v[order]


def _round_pivots(r, c, v, nrows: int, ncols: int, p: int):
    """The entries one round pivots on, or None where the rounds stop.

    First pass: the admissible entries that are cheapest, by (Markowitz
    cost, index), over every row and column they meet.  Over GF(p) more
    passes follow.  Each drops the entries that the pivots so far block:
    those in a row that meets a pivot column or in a column that meets a
    pivot row.  It then runs the same search on what is left, among the
    entries no costlier than the first pass's costliest pivot, until a pass
    finds nothing.  No two pivots share a row or a column, and no pivot's
    row meets another pivot's column.
    """
    row_len = np.bincount(r, minlength=nrows)
    col_len = np.bincount(c, minlength=ncols)
    if p:
        adm = np.arange(v.size)
    else:
        size = abs(v)
        if size.max() > _QQ_ENTRY_BOUND:
            return None
        adm = np.flatnonzero(size == 1)
        if not adm.size:
            return None
    ra, ca = r[adm], c[adm]
    cost = (row_len[ra] - 1) * (col_len[ca] - 1)
    if p and cost.min() and v.size > _DENSE_SHARE * np.count_nonzero(row_len) * np.count_nonzero(col_len):
        return None
    # unique keys in (cost, index) order; the cap only matters past 2^62 / nnz
    key = np.minimum(cost, (1 << 62) // adm.size) * adm.size + np.arange(adm.size)
    first = _cheapest(key, ra, ca, r, c, nrows, ncols)
    piv = adm[first]
    if not p:
        return piv[:_ROUND_PIVOTS]
    # over GF(p) adm is every entry, so key and cost are indexed by entry
    ceiling = cost[first].max()
    passes = [piv]
    row_out = np.zeros(nrows, dtype=bool)
    col_out = np.zeros(ncols, dtype=bool)
    live = adm
    while piv.size:
        pivot_row = np.zeros(nrows, dtype=bool)
        pivot_row[r[piv]] = True
        pivot_col = np.zeros(ncols, dtype=bool)
        pivot_col[c[piv]] = True
        rl, cl = r[live], c[live]
        row_out[rl[pivot_col[cl]]] = True
        col_out[cl[pivot_row[rl]]] = True
        live = live[~row_out[rl] & ~col_out[cl]]
        cand = live[cost[live] <= ceiling]
        piv = cand[_cheapest(key[cand], r[cand], c[cand], r[live], c[live], nrows, ncols)]
        passes.append(piv)
    return np.concatenate(passes)


def _cheapest(key, ra, ca, r, c, nrows: int, ncols: int):
    """Mask of the candidates (ra, ca) whose key is the least over every row and column they meet.

    A row meets a column where one of the entries (r, c) lies; the
    candidates are among those entries.
    """
    top = np.iinfo(np.int64).max
    row_min = np.full(nrows, top)
    np.minimum.at(row_min, ra, key)
    col_min = np.full(ncols, top)
    np.minimum.at(col_min, ca, key)
    # push each minimum across the other axis, over every entry: a pivot is
    # cheapest over all rows meeting its column and all columns meeting its row
    col_of_rows = np.full(ncols, top)
    np.minimum.at(col_of_rows, c, row_min[r])
    row_of_cols = np.full(nrows, top)
    np.minimum.at(row_of_cols, r, col_min[c])
    return (key == col_of_rows[ca]) & (key == row_of_cols[ra])


def _schur_step(r, c, v, piv, nrows: int, ncols: int, p: int):
    """The entries of D - C A^-1 B, where A is the diagonal block at the entries ``piv``.

    Input and output are row-major (row, col, value) arrays; A's rows and
    columns are dropped.  Over GF(p) the terms are merged by sorting one
    packed int64 array of key * p + value in place, which holds less memory
    than an argsort and two gathers; a key past 2^63 / p falls back to those.
    """
    keys, vals = _complement_terms(r, c, v, piv, nrows, ncols, p)
    if p and nrows * ncols * p <= 1 << 63:
        keys *= p
        keys += vals
        del vals
        keys.sort()
        vals = keys % p
        keys //= p
    else:
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    vals = np.add.reduceat(vals, first) if vals.size else vals
    if p:
        vals %= p
    nz = np.flatnonzero(vals)
    keys = keys[first[nz]]
    return (keys // ncols).astype(r.dtype), (keys % ncols).astype(r.dtype), vals[nz]


def _complement_terms(r, c, v, piv, nrows: int, ncols: int, p: int):
    """The entries of D and of -C A^-1 B as (row * ncols + col, value), unmerged.

    Over GF(p) every value is in range(p): each product is reduced mod p, so
    a sum of them stays below (number of pivots + 1) * p.  Apart from the
    merge so that the gather's temporaries are freed before the sort, which
    keeps peak memory down.
    """
    prow = np.zeros(nrows, dtype=bool)
    prow[r[piv]] = True
    # the pivot row of each pivot column, -1 elsewhere
    row_of_col = np.full(ncols, -1, dtype=r.dtype)
    row_of_col[c[piv]] = r[piv]
    # the inverse of each pivot row's pivot: s itself for the units +-1 over QQ
    inv = np.zeros(nrows, dtype=np.int64)
    inv[r[piv]] = [pow(int(s), -1, p) for s in v[piv]] if p else v[piv]
    in_prow = prow[r]
    in_pcol = row_of_col[c] >= 0
    # B: the pivot rows outside the pivot columns, still grouped by row
    b = np.flatnonzero(in_prow & ~in_pcol)
    b_len = np.bincount(r[b], minlength=nrows)
    b_start = np.cumsum(b_len) - b_len
    # C: the pivot columns outside the pivot rows; -C[e] A^-1 times row B of its pivot
    ce = np.flatnonzero(~in_prow & in_pcol)
    cp = row_of_col[c[ce]]
    mult = -v[ce] * inv[cp]
    if p:
        mult %= p
    reps = b_len[cp]
    src = np.repeat(np.arange(ce.size), reps)
    pos = b[np.arange(src.size) - np.repeat(np.cumsum(reps) - reps - b_start[cp], reps)]
    prod = mult[src] * v[pos]
    if p:
        prod %= p
    d = np.flatnonzero(~in_prow & ~in_pcol)
    keys = np.concatenate((r[d].astype(np.int64) * ncols + c[d], r[ce][src].astype(np.int64) * ncols + c[pos]))
    return keys, np.concatenate((v[d], prod))


def _scale_sparse_rows_to_int(rows: dict) -> None:
    """Replace each sparse row by the coprime-integer multiple of itself.

    Rows of ints with no common factor, the usual case, are left as they are.
    """
    for r, cs in rows.items():
        if Fraction in map(type, cs.values()):
            denom = lcm(*(v.denominator for v in cs.values()))
            cs = rows[r] = {c: int(v * denom) for c, v in cs.items()}
        g = gcd(*cs.values())
        if g > 1:
            rows[r] = {c: v // g for c, v in cs.items()}


# ----------------------------------------------------------------------
# rational path
# ----------------------------------------------------------------------


def _scale_row_to_int(row):
    denom = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            denom = denom * d // gcd(denom, d)
    out = [int(x * denom) if isinstance(x, Fraction) else x * denom for x in row]
    g = 0
    for x in out:
        g = gcd(g, abs(x))
        if g == 1:
            break
    if g > 1:
        out = [x // g for x in out]
    return out


def _bareiss(M: list) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the rank and the last pivot times the sign of the row swaps,
    which for a square matrix of full rank is its determinant.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    r = 0
    prev = 1
    sign = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            M[piv], M[r] = M[r], M[piv]
            sign = -sign
        p = M[r][c]
        Mr = M[r]
        for i in range(r + 1, nrows):
            Mi = M[i]
            mic = Mi[c]
            for k in range(c + 1, ncols):
                Mi[k] = (p * Mi[k] - mic * Mr[k]) // prev
            Mi[c] = 0
        prev = p
        r += 1
    return r, sign * prev


def qq_rank(rows) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on scaled integers."""
    return _bareiss([_scale_row_to_int(r) for r in rows if any(x != 0 for x in r)])[0]


def int_det_bareiss(rows) -> int:
    """Determinant of a square matrix of integers (ints or integral Fractions), fraction-free."""
    if any(x != int(x) for r in rows for x in r):
        raise ValueError("the determinant needs integer entries")
    M = [[int(x) for x in r] for r in rows]
    if any(len(r) != len(M) for r in M):
        raise ValueError("the determinant needs a square matrix")
    rk, last = _bareiss(M)
    return last if rk == len(M) else 0


# ----------------------------------------------------------------------
# prime-field path (numpy, int64, entries in range(p))
# ----------------------------------------------------------------------


def _check_modulus(p: int) -> None:
    if p < 2:
        raise ValueError(f"p = {p} is not a modulus: it must be at least 2")
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} exceeds {MAX_PRIME}, the largest prime the mod-p kernels handle exactly")


def gf_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p as int64, summed over chunks of floor((2^53 - 1) / (p-1)^2) columns of A.

    Entries in range(p).  Each chunk's float64 product is exact; it is cast
    to int64 and reduced in place.  For p near 32003 one chunk is the whole
    product.  Any modulus p >= 2 up to ``fields.MAX_PRIME`` is accepted.
    """
    _check_modulus(p)
    step = ((1 << 53) - 1) // ((p - 1) * (p - 1))

    def chunk(s: int) -> np.ndarray:
        prod = (A[:, s:s + step].astype(np.float64) @ B[s:s + step].astype(np.float64)).astype(np.int64)
        prod %= p
        return prod

    C = chunk(0)  # zeros when the inner dimension is empty
    for s in range(step, A.shape[1], step):
        C += chunk(s)
        C %= p
    return C


# gf_rank reduces blocks of at most _LEAF rows by row operations.
_LEAF = 8


def gf_rank(A: np.ndarray, p: int) -> int:
    """Rank mod a prime p.  Factors A in place, as given (A is destroyed).

    Row-recursive reduced echelon form with leaves of at most _LEAF = 8 rows
    (``_echelon``), whose work is ``gf_matmul`` products with the rank found
    so far as inner dimension.  Every update is reduced at once, so entries
    stay in range(p) and exactness is gf_matmul's chunk rule alone.
    ``sparse_rank`` hands its rest over tall.  A p that is not prime, or
    above ``fields.MAX_PRIME``, is refused, and so is a block that is not
    int64: it is factored in place, so it cannot be cast, and a narrower
    type would wrap the products.
    """
    _check_modulus(p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if A.dtype != np.int64:
        raise TypeError(f"gf_rank factors an int64 block in place, not {A.dtype}")
    A %= p
    return len(_echelon(A, p))


def _echelon(A: np.ndarray, p: int) -> list[int]:
    """Pivot columns of A's reduced echelon form, whose rows it leaves in A[:rank].

    The top half's echelon form reduces the bottom half by one product; the
    bottom's nonzero rows are put in echelon form, which reduces the top by
    one more product.  Rows past the rank are left as scratch.  Blocks of at
    most _LEAF rows are reduced by row operations (Gauss-Jordan).
    """
    if A.shape[0] > _LEAF:
        top, bottom = A[:A.shape[0] // 2], A[A.shape[0] // 2:]
        piv = _echelon(top, p)
        if piv:
            bottom -= gf_matmul(bottom[:, piv], top[:len(piv)], p)
            bottom %= p
        live = np.flatnonzero(bottom.any(axis=1))
        bottom[:live.size] = bottom[live]
        piv2 = _echelon(bottom[:live.size], p)
        if piv2:
            top[:len(piv)] -= gf_matmul(top[:len(piv), piv2], bottom[:len(piv2)], p)
            top[:len(piv)] %= p
            A[len(piv):len(piv) + len(piv2)] = bottom[:len(piv2)]
        return piv + piv2
    piv = []
    for i in range(A.shape[0]):
        nz = np.flatnonzero(A[i])
        if not nz.size:
            continue
        r, c = len(piv), int(nz[0])
        if r < i:
            A[[r, i]] = A[[i, r]]  # row r is zero, as is every row between the basis and row i
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), p - 2, p) % p
        f = A[:, c].copy()
        f[r] = 0
        A[:, c:] -= f[:, None] * A[r, c:]
        A[:, c:] %= p
        piv.append(c)
    return piv


# ----------------------------------------------------------------------
# incremental row spaces
# ----------------------------------------------------------------------


def _sub_multiple(a: list, c, b: list) -> list:
    """The row a - c*b over QQ, canonical."""
    return canonical_vector([x - c * y if y else x for x, y in zip(a, b)])


class Echelon:
    """A row space maintained in reduced echelon form, one insert at a time.

    This is the incremental echelon engine of the package: callers use it
    for annihilator extraction, socle checks and span comparisons, and
    ``kernel_basis`` over QQ is built on it.  Vectors go in and come out as
    lists of field elements: Python ints in ``range(p)`` over GF(p), and
    canonical rationals over QQ, an int unless the denominator is above 1.
    A vector may come in with integral ``Fraction``s, or over GF(p) with
    ints outside ``range(p)``; the rows, residuals and reductions that come
    out are canonical.  The rows are in pivot order, with a 1 at their
    pivot and 0 at every other row's pivot.

    Over GF(p) the rows are kept in one int64 array, in the order they came
    in, which grows by doubling.  A vector is reduced by one ``gf_matmul``
    product of its entries at the pivots with the rows they meet, which is
    exact for every p up to ``fields.MAX_PRIME`` (a raw int64 product is
    not), and an insert clears its pivot column from the other rows by one
    outer-product update.  ``rows`` converts the array to lists in pivot
    order when asked; no list copy is kept.  Over QQ the rows are lists of
    canonical rationals, kept in pivot order.
    """

    __slots__ = ("field", "ncols", "pivots", "_rows", "_a", "_slot", "_row_pivot")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.pivots: list[int] = []
        self._rows: list[list] = []  # over QQ, in pivot order
        # over GF(p): the rows in insertion order, each row's pivot, and the
        # row of each pivot in pivot order
        self._a = np.zeros((0, ncols), dtype=np.int64) if field.characteristic else None
        self._row_pivot = np.zeros(0, dtype=np.int64)
        self._slot: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list]:
        """The rows in pivot order, as lists."""
        if self._a is None:
            return self._rows
        return self._a[self._slot].tolist()

    def _check_length(self, vec) -> None:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"a vector of length {len(vec)} in a row space of {self.ncols} columns")

    def _gf_reduce(self, vec) -> np.ndarray:
        """``vec`` mod p, reduced against the rows, as an int64 array."""
        self._check_length(vec)
        p = self.field.characteristic
        v = _gf_array(vec, p)
        if self.pivots:
            pivots = self._row_pivot[:self.rank]
            hit = np.flatnonzero(v[pivots])
            if hit.size:
                v -= gf_matmul(v[None, pivots[hit]], self._a[hit], p)[0]
                v %= p
        return v

    def reduce(self, vec) -> list:
        """Fully reduce a vector against the current rows (no insertion).

        A vector whose length is not ``ncols`` raises ``DimensionMismatch``.
        """
        if self._a is not None:
            return self._gf_reduce(vec).tolist()
        self._check_length(vec)
        v = canonical_vector(list(vec))
        for row, j in zip(self._rows, self.pivots):
            c = v[j]
            if c:
                v = _sub_multiple(v, c, row)
        return v

    def contains(self, vec) -> bool:
        if self._a is not None:
            return not self._gf_reduce(vec).any()
        return not any(self.reduce(vec))

    def insert(self, vec):
        """Insert a vector; returns the normalized residual, or None if dependent."""
        if self._a is None:
            return self._qq_insert(vec)
        p = self.field.characteristic
        v = self._gf_reduce(vec)
        nz = np.flatnonzero(v)
        if not nz.size:
            return None
        piv = int(nz[0])
        v *= pow(int(v[piv]), p - 2, p)  # each product is below p^2 <= 2^53
        v %= p
        # keep earlier rows reduced against the new pivot; v is 0 left of it
        r = self.rank
        hit = np.flatnonzero(self._a[:r, piv])
        if hit.size:
            block = self._a[hit, piv:]
            block -= block[:, :1] * v[piv:]
            block %= p
            self._a[hit, piv:] = block
        if r == self._a.shape[0]:  # grow by doubling, up to ncols rows
            size = min(self.ncols, max(4, 2 * r))
            self._a = np.concatenate((self._a, np.zeros((size - r, self.ncols), dtype=np.int64)))
            self._row_pivot = np.concatenate((self._row_pivot, np.zeros(size - r, dtype=np.int64)))
        self._a[r] = v
        self._row_pivot[r] = piv
        at = bisect_left(self.pivots, piv)
        self.pivots.insert(at, piv)
        self._slot.insert(at, r)
        return v.tolist()

    def _qq_insert(self, vec):
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv = self.field.inv(v[piv])
        if inv != 1:
            v = canonical_vector([inv * x for x in v])
        # keep earlier rows reduced against the new pivot
        for k, row in enumerate(self._rows):
            c = row[piv]
            if c:
                self._rows[k] = _sub_multiple(row, c, v)
        at = bisect_left(self.pivots, piv)
        self._rows.insert(at, v)
        self.pivots.insert(at, piv)
        return v
