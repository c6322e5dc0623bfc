"""Exact linear algebra over the rationals and over GF(p).

Every matrix and vector that crosses this module's boundary is a list of
rows of field elements: ints in ``range(p)`` over GF(p), ints or
``Fraction``s over QQ.  numpy stays inside the mod-p kernels, ``gf_rank``
and ``gf_matmul``, which ``rank``, ``matmul`` and ``sparse_rank`` call.

Reduced echelon forms and kernels come from one engine, ``Echelon``.
Ranks of big sparse matrices go through a singleton-pivot pre-pass, then one
sparse pivoting pass for both fields: over QQ on +-1 pivots with integer
arithmetic, over GF(p) on any nonzero entry until fill-in makes the rest
dense.  What is left goes to the dense kernel: fraction-free (Bareiss)
elimination over QQ, and over GF(p) ``gf_rank``, blocked elimination with
delayed reduction and one matrix-product update per panel.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .fields import MAX_PRIME, Field

# ----------------------------------------------------------------------
# generic helpers
# ----------------------------------------------------------------------


def matmul(A, B, field: Field):
    """A @ B for matrices given as lists of rows."""
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    if field.is_prime_field:
        Ap = np.array(A, dtype=np.int64).reshape(n, k)
        Bp = np.array(B, dtype=np.int64).reshape(k, m)
        return gf_matmul(Ap, Bp, field.characteristic).tolist()
    out = [[field.zero()] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            for j in range(m):
                b = Bt[j]
                if b != 0:
                    Oi[j] += a * b
    return out


def rank(M, field: Field) -> int:
    if field.is_prime_field:
        return gf_rank(np.array(M, dtype=np.int64), field.characteristic)
    return qq_rank([list(r) for r in M])


def kernel_basis(M, field: Field, ncols: int | None = None):
    """Basis of {v : M v = 0}, as rows; canonical (from the rref free columns).

    One vector per free column of the reduced echelon form: 1 there, 0 at
    the other free columns, and minus that column of each pivot row at the
    row's pivot.
    """
    if ncols is None:
        if not M:
            raise ValueError("empty matrix needs ncols")
        ncols = len(M[0])
    ech = Echelon(field, ncols)
    for row in M:
        ech.insert(row)
    p = field.characteristic
    pivots = set(ech.pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for row, pc in zip(ech.rows, ech.pivots):
            v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(v)
    return basis


# ----------------------------------------------------------------------
# sparse singleton-pivot pre-pass
# ----------------------------------------------------------------------


def sparse_rank(row_entries: dict, nrows: int, ncols: int, field: Field) -> int:
    """Rank of a sparse matrix given as {row: {col: value}}.

    Rows or columns with a single nonzero entry are pivoted away without
    fill-in, ``_pivot_rank`` eliminates sparsely, and the remaining dense
    core goes to the field's dense kernel.  Over GF(p) the values are
    reduced mod p first.  The input dict is consumed.
    """
    p = field.characteristic
    rows = {}
    for r, cs in row_entries.items():
        kept = {c: v % p for c, v in cs.items() if v % p} if p else {c: v for c, v in cs.items() if v}
        if kept:
            rows[r] = kept
    cols: dict = {}
    for r, cs in rows.items():
        for c in cs:
            cols.setdefault(c, set()).add(r)

    rk = 0
    rqueue = [r for r, cs in rows.items() if len(cs) == 1]
    cqueue = [c for c, rs in cols.items() if len(rs) == 1]

    def remove_entry(r, c):
        cs = rows[r]
        del cs[c]
        if not cs:
            del rows[r]
        elif len(cs) == 1:
            rqueue.append(r)
        rs = cols[c]
        rs.discard(r)
        if not rs:
            del cols[c]
        elif len(rs) == 1:
            cqueue.append(c)

    while rqueue or cqueue:
        if rqueue:
            r = rqueue.pop()
            if r not in rows or len(rows[r]) != 1:
                continue
            # row r has its only nonzero in column c: pivot there, then the
            # rest of column c is cleared by row operations that only touch
            # column c of the other rows
            (c,) = rows[r]
            rk += 1
            for r2 in list(cols[c]):
                remove_entry(r2, c)
        else:
            c = cqueue.pop()
            if c not in cols or len(cols[c]) != 1:
                continue
            # column c has its only nonzero in row r: column operations from
            # the pivot clear the rest of row r without fill-in elsewhere
            (r,) = cols[c]
            rk += 1
            for c2 in list(rows[r]):
                remove_entry(r, c2)

    if not rows:
        return rk
    if not p:
        _scale_sparse_rows_to_int(rows)
    rk += _pivot_rank(rows, cols, p)
    if not rows:
        return rk
    col_pos = {c: k for k, c in enumerate(sorted(cols))}
    if p:
        A = np.zeros((len(rows), len(col_pos)), dtype=np.int64)
        for i, cs in enumerate(rows.values()):
            for c, v in cs.items():
                A[i, col_pos[c]] = v
        return rk + gf_rank(A, p)
    dense = []
    for cs in rows.values():
        row = [0] * len(col_pos)
        for c, v in cs.items():
            row[col_pos[c]] = v
        dense.append(row)
    return rk + qq_rank(dense)


def _scale_sparse_rows_to_int(rows: dict) -> None:
    """Replace each sparse row by the coprime-integer multiple of itself.

    Rows of ints with no common factor, the usual case, are left as they are.
    """
    for r, cs in rows.items():
        if not all(type(v) is int for v in cs.values()):
            denom = lcm(*(v.denominator for v in cs.values()))
            cs = rows[r] = {c: int(v * denom) for c, v in cs.items()}
        g = gcd(*cs.values())
        if g > 1:
            rows[r] = {c: v // g for c, v in cs.items()}


def _pivot_rank(rows: dict, cols: dict, p: int) -> int:
    """Sparse elimination over GF(p), or over QQ when p == 0; leftovers stay in ``rows``.

    Shortest rows are pivoted first (lazy heap, stale lengths re-pushed) and
    within a row the admissible entry with the fewest other nonzeros in its
    column wins, which keeps fill-in low on the incidence-like matrices this
    sees.  Over QQ only +-1 entries are admissible, so the integer rows stay
    integer; a row with none re-enters the heap whenever elimination changes
    it, and rows that never acquire one are left for Bareiss.  Over GF(p)
    every nonzero is admissible and entries stay in ``range(p)``; the pass
    stops once the shortest row holds more than 1/16 of the live columns,
    where fill-in has made the rest dense and the blocked kernel is faster.
    """
    heap = [(len(cs), r) for r, cs in rows.items()]
    heapq.heapify(heap)
    rk = 0
    while heap:
        ln, pr = heapq.heappop(heap)
        prow = rows.get(pr)
        if prow is None:
            continue
        if len(prow) != ln:
            heapq.heappush(heap, (len(prow), pr))
            continue
        if p and 16 * ln > len(cols):
            break
        best = None
        for c, v in prow.items():
            if p or v == 1 or v == -1:
                load = len(cols[c])
                if best is None or load < best[0]:
                    best = (load, c, v)
        if best is None:
            continue
        _, pc, s = best
        # 1/s: s itself for the units +-1 over QQ
        inv = pow(s, p - 2, p) if p else s
        del rows[pr]
        for c in prow:
            rs = cols[c]
            rs.discard(pr)
            if not rs:
                del cols[c]
        rk += 1
        for r2 in list(cols.get(pc, ())):
            row2 = rows[r2]
            m = row2[pc] * inv
            if p:
                m %= p
            for c, v in prow.items():
                old = row2.get(c, 0)
                nv = old - m * v
                if p:
                    nv %= p
                if nv:
                    row2[c] = nv
                    if not old:
                        cols.setdefault(c, set()).add(r2)
                elif old:
                    del row2[c]
                    rs = cols[c]
                    rs.discard(r2)
                    if not rs:
                        del cols[c]
            if row2:
                heapq.heappush(heap, (len(row2), r2))
            else:
                del rows[r2]
    return rk


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


def _check_prime_bound(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} exceeds {MAX_PRIME}, the largest prime the mod-p kernels handle exactly")


def gf_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p.  Uses exact float64 products when the sizes allow it."""
    _check_prime_bound(p)
    if A.size == 0 or B.size == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    k = A.shape[1]
    # k * (p-1)^2 must stay under 2^53 for the float64 product to be exact
    if k * (p - 1) * (p - 1) < (1 << 53):
        C = (A.astype(np.float64) @ B.astype(np.float64)) % p
        return C.astype(np.int64)
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    step = max(1, (1 << 53) // ((p - 1) * (p - 1)))
    for s in range(0, k, step):
        C += (A[:, s:s + step].astype(np.float64) @ B[s:s + step].astype(np.float64)).astype(np.int64) % p
        C %= p
    return C


# Columns per panel of gf_rank.  Reduction is delayed inside a panel, so
# entries grow to at most _PANEL * p^2.  Field, gf_rank and gf_matmul refuse
# p above fields.MAX_PRIME, the largest prime with (p-1)^2 < 2^53: up to it each
# float64 product in gf_matmul is exact, and _PANEL * p^2 < 2^63.
_PANEL = 120


def gf_rank(A: np.ndarray, p: int) -> int:
    """Rank mod p.  Destroys A.

    Right-looking blocked elimination along the longer side: each panel of
    columns is factored with scalar column steps (multipliers stored in place
    of the zeroed entries, classic LU style), then the trailing block gets one
    matrix-product update per panel.  Exact while _PANEL * p^2 < 2^63 (p below
    about 2^28) and while gf_matmul's float64 products are exact (p below
    about 2^26.5); p above ``fields.MAX_PRIME`` is refused.
    """
    _check_prime_bound(p)
    if A.size == 0:
        return 0
    if A.shape[0] < A.shape[1]:
        A = A.T.copy()
    A %= p
    nrows, ncols = A.shape
    r = 0
    c0 = 0
    while c0 < ncols and r < nrows:
        c1 = min(c0 + _PANEL, ncols)
        r_start = r
        piv_cols: list[int] = []
        invs: list[int] = []
        for c in range(c0, c1):
            if r == nrows:
                break
            col = A[r:, c] % p
            A[r:, c] = col
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                A[[r, piv]] = A[[piv, r]]  # full-row swap keeps stored multipliers with their rows
            A[r, c:c1] %= p
            inv = pow(int(A[r, c]), p - 2, p)
            if inv != 1:
                A[r, c:c1] = (A[r, c:c1] * inv) % p
            if r + 1 < nrows:
                f = A[r + 1:, c]
                if np.any(f):
                    A[r + 1:, c + 1:c1] -= f[:, None] * A[r, c + 1:c1][None, :]
                    # column c below the pivot keeps holding f: that is the
                    # stored multiplier for the trailing update
            piv_cols.append(c)
            invs.append(inv)
            r += 1
        if piv_cols and c1 < ncols:
            k = len(piv_cols)
            # the pivot rows' trailing parts are stale: forward-substitute
            # the recorded multipliers (and the pivot scalings) through them
            T = A[r_start:r, c1:]
            L_pp = A[r_start:r, :][:, piv_cols]
            for a in range(k):
                if a:
                    T[a] -= L_pp[a, :a] @ T[:a]
                T[a] %= p
                if invs[a] != 1:
                    T[a] = (T[a] * invs[a]) % p
            if r < nrows:
                L = A[r:, :][:, piv_cols]
                A[r:, c1:] = (A[r:, c1:] - gf_matmul(L, T, p)) % p
        c0 = c1
    return r


# ----------------------------------------------------------------------
# incremental row spaces
# ----------------------------------------------------------------------


def _sub_multiple(a: list, c, b: list, p: int) -> list:
    """The row a - c*b, reduced mod p over GF(p) (p > 0)."""
    if p:
        return [(x - c * y) % p if y else x for x, y in zip(a, b)]
    return [x - c * y if y else x for x, y in zip(a, b)]


class Echelon:
    """A row space maintained in reduced echelon form, one insert at a time.

    This is the echelon engine of the package: ``kernel_basis`` is built on
    it, and callers use it directly for annihilator extraction, socle
    checks and span comparisons.  Vectors are lists of field elements (ints
    in ``range(p)`` over GF(p), ints or ``Fraction``s over QQ); the rows
    have a 1 at their pivot and 0 at every other row's pivot.
    """

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list:
        """Fully reduce a vector against the current rows (no insertion)."""
        p = self.field.characteristic
        v = [x % p for x in vec] if p else list(vec)
        for row, j in zip(self.rows, self.pivots):
            c = v[j]
            if c:
                v = _sub_multiple(v, c, row, p)
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec):
        """Insert a vector; returns the normalized residual, or None if dependent."""
        p = self.field.characteristic
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        if p:
            inv = pow(v[piv], p - 2, p)
            v = [inv * x % p for x in v]
        else:
            inv = 1 / Fraction(v[piv])
            v = [inv * x for x in v]
        # keep earlier rows reduced against the new pivot
        for k, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[k] = _sub_multiple(row, c, v, p)
        at = 0
        while at < len(self.pivots) and self.pivots[at] < piv:
            at += 1
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return v
