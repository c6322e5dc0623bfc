"""Independent reference implementations used to check the real ones.

Everything here is written the slow, obvious way on plain dicts, Fractions
and ints, on purpose: no imports from aciring so a bug in the package
cannot hide in its own oracle.
"""

from fractions import Fraction
from itertools import combinations_with_replacement


def dict_mul(f: dict, g: dict) -> dict:
    """Multiply two polynomials given as {exponent tuple: coefficient}."""
    out = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def dict_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def revlex_greater(a: tuple, b: tuple) -> bool:
    """Strict grevlex comparison: degree first, then the tie-break rule that
    the monomial with the smaller exponent on the last differing variable is
    the larger one."""
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def all_monomials(n: int, d: int) -> list:
    out = set()
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.add(tuple(e))
    return sorted(out)


def fraction_rank(rows) -> int:
    """Gaussian elimination over Fraction, nothing clever."""
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if M[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][c] != 0:
                factor = M[r][c]
                M[r] = [x - factor * y for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def fraction_det(rows) -> Fraction:
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if M[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c] != 0:
                factor = M[r][c] * inv
                M[r] = [x - factor * y for x, y in zip(M[r], M[c])]
    return det


def gf_rank_slow(rows, p: int) -> int:
    M = [[x % p for x in row] for row in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if M[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], p - 2, p)
        M[rank] = [x * inv % p for x in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][c] % p:
                factor = M[r][c]
                M[r] = [(x - factor * y) % p for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def standard_monomials_slow(lead_exponents, n: int, d: int) -> set:
    """Degree-d monomials not divisible by any of the given lead monomials."""

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    return {
        m
        for m in all_monomials(n, d)
        if not any(divides(lt, m) for lt in lead_exponents)
    }


def hilbert_function_slow(generators, n: int, d: int, p: int = 0) -> int:
    """dim Q_d minus the rank of the degree-d Macaulay matrix.

    ``generators`` are homogeneous polynomials as {exponent tuple: coefficient}
    dicts.  The rows are each generator times every monomial that brings it
    to degree d; the columns are all monomials of degree d.  The rank is
    taken over the rationals (p = 0) or mod p.
    """
    cols = all_monomials(n, d)
    pos = {m: j for j, m in enumerate(cols)}
    rows = []
    for g in generators:
        e = sum(next(iter(g)))
        if e > d:
            continue
        for m in all_monomials(n, d - e):
            row = [0] * len(cols)
            for mm, c in dict_mul(g, {m: 1}).items():
                row[pos[mm]] = c
            rows.append(row)
    return len(cols) - (gf_rank_slow(rows, p) if p else fraction_rank(rows))


class EchelonModP:
    """A row space mod a prime p in reduced echelon form, rows as lists of ints.

    Every insert reduces the vector against the rows in pivot order, scales
    the residual to a leading 1, clears its pivot column from the other rows
    and sorts the rows by pivot again.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows = []

    @property
    def pivots(self) -> list:
        return [next(j for j, x in enumerate(row) if x) for row in self.rows]

    def reduce(self, vec) -> list:
        p = self.p
        v = [x % p for x in vec]
        for row, j in zip(self.rows, self.pivots):
            factor = v[j]
            v = [(x - factor * y) % p for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def insert(self, vec):
        p = self.p
        v = self.reduce(vec)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return None
        inv = pow(v[lead], p - 2, p)
        v = [x * inv % p for x in v]
        self.rows = [[(x - row[lead] * y) % p for x, y in zip(row, v)] for row in self.rows] + [v]
        self.rows.sort(key=lambda row: next(j for j, x in enumerate(row) if x))
        return v


def gf_kernel_slow(columns, ncols: int, p: int) -> list:
    """The kernel of a column map mod p: one vector per free column of the
    reduced echelon form of its rows, 1 there, 0 at the other free columns
    and minus that column of each pivot row at the row's pivot."""
    dense = {}
    for j, column in enumerate(columns):
        for r, v in column:
            dense.setdefault(r, [0] * ncols)[j] = v
    ech = EchelonModP(p, ncols)
    for r in sorted(dense):
        ech.insert(dense[r])
    out = []
    for free in range(ncols):
        if free in ech.pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, j in zip(ech.rows, ech.pivots):
            v[j] = -row[free] % p
        out.append(v)
    return out
