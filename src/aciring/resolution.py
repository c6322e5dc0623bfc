"""Graded Betti numbers by two independent routes.

Route one tensors the module with the standard resolution of the residue
field over the base: the Koszul complex when the base is the polynomial
ring, and its extension by divided-power generators when the base is the
polynomial ring modulo squares of some of the variables (those bases are
where our modules live; the resolution stays linear and minimal).  Betti
numbers fall out of ranks of the differentials, read as sparse columns off
the module's variable maps.  Each strand j is ranked from its highest slice
down, and a slice leaves out the columns that are pivot rows of the slice
above it: d_i ∘ d_{i+1} = 0, so those columns add no rank.
Over the polynomial ring, a quotient ring whose socle is one-dimensional in
its top degree s (so A, not R) is Gorenstein and its Koszul complex is
self-dual: slice (i, j) has the rank of slice (n - i + 1, n + s - j), and
only the cheaper one of each pair is ranked.  The route checks the socle
itself before it pairs anything.

Route two never sees the first construction: on coordinate vectors over the
base's standard monomials, it extracts minimal generators degree by degree,
takes kernels of evaluation matrices, and repeats.  Hilbert bookkeeping makes
the truncation honest: a generator hidden past the window raises
BoundTooSmall instead of silently returning a smaller table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .errors import BoundTooSmall
from .fields import QQ
from .groebner import squares_ideal
from .linalg import Echelon, compose, kernel_basis, sparse_rank
from .poly import squared_variable_sum
from .quotient import GradedModuleSpan, QuotientRing
from .runmemo import _per_run


class BettiTable:
    """A sparse table of graded Betti numbers beta_{i,j}.

    ``window = (max_i, max_j)`` records where the table is trustworthy when
    it was computed with bounds; None means the table is complete.  The
    label/characteristic/method fields are provenance only: equality and
    hashing look at the entries alone.
    """

    __slots__ = ("n", "entries", "window", "ring_label", "module_label", "characteristic", "method")

    def __init__(
        self,
        n: int,
        entries: dict,
        window: tuple[int, int] | None = None,
        ring_label: str = "Q",
        module_label: str = "",
        characteristic: int | None = None,
        method: str = "",
    ):
        self.n = n
        self.entries = {k: int(v) for k, v in entries.items() if v}
        self.window = window
        self.ring_label = ring_label
        self.module_label = module_label
        self.characteristic = characteristic
        self.method = method

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    @property
    def max_i(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def format(self) -> str:
        """Rows are j - i, columns are i, dashes for zeros."""
        if not self.entries:
            return "(zero table)"
        imax = self.max_i
        rmin = min(j - i for i, j in self.entries)
        rmax = max(j - i for i, j in self.entries)
        cols = list(range(imax + 1))
        body = [["-"] * (imax + 1) for _ in range(rmax - rmin + 1)]
        for (i, j), v in self.entries.items():
            body[j - i - rmin][i] = str(v)
        widths = [max(len(str(c)), max(len(body[r][c]) for r in range(len(body)))) for c in cols]
        lines = ["       " + "  ".join(str(c).rjust(widths[c]) for c in cols)]
        lines.append("total: " + "  ".join(str(self.total(c)).rjust(widths[c]) for c in cols))
        for r in range(len(body)):
            label = f"{r + rmin}:".rjust(6)
            lines.append(label + " " + "  ".join(body[r][c].rjust(widths[c]) for c in cols))
        return "\n".join(lines)

    def __repr__(self):
        w = "" if self.window is None else f", window={self.window}"
        return f"BettiTable(n={self.n}, {len(self.entries)} nonzero entries{w})"


# ----------------------------------------------------------------------
# route one: tensor with the standard resolution of k over the base
# ----------------------------------------------------------------------
#
# Base = k[x]/(x_t^2 : t in U).  The resolution of k is the Koszul complex
# on all the variables extended by a divided-power generator z_t (degree 2)
# for each t in U; the basis of the i-th term is e_S z^(s) with
# |S| + 2|s| = i, and every generator sits in internal degree i.


def _ci_generators(n: int, U: Sequence[int], i: int) -> list[tuple[tuple, tuple]]:
    if len(set(U)) != len(U):
        raise ValueError(f"the base squares a variable twice: U = {tuple(U)}")
    out = []
    for k in range(i // 2 + 1):
        q = i - 2 * k
        if q > n:
            continue
        for S in combinations(range(n), q):
            for s in combinations_with_replacement(sorted(U), k):
                out.append((S, s))
    return out


def _remove_once(s: tuple, t: int) -> tuple:
    k = s.index(t)
    return s[:k] + s[k + 1:]


@lru_cache(maxsize=None)
def _ci_boundary(n: int, U: tuple, i: int) -> tuple[tuple, int]:
    """d_i on the generators: per source generator, its (target, t, negative) terms.

    e_S z^(s) maps to the sum over t in S of (-1)^(position of t in S)
    x_t e_(S-t) z^(s), plus the sum over t in s outside S of
    (-1)^(|S| + #{u in S : u > t}) x_t e_(S+t) z^(s-t).  Each pair of
    generators is joined by at most one t.  Also returns the number of
    target generators.
    """
    gens_tgt = _ci_generators(n, U, i - 1)
    tgt_index = {g: b for b, g in enumerate(gens_tgt)}
    boundary = []
    for S, s in _ci_generators(n, U, i):
        faces = [(tgt_index[(S[:pos] + S[pos + 1:], s)], t, pos % 2) for pos, t in enumerate(S)]
        for t in sorted(set(s) - set(S)):
            above = sum(1 for u in S if u > t)
            faces.append((tgt_index[(tuple(sorted(S + (t,))), _remove_once(s, t))], t, (len(S) + above) % 2))
        boundary.append(tuple(faces))
    return tuple(boundary), len(gens_tgt)


def ci_differential(module: QuotientRing, U: Sequence[int], i: int, j: int, drop_columns=()):
    """The degree-j slice of d_i on module ⊗ (resolution of k), as sparse columns.

    Returns (column_entries, ncols, nrows), column_entries as {col: {row: val}}:
    ``sparse_rank`` ranks the slice's transpose, of the same rank.  Columns
    live in module_{j-i} ⊗ gens_i, rows in module_{j-i+1} ⊗ gens_{i-1};
    generator a of either side owns the block from a * (dimension of its
    module piece) on, in the order of ``_ci_generators``.  So the columns of
    slice (i, j) are the rows of slice (i + 1, j).  The values are the
    ``variable_map`` entries, negated as p - v (-v over QQ, where p = 0).
    The columns in ``drop_columns`` are left out; the shape stays.
    """
    d = j - i
    boundary, n_tgt = _ci_boundary(module.n, tuple(U), i)
    h_src, h_tgt = module.hilbert_function(d), module.hilbert_function(d + 1)
    columns: dict = {}
    if h_src and h_tgt:
        p = module.field.characteristic
        maps = [module.variable_map(t, d) for t in range(module.n)]
        drop = set(drop_columns)
        for a, faces in enumerate(boundary):
            base = a * h_src
            terms = [(b * h_tgt, maps[t], negative) for b, t, negative in faces]
            for c in range(h_src):
                if base + c not in drop:
                    column = {row0 + r: p - v if negative else v for row0, M, negative in terms for r, v in M[c]}
                    if column:
                        columns[base + c] = column
    return columns, len(boundary) * h_src, n_tgt * h_tgt


def _square_kills(module, t: int, top: int) -> bool:
    """Whether variable_map(t, d + 1) · variable_map(t, d) = 0 in every degree d."""
    return not any(
        any(compose([(module.variable_map(t, d + 1), module.variable_map(t, d))], module.field)) for d in range(top - 1)
    )


def ci_resolution_betti(
    module: QuotientRing,
    U: Sequence[int] = (),
    max_i: int | None = None,
    max_j: int | None = None,
) -> BettiTable:
    """Betti numbers of the module over k[x]/(x_t^2 : t in U).

    With U empty this is the resolution over the polynomial ring itself and
    the full table is finite; otherwise the table is cut at the window.

    Each strand j is ranked from its highest slice down, each slice as the
    transpose ``ci_differential`` returns.  When the table reads slice
    (i + 1, j) too, that slice is ranked first, and ``sparse_rank`` lists the
    columns S its rounds pivot on, rows of d_{i+1} that hold a nonsingular
    block of it.  So every vector of Λ^i ⊗ M_{j-i} is a combination of the
    unit vectors outside S and the image of d_{i+1}.  As d_i kills that
    image, rank d_i is the rank of its columns outside S, and slice (i, j)
    is built without them (Kaczynski–Mrozek–Ślusarek, Comput. Math. Appl.
    35, 1998, reduce a chain complex the same way).  This holds over QQ and
    GF(p) alike, and for any subset of such an S: the dense kernel's pivots
    are not listed, and a slice whose rank comes from its dual partner lists
    none.  A slice past the window is never ranked for the one below it.

    With U empty, a ``QuotientRing`` whose socle is one-dimensional and sits
    in its top degree s is Artinian Gorenstein, so its Koszul complex is
    self-dual (Bruns–Herzog, *Cohen–Macaulay Rings*, §1.6 and ch. 3): the
    slice (i, j) has the rank of the slice (n - i + 1, n + s - j).  Once
    ``socle_dimensions`` has certified that, only the member of each pair
    with the lower source degree j - i (the lower i on a tie) is ranked, and
    the other takes its rank.  Every other module, and every nonempty U,
    has each slice ranked.  The argument needs a ring, not only a top Koszul
    row of [0, ..., 0, 1]: G/J, a ``GradedModuleSpan``, has that row at
    n = 4, 5 and 6, yet its table is not symmetric (at n = 4,
    beta_{0,2} = 5 against beta_{4,8} = 1).
    """
    n = module.n
    field = module.field
    top = module.socle_degree()
    for t in U:
        if not 0 <= t < n or not _square_kills(module, t, top):
            raise ValueError(f"x_{t + 1}^2 does not vanish on the module")
    if max_i is None:
        if U:
            raise ValueError("a nonempty base needs an explicit homological bound")
        max_i = n
    if max_j is None:
        max_j = max_i + top

    windowed = bool(U) or max_j < max_i + top
    self_dual = not U and isinstance(module, QuotientRing) and module.socle_dimensions() == [0] * top + [1]
    # (i, j, dimension of the term) for every nonzero term in the window; the
    # table reads the slices (i, j) and (i + 1, j) of each
    terms = []
    for i in range(max_i + 1):
        gens_i = len(_ci_generators(n, U, i))
        for j in range(i, min(max_j, i + top) + 1):
            dim = gens_i * module.hilbert_function(j - i)
            if dim:
                terms.append((i, j, dim))
    needed = {(i + k, j) for i, j, _ in terms for k in (0, 1)}
    rank_cache: dict[tuple[int, int], int] = {}
    pivot_cols: dict[tuple[int, int], list] = {}

    def rank_d(i: int, j: int) -> int:
        # the slice maps module_{j-i} to module_{j-i+1}: zero unless both live
        if i < 1 or j - i < 0 or j - i > top or j - i + 1 > top:
            return 0
        key = (i, j)
        if key not in rank_cache:
            dual_i, dual_j = n - i + 1, n + top - j
            if self_dual and (dual_j - dual_i, dual_i) < (j - i, i):
                rank_cache[key] = rank_d(dual_i, dual_j)
            else:
                # the rows that carry a pivot of d_{i+1} add no rank to d_i;
                # past the window, the slice above is not ranked for this
                above = (i + 1, j)
                if above in needed:
                    rank_d(*above)
                slice_ = ci_differential(module, U, i, j, pivot_cols.pop(above, ()))
                rank_cache[key] = sparse_rank(*slice_, field, pivot_cols=pivot_cols.setdefault(key, []))
        return rank_cache[key]

    entries: dict = {}
    for i, j, dim in terms:
        b = dim - rank_d(i, j) - rank_d(i + 1, j)
        if b < 0:
            raise AssertionError(f"negative Betti number at ({i}, {j}): rank bookkeeping is broken")
        if b:
            entries[(i, j)] = b
    window = (max_i, max_j) if windowed else None
    base_label = "Q" if not U else "Q/(" + ", ".join(f"x{t + 1}^2" for t in sorted(U)) + ")"
    return BettiTable(
        n,
        entries,
        window=window,
        ring_label=base_label,
        module_label=getattr(module, "name", ""),
        characteristic=field.characteristic,
        method="koszul",
    )


@_per_run
def koszul_betti(module: QuotientRing, max_j: int | None = None) -> BettiTable:
    """Betti numbers over the polynomial ring (Koszul complex route)."""
    return ci_resolution_betti(module, (), max_j=max_j)


# ----------------------------------------------------------------------
# route two: iterated syzygies
# ----------------------------------------------------------------------


def syzygy_betti(base: QuotientRing, module: QuotientRing, max_i: int, max_j: int) -> BettiTable:
    """Betti numbers of the module over the base by iterated minimal syzygies.

    The module must be a cyclic quotient of the base: its defining ideal,
    reduced in the base, is the first syzygy module W_1 inside F_0 = base.
    Step i takes W_i inside F_{i-1} = ⊕_a base(-a), one degree at a time: the
    minimal generators are what x_t times the piece below does not span,
    and W_{i+1} is the kernel of their evaluation matrix.  A degree-d
    element of F_{i-1} is the concatenation of its blocks over
    ``base.basis(d - a)``; the evaluation matrix has one column m·g per
    generator g and m in ``base.basis(d - deg g)``, in that order, which is
    F_i's own coordinate order, so its kernel vectors are W_{i+1}'s elements.

    Of the module this reads only ``generators``, ``hilbert_function`` and
    ``name``, never its variable maps (route one's input).  Every graded
    dimension of W_i is checked against the alternating sum that exactness
    predicts, and a generator hiding just past max_j raises BoundTooSmall.
    """
    field = base.field
    n = base.n
    zero = field.zero()
    entries = {(0, 0): 1}
    free_hist: list[list[int]] = [[0]]  # generator degrees of F_0, F_1, ...
    hf = base.hilbert_function  # 0 in negative degrees

    def free_dim(degs, d):
        return sum(hf(d - a) for a in degs)

    def predicted_w(i, d):
        # 0 -> W_i -> F_{i-1} -> ... -> F_0 -> M -> 0 alternating sums
        s = (-1) ** i * module.hilbert_function(d)
        for t, degs in enumerate(free_hist[:i]):
            s += (-1) ** (i - 1 - t) * free_dim(degs, d)
        return s

    def times(t, degs, d, vec):
        """x_t times a degree-d element of ⊕_a base(-a), one block at a time."""
        out = []
        at = 0
        for a in degs:
            width = hf(d - a)
            if width:
                out.extend(base.times_variable(t, d - a, [vec[at:at + width]])[0])
            else:
                out.extend([zero] * hf(d + 1 - a))
            at += width
        return out

    def multiples(degs, d, rows):
        return (times(t, degs, d, row) for row in rows for t in range(n))

    # W_1 = the relation submodule of F_0 = base, by degree
    current = {d: [base.to_vector(g, d) for g in module.generators if g.degree == d] for d in range(max_j + 1)}

    for i in range(1, max_i + 1):
        degs = free_hist[i - 1]
        mingens: list[tuple[int, list]] = []  # (degree, vector in F_{i-1})
        rows: list = []
        for d in range(max_j + 1):
            # span of (maximal ideal) * W at this degree, from the piece below
            ech = Echelon(field, free_dim(degs, d))
            for v in multiples(degs, d - 1, rows):
                ech.insert(v)
            for v in current[d]:
                res = ech.insert(v)
                if res is not None:
                    mingens.append((d, res))
                    entries[(i, d)] = entries.get((i, d), 0) + 1
            want = predicted_w(i, d)
            if ech.rank != want:
                raise AssertionError(
                    f"syzygy bookkeeping is off at step {i}, degree {d}: "
                    f"span has dimension {ech.rank}, exactness predicts {want}"
                )
            rows = ech.rows
        # a generator may be hiding just past the window: the minimal
        # generators found so far must span the predicted dimension there
        want = predicted_w(i, max_j + 1)
        if want > 0:
            ech = Echelon(field, free_dim(degs, max_j + 1))
            for v in multiples(degs, max_j, rows):
                if ech.rank == want:
                    break
                ech.insert(v)
            if ech.rank != want:
                raise BoundTooSmall(f"step {i}: a generator beyond degree {max_j} is outside the window")
        if not mingens:
            break  # the module is zero: resolution has ended
        # syzygies of the minimal generators become the next module
        free_hist.append([a for a, _ in mingens])
        grown: list[dict] = [{} for _ in mingens]  # per generator g: {m: m·g} in the degree below
        current = {}
        for d in range(max_j + 1):
            cols = []
            for k, (a, g) in enumerate(mingens):
                if a > d:
                    break
                below, grown[k] = grown[k], {}
                for m in base.basis(d - a):
                    # m·g = x_t·((m / x_t)·g) for the first variable x_t dividing m
                    t = next((t for t, e in enumerate(m) if e), None)
                    grown[k][m] = g if t is None else times(t, degs, d - 1, below[m[:t] + (m[t] - 1,) + m[t + 1:]])
                cols.extend(grown[k].values())
            current[d] = kernel_basis([[(r, v) for r, v in enumerate(col) if v] for col in cols], field)

    return BettiTable(
        n,
        entries,
        window=(max_i, max_j),
        ring_label=base.name or "base",
        module_label=module.name,
        characteristic=field.characteristic,
        method="syzygy",
    )


# ----------------------------------------------------------------------
# statement-level checks that combine the routes
# ----------------------------------------------------------------------


def lifting_identity_check(n: int, field=None) -> bool:
    """For odd n: the Betti numbers over Q are the T-table plus its (1,2) shift.

    The T-table is taken in its barred form (the same quotient in n-1
    variables), which is the cheaper of the two equal descriptions.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("the lifting identity is an odd-n statement with n >= 3")
    if field is None:
        field = QQ
    for label in ("R", "A"):
        big = named_quotient(label, n, field)
        small = named_quotient(label, n - 1, field)
        over_q = koszul_betti(big)
        over_t = koszul_betti(small)
        keys = set(over_q.entries)
        keys.update(over_t.entries)
        keys.update((i + 1, j + 2) for i, j in over_t.entries)
        for i, j in keys:
            if over_q.get(i, j) != over_t.get(i, j) + over_t.get(i - 1, j - 2):
                return False
    return True


def duality_check(n: int, field=None) -> bool:
    """beta_{i,j}(G/J) = beta_{n-i,2n-j}(R) entrywise, both sides computed.

    G/J is ann_P(h^2), the ideal of ``named_quotient("A")``: the
    ``GradedModuleSpan`` that ``P.colon(h^2)`` grew.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    if field is None:
        field = QQ
    left = ci_resolution_betti(named_quotient("A", n, field).ideal)
    right = koszul_betti(named_quotient("R", n, field))
    flipped = {(n - i, 2 * n - j): v for (i, j), v in left.entries.items()}
    return flipped == right.entries


@_per_run
def named_quotient(label: str, n: int, field, degree_cap: int | None = None) -> QuotientRing:
    """P, R or A in n variables over the given field.

    P is Q modulo the squares J = (x_i^2).  R and A are P modulo a graded
    ideal of P, so both share P's column and base tables (and, in one run
    scope, P itself): R = P/(h^2), and A = P/ann_P(h^2) = Q/G with
    G = J : h^2, the ideal being the module ``P.colon(h^2)``.  So A's
    generators are the squares, then the colon's minimal lifts: G's
    colon presentation.
    """
    if label == "P":
        return QuotientRing(squares_ideal(n, field), degree_cap=degree_cap, name="P")
    if label == "R":
        ideal = GradedModuleSpan(named_quotient("P", n, field), [squared_variable_sum(n, field)])
        return QuotientRing(ideal=ideal, degree_cap=degree_cap, name="R")
    if label == "A":
        ideal = named_quotient("P", n, field).colon(squared_variable_sum(n, field))
        return QuotientRing(ideal=ideal, degree_cap=degree_cap, name="A")
    raise ValueError(f"unknown quotient label {label!r}")
