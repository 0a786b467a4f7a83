"""Exact rational linear algebra with modular acceleration.

Linear systems are eliminated over GF(p) for word-sized primes using
float64 matrix products (exact below 2^53), lifted back to rationals by
Wang's reconstruction with Chinese-remainder widening, and certified by an
exact residual check, so every answer returned by this module is provably
correct, never "probably".  `FractionRREF`, elimination over
`fractions.Fraction`, is kept as the tests' reference for exact ranks.

The GF(p) layer takes integers only, one row format per front end, with
one check where each row enters.  `ModEliminator` takes an integer matrix
(an integer array, an object array of integers, or a list of integer
lists) and reduces each block once, by `rows_mod`; any other block, a
float array among them, raises TypeError and stores nothing.  `rank_mod`
takes sparse (column indices, values) rows, each checked by `_sparse_row`:
integer values, one for each of distinct integer columns in 0..ncols-1.
`solve_certified` clears the denominators of exact rationals itself
(`_integral`) and refuses a float, which is not an exact value.  A x = b
is solved by eliminating the augmented integer matrix [A | b] with a
plain `ModEliminator`: a pivot in a column of b means no solution mod
p; otherwise the pivot rows' trailing entries are one.

The GF(p) arithmetic reduces lazily.  A float64 holds every integer below
2^53 exactly, and one update ``row - f * pivot_row`` with f and the pivot
row in [0, p) moves an entry by less than (p - 1)^2 < 2^40.  So a row is
reduced (`_reduce_mod`) only after `_LAZY` = 8192 updates, a product only
after `_LAZY` terms, and either before it is tested or stored; the
difference of two reduced values only needs p added where it is negative.
That one bound is checked for `PRIMES` at import, and for any other p by
`mod_matmul` and `ModEliminator.feed`, which raise ValueError if p is too
large.  The reduction is a floor quotient, measured against `np.mod` and
`np.fmod`.

`ModEliminator.feed` eliminates recursively, after Dumas, Giorgi and
Pernet (FFLAS/FFPACK, ACM TOMS 2008): the top half, then the bottom half
cleared of the top's pivot columns by one `mod_matmul`, then the top's
pivot rows cleared of the bottom's by one more; blocks of at most
`_BASE` rows are swept row by row.

Ranks (`rank_mod`) start with a sparse phase, structured Gaussian
elimination after LaMacchia and Odlyzko (CRYPTO '90), in front of that
dense sweep.  Rows are taken shortest first, each a dict from column to
residue.  The residues are Python ints in [0, p), exact at any size, so
no float64 bound applies there.  Column c is stored as ncols - 1 - c, so
a row is reduced against the stored pivot rows in decreasing column order
and pivots on its largest remaining column; the pivot rows stay in echelon
form, and since a column permutation keeps the rank, nothing else sees
the order.  A row that vanishes was dependent.  The sweep returns as soon
as the rank reaches the caller's target, which is sound because the rank
mod p of any subset of the rows is still a lower bound of the rational
rank.  A row with more than max(8, ncols / `_HEAVY`) entries on
arrival, or more than max(ncols / `_FILL`, ncols - target) during its
reduction, waits.  At the end each waiting row is reduced against every
sparse pivot and restricted to the free columns.
Those rows form the Schur complement: the sparse pivots have distinct
pivot columns and the reduced rows vanish there, so the total rank is
the sparse rank plus the complement's, which a `ModEliminator` computes
from the complement's rows, densified `_BLOCK` at a time.
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

import numpy as np

# primes just below 2^20; with entries reduced into [0, p) a float64 dot
# product of 8192 terms stays below 2^53 and is therefore exact
PRIMES = (
    1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447, 1048433,
    1048423, 1048391, 1048387, 1048367, 1048361, 1048357, 1048343, 1048309,
    1048291, 1048273, 1048261, 1048219, 1048217, 1048213, 1048193, 1048189,
    1048139, 1048129, 1048127, 1048123, 1048063, 1048051, 1048049, 1048043,
    1048027, 1048013, 1048009, 1048007, 1047997, 1047989, 1047979, 1047971,
    1047961, 1047941, 1047929, 1047923, 1047887, 1047883, 1047881, 1047859,
)


def _inexact(terms: int, p: int) -> bool:
    """Whether terms products of residues mod p plus one reach 2^53 - p."""
    return terms * (p - 1) ** 2 + 2 * p >= 2**53


# ModEliminator.feed subtracts f * row with f and row in [0, p), so less
# than (p - 1)^2, and reduces a row after at most _LAZY such updates;
# mod_matmul sums up to _LAZY products of entries below p and adds a
# residue before reducing.  Checked here rather than asserted so that it
# also holds under ``python -O``.
_LAZY = 8192
if _inexact(_LAZY, max(PRIMES)):
    raise RuntimeError("_LAZY and PRIMES break float64 exactness in feed, mod_matmul")

# At _BASE = 8, 16 or 32 the feeds of betti(7) and p1xp1 --order 7 took
# 53-86 and 5.4-9.4 ms, row by row 115-180 and 7.9-8.4 ms (2-core x86-64).
_BASE = 16

_BLOCK = 512  # rows per block fed by feed_all and by rank_mod's Schur phase

# rank_mod's sparse phase takes a row with at most max(8, ncols / _HEAVY)
# entries and keeps it while it holds at most max(ncols / _FILL, ncols -
# target); the others go to the dense sweep.  Measured on a 2-core x86-64
# host, pivoting on the last column:
# - Pairing rows, at least 16 entries in 1,918 columns at n = 8, degree 3,
#   with rank 715, must go dense: betti(8) spent 1.2-1.5 s on pairing
#   ranks at this bound, 7.9-9.7 s at max(32, .), max(64, .) or at an
#   arrival bound of ncols / _FILL.  Narrow rows go dense faster too:
#   17,325 x 119 with 4 to 7 entries a row took 0.2 s at max(1, .), 0.6-0.8
#   s here, so betti ranks its 119 x 17,325 transpose.
# - Relation rows have 2 to 2^(n-3) entries.  At n = 7, degree 2 (490
#   columns, target 363) the floor of 8 took 0.02 s, a floor of 1 0.18 s.
#   At n = 8, degrees 2 to 5, floors 8 to 64 and _HEAVY = 64 or 256 all
#   took 1.4 s, a floor of 4 1.9 s; at n = 9, degrees 2 and 3, floors 8 and
#   32 took 1.4 and 0.8 s, then 11.1 and 8.6 s, within the host's drift.
# - _FILL = 4, 16 or 64 took 1.6-1.9 s for n = 8, degrees 2 to 5.  With the
#   first column as pivot, 16 took 10.7 s for degree 3 alone and 64 31 s.
#   At n = 7, degree 2, ncols / _FILL = 30 deferred 63 rows, and the dense
#   sweep took them over 128 free columns for the last pivot; ncols -
#   target = 127 keeps them sparse.  That term moved no time at n = 7 to 9.
_HEAVY = 256
_FILL = 16


class Inconsistent(Exception):
    """The linear system has no solution."""


def _reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for float64 arrays of integers with |x| + p < 2^53, as a new array.

    q = floor(x * (1 / p)) is off by at most one, and q * p and x - q * p
    are exact.  On 250k entries of a 2-core x86-64 host it took 3 ns each,
    `np.mod` 20-27 and `np.fmod` 11-165, slower as |x| grows; below 256
    entries the one call of `np.mod` beats its eight.
    """
    if x.size < 256:
        return np.mod(x, p)
    r = x * (1.0 / p)
    np.floor(r, out=r)
    r *= p
    np.subtract(x, r, out=r)
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def _sub_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a - b) % p for entries of a and b already in [0, p), written over b."""
    np.subtract(a, b, out=b)
    np.add(b, p, out=b, where=b < 0)
    return b


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for float64 matrices with entries in [0, p),
    in products of at most `_LAZY` terms, each reduced once; a prime too
    large for such a product raises ValueError."""
    if _inexact(_LAZY, p):
        raise ValueError(f"p = {p} is too large for exact float64 products")
    out = _reduce_mod(a[:, :_LAZY] @ b[:_LAZY], p)
    for lo in range(_LAZY, a.shape[1], _LAZY):
        out = _reduce_mod(out + a[:, lo : lo + _LAZY] @ b[lo : lo + _LAZY], p)
    return out


def rows_mod(rows: np.ndarray, p: int) -> np.ndarray:
    """Dense float64 matrix of an integer array reduced into [0, p).

    ``rows`` has an integer dtype or holds integers as objects (`_int_array`);
    each residue is cast, exactly, as it is written, with no integer copy.
    """
    return np.remainder(rows, p, out=np.empty(rows.shape), casting="unsafe")


def densify(rows, width: int) -> np.ndarray:
    """int64 block of sparse (column indices, values) rows."""
    block = np.zeros((len(rows), width), dtype=np.int64)
    for i, (cols, vals) in enumerate(rows):
        if len(cols):
            block[i, cols] = vals
    return block


def _join(cols: list, top: np.ndarray, low: np.ndarray, p: int):
    """Eliminate ``low`` below the reduced pivot rows ``top`` of columns
    ``cols``: the sources in ``low`` of the new pivots, then every pivot
    column and every pivot row, reduced against all of them."""
    if cols and low[:, cols].any():
        low = _sub_mod(low, mod_matmul(low[:, cols], top, p), p)
    src, new, bottom = _echelon(low, p)
    del low  # free the block before the products on top
    if not new:
        return src, cols, top
    if cols and top[:, new].any():
        top = _sub_mod(top, mod_matmul(top[:, new], bottom, p), p)
    return src, cols + new, np.vstack([top, bottom])


def _echelon(a: np.ndarray, p: int) -> tuple[list, list, np.ndarray]:
    """`_join` below no pivot rows, for a block with entries in [0, p),
    split in halves past `_BASE` rows; the rows of ``a`` are overwritten."""
    if not a.any():
        return [], [], a[:0]
    if len(a) > _BASE:
        h = len(a) // 2
        src, cols, top = _echelon(a[:h], p)
        src2, cols, rows = _join(cols, top, a[h:], p)
        return src + [h + i for i in src2], cols, rows
    # A row loses the pivot rows found so far, which are 0 at each other's
    # pivot columns, so its entries there stay the residues it came with.
    src, cols, found = [], [], []
    for i, row in enumerate(a):
        pending = 0
        for c, pr in zip(cols, found):
            f = row[c]
            if f:
                row -= f * pr
                pending += 1
                if pending == _LAZY:
                    row = _reduce_mod(row, p)
                    pending = 0
        if pending:
            row = _reduce_mod(row, p)
        nz = np.flatnonzero(row)
        if nz.size:
            c = int(nz[0])
            row = _reduce_mod(row * pow(int(row[c]), p - 2, p), p)
            found = [_reduce_mod(pr - pr[c] * row, p) if pr[c] else pr for pr in found]
            found.append(row)
            cols.append(c)
            src.append(i)
    return src, cols, np.array(found) if found else a[:0]


class ModEliminator:
    """Incremental reduced row echelon form over GF(p).

    Rows are fed in blocks, each eliminated below the pivot rows found so
    far by `_join`, which halves blocks past `_BASE` rows and joins the
    halves by products (module docstring).  Any column can take a pivot:
    `solve_certified` feeds [A | b] and reads a pivot in a column of b as
    no solution mod p.  ``sources`` records, for each pivot, the position
    among all rows fed so far of the row that produced it.  The state
    depends only on the order of the rows: a row's pivot is the first
    column where it leaves the span of the rows before it, and the stored
    rows are the span's one basis that is the identity on those columns.

    A block fed is an integer matrix of ``ncols`` columns (module
    docstring), reduced exactly into [0, p) once by `rows_mod`; sparse
    rows go to `rank_mod`.  Any other block, a float array among them,
    raises TypeError, one of another width ValueError, and neither changes
    the state.  Stored rows and multipliers are reduced into [0, p); a
    swept row is reduced after at most `_LAZY` updates, and a product sums
    at most `_LAZY` terms, so every entry stays below _LAZY * (p - 1)^2 +
    p and exact.  `feed` raises ValueError, storing nothing, for a p where
    that reaches 2^53 - p.
    """

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols))
        self.piv_cols: list[int] = []
        self.sources: list[int] = []
        self.fed = 0

    @property
    def rank(self) -> int:
        return len(self.piv_cols)

    def feed(self, block) -> None:
        block, p = np.asarray(block), self.p
        if _inexact(_LAZY, p):
            raise ValueError(f"p = {p} is too large for exact float64 elimination")
        kind = block.dtype.kind
        if kind not in "iuO" or kind == "O" and not all(
            issubclass(t, numbers.Integral) for t in set(map(type, block.flat))
        ):
            raise TypeError(f"a block of {block.dtype} entries is not all integers")
        if block.ndim != 2 or block.shape[1] != self.ncols:
            raise ValueError(f"a block of shape {block.shape} is not {self.ncols} wide")
        src, self.piv_cols, self.rows = _join(
            self.piv_cols, self.rows, rows_mod(block, p), p
        )
        self.sources += [self.fed + i for i in src]
        self.fed += block.shape[0]

    def feed_all(self, rows, *, target: int | None = None) -> None:
        """Feed an integer matrix `_BLOCK` rows at a time until the rank
        reaches ``target``, every column by default.

        ``rows`` is an integer array, an object array of integers, or a
        list of integer lists; `feed` checks each block.  Blocks after the
        one that reaches the target are not fed, so they are neither
        checked nor counted in ``fed``.
        """
        target = self.ncols if target is None else target
        for lo in range(0, len(rows), _BLOCK):
            self.feed(rows[lo : lo + _BLOCK])
            if self.rank >= target:
                break


def _sparse_row(cols, vals, p: int, ncols: int) -> dict[int, int]:
    """Integer sparse row as a dict ncols - 1 - column -> residue in [0,
    p), zeros dropped, so that the sparse phase pivots on the last column.
    A value or column that is not an integer, or a bool column, raises
    TypeError, since a float column would fall between columns.  A repeated
    column, or a value count that differs from the column count, raises
    ValueError, as a dict would keep one of the values and miscount the
    rank; so does a column outside 0..ncols-1, which would pivot where no
    column is."""
    if isinstance(cols, np.ndarray):
        cols = cols.tolist()
    if isinstance(vals, np.ndarray):
        vals = vals.tolist()
    if bool in set(map(type, cols)):
        raise TypeError("a sparse row has a bool column")
    last = ncols - 1
    row = {last - operator.index(c): operator.index(v) % p for c, v in zip(cols, vals)}
    if len(row) != len(cols) or len(cols) != len(vals):
        raise ValueError("a sparse row needs one value for each of its distinct columns")
    if row and not (0 <= min(row) and max(row) < ncols):
        raise ValueError(f"a sparse row has a column outside 0..{ncols - 1}")
    if 0 in row.values():
        row = {c: v for c, v in row.items() if v}
    return row


def _reduce_sparse(row: dict, pivots: dict, p: int, limit: int | None = None):
    """Reduce ``row`` in place against the sparse pivot rows.

    Columns are visited in increasing order through a heap.  The pivot
    row of column c holds its entries right of c, scaled so that the
    pivot is 1, so eliminating c only adds columns that the heap visits
    later.  With a ``limit`` the reduction stops at the first column that
    has no pivot and returns it (the row's own pivot); it returns -1 if
    the row vanishes, or None once the row holds more than ``limit``
    entries.  Without one every pivot column is eliminated and the row
    keeps only free columns: its part of the Schur complement.

    A pivot row records how many pivots there were, itself included, when
    its tail was last reduced against all of them; `rank_mod` does that
    when it stores the row.  Used after new pivots appeared, with a limit,
    its tail is reduced again and stored back.  That subtracts multiples
    of pivot rows whose pivots lie right of c, so the row keeps its pivot,
    its span and the echelon form, while chains of pivots that point to
    pivots collapse: path compression, as in union-find.  It took the
    relation ranks of betti(8) from 31 / 28 / 13 s to 11 / 3 / 0.7 s at
    degrees 3 / 4 / 5.
    """
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = row.get(c)
        if f is None:
            continue
        piv = pivots.get(c)
        if piv is None:
            if limit is None:
                continue
            return c
        del row[c]
        cols, vals, stamp = piv
        if limit is not None and stamp < len(pivots):
            tail = dict(zip(cols, vals))
            _reduce_sparse(tail, pivots, p)
            cols, vals = list(tail), list(tail.values())
            pivots[c] = (cols, vals, len(pivots))
        for cc, v in zip(cols, vals):
            x = row.get(cc)
            if x is None:
                row[cc] = (p - f) * v % p
                heappush(heap, cc)
            else:
                x = (x - f * v) % p
                if x:
                    row[cc] = x
                else:
                    del row[cc]
        if limit is not None and len(row) > limit:
            return None
    return -1


def rank_mod(rows, ncols: int, p: int = PRIMES[0], target: int | None = None) -> int:
    """Rank over GF(p), or ``target`` once the rank reaches it.

    Either is a lower bound for the rational rank.  ``rows`` is a list of
    sparse (column indices, integer values) rows with distinct integer
    columns in 0..ncols-1, each checked once (`_sparse_row`); a column
    repeated or out of range or a negative ``target`` is a ValueError, and
    a non-integer column or value, or a dense matrix, whose rows have no
    column list, a TypeError.  The sparse phase (module docstring) takes
    the rows shortest first and pivots each on its last remaining column;
    a row of more than max(8, ncols / `_HEAVY`) entries, or one that fills
    past max(ncols / `_FILL`, ncols - target), waits.  Their Schur
    complement on the columns the sparse pivots leave free is densified
    `_BLOCK` rows at a time and fed to a `ModEliminator` until the rank
    reaches ``target``.
    """
    if target is not None and target < 0:
        raise ValueError(f"target {target} is negative")
    if target is None or target > ncols:
        target = ncols
    # at least 8, so that at any width a short row stays sparse; and a row
    # that waits is densified over at least ncols - target free columns,
    # so one filled to no more than that stays too
    heavy = max(8, ncols // _HEAVY)
    fill = max(1, ncols // _FILL, ncols - target)
    pivots: dict[int, tuple[list[int], list[int], int]] = {}
    deferred = []
    for cols, vals in sorted(rows, key=lambda r: len(r[0])):
        if len(pivots) >= target:
            return target
        row = _sparse_row(cols, vals, p, ncols)
        c = None if len(row) > heavy else _reduce_sparse(row, pivots, p, fill)
        if c is None:
            deferred.append(row)
        elif c >= 0:
            inv = pow(row.pop(c), p - 2, p)
            _reduce_sparse(row, pivots, p)
            vals = [v * inv % p for v in row.values()]
            pivots[c] = (list(row), vals, len(pivots) + 1)
    rank = len(pivots)
    if rank >= target or not deferred:
        return min(rank, target)
    free = {c: i for i, c in enumerate(c for c in range(ncols) if c not in pivots)}
    schur = []
    for row in deferred:
        if not pivots.keys().isdisjoint(row):  # else nothing to eliminate
            _reduce_sparse(row, pivots, p)
        schur.append(([free[c] for c in row], list(row.values())))
    elim = ModEliminator(len(free), p)
    for lo in range(0, len(schur), _BLOCK):
        elim.feed(densify(schur[lo : lo + _BLOCK], len(free)))
        if rank + elim.rank >= target:
            break
    return min(rank + elim.rank, target)


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """The unique small fraction congruent to a mod m, if one exists."""
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if gcd(num, den) != 1 or (den * a - num) % m != 0:
        return None
    return Fraction(num, den)


def crt_combine(a1: int, m1: int, a2: int, m2: int) -> int:
    """x mod m1*m2 with x ≡ a1 (m1), x ≡ a2 (m2); moduli coprime."""
    t = (a2 - a1) * pow(m1, -1, m2) % m2
    return a1 + m1 * t


# ---------------------------------------------------------------------------
# exact dense solving of big integer/rational systems


def _int_array(values) -> np.ndarray:
    """Python ints as an int64 array when every one fits, else as objects.

    numpy refuses an int outside int64 with OverflowError instead of
    wrapping it, and -2^63 goes to objects too, so that `np.abs` cannot
    wrap either.  Both checks hold under ``python -O``.
    """
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if arr.size and arr.min() == np.iinfo(np.int64).min:
        return np.array(values, dtype=object)
    return arr


def _integral(vec) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their least denominator.

    A vector of Python ints is taken as it is, over 1, with no `Fraction`
    built.  Any other integer or rational (a numpy integer, a `Fraction`)
    is converted exactly; a float is refused, since it is not an exact
    value.
    """
    vec = list(vec)
    if set(map(type, vec)) <= {int}:
        return vec, 1
    for x in vec:
        if not isinstance(x, numbers.Rational):
            raise TypeError(f"entry {x!r} is not an exact rational")
    den = lcm(*(int(x.denominator) for x in vec))
    return [int(x.numerator) * (den // int(x.denominator)) for x in vec], den


def _certify_residual(rows: np.ndarray, sol_cols: list[list[Fraction]], b) -> bool:
    """Prove A @ x_j == b[:, j] exactly for every solution column j.

    ``rows`` and ``b`` hold integers.  Column j is scaled by the lcm d_j
    of its denominators, so the claim is A @ (d_j x_j) - d_j b[:, j] = 0
    over the integers.  Every entry of that residual is at most
    ncols * max|A| * max|d x| + max d * max|b| in absolute value, and
    primes are drawn until their product exceeds twice that bound, which
    turns the modular checks into a proof of integer equality.
    """
    scales = [lcm(*(f.denominator for f in col)) for col in sol_cols]
    x = _int_array(
        [
            [f.numerator * (d // f.denominator) for f in col]
            for col, d in zip(sol_cols, scales)
        ]
    ).T
    d = _int_array(scales)
    nrows, ncols = rows.shape
    amax = int(np.abs(rows).max()) if rows.size else 0
    xmax = int(np.abs(x).max()) if x.size else 0
    bmax = int(np.abs(b).max()) if b.size else 0
    bound = 2 * (ncols * amax * xmax + max(scales) * bmax) + 1

    prod = 1
    primes = []
    for p in reversed(PRIMES):
        primes.append(p)
        prod *= p
        if prod > bound:
            break
    if prod <= bound:
        raise RuntimeError("prime pool exhausted for residual certificate")

    for p in primes:
        lhs = mod_matmul(rows_mod(rows, p), np.mod(x, p).astype(np.float64), p)
        # both factors lie in [0, p), so their float64 product is exact
        rhs = np.mod(b, p).astype(np.float64) * np.mod(d, p).astype(np.float64)
        if np.any(lhs != np.mod(rhs, p)):
            return False
    return True


def solve_certified(rows, rhs_cols) -> list[list[Fraction]]:
    """Exact solutions of A x = b_j for each right-hand column.

    A may be rectangular and rank-deficient; any exact solution is
    acceptable and the returned one has support in the pivot columns of
    the reduced form.  Entries are exact rationals, one per row in each
    column; a float raises TypeError, a column of another length
    ValueError.  Each column b_j becomes integer numerators over one
    denominator d_j, and each row of A (unless A is an integer ndarray)
    integer numerators, its right-hand entries scaled alike.  When every
    b_j is zero, after those checks, every x_j is the zero vector: A 0 = 0
    exactly, as certain as any residual check, and no eliminator is
    built.  Otherwise the integer matrix [A | b], built once, is
    eliminated mod one or more primes, each time only until the rank
    reaches A's width; a pivot in a column of b means no solution mod p,
    else the pivot rows' trailing entries are one.  These are lifted by
    rational reconstruction across the primes and only returned, divided
    by the d_j, once the exact residual over every row, fed or not,
    vanishes.  Raises Inconsistent when two primes find no solution, or
    when the pivots fill every column of A and the lifted solution
    satisfies the pivot rows exactly but not the rest: those rows are
    then invertible over the rationals, so their one solution is the only
    candidate left and the system has none.
    """
    rhs_cols = list(rhs_cols)
    nrhs = len(rhs_cols)
    if nrhs == 0:
        return []
    nums, dens = zip(*map(_integral, rhs_cols))
    if {len(col) for col in nums} != {len(rows)}:
        raise ValueError("each right-hand column needs one entry per row")
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "i"):
        rows, scales = zip(*map(_integral, rows))
        nums = [[v * s for v, s in zip(col, scales)] for col in nums]
    rows = _int_array(rows)
    _, ncols = rows.shape
    if not any(map(any, nums)):
        return [[Fraction(0)] * ncols for _ in range(nrhs)]
    b = _int_array(nums).T
    augmented = np.hstack([rows, b])

    acc: np.ndarray | None = None  # integer solutions mod `modulus`
    modulus = 1
    pivots_ref: tuple[int, ...] | None = None
    inconsistent_seen = 0

    for p in PRIMES:
        elim = ModEliminator(ncols + nrhs, p)
        elim.feed_all(augmented, target=ncols)
        if any(c >= ncols for c in elim.piv_cols):
            inconsistent_seen += 1
            if inconsistent_seen >= 2:
                raise Inconsistent(f"no solution mod {p} and mod an earlier prime")
            continue
        x_p = np.zeros((ncols, nrhs))
        x_p[elim.piv_cols] = elim.rows[:, ncols:]
        x_int = x_p.astype(np.int64).astype(object)
        pivots = tuple(sorted(elim.piv_cols))
        if pivots_ref is None or len(pivots) > len(pivots_ref):
            acc, modulus, pivots_ref = x_int, p, pivots
        elif pivots == pivots_ref:
            lift = np.vectorize(
                lambda a1, a2: crt_combine(int(a1), modulus, int(a2), p),
                otypes=[object],
            )
            acc = lift(acc, x_int)
            modulus *= p
        else:
            continue  # unlucky prime with a deviant pivot structure

        sol_cols = []
        for j in range(nrhs):
            col = []
            for v in acc[:, j]:
                f = rational_reconstruct(int(v), modulus)
                if f is None:
                    break
                col.append(f)
            else:
                sol_cols.append(col)
                continue
            break
        else:
            if _certify_residual(rows, sol_cols, b):
                return [
                    col if den == 1 else [y / den for y in col]
                    for col, den in zip(sol_cols, dens)
                ]
            src = list(elim.sources)
            if len(src) == ncols and _certify_residual(rows[src], sol_cols, b[src]):
                raise Inconsistent("the pivot rows' one solution fails the rest")
    raise RuntimeError("failed to certify a solution with the prime pool")


# ---------------------------------------------------------------------------
# exact elimination over the rationals (small ranks)


class FractionRREF:
    """Sparse reduced row echelon form over the rationals.

    Rows are dicts column -> Fraction.  Feeding a row fully reduces it
    against the current pivots; a surviving row becomes a new pivot row
    and is eliminated from every stored row, so the span's reduced form
    is canonical and membership tests are a single reduction.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        while True:
            hit = None
            for c in vec:
                if c in self.pivot_rows:
                    hit = c
                    break
            if hit is None:
                return vec
            f = vec[hit]
            for c, v in self.pivot_rows[hit].items():
                now = vec.get(c, Fraction(0)) - f * v
                if now:
                    vec[c] = now
                else:
                    vec.pop(c, None)

    def add(self, vec: dict[int, Fraction]) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        inv = 1 / vec[piv]
        new_row = {c: v * inv for c, v in vec.items()}
        for row in self.pivot_rows.values():
            f = row.get(piv)
            if f:
                for c, v in new_row.items():
                    now = row.get(c, Fraction(0)) - f * v
                    if now:
                        row[c] = now
                    else:
                        row.pop(c, None)
        self.pivot_rows[piv] = new_row
        return True

    def contains(self, vec: dict[int, Fraction]) -> bool:
        return not self.reduce(vec)
