"""Exact rational linear algebra with modular acceleration.

Small systems run directly over `fractions.Fraction`.  Large ones are
eliminated over GF(p) for word-sized primes using float64 matrix products
(exact below 2^53), lifted back to rationals by Wang's reconstruction with
Chinese-remainder widening, and certified by an exact residual check, so
every answer returned by this module is provably correct, never "probably".

The GF(p) arithmetic reduces lazily.  A float64 holds every integer below
2^53 exactly, and one update ``row - f * pivot_row`` with f and the pivot
row in [0, p) moves an entry by less than (p - 1)^2 < 2^40.  So a row is
reduced (`_reduce_mod`) only after `_LAZY` = 8192 updates or before it is
tested or stored, and the difference of two reduced values only needs p
added where it is negative.  Both bounds are checked when the module loads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

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

_CHUNK = 8192

# mod_matmul sums up to _CHUNK products of entries below p in float64
# before reducing; every partial sum must stay an exact integer.  Checked
# here rather than asserted so that it also holds under ``python -O``.
if _CHUNK * (max(PRIMES) - 1) ** 2 + max(PRIMES) >= 2**53:
    raise RuntimeError("_CHUNK and PRIMES break float64 exactness in mod_matmul")

# ModEliminator.feed subtracts f * row with f and row in [0, p), so less
# than (p - 1)^2, and reduces a row after at most _LAZY such updates;
# in between the row must stay an exact integer, whatever the block size.
_LAZY = 8192
if _LAZY * (max(PRIMES) - 1) ** 2 + max(PRIMES) >= 2**53:
    raise RuntimeError("_LAZY and PRIMES break float64 exactness in feed")


class BadPrime(Exception):
    """A denominator vanished mod p; retry with another prime."""


class Inconsistent(Exception):
    """The linear system has no solution."""


def _reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for float64 arrays of exact integers, as a new array."""
    r = np.fmod(x, p)
    np.add(r, p, out=r, where=r < 0)
    return r


def _sub_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a - b) % p for entries of a and b already in [0, p)."""
    d = a - b
    np.add(d, p, out=d, where=d < 0)
    return d


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for float64 matrices with entries in [0, p)."""
    k = a.shape[1]
    out = None
    for lo in range(0, k, _CHUNK):
        part = a[:, lo : lo + _CHUNK] @ b[lo : lo + _CHUNK]
        out = part if out is None else _reduce_mod(out + part, p)
    if out is None:
        return np.zeros((a.shape[0], b.shape[1]))
    return _reduce_mod(out, p)


def entry_mod(x, p: int) -> int:
    if isinstance(x, Fraction):
        den = x.denominator % p
        if den == 0:
            raise BadPrime(p)
        return x.numerator % p * pow(den, p - 2, p) % p
    return int(x) % p


def rows_mod(rows, p: int) -> np.ndarray:
    """Dense float64 matrix of the given rows reduced mod p.

    Fast path for numeric ndarrays (entries must fit int64); anything
    else is reduced entry by entry, Fractions via modular inverses.
    """
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        return np.mod(rows.astype(np.int64), p).astype(np.float64)
    rows = list(rows)
    if not rows:
        return np.zeros((0, 0))
    data = [[entry_mod(x, p) for x in row] for row in rows]
    return np.array(data, dtype=np.float64)


def densify(rows, width: int, dtype=np.float64) -> np.ndarray:
    """Dense block of sparse (column indices, values) rows."""
    block = np.zeros((len(rows), width), dtype=dtype)
    for i, (cols, vals) in enumerate(rows):
        if len(cols):
            block[i, cols] = vals
    return block


class ModEliminator:
    """Incremental reduced row echelon form over GF(p).

    Rows are fed in blocks; each block is reduced against the pivots found
    so far with one matrix product, then swept row by row.  Keeping the
    stored rows fully reduced makes rank queries and solution extraction
    trivial.  ``nsolve`` marks trailing columns as right-hand sides: pivots
    are never chosen there, so those columns just carry along the reduction
    of each attached vector.  ``sources`` records, for each pivot, the
    position among all rows fed so far of the row that produced it.

    Stored rows, ``dead_rows`` and the multipliers are always reduced into
    [0, p); a row being swept is not.  It takes updates unreduced and is
    reduced after at most `_LAZY` of them, whatever the block size, which
    keeps its entries below _LAZY * (p - 1)^2 + p < 2^53 and exact.
    """

    def __init__(self, ncols: int, p: int, nsolve: int = 0):
        self.p = p
        self.ncols = ncols
        self.nsolve = nsolve
        self.width = ncols + nsolve
        self.rows = np.zeros((0, self.width))
        self.piv_cols: list[int] = []
        self.sources: list[int] = []
        self.fed = 0
        self.dead_rows = np.zeros((0, self.width))  # zero A-part, nonzero rhs

    @property
    def rank(self) -> int:
        return len(self.piv_cols)

    def _reduce_block(self, block: np.ndarray) -> np.ndarray:
        block = _reduce_mod(np.asarray(block, dtype=np.float64), self.p)
        if self.piv_cols:
            coeff = block[:, self.piv_cols]
            if np.any(coeff):
                block = _sub_mod(block, mod_matmul(coeff, self.rows, self.p), self.p)
        return block

    def feed(self, block) -> None:
        p = self.p
        block = self._reduce_block(block)
        new_rows: list[np.ndarray] = []
        new_cols: list[int] = []
        for i in range(block.shape[0]):
            row = block[i]
            pending = 0
            for c, nr in zip(new_cols, new_rows):
                f = row[c] % p
                if f:
                    row -= f * nr
                    pending += 1
                    if pending == _LAZY:
                        row = _reduce_mod(row, p)
                        pending = 0
            row = _reduce_mod(row, p)
            nz = np.nonzero(row[: self.ncols])[0]
            if nz.size == 0:
                if self.nsolve and np.any(row[self.ncols :]):
                    self.dead_rows = np.vstack([self.dead_rows, row])
                continue
            c = int(nz[0])
            inv = pow(int(row[c]), p - 2, p)
            row = _reduce_mod(row * inv, p)
            new_rows.append(row)
            new_cols.append(c)
            self.sources.append(self.fed + i)
        self.fed += block.shape[0]
        if not new_rows:
            return
        fresh = np.array(new_rows)
        # make the fresh pivots clean against each other (earlier rows may
        # still hit later pivot columns), then against everything stored.
        # Rows past j are zero in column c, so no update changes fresh[i, c]
        # before it is read: f needs no reduction.  Row j has taken all its
        # updates when it becomes the pivot row, and row 0 all at the end.
        pending = [0] * len(new_cols)
        for j in range(len(new_cols) - 1, 0, -1):
            if pending[j]:
                fresh[j] = _reduce_mod(fresh[j], p)
            c = new_cols[j]
            for i in range(j):
                f = fresh[i, c]
                if f:
                    fresh[i] -= f * fresh[j]
                    pending[i] += 1
                    if pending[i] == _LAZY:
                        fresh[i] = _reduce_mod(fresh[i], p)
                        pending[i] = 0
        if pending[0]:
            fresh[0] = _reduce_mod(fresh[0], p)
        if self.piv_cols:
            coeff = self.rows[:, new_cols]
            if np.any(coeff):
                self.rows = _sub_mod(self.rows, mod_matmul(coeff, fresh, p), p)
        if self.dead_rows.shape[0]:
            coeff = self.dead_rows[:, new_cols]
            if np.any(coeff):
                self.dead_rows = _sub_mod(
                    self.dead_rows, mod_matmul(coeff, fresh, p), p
                )
                keep = np.any(self.dead_rows, axis=1)
                self.dead_rows = self.dead_rows[keep]
        self.rows = np.vstack([self.rows, fresh])
        self.piv_cols.extend(new_cols)

    def feed_all(self, rows, block_size: int = 512) -> None:
        """Feed rows block by block until the rank fills every column.

        ``rows`` is a matrix or a list of sparse (column indices, values)
        rows, densified one block at a time.  Rows after the one that
        completes the rank are not fed, so they are neither checked for
        consistency nor counted in ``fed``.
        """
        sparse = not isinstance(rows, np.ndarray)
        for lo in range(0, len(rows), block_size):
            block = rows[lo : lo + block_size]
            self.feed(densify(block, self.width) if sparse else block)
            if self.rank == self.ncols:
                break

    def solutions(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Pivot-supported solutions for the attached right-hand sides.

        Returns (x, pivots) with x of shape (ncols, nsolve); raises
        Inconsistent if any reduced row has zero coefficient part but a
        nonzero right-hand side entry.
        """
        if self.dead_rows.shape[0]:
            raise Inconsistent(
                f"{self.dead_rows.shape[0]} incompatible rows mod {self.p}"
            )
        x = np.zeros((self.ncols, self.nsolve))
        for c, row in zip(self.piv_cols, self.rows):
            x[c] = row[self.ncols :]
        return x, tuple(sorted(self.piv_cols))


def rank_mod(rows, ncols: int, p: int = PRIMES[0]) -> int:
    """Rank over GF(p); always a lower bound for the rational rank.

    ``rows`` is anything ``ModEliminator.feed_all`` takes.
    """
    elim = ModEliminator(ncols, p)
    elim.feed_all(rows)
    return elim.rank


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


def _scale_rows_integral(rows, rhs_cols):
    """Clear denominators row by row; rescales rhs entries to match.

    Scaling equation i by a nonzero integer leaves the solution set
    unchanged and lets the residual certificate work over the integers.
    ndarray input is assumed integral already.
    """
    if isinstance(rows, np.ndarray):
        return rows, rhs_cols
    rows = [list(r) for r in rows]
    if not any(
        isinstance(x, Fraction) and x.denominator != 1 for r in rows for x in r
    ):
        return [[int(x) for x in r] for r in rows], rhs_cols
    rhs_cols = [list(col) for col in rhs_cols]
    out = []
    for i, row in enumerate(rows):
        fr = [Fraction(x) for x in row]
        d = lcm(*(f.denominator for f in fr)) if fr else 1
        out.append([int(f * d) for f in fr])
        if d != 1:
            for col in rhs_cols:
                col[i] = Fraction(col[i]) * d
    return out, rhs_cols


def _certify_residual(rows, sol_cols: list[list[Fraction]], rhs_cols) -> bool:
    """Prove A @ x == b exactly via enough independent small primes.

    The absolute bound on any entry of A@x - b is computed from the actual
    data, and primes are drawn until their product exceeds twice it, which
    turns the modular checks into a proof of integer equality.
    """
    nrhs = len(sol_cols)
    scaled_x, scaled_b, scales = [], [], []
    for j in range(nrhs):
        d = lcm(
            *(f.denominator for f in sol_cols[j]),
            *(Fraction(x).denominator for x in rhs_cols[j]),
        )
        scaled_x.append([int(f * d) for f in sol_cols[j]])
        scaled_b.append([int(Fraction(x) * d) for x in rhs_cols[j]])
        scales.append(d)

    if isinstance(rows, np.ndarray):
        amax = int(np.abs(rows).max()) if rows.size else 0
        nrows, ncols = rows.shape
    else:
        amax = max((abs(int(x)) for row in rows for x in row), default=0)
        nrows, ncols = len(rows), len(rows[0]) if rows else 0
    xmax = max((abs(v) for col in scaled_x for v in col), default=0)
    bmax = max((abs(v) for col in scaled_b for v in col), default=0)
    bound = 2 * (ncols * amax * xmax + bmax) + 1

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
        a_p = rows_mod(rows, p)
        x_p = np.array(
            [[v % p for v in col] for col in scaled_x], dtype=np.float64
        ).T
        prod_p = mod_matmul(a_p, x_p, p)
        for j in range(nrhs):
            b_p = np.array([v % p for v in scaled_b[j]], dtype=np.float64)
            if np.any(np.mod(prod_p[:, j] - b_p, p)):
                return False
    return True


def solve_certified(rows, rhs_cols) -> list[list[Fraction]]:
    """Exact solutions of A x = b_j for each right-hand column.

    A may be rectangular and rank-deficient; any exact solution is
    acceptable and the returned one has support in the pivot columns of
    the reduced form.  Rows are eliminated mod one or more primes, each
    time only until the rank fills every column; the solutions are lifted
    by rational reconstruction across the primes and only returned once
    the exact residual over every row, fed or not, vanishes.  Raises
    Inconsistent when fed rows contradict each other mod two primes, or
    when the pivots fill every column and the lifted solution satisfies
    the pivot rows exactly but not the rest: those rows are then
    invertible over the rationals, so their one solution is the only
    candidate left and the system has none.
    """
    rhs_cols = list(rhs_cols)
    nrhs = len(rhs_cols)
    if nrhs == 0:
        return []
    rows, rhs_cols = _scale_rows_integral(rows, rhs_cols)
    if isinstance(rows, np.ndarray):
        nrows, ncols = rows.shape
    else:
        nrows, ncols = len(rows), len(rows[0])

    acc: np.ndarray | None = None  # integer solutions mod `modulus`
    modulus = 1
    pivots_ref: tuple[int, ...] | None = None
    inconsistent_seen = 0

    for p in PRIMES:
        try:
            elim = ModEliminator(ncols, p, nsolve=nrhs)
            block = np.zeros((nrows, ncols + nrhs))
            block[:, :ncols] = rows_mod(rows, p)
            for j, col in enumerate(rhs_cols):
                block[:, ncols + j] = [entry_mod(x, p) for x in col]
            elim.feed_all(block)
            x_p, pivots = elim.solutions()
        except BadPrime:
            continue
        except Inconsistent:
            inconsistent_seen += 1
            if inconsistent_seen >= 2:
                raise
            continue
        x_int = x_p.astype(np.int64).astype(object)
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
            if _certify_residual(rows, sol_cols, rhs_cols):
                return sol_cols
            src = elim.sources
            if len(src) == ncols and _certify_residual(
                rows[src] if isinstance(rows, np.ndarray) else [rows[i] for i in src],
                sol_cols,
                [[col[i] for i in src] for col in rhs_cols],
            ):
                raise Inconsistent("the pivot rows' one solution fails the rest")
    raise RuntimeError("failed to certify a solution with the prime pool")


# ---------------------------------------------------------------------------
# exact elimination over the rationals (small systems)


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


def solve_fraction(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """One exact solution of a small dense system, or Inconsistent.

    Eliminates the augmented matrix [A | b]; a pivot landing in the b
    column means b is outside the column space of A.  Free variables are
    set to zero, so each pivot row reads off its variable directly.
    """
    ncols = len(rows[0]) if rows else 0
    rref = FractionRREF()
    for row, b in zip(rows, rhs):
        vec = {j: Fraction(x) for j, x in enumerate(row) if x}
        if b:
            vec[ncols] = Fraction(b)
        rref.add(vec)
    if ncols in rref.pivot_rows:
        raise Inconsistent("rhs outside the row space")
    x = [Fraction(0)] * ncols
    for piv, row in rref.pivot_rows.items():
        x[piv] = row.get(ncols, Fraction(0))
    return x
