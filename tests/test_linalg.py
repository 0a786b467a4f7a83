from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import linalg as la

from surgery import solve_fraction


def frac(p, q=1):
    return Fraction(p, q)


def sparse_rows(m):
    """The rows of an integer matrix as sparse (column indices, values)."""
    return [(np.flatnonzero(r), r[np.flatnonzero(r)]) for r in np.asarray(m)]


class TestModMatmul:
    def test_matches_python_ints(self):
        rng = np.random.default_rng(7)
        p = la.PRIMES[0]
        a = rng.integers(0, p, size=(13, 40)).astype(np.float64)
        b = rng.integers(0, p, size=(40, 9)).astype(np.float64)
        got = la.mod_matmul(a, b, p)
        ai = a.astype(np.int64).tolist()
        bi = b.astype(np.int64).tolist()
        for i in range(13):
            for j in range(9):
                want = sum(ai[i][k] * bi[k][j] for k in range(40)) % p
                assert int(got[i, j]) == want

    def test_chunking_is_exact(self):
        # force several chunks on the inner dimension
        p = la.PRIMES[0]
        k = 3 * la._LAZY + 17
        a = np.full((1, k), float(p - 1))
        b = np.full((k, 1), float(p - 1))
        got = int(la.mod_matmul(a, b, p)[0, 0])
        assert got == (k * (p - 1) * (p - 1)) % p

    def test_each_chunk_is_reduced(self):
        # Two unreduced chunks of entries near p sum past 2^53; every
        # chunk's product must be reduced before the next is added.
        p = la.PRIMES[0]
        rng = np.random.default_rng(0)
        k = 2 * la._LAZY + 5
        a = rng.integers(p - 1000, p, size=(3, k))
        b = rng.integers(p - 1000, p, size=(k, 4))
        got = la.mod_matmul(a.astype(np.float64), b.astype(np.float64), p)
        want = (a.astype(object) @ b.astype(object)) % p
        assert got.astype(np.int64).tolist() == want.tolist()


class TestEliminator:
    def test_rank_of_identityish(self):
        m = np.eye(5, dtype=np.int64) * 3
        assert la.rank_mod(sparse_rows(m), 5) == 5

    def test_rank_with_dependent_rows(self):
        rows = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])
        assert la.rank_mod(sparse_rows(rows), 3) == 2

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_rank_random_products(self, seed):
        # rank of an outer product construction is known by design
        rng = np.random.default_rng(seed)
        r = rng.integers(1, 4)
        left = rng.integers(-5, 6, size=(8, r))
        right = rng.integers(-5, 6, size=(r, 6))
        m = left @ right
        got = la.rank_mod(sparse_rows(m), 6)
        assert got <= r
        # mod-p rank can only undershoot; a second prime settles ties
        if got < r:
            alt = la.rank_mod(sparse_rows(m), 6, p=la.PRIMES[1])
            assert alt <= r

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(3)
        m = rng.integers(0, 50, size=(60, 23))
        e1 = la.ModEliminator(23, la.PRIMES[0])
        with patch.object(la, "_BLOCK", 7):
            e1.feed_all(m)
        e2 = la.ModEliminator(23, la.PRIMES[0])
        e2.feed_all(m)
        assert e1.rank == e2.rank
        assert sorted(e1.piv_cols) == sorted(e2.piv_cols)


    def test_sources_name_the_pivot_rows(self):
        m = np.array([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])
        e = la.ModEliminator(3, la.PRIMES[0])
        with patch.object(la, "_BLOCK", 2):
            e.feed_all(m)
        assert e.sources == [1, 3]

    def test_feed_all_stops_at_full_rank(self):
        m = np.vstack([np.eye(3, dtype=np.int64), np.ones((700, 3), dtype=np.int64)])
        e = la.ModEliminator(3, la.PRIMES[0])
        e.feed_all(m)
        assert e.rank == 3 and e.fed == la._BLOCK == 512

    def test_sparse_rows_match_dense(self):
        rng = np.random.default_rng(5)
        m = rng.integers(-3, 4, size=(40, 9)) * (rng.random((40, 9)) < 0.3)
        sparse = [(np.nonzero(r)[0], r[np.nonzero(r)[0]]) for r in m]
        assert np.array_equal(la.densify(sparse, 9), m)
        assert la.rank_mod(sparse, 9) == plain_rank(sparse, 9, la.PRIMES[0])

    def test_integers_past_float64_are_reduced_exactly(self):
        # float64 rounds 2^53 + 1; an integer block is reduced first
        p = la.PRIMES[0]
        for x in (2**53 + 1, 2**53 - 5, -(2**62) - 3, 2**80 + 7):
            e = la.ModEliminator(2, p)
            e.feed(np.array([[x, 1]]))
            assert e.rows.tolist() == [[1, pow(x % p, -1, p)]]

    @pytest.mark.parametrize(
        "x, error",
        [
            (0.5, TypeError),
            (np.nan, TypeError),
            (np.inf, TypeError),
            (-np.inf, TypeError),
            (2.0, TypeError),
        ],
    )
    def test_float_blocks_must_hold_small_integers(self, x, error):
        # a block holds integers only: a float block is refused, not
        # stored, even when its entries are integral
        e = la.ModEliminator(2, la.PRIMES[0])
        with pytest.raises(error):
            e.feed(np.array([[x, 1.0]]))
        assert e.rank == 0 and e.fed == 0

    @pytest.mark.parametrize("x", [frac(1, 2), 0.5, 2.0, np.float64(3.0)])
    def test_object_blocks_must_hold_integers(self, x):
        # np.mod would keep 1/2 a fraction, which float64 makes 0.5 and
        # the sweep a zero pivot row: an object block holds integers only
        e = la.ModEliminator(2, la.PRIMES[0])
        e.feed(np.array([[0, 1]]))
        rows = e.rows.copy()
        with pytest.raises(TypeError):
            e.feed(np.array([[x, 1]], dtype=object))
        with pytest.raises(ValueError):
            e.feed(np.array([[1, 2, 3]]))  # nor a block of another width
        assert (e.rank, e.fed, e.piv_cols) == (1, 1, [1])
        assert np.array_equal(e.rows, rows)

    def test_narrow_one_entry_rows_stay_sparse(self, monkeypatch):
        # Below _HEAVY columns, ncols // _HEAVY is 0; a one-entry row must
        # still go through the sparse phase, not wait for the dense sweep,
        # as in the 945 x 1 degree-0 pairing of betti(7), and so must a
        # row of 8 entries.
        built = []
        init = la.ModEliminator.__init__

        def spy(self, ncols, p):
            built.append(ncols)
            init(self, ncols, p)

        monkeypatch.setattr(la.ModEliminator, "__init__", spy)
        assert la.rank_mod([([0], [2])] * 945, 1) == 1
        assert la.rank_mod(sparse_rows(np.eye(9, dtype=np.int64)[::-1] * 5), 9) == 9
        lower = np.tril(np.ones((8, 8), dtype=np.int64))
        assert la.rank_mod(sparse_rows(lower), 8) == 8
        assert built == []


@st.composite
def sparse_systems(draw):
    """Sparse integer rows with zero, repeated, dependent and heavy rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ncols = draw(st.integers(1, 60) | st.integers(61, 2047))
    rows = []
    for _ in range(draw(st.integers(0, 80))):
        kind = rng.integers(0, 6) if rows else rng.integers(0, 3)
        if kind == 3:
            rows.append(rows[rng.integers(len(rows))])  # a repeat
        elif kind == 4:  # a combination of earlier rows
            acc = {}
            for i in rng.integers(len(rows), size=3):
                f = int(rng.integers(-3, 4))
                for c, v in zip(*rows[i]):
                    acc[c] = acc.get(c, 0) + f * v
            acc = {c: v for c, v in acc.items() if v}
            rows.append((list(acc), list(acc.values())))
        else:
            if kind == 0:
                k = 0  # a zero row
            elif kind == 1:  # a heavy row; a wide one just past 8 entries
                lo, hi = (ncols // 2, ncols) if ncols <= 60 else (9, 60)
                k = int(rng.integers(lo, hi + 1))
            else:
                k = int(rng.integers(1, min(ncols, 8) + 1))
            cols = rng.choice(ncols, size=k, replace=False).tolist()
            vals = [int(v) or 1 for v in rng.integers(-5, 6, size=k)]
            rows.append((cols, vals))
    return rows, ncols


def plain_rank(rows, ncols, p):
    """The dense sweep's rank of sparse rows."""
    elim = la.ModEliminator(ncols, p)
    elim.feed_all(la.densify(rows, ncols))
    return elim.rank


class TestSparseRank:
    # The sparse phase with the dense sweep on its Schur complement must
    # give the rank of the plain dense sweep, at every hand-off point: the
    # bounds are shrunk so that systems of 60 columns mix both phases, and
    # the Schur complement is fed in blocks that end anywhere.  Below 2,048
    # columns the arrival bound is 8, so wider systems draw rows of up to
    # 8 entries and heavy rows just past them.
    @given(
        sparse_systems(),
        st.sampled_from([7, 101, la.PRIMES[0]]),
        st.sampled_from([1, 8, la._HEAVY]),
        st.sampled_from([1, 4, la._FILL]),
        st.sampled_from([1, 3, la._BLOCK]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_sweep(self, system, p, heavy, fill, block):
        rows, ncols = system
        want = plain_rank(rows, ncols, p)
        with (
            patch.object(la, "_HEAVY", heavy),
            patch.object(la, "_FILL", fill),
            patch.object(la, "_BLOCK", block),
        ):
            assert la.rank_mod(rows, ncols, p) == want
            for target in range(want + 3):
                assert la.rank_mod(rows, ncols, p, target) == min(target, want)

    def test_dense_and_sparse_input_agree(self):
        m = np.array([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])
        sparse = sparse_rows(m)
        want = plain_rank(sparse, 3, la.PRIMES[0])
        for heavy in (1, la._HEAVY):
            with patch.object(la, "_HEAVY", heavy):
                assert la.rank_mod(sparse, 3) == want == 2

    def test_each_front_end_takes_its_own_format(self):
        # feed_all reads a list of integer lists as the matrix it is, not
        # as sparse rows; rank_mod refuses a matrix, and feed_all sparse
        # rows, storing nothing
        m = [[1, 0, 2], [0, 1, 0], [1, 1, 2], [2**70, 0, 1]]
        for rows, want in ((m, 3), (m[:3], 2), ([[1, 0], [0, 1]], 2)):
            for matrix in (rows, np.array(rows)):
                e = la.ModEliminator(len(rows[0]), la.PRIMES[0])
                e.feed_all(matrix)
                assert e.rank == want
        for dense in (np.eye(3, dtype=np.int64), [[1, 0, 0], [0, 1, 0]]):
            with pytest.raises(TypeError):
                la.rank_mod(dense, 3)
        e = la.ModEliminator(3, la.PRIMES[0])
        for rows in ([([0, 1], [1, 1])], [([0], [1]), ([1, 2], [1, 1])]):
            with pytest.raises(ValueError):
                e.feed_all(rows)
        assert (e.rank, e.fed, e.rows.shape) == (0, 0, (0, 3))

    def test_non_integer_columns_are_refused(self):
        # a float column would land between columns: [0.5] used to count
        # as a pivot and raise the rank bound; a bool is not a column
        for rows in (
            [([0.5], [1])],
            [(np.array([0.0, 1.0]), [1, 1])],
            [([True], [1])],
            [(np.array([False, True]), np.array([1, 1]))],
        ):
            with pytest.raises(TypeError):
                la.rank_mod(rows, 2)

    def test_repeated_columns_are_refused(self):
        # a dict, or a dense block, would keep one value of a repeated
        # column: [0, 0] with values 1, -1 sums to zero, but its last value
        # alone has rank 1.  A column past the last, or a negative one that
        # numpy counts from the end, would pivot where no column is.
        for rows in (
            [([0, 0], [1, -1])],
            [([0, 1, 1], [1, 1, -1]), ([0], [1])],
            [(np.array([2, 2]), np.array([3, 3]))],
            [([0, 1], [1])],
            [([-1], [1])],
            [([3], [1])],
            [([5], [1])],
            [([0], [1]), (np.array([1, 7]), np.array([1, 1]))],
        ):
            for heavy in (1, la._HEAVY):
                with patch.object(la, "_HEAVY", heavy), pytest.raises(ValueError):
                    la.rank_mod(rows, 3)

    def test_negative_target_is_refused(self):
        rows = [([0], [1]), ([1], [1])]
        with pytest.raises(ValueError, match="negative"):
            la.rank_mod(rows, 3, target=-1)
        assert la.rank_mod(rows, 3, target=0) == 0


class RefEliminator(la.ModEliminator):
    """The row-by-row engine that reduces after every update."""

    def _reduce_block(self, block):
        block = np.mod(np.asarray(block, dtype=np.float64), self.p)
        if self.piv_cols:
            coeff = block[:, self.piv_cols]
            if np.any(coeff):
                block = np.mod(block - la.mod_matmul(coeff, self.rows, self.p), self.p)
        return block

    def feed(self, block):
        p = self.p
        block = self._reduce_block(block)
        new_rows, new_cols = [], []
        for i in range(block.shape[0]):
            row = block[i]
            for c, nr in zip(new_cols, new_rows):
                f = row[c]
                if f:
                    row = np.mod(row - f * nr, p)
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            row = np.mod(row * pow(int(row[c]), p - 2, p), p)
            new_rows.append(row)
            new_cols.append(c)
            self.sources.append(self.fed + i)
        self.fed += block.shape[0]
        if not new_rows:
            return
        fresh = np.array(new_rows)
        for j in range(len(new_cols) - 1, 0, -1):
            c = new_cols[j]
            for i in range(j):
                f = fresh[i, c]
                if f:
                    fresh[i] = np.mod(fresh[i] - f * fresh[j], p)
        if self.piv_cols:
            coeff = self.rows[:, new_cols]
            if np.any(coeff):
                self.rows = np.mod(self.rows - la.mod_matmul(coeff, fresh, p), p)
        self.rows = np.vstack([self.rows, fresh])
        self.piv_cols.extend(new_cols)


def assert_same_state(got, want):
    assert got.piv_cols == want.piv_cols
    assert got.sources == want.sources
    assert got.fed == want.fed
    assert got.rows.shape == want.rows.shape
    assert np.array_equal(got.rows, want.rows)


@st.composite
def systems(draw):
    """Random rows of low rank, with up to two trailing columns, as of an
    augmented [A | b], where some rows are knocked off that span."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    nrows = draw(st.integers(0, 60))
    ncols = draw(st.integers(1, 14))
    nrhs = draw(st.integers(0, 2))
    rank = draw(st.integers(1, ncols))
    span = rng.integers(-9, 10, size=(rank, ncols + nrhs))
    a = rng.integers(-3, 4, size=(nrows, rank)) @ span
    a[rng.random(nrows) < 0.2, ncols:] += 1  # knock rows off consistency
    return a, ncols + nrhs


class TestLazyFeedAgainstReference:
    # The lazy engine holds rows unreduced between updates; its states must
    # equal the reference's bit for bit, also with the lazy bound shrunk so
    # that rows are reduced in the middle of a sweep.
    @given(
        systems(),
        st.sampled_from([7, la.PRIMES[0]]),
        st.integers(1, 512),
        st.sampled_from([la._LAZY, 1, 2, 5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_systems(self, system, p, block_size, lazy):
        a, ncols = system
        with patch.object(la, "_BLOCK", block_size):
            want = RefEliminator(ncols, p)
            want.feed_all(a)
            got = la.ModEliminator(ncols, p)
            with patch.object(la, "_LAZY", lazy):
                got.feed_all(a)
        assert_same_state(got, want)

    def test_dense_block_of_600(self):
        # one full-rank block of 600 rows, halved down to _BASE rows and
        # joined back by matrix products at every level of the recursion
        p = la.PRIMES[0]
        a = np.random.default_rng(11).integers(0, p, size=(600, 600))
        want = RefEliminator(600, p)
        got = la.ModEliminator(600, p)
        with patch.object(la, "_BLOCK", 600):
            want.feed_all(a)
            got.feed_all(a)
        assert got.rank == 600
        assert_same_state(got, want)


    def test_rows_are_reduced_at_the_lazy_bound(self):
        # Near 2^26 only two updates fit below 2^53.  With the bound shrunk
        # to match, the engine stays exact only if it reduces every row
        # that has taken two updates.  Free columns keep what the updates
        # add, in the sweep and in the back-substitution.
        p = 67108859
        assert 2 * (p - 1) ** 2 + p < 2**53 < 3 * (p - 1) ** 2
        a = np.random.default_rng(5).integers(0, p, size=(40, 60))
        want = RefEliminator(60, p)
        want.feed_all(a)
        got = la.ModEliminator(60, p)
        with patch.object(la, "_LAZY", 2):
            got.feed_all(a)
        assert got.rank == 40
        assert_same_state(got, want)


def low_rank(rng, nrows, ncols, rank, p):
    """nrows random combinations of rank rows with entries in [0, p)."""
    span = rng.integers(0, p, size=(rank, ncols))
    return rng.integers(0, 3, size=(nrows, rank)) @ span % p


class TestBlockRecursion:
    # Blocks past _BASE rows are split, their halves eliminated and joined
    # by matrix products; the states must still equal the reference's.
    @pytest.mark.parametrize(
        "block_size", [1, la._BASE, la._BASE + 1, 2 * la._BASE + 1, 600]
    )
    def test_block_sizes(self, block_size):
        p = la.PRIMES[0]
        # rank 90 of 120 columns, so the stored rows are not the identity
        rng = np.random.default_rng(block_size)
        a = low_rank(rng, 600, 120, 60, p)
        a[::20] = rng.integers(0, p, size=(30, 120))
        want = RefEliminator(120, p)
        got = la.ModEliminator(120, p)
        with patch.object(la, "_BLOCK", block_size):
            want.feed_all(a)
            got.feed_all(a)
        assert got.rank == 90
        assert_same_state(got, want)

    @given(systems(), st.integers(1, 80), st.sampled_from([1, 2, 3, la._BASE]))
    @settings(max_examples=100, deadline=None)
    def test_random_systems_at_every_split(self, system, block_size, base):
        a, ncols = system
        with patch.object(la, "_BLOCK", block_size):
            want = RefEliminator(ncols, la.PRIMES[0])
            want.feed_all(a)
            got = la.ModEliminator(ncols, la.PRIMES[0])
            with patch.object(la, "_BASE", base):
                got.feed_all(a)
        assert_same_state(got, want)

    def test_runs_of_zero_and_repeated_rows(self):
        # Whole halves vanish once the rows above are eliminated, and are
        # skipped; the rows after them must still find their pivots.
        p = la.PRIMES[0]
        rng = np.random.default_rng(3)
        head = low_rank(rng, 40, 120, 30, p)
        zeros = np.zeros((130, 120), dtype=np.int64)
        repeats = head[rng.integers(0, 40, size=170)]
        tail = rng.integers(0, p, size=(60, 120))
        a = np.vstack([head, zeros, repeats, tail, zeros, repeats, tail])
        for block_size in (len(a), 257, la._BASE):
            want = RefEliminator(120, p)
            got = la.ModEliminator(120, p)
            with patch.object(la, "_BLOCK", block_size):
                want.feed_all(a)
                got.feed_all(a)
            assert got.rank == 90
            assert_same_state(got, want)

    def test_block_of_600_at_the_lazy_bound(self):
        # Near 2^26 a product may sum only two terms: every product of the
        # recursion is chunked by _LAZY, read when it runs.
        p = 67108859
        a = low_rank(np.random.default_rng(13), 600, 200, 150, p)
        want = RefEliminator(200, p)
        got = la.ModEliminator(200, p)
        with patch.object(la, "_BLOCK", 600):
            want.feed_all(a)
            with patch.object(la, "_LAZY", 2):
                got.feed_all(a)
        assert got.rank == 150
        assert_same_state(got, want)


class TestReduceMod:
    @pytest.mark.parametrize("p", [7, la.PRIMES[0], la.PRIMES[-1], 67108859])
    @pytest.mark.parametrize("size", [5, 255, 256, 4000])
    def test_matches_python_remainder(self, p, size):
        # Exact for |x| + p < 2^53, on either side of the size where
        # _reduce_mod switches from np.mod to the floor quotient.
        top = 2**53 - p - 1
        rng = np.random.default_rng(size + p)
        mags = 2 ** rng.uniform(0, 53, size=size)
        x = [min(int(m), top) * int(s) for m, s in zip(mags, rng.choice([-1, 1], size))]
        edges = [0, 1, -1, p - 1, p, p + 1, -p, top, -top, top // p * p, -(top // p) * p]
        x[: len(edges)] = edges[:size]
        got = la._reduce_mod(np.array(x, dtype=np.float64), p)
        assert got.tolist() == [v % p for v in x]


class TestExactnessGuard:
    def test_import_refuses_inexact_lazy_bound(self):
        # Twice as many unreduced updates per row, or terms per product,
        # would pass 2^53 in feed and mod_matmul; the module must refuse
        # to load rather than compute wrong residues.
        path = Path(la.__file__)
        src = path.read_text().replace("_LAZY = 8192", "_LAZY = 2 * 8192")
        with pytest.raises(RuntimeError, match="exactness in feed"):
            exec(compile(src, str(path), "exec"), {"__name__": "linalg_copy"})

    def test_feed_refuses_a_large_prime(self):
        # Near 2^26 the default 8192 updates pass 2^53: the engine must
        # refuse such a prime rather than return wrong residues.  A block
        # of _BASE rows is swept row by row, with no product.
        p = 67108859
        a = low_rank(np.random.default_rng(13), 600, 200, 150, p)
        for block in (a, a[: la._BASE]):
            got = la.ModEliminator(200, p)
            with pytest.raises(ValueError, match="too large"):
                got.feed(block)
            assert (got.rank, got.fed, got.rows.shape) == (0, 0, (0, 200))
        with pytest.raises(ValueError, match="too large"):
            la.rank_mod(sparse_rows(a), 200, p)

    def test_mod_matmul_refuses_a_large_prime(self):
        p = 67108859
        a = np.full((1, 3000), float(p - 1))
        with pytest.raises(ValueError, match="too large"):
            la.mod_matmul(a, a.T.copy(), p)


class TestReconstruct:
    @given(st.integers(-800, 800), st.integers(1, 800))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, num, den):
        from math import gcd

        g = gcd(num, den)
        f = Fraction(num, den)
        m = la.PRIMES[0] * la.PRIMES[1]
        a = f.numerator * pow(f.denominator, -1, m) % m
        assert la.rational_reconstruct(a, m) == f

    def test_zero(self):
        assert la.rational_reconstruct(0, 10007) == 0

    def test_crt(self):
        m1, m2 = 101, 103
        x = 7777
        back = la.crt_combine(x % m1, m1, x % m2, m2)
        assert back % m1 == x % m1 and back % m2 == x % m2


class TestSolveCertified:
    def test_square_system(self):
        rows = [[2, 1], [1, 3]]
        (x,) = la.solve_certified(rows, [[1, 0]])
        assert x == [frac(3, 5), frac(-1, 5)]

    def test_rectangular_consistent(self):
        # redundant equations, rank 2
        rows = [[1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 3, 1]]
        (x,) = la.solve_certified(rows, [[3, 5, 8, 11]])
        for row, b in zip(rows, [3, 5, 8, 11]):
            assert sum(r * v for r, v in zip(row, x)) == b

    def test_fraction_rows_and_rhs(self):
        rows = [[frac(1, 2), frac(1, 3)], [frac(1, 5), 1]]
        rhs = [frac(7, 6), frac(6, 5)]
        (x,) = la.solve_certified(rows, [rhs])
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b

    def test_inconsistent_raises(self):
        rows = [[1, 0], [1, 0]]
        with pytest.raises(la.Inconsistent):
            la.solve_certified(rows, [[1, 2]])
        # only the second of two right-hand columns has no solution
        with pytest.raises(la.Inconsistent):
            la.solve_certified(rows, [[1, 1], [1, 2]])

    def test_columns_must_match_the_rows(self):
        # a short column must not be broadcast, nor a long one truncated
        for rows in ([[1, 0], [0, 1]], np.eye(2, dtype=np.int64)):
            for col in ([5], [5, 6, 7]):
                with pytest.raises(ValueError):
                    la.solve_certified(rows, [col])

    def test_floats_are_refused(self):
        # Truncating 2.5 or 0.5 to an int would solve another system; a
        # Fraction entry is exact and solves the system as given.
        with pytest.raises(TypeError):
            la.solve_certified(np.array([[2.5, 1.0], [1.0, 1.0]]), [[1, 2]])
        with pytest.raises(TypeError):
            la.solve_certified([[0.5, 0], [0, 1]], [[1, 2]])
        with pytest.raises(TypeError):
            la.rank_mod([([0], [0.5])], 2)
        half = np.array([[frac(1, 2), 0], [0, 1]], dtype=object)
        assert la.solve_certified(half, [[1, 2]]) == [[2, 2]]

    def test_zero_columns_build_no_eliminator(self, monkeypatch):
        # x = 0 solves A x = 0 exactly, so no prime is drawn for it; the
        # input checks still come first
        def refuse(*args):
            raise AssertionError("an eliminator for a zero right-hand side")

        monkeypatch.setattr(la, "ModEliminator", refuse)
        rows = [[1, 2], [3, 4], [5, 6]]
        got = la.solve_certified(rows, [[0, 0, 0], [frac(0), 0, np.int64(0)]])
        assert got == [[0, 0], [0, 0]]
        assert all(type(v) is Fraction for col in got for v in col)
        assert la.solve_certified(np.array(rows), [[0, 0, 0]]) == [[0, 0]]
        with pytest.raises(TypeError):
            la.solve_certified([[1.0, 2], [3, 4], [5, 6]], [[0, 0, 0]])
        with pytest.raises(TypeError):
            la.solve_certified(np.array(rows, dtype=float), [[0, 0, 0]])
        with pytest.raises(TypeError):
            la.solve_certified(rows, [[0.0, 0, 0]])
        with pytest.raises(ValueError):
            la.solve_certified(rows, [[0, 0]])
        with pytest.raises(ValueError):
            la.solve_certified(rows, [[0, 0, 0], [0, 0]])

    def test_rows_past_full_rank_are_certified(self, monkeypatch):
        # The first block fills the rank, so the last row is never fed;
        # the exact residual over every row still has the final word.
        rows = np.array([[1, 0], [0, 1]] + [[1, 1]] * 600)
        rhs = [1, 2] + [3] * 600
        (x,) = la.solve_certified(rows, [rhs])
        assert x == [1, 2]
        # The pivot rows alone pin down the only candidate, so a failed
        # residual past them is a contradiction, found with the first prime.
        primes = []
        init = la.ModEliminator.__init__

        def spy(self, ncols, p):
            primes.append(p)
            init(self, ncols, p)

        monkeypatch.setattr(la.ModEliminator, "__init__", spy)
        rhs[-1] = 4
        with pytest.raises(la.Inconsistent):
            la.solve_certified(rows, [rhs])
        assert len(primes) == 1

    def test_multiple_rhs(self):
        rows = np.array([[1, 2], [3, 4]])
        a, b = la.solve_certified(rows, [[1, 0], [0, 1]])
        assert a == [frac(-2), frac(3, 2)]
        assert b == [frac(1), frac(-1, 2)]

    def test_int_fraction_and_mixed_columns(self):
        # every exact form of a column gives the same answer; ints skip
        # Fraction, and numerators past int64 stay exact as objects
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4], [3, 4, 1]]

        def times(x):
            return [sum(a * v for a, v in zip(row, x)) for row in rows]

        cases = [
            [1, -2, 2**70],
            [Fraction(1, 3), 5, -7],
            [Fraction(-(2**80), 9), 0, Fraction(7, 2**66)],
            [4, -1, 3],
        ]
        ints = times(cases[0])
        small = times(cases[3])
        mixed = [int(v) if v.denominator == 1 else v for v in times(cases[1])]
        assert {type(v) for v in mixed} == {int, Fraction}
        columns = [
            ints,
            [frac(v) for v in ints],
            mixed,
            times(cases[2]),
            np.array(small, dtype=np.int64),
            [frac(v) for v in small[:2]] + small[2:],
        ]
        want = [cases[0], cases[0], cases[1], cases[2], cases[3], cases[3]]
        got = la.solve_certified(rows, columns)
        assert got == want
        assert all(type(v) is Fraction for col in got for v in col)
        for col, x in zip(columns, want):
            assert la.solve_certified(rows, [col]) == [x]
            assert solve_fraction(rows, list(col)) == x
        with pytest.raises(TypeError):
            la.solve_certified(rows, [[1.0, 2, 3, 4]])

    def test_big_denominators(self):
        # Hilbert-style matrix forces serious CRT widening
        size = 7
        rows = [[frac(1, i + j + 1) for j in range(size)] for i in range(size)]
        rhs = [frac(1)] * size
        (x,) = la.solve_certified(rows, [rhs])
        for row in rows:
            assert sum(r * v for r, v in zip(row, x)) == 1


class TestFractionRREF:
    def test_rank_and_membership(self):
        rref = la.FractionRREF()
        assert rref.add({0: frac(1), 1: frac(2)})
        assert rref.add({1: frac(1), 2: frac(1)})
        assert not rref.add({0: frac(2), 1: frac(6), 2: frac(2)})
        assert rref.rank == 2
        assert rref.contains({0: frac(1), 1: frac(3), 2: frac(1)})
        assert not rref.contains({2: frac(1)})

    def test_reduction_is_canonical(self):
        rref = la.FractionRREF()
        rref.add({0: frac(2), 1: frac(4)})
        got = rref.reduce({0: frac(1), 2: frac(1)})
        assert got == {1: frac(-2), 2: frac(1)}


class TestSolveFraction:
    def test_exact_solution(self):
        x = solve_fraction([[2, 1], [1, 3]], [1, 0])
        assert x == [frac(3, 5), frac(-1, 5)]

    def test_underdetermined_pivot_support(self):
        x = solve_fraction([[1, 1, 1]], [6])
        assert x == [frac(6), 0, 0]

    def test_inconsistent(self):
        with pytest.raises(la.Inconsistent):
            solve_fraction([[1, 1], [2, 2]], [1, 3])
