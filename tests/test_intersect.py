"""Intersection numbers: integration, pairings, the orientation rule."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import cohft, linalg
from genus0.intersect import (
    good_orientation,
    integrate,
    pair_kaufmann,
    pair_oracle,
    pairing_matrix,
    pairing_matrix_int,
)
from genus0.keelring import RingElement, betti
from genus0.trees import (
    Split,
    Tree,
    enumerate_stable_trees,
    orbit_reps,
    relabel,
)

from conftest import permutations_of, stable_trees
from surgery import flags_at, orbit, tree_model


SP_ROW_DIGESTS = """
    3/0:0a644aab 4/0:87b08695 4/1:fa6fc270 5/0:3a6cf732 5/1:e2494f68
    5/2:5f2f0e8f 6/0:7a91542b 6/1:a2a9ad32 6/2:84b1415e 6/3:1839c5e8
    7/0:881a07da 7/1:37694bd6 7/2:a2ed0b62 7/3:85197549 7/4:61697270
    8/0:028943b8 8/1:1c62edc2 8/2:e00eb37e 8/3:aace60aa 8/4:e8fbb5dc
    8/5:6b087c11
"""


def T(*texts):
    return Tree.from_splits([Split.parse("{" + t + "}") for t in texts])


def dense_pairings(n, r):
    """Pair-by-pair dense pairing matrix, the reference for the sparse rows."""
    rows = enumerate_stable_trees(n, r)
    cols = enumerate_stable_trees(n, n - 3 - r)
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            out[i, j] = int(pair_kaufmann(a, b))
    return out


class TestIntegrate:
    def test_point_classes(self):
        # A full-dimensional boundary stratum is a point; its class
        # integrates to one.
        assert integrate(RingElement.monomial(T("12|345", "123|45"))) == 1
        assert integrate(RingElement.monomial(T("12|34"))) == 1

    def test_minimal_space(self):
        # Three labels leave nothing to move: the space is a point and
        # the unit integrates to 1.
        assert integrate(RingElement.unit(3)) == 1

    def test_below_top_degree_vanishes(self):
        assert integrate(RingElement.unit(5)) == 0
        assert integrate(RingElement.divisor(Split.parse("{12|345}"))) == 0

    def test_picks_top_component(self):
        x = RingElement.unit(5) + RingElement.monomial(
            T("12|345", "123|45")
        ).scale(Fraction(3, 2))
        assert integrate(x) == Fraction(3, 2)

    def test_linear(self):
        tops = enumerate_stable_trees(5, 2)
        x = RingElement.monomial(tops[0]) - RingElement.monomial(tops[1]).scale(4)
        assert integrate(x) == 1 - 4


class TestPairExamples:
    def test_self_pairing_of_divisor(self):
        assert pair_kaufmann(T("12|345"), T("12|345")) == -1

    def test_disjoint_sides(self):
        assert pair_kaufmann(T("12|345"), T("34|125")) == 1

    def test_crossing(self):
        assert pair_kaufmann(T("12|345"), T("13|245")) == 0

    def test_point_against_unit(self):
        one = Tree.one_vertex(5)
        assert pair_kaufmann(one, T("12|345", "123|45")) == 1

    def test_divisor_against_unit(self):
        assert pair_kaufmann(Tree.one_vertex(4), T("12|34")) == 1

    def test_compatible_but_unorientable(self):
        # The union exists, yet no orientation feeds both trivalent
        # endpoints of the doubled edge, so the pairing vanishes.
        assert pair_kaufmann(T("12|3456"), T("12|3456", "123|456")) == 0

    def test_doubled_edge_with_room(self):
        assert pair_kaufmann(T("12|3456"), T("12|3456", "1234|56")) == -1

    def test_four_valent_vertices_factorial(self):
        # Doubling both edges of this tree marks each four-valent vertex
        # once; every such vertex contributes (-1)^{|v|-3} (|v|-3)!.
        tau = T("12|34567", "1234|567")
        assert pair_kaufmann(tau, tau) == 1
        assert pair_oracle(tau, tau) == 1

    def test_wrong_degrees_rejected(self):
        with pytest.raises(ValueError):
            pair_kaufmann(T("12|345"), T("12|345", "123|45"))

    def test_different_label_counts_rejected(self):
        with pytest.raises(ValueError):
            pair_kaufmann(T("12|34"), T("12|345", "123|45"))


class TestOrientation:
    def test_no_marked_edges(self):
        tau = T("12|345", "123|45")
        assert good_orientation(tau.n, tau.parts, ()) == {}

    def test_single_doubled_edge(self):
        # Squaring 12|345: only the far vertex (tails 3,4,5) can absorb
        # the arrow.
        tau = T("12|345")
        got = good_orientation(tau.n, tau.parts, (0,))
        assert got is not None
        (head,) = got.values()
        labels = {f.ref for f in flags_at(tau, head) if f.kind == "tail"}
        assert labels == {3, 4, 5}

    def test_conflict_returns_none(self):
        # Both endpoints of the first edge are trivalent: neither can
        # absorb an arrow, so no orientation exists.
        tau = T("12|3456", "123|456")
        assert good_orientation(tau.n, tau.parts, (0,)) is None

    def test_arrow_heads_into_fat_vertex(self):
        tau = T("12|3456", "123|456")
        got = good_orientation(tau.n, tau.parts, (1,))
        assert got is not None
        (head,) = got.values()
        labels = {f.ref for f in flags_at(tau, head) if f.kind == "tail"}
        assert labels == {4, 5, 6}

    def test_uniqueness_small(self):
        # Whenever the pairing is nonzero the orientation is unique, the
        # count is zero exactly when the pairing vanishes, and leaf
        # propagation finds the same orientation as exhaustive search.
        for n in (4, 5, 6):
            for r in range(1, n - 2):
                rows = enumerate_stable_trees(n, r)
                cols = enumerate_stable_trees(n, n - 3 - r)
                for m1 in rows:
                    for m2 in cols:
                        value = pair_kaufmann(m1, m2)
                        tau = _union(m1, m2)
                        if tau is None:
                            assert value == 0
                            continue
                        marked = _doubled(m1, m2, tau)
                        found = exhaustive_orientations(tau, marked)
                        assert len(found) <= 1
                        assert (len(found) == 1) == (value != 0)
                        want = found[0] if found else None
                        assert good_orientation(tau.n, tau.parts, marked) == want

    def test_value_independent_of_tiebreak(self):
        # The orientation count being at most one makes the tie-break
        # moot, but double-check exhaustive search agrees with
        # propagation. Both marked edges must head into the middle
        # vertex, which has room for one arrow only, so neither finds
        # an orientation.
        tau = T("12|3456", "1234|56")
        found = exhaustive_orientations(tau, (0, 1))
        assert found == []
        assert good_orientation(tau.n, tau.parts, (0, 1)) is None


def exhaustive_orientations(tau, edges):
    """Every orientation of the marked edges feeding each vertex exactly
    its excess valency, found by trying every choice of heads."""
    model = tree_model(tau.n, tau.parts)
    base = [len(fl) - 3 for fl in model.flags]
    out = []
    for heads in itertools.product(*(model.edges[e] for e in edges)):
        need = list(base)
        for h in heads:
            need[h] -= 1
        if not any(need):
            out.append(dict(zip(edges, heads)))
    return out


def _union(m1, m2):
    from surgery import tree_product

    return tree_product(m1, m2)


def _doubled(m1, m2, tau):
    both = set(m1.parts) & set(m2.parts)
    return tuple(i for i, p in enumerate(tau.parts) if p in both)


class TestKaufmannMatchesOracle:
    # The closed-form product over vertices must reproduce the value
    # obtained by grinding the product down to normal form and
    # integrating.

    def exhaustive(self, n):
        checked = 0
        for r in range(n - 2):
            rows = enumerate_stable_trees(n, r)
            cols = enumerate_stable_trees(n, n - 3 - r)
            for m1 in rows:
                for m2 in cols:
                    assert pair_kaufmann(m1, m2) == pair_oracle(m1, m2), (
                        str(m1),
                        str(m2),
                    )
                    checked += 1
        return checked

    def test_exhaustive_n4(self):
        assert self.exhaustive(4) == 6

    def test_exhaustive_n5(self):
        self.exhaustive(5)

    def test_exhaustive_n6(self):
        self.exhaustive(6)

    def test_sampled_n7(self, rng):
        for r in (1, 2):
            rows = enumerate_stable_trees(7, r)
            cols = enumerate_stable_trees(7, 4 - r)
            for _ in range(150):
                m1 = rng.choice(rows)
                m2 = rng.choice(cols)
                assert pair_kaufmann(m1, m2) == pair_oracle(m1, m2)


def pair_element(x: RingElement, m: Tree) -> Fraction:
    """Pairing of a (possibly mixed-degree) element against one monomial."""
    total = Fraction(0)
    comp = m.n - 3 - m.degree
    for t, c in x.terms.items():
        if t.degree == comp:
            total += c * pair_kaufmann(t, m)
    return total


class TestPairElement:
    def test_linearity(self):
        a = T("12|345")
        b = T("34|125")
        m = T("13|245")
        x = RingElement.monomial(a).scale(2) - RingElement.monomial(b)
        assert pair_element(x, m) == 2 * pair_kaufmann(a, m) - pair_kaufmann(b, m)

    def test_skips_off_degree_terms(self):
        x = RingElement.unit(5) + RingElement.monomial(T("12|345"))
        assert pair_element(x, T("34|125")) == pair_kaufmann(
            T("12|345"), T("34|125")
        )


class TestPairingMatrix:
    def test_unit_row(self):
        m = pairing_matrix_int(4, 0)
        assert m.shape == (1, 3)
        assert m.tolist() == [[1, 1, 1]]

    def test_symmetry(self):
        for n, r in ((5, 1), (6, 1), (6, 2)):
            a = pairing_matrix_int(n, r)
            b = dense_pairings(n, n - 3 - r)
            assert np.array_equal(a, b.T)

    def test_rank_matches_betti(self):
        for n in (4, 5, 6):
            for r in range(n - 2):
                m = pairing_matrix_int(n, r)
                rank = linalg.rank_mod(m, m.shape[1], linalg.PRIMES[0])
                assert rank == betti(n, r)

    def test_sparse_rows_match_dense(self):
        # The sparse builder (one evaluated row per relabelling orbit,
        # transposed orientation for the larger degree) against the
        # pair-by-pair reference, and the greedy basis selection against
        # the plain rank.
        p = linalg.PRIMES[0]
        for n in (3, 4, 5, 6, 7):
            for d in range(n - 2):
                if 2 * d > n - 3:
                    dense = dense_pairings(n, n - 3 - d).T
                else:
                    dense = dense_pairings(n, d)
                width = dense.shape[1]
                sparse = cohft._sp_rows(n, d)
                assert len(sparse) == dense.shape[0]
                assert np.array_equal(linalg.densify(sparse, width), dense)
                assert np.array_equal(pairing_matrix_int(n, d), dense)
                if n > 6:
                    continue
                chosen = cohft._greedy_rows(sparse, width, p)
                rank = linalg.rank_mod(dense, width, p)
                assert len(chosen) == rank
                assert linalg.rank_mod(dense[list(chosen)], width, p) == rank

    def test_point_class_row(self):
        # the unit against every trivalent tree: each pairing is the
        # integral of a point, and the row is filled with ones unevaluated
        for n in (3, 4, 5, 6, 7):
            row = cohft._build_sp(n, 0, n - 3)
            want = dense_pairings(n, 0)
            assert len(row) == 1 and np.all(want == 1)
            assert np.array_equal(linalg.densify(row, want.shape[1]), want)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_sparse_columns_ascend(self, n):
        for d in range(n - 2):
            for cols, vals in cohft._sp_rows(n, d):
                assert cols.dtype == vals.dtype == np.int64
                assert np.all(np.diff(cols) > 0) and np.all(vals != 0)

    def test_rows_pinned(self):
        # sha256 over the rows of _sp_rows(n, d), each as its int64
        # columns, "|", its int64 values, "#"; the first 8 hex digits
        got = []
        for n in range(3, 9):
            for d in range(n - 2):
                h = hashlib.sha256()
                for cols, vals in cohft._sp_rows(n, d):
                    h.update(cols.astype(np.int64).tobytes() + b"|")
                    h.update(vals.astype(np.int64).tobytes() + b"#")
                got.append(f"{n}/{d}:{h.hexdigest()[:8]}")
        assert got == SP_ROW_DIGESTS.split()

    def test_sampled_rows_at_eight(self, rng):
        # At n = 8 the full reference is too slow for tier-1: check every
        # orbit representative, one other member of every orbit and a few
        # random rows per degree against pair-by-pair evaluation.
        n = 8
        for d in range(n - 2):
            trees = enumerate_stable_trees(n, d)
            position = {t: i for i, t in enumerate(trees)}
            picks = set(rng.sample(range(len(trees)), min(4, len(trees))))
            for rep, _ in orbit_reps(n, d):
                picks.add(position[rep])
                picks.add(position[rng.choice(sorted(orbit(rep)))])
            cols_trees = enumerate_stable_trees(n, n - 3 - d)
            sparse = cohft._sp_rows(n, d)
            for i in sorted(picks):
                want = [int(pair_kaufmann(trees[i], b)) for b in cols_trees]
                got = np.zeros(len(cols_trees), dtype=np.int64)
                got[sparse[i][0]] = sparse[i][1]
                assert got.tolist() == want

    def test_structured_output(self):
        pm = pairing_matrix(5, 1)
        assert pm.n == 5 and pm.r == 1 and not pm.invariant
        assert len(pm.row_basis) == 10 and len(pm.col_basis) == 10
        d = pm.to_dict()
        assert len(d["entries"]) == 10
        assert all(isinstance(e, str) for row in d["entries"] for e in row)

    def test_invariant_collapse(self):
        pm = pairing_matrix(5, 1, invariant=True)
        assert len(pm.row_basis) == 1
        assert pm.entries[0][0] == 20

    def test_invariant_collapse_n6(self):
        # Rows: the two relabelling orbits of divisors (two-element vs
        # three-element sides).  Columns: the two orbits of two-edge
        # trees.  Each entry weights one representative's pairings over
        # the whole column orbit by the row orbit's size; every degree is
        # checked that way.
        pm = pairing_matrix(6, 1, invariant=True)
        assert len(pm.row_basis) == 2
        assert len(pm.col_basis) == 2
        for r in range(4):
            pm = pairing_matrix(6, r, invariant=True)
            for i, r_rep in enumerate(pm.row_basis):
                size = len(orbit(r_rep))
                for j, c_rep in enumerate(pm.col_basis):
                    want = size * sum(pair_kaufmann(r_rep, m) for m in orbit(c_rep))
                    assert pm.entries[i][j] == want, (r, i, j)


class TestAgainstBettiDuality:
    @given(stable_trees(max_n=6), stable_trees(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_pairing(self, t1, t2):
        if t1.n != t2.n or t1.degree + t2.degree != t1.n - 3:
            return
        assert pair_kaufmann(t1, t2) == pair_kaufmann(t2, t1)


@st.composite
def complementary_pairs(draw, max_n=7):
    n = draw(st.integers(4, max_n))
    d = draw(st.integers(0, n - 3))
    rows = enumerate_stable_trees(n, d)
    cols = enumerate_stable_trees(n, n - 3 - d)
    a = rows[draw(st.integers(0, len(rows) - 1))]
    b = cols[draw(st.integers(0, len(cols) - 1))]
    return a, b, draw(permutations_of(n))


@given(complementary_pairs())
@settings(max_examples=200, deadline=None)
def test_pairing_is_relabelling_invariant(pair):
    # the symmetry that lets _sp_rows derive a whole orbit from one row
    a, b, perm = pair
    assert pair_kaufmann(relabel(a, perm), relabel(b, perm)) == pair_kaufmann(a, b)
