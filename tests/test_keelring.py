"""Ring arithmetic: products, rewriting, relations, Betti numbers."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import keelring, linalg, trees
from genus0.intersect import _sp_rows
from genus0.linalg import PRIMES, FractionRREF, rank_mod
from genus0.keelring import (
    RingElement,
    betti,
    class_vector,
    equal_mod_relations,
    is_zero_class,
    keel_relation,
    mul,
    pullback_to_divisor,
    relations_of_degree,
    splitting_failures,
    TensorElement,
)
from genus0.taut import kappa, psi
from genus0.trees import (
    Split,
    Tree,
    enumerate_stable_trees,
    stable_splits,
)

from conftest import stable_trees
from surgery import (
    a_value_masks,
    edge_vertices,
    flags_at,
    insert_edge,
    mul_divisor,
    reduce_product,
    relation,
    tensor_of_factors,
    tensor_unit,
    transplant,
)


def D(n, text):
    s = Split.parse("{" + text + "}")
    assert s.n == n
    return RingElement.divisor(s)


def M(n, *texts):
    return RingElement.monomial(
        Tree.from_splits([Split.parse("{" + t + "}") for t in texts])
    )


class TestMulDivisor:
    def test_compatible_distinct_joins(self):
        # a = 3 everywhere: the product is the union monomial, coefficient 1.
        got = mul_divisor(Split.parse("{12|345}"), M(5, "123|45"))
        assert got == M(5, "12|345", "123|45")

    def test_crossing_kills(self):
        assert mul_divisor(Split.parse("{13|245}"), M(5, "12|345")).terms == {}

    def test_square_normal_form(self):
        # Repeated edge rewrites into minus one neighbouring two-edge tree:
        # the only movable branch at either endpoint of 12|345 is leaf 5.
        got = mul_divisor(Split.parse("{12|345}"), M(5, "12|345"))
        assert got == M(5, "12|345", "125|34").scale(-1)

    def test_square_integral(self):
        from genus0.intersect import integrate

        sq = mul_divisor(Split.parse("{12|345}"), M(5, "12|345"))
        assert integrate(sq) == -1

    def test_square_rewrite_keeps_sigma(self):
        # Every monomial produced by a repeated-edge rewrite still
        # contains the squared split.
        sigma = Split.parse("{123|456}")
        got = mul_divisor(sigma, M(6, "123|456"))
        assert got.terms
        for tree in got.terms:
            assert sigma.side in tree.parts

    def test_two_movable_branches(self):
        # 123|456 squared: each endpoint keeps its two lowest leaves,
        # leaving single movable leaves 3 and 6, hence two terms.
        got = mul_divisor(Split.parse("{123|456}"), M(6, "123|456"))
        assert got == (
            M(6, "123|456", "1236|45").scale(-1)
            + M(6, "123|456", "12|3456").scale(-1)
        )

    def test_trivalent_endpoints_give_zero(self):
        # Both endpoints of the squared edge are trivalent here, so no
        # branch can move and the product vanishes identically.
        got = mul_divisor(Split.parse("{12|3456}"), M(6, "12|3456", "123|456"))
        assert got.terms == {}

    def test_higher_degree_partner(self):
        # Squaring one edge of a two-edge monomial keeps the other edge;
        # the lone movable branch at the four-valent vertex is the far
        # subtree carrying {5,6}.
        got = mul_divisor(Split.parse("{12|3456}"), M(6, "12|3456", "1234|56"))
        assert got == M(6, "12|3456", "1234|56", "1256|34").scale(-1)


class TestReduce:
    def test_single_divisor(self):
        assert reduce_product([Split.parse("{12|345}")]) == D(5, "12|345")

    def test_crossing_pair(self):
        fs = [Split.parse("{12|345}"), Split.parse("{13|245}")]
        assert reduce_product(fs).terms == {}

    def test_repeated_divisor(self):
        fs = [Split.parse("{12|345}"), Split.parse("{12|345}")]
        assert reduce_product(fs) == M(5, "12|345", "125|34").scale(-1)

    def test_order_irrelevant(self):
        splits = [
            Split.parse("{12|3456}"),
            Split.parse("{123|456}"),
            Split.parse("{12|3456}"),
        ]
        forward = reduce_product(splits)
        backward = reduce_product(splits[::-1])
        assert forward == backward


class TestMul:
    def test_unit(self):
        x = D(5, "12|345") + M(5, "12|345", "125|34").scale(Fraction(2, 3))
        assert mul(RingElement.unit(5), x) == x

    def test_bilinear(self):
        a, b = D(5, "12|345"), D(5, "34|125")
        c = D(5, "15|234")
        lhs = mul(a + b.scale(2), c)
        rhs = mul(a, c) + mul(b, c).scale(2)
        assert lhs == rhs

    @given(stable_trees(max_n=5), stable_trees(max_n=5))
    def test_commutative(self, t1, t2):
        if t1.n != t2.n:
            return
        x, y = RingElement.monomial(t1), RingElement.monomial(t2)
        assert mul(x, y) == mul(y, x)

    @given(stable_trees(max_n=5), stable_trees(max_n=5), stable_trees(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_associative(self, t1, t2, t3):
        if not (t1.n == t2.n == t3.n):
            return
        x = RingElement.monomial(t1)
        y = RingElement.monomial(t2)
        z = RingElement.monomial(t3)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))

    def test_one_mask_per_monomial(self, monkeypatch):
        # a product ANDs each monomial's compatibility rows once, however
        # many one-divisor words it meets
        calls = []
        mask = keelring.Ring._mask

        def counted(self, parts):
            calls.append(parts)
            return mask(self, parts)

        monkeypatch.setattr(keelring.Ring, "_mask", counted)
        x = psi(6, 1).element
        got = keelring.ring(6)._product(
            {t.parts: 1 for t in x.terms}, [((s,), 1) for s in stable_splits(6)[:9]]
        )
        assert got and sorted(calls) == sorted(t.parts for t in x.terms)

    def test_grading_truncates(self):
        # Degrees add; anything past the top dimension n-3 vanishes.
        top = enumerate_stable_trees(5, 2)[0]
        got = mul(RingElement.monomial(top), D(5, "12|345"))
        assert got.terms == {}


class TestOperatorCommutativity:
    # Multiplying by two divisors in either order gives the same normal
    # form on the nose, not only the same class.  The whole product
    # routine leans on this.

    def exhaustive_pairs(self, n):
        divisors = enumerate_stable_trees(n, 1)
        monomials = [t for r in range(n - 2) for t in enumerate_stable_trees(n, r)]
        for t1, t2 in itertools.combinations_with_replacement(divisors, 2):
            s1 = Split(n, t1.parts[0])
            s2 = Split(n, t2.parts[0])
            for m in monomials:
                x = RingElement.monomial(m)
                ab = mul_divisor(s1, mul_divisor(s2, x))
                ba = mul_divisor(s2, mul_divisor(s1, x))
                assert ab == ba, (str(t1), str(t2), str(m))

    def test_exhaustive_n4(self):
        self.exhaustive_pairs(4)

    def test_exhaustive_n5(self):
        self.exhaustive_pairs(5)

    def test_randomized_n6(self, rng):
        divisors = enumerate_stable_trees(6, 1)
        monomials = [t for r in range(4) for t in enumerate_stable_trees(6, r)]
        for _ in range(300):
            s1 = Split(6, rng.choice(divisors).parts[0])
            s2 = Split(6, rng.choice(divisors).parts[0])
            x = RingElement.monomial(rng.choice(monomials))
            assert mul_divisor(s1, mul_divisor(s2, x)) == mul_divisor(
                s2, mul_divisor(s1, x)
            )


def case_c_variants(tree, e):
    """Every admissible repeated-edge rewrite of D_sigma * m(tree).

    sigma is edge e of the tree.  A variant picks, at each endpoint of
    e, which two branches stay put; the rest may migrate across the new
    edge in any nonempty combination, each migration contributing one
    monomial with coefficient -1.
    """
    n = tree.n
    out = []
    ends = edge_vertices(tree, e)
    flags = [
        [f for f in flags_at(tree, v) if not (f.kind == "edge" and f.ref == e)]
        for v in ends
    ]
    for keep0 in itertools.combinations(range(len(flags[0])), 2):
        mov0 = [f for i, f in enumerate(flags[0]) if i not in keep0]
        for keep1 in itertools.combinations(range(len(flags[1])), 2):
            mov1 = [f for i, f in enumerate(flags[1]) if i not in keep1]
            acc = RingElement(n, {})
            for movable in (mov0, mov1):
                for k in range(1, len(movable) + 1):
                    for grp in itertools.combinations(movable, k):
                        acc = acc + RingElement.monomial(
                            transplant(tree, e, grp)
                        ).scale(-1)
            out.append(acc)
    return out


class TestFlagIndependence:
    # The rewrite rule lets us keep any two branches at each endpoint;
    # all choices agree modulo the relation ideal, and the engine's
    # deterministic pick is one of them.

    def exhaustive(self, n):
        for r in range(1, n - 2):
            for tree in enumerate_stable_trees(n, r):
                for e in range(len(tree.parts)):
                    sigma = Split(n, tree.parts[e])
                    engine = mul_divisor(sigma, RingElement.monomial(tree))
                    variants = case_c_variants(tree, e)
                    assert engine in variants
                    for v in variants[1:]:
                        assert equal_mod_relations(variants[0], v), (
                            str(tree),
                            e,
                        )

    def test_exhaustive_n4(self):
        self.exhaustive(4)

    def test_exhaustive_n5(self):
        self.exhaustive(5)

    def test_randomized_n6(self, rng):
        pool = [
            (t, e)
            for r in range(1, 4)
            for t in enumerate_stable_trees(6, r)
            for e in range(r)
        ]
        for tree, e in rng.sample(pool, 25):
            variants = case_c_variants(tree, e)
            base = variants[0]
            for v in variants[1:]:
                assert equal_mod_relations(base, v), (str(tree), e)


def d_sigma_squared_avg(sigma: Split) -> RingElement:
    """The square of a boundary divisor, averaged over all rewrites.

    Instead of fixing one pair of stationary branches, average the
    one-branch-moving rewrites with the weights that make the expression
    symmetric in both sides of the partition.  Must agree with the
    deterministic rewrite modulo relations, which the tests below check.
    """
    n = sigma.n
    rewrites: dict[Tree, Fraction] = {}
    for here, there in ((sigma.side, sigma.other), (sigma.other, sigma.side)):
        labels = trees.labels_of(here)
        size = len(labels)
        for k in range(1, size - 1):
            weight = Fraction((size - k) * (size - k - 1), size * (size - 1))
            for moved in itertools.combinations(labels, k):
                side = trees.canonical_side(n, there | trees.mask_of(moved, n))
                t = Tree(n, (side,))
                rewrites[t] = rewrites.get(t, 0) - weight
    return mul(RingElement.divisor(sigma), RingElement(n, rewrites))


class TestAveragedSquare:
    def test_minimal_case_vanishes(self):
        # With four labels neither side of a split has room to shed a
        # proper sub-branch, so the averaged square is empty.
        assert d_sigma_squared_avg(Split.parse("{12|34}")).terms == {}

    def test_five_labels(self):
        got = d_sigma_squared_avg(Split.parse("{12|345}"))
        third = Fraction(-1, 3)
        want = (
            M(5, "12|345", "123|45").scale(third)
            + M(5, "12|345", "124|35").scale(third)
            + M(5, "12|345", "125|34").scale(third)
        )
        assert got == want

    def test_agrees_with_rewrite_n5(self):
        for t in enumerate_stable_trees(5, 1):
            s = Split(5, t.parts[0])
            avg = d_sigma_squared_avg(s)
            det = mul_divisor(s, RingElement.divisor(s))
            assert equal_mod_relations(avg, det), str(s)

    def test_agrees_with_rewrite_n6(self):
        for t in enumerate_stable_trees(6, 1):
            s = Split(6, t.parts[0])
            assert equal_mod_relations(
                d_sigma_squared_avg(s), mul_divisor(s, RingElement.divisor(s))
            ), str(s)

    @pytest.mark.slow
    def test_agrees_with_rewrite_n7(self):
        for t in enumerate_stable_trees(7, 1):
            s = Split(7, t.parts[0])
            assert equal_mod_relations(
                d_sigma_squared_avg(s), mul_divisor(s, RingElement.divisor(s))
            ), str(s)


def ref_relation_rows(n, d, every=False):
    """Canonical relations as sparse rows, each term one insert_edge call.

    At each vertex, the foursomes that hold its first two flags, with the
    second pairing only when the third flag is one of the other two; with
    ``every``, all foursomes with both pairings, which span the same space.
    """
    index = {t.parts: i for i, t in enumerate(enumerate_stable_trees(n, d))}
    rows = []
    for tree in enumerate_stable_trees(n, d - 1):
        for v in range(tree.degree + 1):
            flags = flags_at(tree, v)
            for quad in itertools.combinations(flags, 4):
                a, b, c, _ = quad
                if not every and (a, b) != flags[:2]:
                    continue
                rest = [f for f in flags if f not in quad]
                both = every or c == flags[2]
                for fi, fj, fk in ((a, b, c), (a, c, b)) if both else ((a, b, c),):
                    cols, vals = [], []
                    for pair, sign in (((fi, fj), 1), ((fk, fj), -1)):
                        for k in range(len(rest) + 1):
                            for extra in itertools.combinations(rest, k):
                                t = insert_edge(tree, v, pair + extra)
                                cols.append(index[t.parts])
                                vals.append(sign)
                    rows.append((cols, vals))
    return rows


RELATION_ROW_DIGESTS = """
    4/1:812e1167 5/1:9c9db6cf 5/2:524e5028 6/1:44eb0841 6/2:3727b079
    6/3:3a5a55d2 7/1:b514738e 7/2:24c6b471 7/3:4ae835f2 7/4:8674894e
"""


class TestRelations:
    def test_four_labels(self):
        t = Tree.one_vertex(4)
        got = relation(t, 0, tuple(fl.branch for fl in flags_at(t, 0)))
        assert got.element == D(4, "12|34") - D(4, "14|23")

    def test_five_labels(self):
        t = Tree.one_vertex(5)
        f = {fl.ref: fl.branch for fl in flags_at(t, 0)}
        got = relation(t, 0, (f[1], f[2], f[3], f[4]))
        want = (
            D(5, "12|345")
            + D(5, "125|34")
            - D(5, "23|145")
            - D(5, "235|14")
        )
        assert got.element == want

    def test_vertex_outside_the_tree_refused(self):
        # -1 once read as the last vertex, and past the end as IndexError
        t = Tree.parse("{1234|567}")
        four = tuple(fl.branch for fl in flags_at(t, 1))[:4]
        assert relation(t, 1, four).vertex == 1
        for v in (-1, 2):
            with pytest.raises(ValueError, match="outside"):
                relation(t, v, four)

    def test_all_reduce_to_zero_class(self):
        for n in (4, 5, 6):
            for r in range(n - 3):
                for rel in relations_of_degree(n, r + 1):
                    assert is_zero_class(rel.element), (n, str(rel.tree))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_rows_match_edge_insertion(self, n):
        # The bitmask generator against relations built flag by flag with
        # insert_edge, and the Relation elements against the rows, entry
        # for entry and in order.
        for d in range(1, n - 2):
            rows = keelring._relation_rows(n, d)
            assert rows == ref_relation_rows(n, d)
            index = {t.parts: i for i, t in enumerate(enumerate_stable_trees(n, d))}
            rels = relations_of_degree(n, d)
            assert len(rels) == len(rows)
            for rel, (cols, vals) in zip(rels, rows):
                terms = rel.element.terms
                assert [index[t.parts] for t in terms] == cols
                assert list(terms.values()) == vals
                if n < 7:
                    assert relation(rel.tree, rel.vertex, rel.foursome) == rel

    def test_rows_pinned(self):
        # sha256 over the rows of _relation_rows(n, d), each as its int64
        # columns, "|", its int64 values, "#"; the first 8 hex digits
        got = []
        for n in range(4, 8):
            for d in range(1, n - 2):
                h = hashlib.sha256()
                for cols, vals in keelring._relation_rows(n, d):
                    h.update(np.array(cols, dtype=np.int64).tobytes() + b"|")
                    h.update(np.array(vals, dtype=np.int64).tobytes() + b"#")
                got.append(f"{n}/{d}:{h.hexdigest()[:8]}")
        assert got == RELATION_ROW_DIGESTS.split()

    @pytest.mark.parametrize("k", range(4, 12))
    def test_one_vertex_basis(self, k):
        # k(k-3)/2 relations at a vertex of valency k, independent, and
        # spanning every foursome's relations in both pairings
        rows = keelring._relation_rows(k, 1)
        every = ref_relation_rows(k, 1, every=True)
        assert len(rows) == k * (k - 3) // 2 and len(every) == 2 * comb(k, 4)
        ncols = len(stable_splits(k))
        for p in PRIMES[:2]:
            assert rank_mod(rows, ncols, p) == len(rows)
            assert rank_mod(rows + every, ncols, p) == len(rows)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_rows_span_the_relations(self, n):
        # the rank of the degree-d rows closes the gap between the good
        # monomials and Keel's Betti number
        for d, b in enumerate(keel_poincare(n)):
            ngood = len(enumerate_stable_trees(n, d))
            assert rank_mod(keelring._relation_rows(n, d), ngood, PRIMES[0]) == ngood - b

    @pytest.mark.slow
    def test_relations_vanish_n7(self):
        for r in range(4):
            for rel in relations_of_degree(7, r + 1):
                assert is_zero_class(rel.element)

    def test_keel_relation_four_labels(self):
        assert keel_relation(4, 1, 2, 3, 4) == D(4, "12|34") - D(4, "14|23")

    def test_keel_relation_five_labels(self):
        got = keel_relation(5, 1, 2, 3, 4)
        want = (
            D(5, "12|345")
            + D(5, "125|34")
            - D(5, "23|145")
            - D(5, "235|14")
        )
        assert got == want

    def test_keel_relation_matches_a_scan_of_the_splits(self):
        # every divisor separating {i,j} from {k,l}, minus every one
        # separating {k,j} from {i,l}, found by testing each stable split
        def scanned(n, i, j, k, l):
            terms = {}
            full = (1 << n) - 1
            mij, mkl, mkj, mil = (
                trees.mask_of(pair, n) for pair in ([i, j], [k, l], [k, j], [i, l])
            )
            for side in stable_splits(n):
                far = full ^ side
                for a, b, sign in ((mij, mkl, 1), (mkj, mil, -1)):
                    if (side & a == a and far & b == b) or (
                        side & b == b and far & a == a
                    ):
                        t = Tree(n, (side,))
                        terms[t] = terms.get(t, 0) + sign
            return RingElement(n, terms)

        for n in (4, 5, 6):
            for quad in itertools.permutations(range(1, n + 1), 4):
                assert keel_relation(n, *quad) == scanned(n, *quad), quad

    def test_keel_relations_are_zero_classes(self):
        for n in (4, 5, 6):
            for i, j, k, l in itertools.permutations(range(1, 5)):
                assert is_zero_class(keel_relation(n, i, j, k, l))

    def test_keel_annihilates_good_monomials(self):
        # R * m reduces to a zero class for every good monomial m of
        # complementary-or-less degree.
        for n in (4, 5):
            rel = keel_relation(n, 1, 2, 3, n)
            for r in range(n - 3):
                for m in enumerate_stable_trees(n, r):
                    prod = mul(rel, RingElement.monomial(m))
                    assert is_zero_class(prod), (n, str(m))


class TestClassVector:
    def test_zero_iff_empty_for_basis_sizes(self):
        # Degree-0 and top degree are 1-dimensional; the unit is nonzero.
        assert not is_zero_class(RingElement.unit(5))

    def test_separates_inequivalent(self):
        assert not equal_mod_relations(D(5, "12|345"), D(5, "13|245"))

    def test_respects_relations(self):
        x = D(5, "12|345") + D(5, "125|34")
        y = D(5, "23|145") + D(5, "235|14")
        assert equal_mod_relations(x, y)
        assert class_vector(x) == class_vector(y)

    def test_pairing_route_matches_rref_route(self):
        # Relations vanish under both the pairing and the relation
        # reduction; adding a divisor makes them nonzero under both.
        for rel in relations_of_degree(5, 1):
            el = rel.element
            assert not class_vector(el) and not ref_class_form(el)
            off = el + D(5, "12|345")
            assert class_vector(off) and ref_class_form(off)

    def test_pieces_are_pairings(self):
        # each entry is the pairing with one complementary monomial
        from genus0.intersect import pair_kaufmann

        x = D(6, "12|3456").scale(Fraction(2, 3)) - M(6, "123|456", "12|3456")
        cols = {d: enumerate_stable_trees(6, 3 - d) for d in (1, 2)}
        for d, piece in class_vector(x):
            for j, v in piece:
                m = cols[d][j]
                assert v == sum(
                    c * pair_kaufmann(t, m) for t, c in x.component(d).terms.items()
                )


def keel_poincare(n):
    """Betti numbers of M̄₀,ₙ by Keel's recursion (Keel 1992).

    P_3 = 1 and P_{m+1} = (1 + q) P_m + (q / 2) sum_{j=2}^{m-2} C(m, j)
    P_{j+1} P_{m-j+1}; the sum is even, as terms j and m - j agree.
    """
    poly = {3: [1]}
    for m in range(3, n):
        nxt = [0] + poly[m]
        for i, c in enumerate(poly[m]):
            nxt[i] += c
        twice = [0] * len(nxt)
        for j in range(2, m - 1):
            for a, x in enumerate(poly[j + 1]):
                for b, y in enumerate(poly[m - j + 1]):
                    twice[a + b + 1] += comb(m, j) * x * y
        assert all(t % 2 == 0 for t in twice)
        poly[m + 1] = [c + t // 2 for c, t in zip(nxt, twice)]
    return poly[n]


class TestBetti:
    def test_keel_recursion(self):
        assert keel_poincare(5) == [1, 5, 1]
        assert keel_poincare(8) == [1, 99, 715, 715, 99, 1]
        assert keel_poincare(9) == [1, 219, 3292, 7723, 3292, 219, 1]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_keel(self, n):
        assert betti(n) == keel_poincare(n)

    def test_low_degrees_n8_match_keel(self):
        want = keel_poincare(8)
        assert [betti(8, 1), betti(8, 2)] == want[1:3]

    def test_frozen_vectors(self):
        assert betti(4) == [1, 1]
        assert betti(5) == [1, 5, 1]
        assert betti(6) == [1, 16, 16, 1]

    def test_single_degree(self):
        assert betti(5, 1) == 5
        assert betti(6, 2) == 16

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_rank_mod_matches_the_dense_sweep(self, n):
        # the relation rows, and the pairing rows in both orientations,
        # against a plain ModEliminator on the densified rows, with and
        # without the target the squeeze gives each
        def plain(rows, width, p):
            elim = linalg.ModEliminator(width, p)
            elim.feed_all(linalg.densify(rows, width))
            return elim.rank

        for d in range(n - 2):
            c = n - 3 - d
            ngood, ncomp = len(trees._families(n, d)), len(trees._families(n, c))
            relations = keelring._relation_rows(n, d)
            for p in PRIMES[:2]:
                relrank = plain(relations, ngood, p)
                pairrank = plain(_sp_rows(n, d), ncomp, p)
                assert plain(_sp_rows(n, c), ngood, p) == pairrank
                for rows, width, want, target in (
                    (relations, ngood, relrank, ngood - pairrank),
                    (_sp_rows(n, d), ncomp, pairrank, ngood - relrank),
                    (_sp_rows(n, c), ngood, pairrank, ngood - relrank),
                ):
                    assert rank_mod(rows, width, p) == want
                    assert rank_mod(rows, width, p, target) == min(target, want)

    def test_degree_two_relations_at_n7_stay_sparse(self, monkeypatch):
        # 434 rows of 2 to 8 entries in 490 columns, target 363: the
        # arrival bound of 8 and the fill bound of 490 - 363 keep every
        # row sparse, so no dense sweep is built
        def refuse(self, ncols, p):
            raise AssertionError(f"a dense sweep of {ncols} columns was built")

        monkeypatch.setattr(linalg.ModEliminator, "__init__", refuse)
        rows = keelring._relation_rows(7, 2)
        for p in PRIMES[:2]:
            assert rank_mod(rows, 490, p, target=363) == 363

    def test_open_squeeze_raises(self, monkeypatch):
        # Ranks that fall short on every prime leave the squeeze open;
        # that must raise, also under python -O, not report a number.
        ranks = []

        def short(rows, ncols, p, target=None):
            ranks.append(p)
            return 0

        monkeypatch.setattr(keelring.linalg, "rank_mod", short)
        with pytest.raises(RuntimeError, match="never squeeze shut"):
            betti(5, 1)
        assert len(set(ranks)) == 3

    @pytest.mark.slow
    def test_frozen_vector_n7(self):
        assert betti(7) == [1, 42, 127, 42, 1]

    def test_poincare_symmetry(self):
        for n in (4, 5, 6):
            b = betti(n)
            assert b == b[::-1]
            assert b[0] == b[-1] == 1


class TestPullback:
    def test_minimal_self_restriction_vanishes(self):
        # Both factors are triangles with no divisor classes at all.
        s = Split.parse("{12|34}")
        got = pullback_to_divisor(s, RingElement.divisor(s))
        assert got.is_zero_class()

    def test_self_restriction_five_labels(self):
        s = Split.parse("{12|345}")
        got = pullback_to_divisor(s, RingElement.divisor(s))
        want = tensor_of_factors(RingElement.unit(3), D(4, "12|34")).scale(-1)
        assert got == want

    def test_compatible_lands_in_one_factor(self):
        s = Split.parse("{12|345}")
        got = pullback_to_divisor(s, D(5, "34|125"))
        # Side {3,4} sits inside {3,4,5}; under labels 3,4,5 -> 1,2,3
        # with the marker as label 4 it becomes the split 12|34.
        assert got == tensor_of_factors(RingElement.unit(3), D(4, "12|34"))

    def test_crossing_restricts_to_zero(self):
        s = Split.parse("{12|345}")
        got = pullback_to_divisor(s, D(5, "13|245"))
        assert got.is_zero_class()

    def test_unit_pulls_back_to_unit(self):
        s = Split.parse("{12|345}")
        assert pullback_to_divisor(s, RingElement.unit(5)) == tensor_unit(3, 4)

    def projection_audit(self, n, sigma):
        # Integrating the restriction equals integrating against the
        # divisor upstairs, for every good monomial of the right degree.
        from genus0.intersect import integrate, pair_kaufmann

        geom = keelring.DivisorGeometry(sigma)
        n1 = geom.n1
        n2 = geom.n2
        for m in enumerate_stable_trees(n, n - 4):
            down = pullback_to_divisor(sigma, RingElement.monomial(m))
            total = Fraction(0)
            for (p1, p2), c in down.as_dict().items():
                i1 = integrate(RingElement.monomial(Tree(n1, p1)))
                i2 = integrate(RingElement.monomial(Tree(n2, p2)))
                total += c * i1 * i2
            upstairs = pair_kaufmann(Tree.make(n, (sigma.side,)), m)
            assert total == upstairs, (str(sigma), str(m))

    def test_projection_formula_n5(self):
        for t in enumerate_stable_trees(5, 1):
            self.projection_audit(5, Split(5, t.parts[0]))

    def test_projection_formula_n6(self, rng):
        divisors = enumerate_stable_trees(6, 1)
        for t in rng.sample(divisors, 8):
            self.projection_audit(6, Split(6, t.parts[0]))


class TestSerialization:
    def test_round_trip(self):
        x = D(5, "12|345").scale(Fraction(3, 7)) - M(5, "12|345", "125|34")
        again = RingElement.from_json(x.to_json())
        assert again == x

    def test_coefficient_format(self):
        x = D(4, "12|34").scale(Fraction(-2, 6))
        d = x.to_dict()
        assert d["terms"][0]["coeff"] == "-1/3"

    def test_integer_coefficients_stay_plain(self):
        d = D(4, "12|34").scale(4).to_dict()
        assert d["terms"][0]["coeff"] == "4"

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 4.7, "terms": []},
            {"n": True, "terms": []},
            {"n": "4", "terms": []},
            {"n": 4, "terms": [{"tree": {"n": 4, "edges": []}, "coeff": 0.1}]},
            {"n": 4, "terms": [{"tree": {"n": 4, "edges": []}, "coeff": False}]},
            {"n": 4, "terms": [{"tree": {"n": 4, "edges": []}, "coeff": "1/0"}]},
            {"n": 4, "terms": [{"tree": {"n": 4.2, "edges": []}, "coeff": 1}]},
            {"n": 5, "terms": [{"tree": {"n": 4, "edges": []}, "coeff": 1}]},
        ],
    )
    def test_inexact_fields_are_refused(self, obj):
        with pytest.raises(ValueError):
            RingElement.from_dict(obj)

    @pytest.mark.parametrize("c", [0.1, 2.0, True])
    def test_inexact_coefficients_are_refused(self, c):
        t = Tree.from_splits([Split.parse("{12|34}")])
        with pytest.raises(ValueError):
            RingElement.monomial(t, c)
        with pytest.raises(ValueError):
            RingElement.monomial(t).scale(c)
        assert RingElement.monomial(t, np.int64(2)) == RingElement.monomial(t).scale("2")

    @given(stable_trees(max_n=6))
    def test_monomial_round_trip(self, t):
        x = RingElement.monomial(t)
        assert RingElement.from_json(x.to_json()) == x


# ---------------------------------------------------------------------------
# The divisor-by-divisor product that the ring's kernel replaced, kept as a
# reference: every divisor meets every monomial, crossings are found by
# a-values, and coefficients are Fractions throughout.


def ref_divisor_times(side, m):
    """D_side * m: zero on a crossing, the union on a new compatible edge,
    and on a repeated edge the transplant rewrite keeping, at each
    endpoint, the two branches with the smallest labels."""
    n = m.n
    if side in m.parts:
        e = m.parts.index(side)
        out = {}
        for v in edge_vertices(m, e):
            flags = sorted(
                (f for f in flags_at(m, v) if not (f.kind == "edge" and f.ref == e)),
                key=lambda f: f.branch & -f.branch,
            )
            for k in range(1, len(flags) - 1):
                for grp in itertools.combinations(flags[2:], k):
                    t = transplant(m, e, grp)
                    out[t] = out.get(t, 0) - 1
        return out
    if any(a_value_masks(n, side, p) == 4 for p in m.parts):
        return {}
    return {Tree(n, tuple(sorted(m.parts + (side,)))): 1}


def ref_times_divisor(terms, side):
    out = {}
    for t, c in terms.items():
        for t2, c2 in ref_divisor_times(side, t).items():
            out[t2] = out.get(t2, 0) + c * c2
    return {t: c for t, c in out.items() if c}


def ref_mul(x, y):
    if sum(t.degree for t in y.terms) > sum(t.degree for t in x.terms):
        x, y = y, x
    out = {}
    for t2, c2 in y.terms.items():
        terms = dict(x.terms)
        for side in t2.parts:
            terms = ref_times_divisor(terms, side)
        for t, c in terms.items():
            out[t] = out.get(t, 0) + c2 * c
    return RingElement(x.n, out)


def ref_pullback(sigma, x):
    geo = keelring.DivisorGeometry(sigma)
    total = {}
    for mono, coeff in x.terms.items():
        acc = {(Tree.one_vertex(geo.n1), Tree.one_vertex(geo.n2)): Fraction(coeff)}
        for part in mono.parts:
            rules = geo.restrict_divisor(part)
            if rules is None:
                acc = {}
                break
            nxt = {}
            for (t1, t2), c in acc.items():
                for which, side, sign in rules:
                    for t, c2 in ref_divisor_times(side, (t1, t2)[which]).items():
                        key = (t, t2) if which == 0 else (t1, t)
                        nxt[key] = nxt.get(key, 0) + c * sign * c2
            acc = nxt
        for (t1, t2), c in acc.items():
            key = (t1.parts, t2.parts)
            total[key] = total.get(key, 0) + c
    return TensorElement.make(geo.n1, geo.n2, total)


DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)


@st.composite
def elements(draw, n):
    """A random element on n labels with mixed denominators."""
    monomials = draw(st.lists(stable_trees(min_n=n, max_n=n), max_size=5))
    return RingElement(
        n,
        {
            t: Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS)))
            for t in monomials
        },
    )


@st.composite
def element_pairs(draw, max_n=6):
    n = draw(st.integers(4, max_n))
    return draw(elements(n)), draw(elements(n))


class TestKernelAgainstReference:
    @given(element_pairs())
    @settings(max_examples=60, deadline=None)
    def test_mul_term_for_term(self, xy):
        x, y = xy
        assert mul(x, y).terms == ref_mul(x, y).terms

    @given(element_pairs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pullback_term_for_term(self, xy, data):
        x, _ = xy
        # x's own edges are drawn often, so that self-restrictions, whose
        # marker sums square, come up
        pool = [p for t in x.terms for p in t.parts] + list(stable_splits(x.n))
        sigma = Split(x.n, data.draw(st.sampled_from(pool)))
        assert pullback_to_divisor(sigma, x) == ref_pullback(sigma, x)

    def test_self_restrictions_n6(self):
        # restricting a monomial to one of its own edges squares a marker
        # divisor against the other edges' restrictions
        for r in (2, 3):
            for t in enumerate_stable_trees(6, r):
                x = RingElement.monomial(t, Fraction(1, 3))
                for side in t.parts:
                    sigma = Split(6, side)
                    assert pullback_to_divisor(sigma, x) == ref_pullback(sigma, x)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_kappa_pullbacks(self, n, monkeypatch):
        # each distinct edge is restricted once per call, however many
        # monomials share it, and the result is the uncached reference's
        calls = []
        restrict = keelring.DivisorGeometry.restrict_divisor

        def spy(self, t_side):
            calls.append(t_side)
            return restrict(self, t_side)

        for a in range(1, n - 2):
            x = kappa(n, a).element
            edges = {p for t in x.terms for p in t.parts}
            rest = "".join(map(str, range(4, n + 1)))
            for text in ("{12|3" + rest + "}", "{123|" + rest + "}"):
                sigma = Split.parse(text)
                want = ref_pullback(sigma, x)
                monkeypatch.setattr(keelring.DivisorGeometry, "restrict_divisor", spy)
                calls.clear()
                got = pullback_to_divisor(sigma, x)
                monkeypatch.undo()
                assert got == want
                assert len(calls) == len(set(calls)) and set(calls) <= edges

    def test_psi_square_n8(self):
        p = psi(8, 8).element
        got = mul(p, p)
        assert got.terms and got.terms == ref_mul(p, p).terms

    def test_psi_cube_n8(self):
        # n = 8 runs without the square memo; the cube squares edges of
        # degree-2 monomials against divisors of psi
        assert keelring.ring(8)._mul_cache is None
        p = psi(8, 8).element
        got = mul(mul(p, p), p)
        assert got.terms and got.terms == ref_mul(ref_mul(p, p), p).terms

    def test_reduce_three_divisor_words_n7(self):
        # the `genus0 mul` path: long words, divisor by divisor, memo on
        n = 7
        sides = stable_splits(n)
        rnd = random.Random(7)
        words = [tuple(rnd.choice(sides) for _ in range(3)) for _ in range(150)]
        s, t = Split.parse("{12|34567}").side, Split.parse("{123|4567}").side
        u = Split.parse("{13|24567}").side  # crosses t, not s
        words += [(s, s, s), (s, t, s), (t, s, s), (s, t, u), (u, s, t)]
        repeats = crossing_later = 0
        for word in words:
            want = {Tree.one_vertex(n): Fraction(1)}
            for side in word:
                want = ref_times_divisor(want, side)
            got = reduce_product(Split(n, side) for side in word)
            assert got.terms == want, word
            repeats += len(set(word)) < 3
            a, b, c = word
            crossing_later += (
                trees.compatible_masks(n, a, c) and not trees.compatible_masks(n, b, c)
            )
        assert keelring.ring(n)._mul_cache is not None
        assert repeats >= 5 and crossing_later >= 10

    def test_crossing_pairs_never_reach_mul_divisor_raw(self, monkeypatch):
        asked = []
        raw = keelring.Ring.mul_divisor_raw

        def spy(self, side, parts):
            asked.append((self.n, side, parts))
            return raw(self, side, parts)

        monkeypatch.setattr(keelring.Ring, "mul_divisor_raw", spy)
        p = psi(6, 6).element
        square = mul(p, p)
        pullback_to_divisor(Split.parse("{123|456}"), square)
        asked_before_cube = len(asked)
        mul(square, p)
        for n, side, parts in asked:
            assert all(trees.compatible_masks(n, side, q) for q in parts)
        # the cube pairs every monomial of the square with every divisor of
        # psi; most of those pairs cross, and only the rest were asked for
        cube_asked = len(asked) - asked_before_cube
        assert 0 < asked_before_cube and 0 < cube_asked
        assert cube_asked < len(square.terms) * len(p.terms) / 2


# ---------------------------------------------------------------------------
# The square rewrite as it was before one pass sorted the other edges to
# the two endpoints, kept as a reference: every endpoint runs the full
# maximal-cover filter, whatever its valency.


def ref_branches(sides, here):
    inside = [q for q in sides if q & here == q]
    kept = set()
    covered = 0
    for q in sorted(inside, key=int.bit_count, reverse=True):
        if not q & covered:
            kept.add(q)
            covered |= q
    branches = [q for q in inside if q in kept]
    rest = here & ~covered
    while rest:
        branches.append(rest & -rest)
        rest &= rest - 1
    return branches


def ref_mul_divisor_compute(n, side, parts):
    f = trees.full_mask(n)
    low, high = [], []
    for p in parts:
        if p == side:
            continue
        if p & side == side:
            high.append(f ^ p)
        else:
            low.append(p if p & side == p else f ^ p)
    out = []
    for here, inside in ((side, low), (f ^ side, high)):
        branches = ref_branches(inside, here)
        branches.sort(key=lambda q: q & -q)
        unions = [f ^ here]
        for q in branches[2:]:
            unions += [u | q for u in unions]
        out += [(u if u & 1 else f ^ u, -1) for u in unions[1:]]
    return tuple(out)


class TestSquareRewriteAgainstReference:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_every_edge_of_every_monomial(self, n):
        ring = keelring.Ring(n)
        pairs = 0
        for d in range(1, n - 2):
            for t in enumerate_stable_trees(n, d):
                for side in t.parts:
                    want = ref_mul_divisor_compute(n, side, t.parts)
                    assert ring._mul_divisor_compute(side, t.parts) == want
                    pairs += 1
        assert pairs == sum(
            d * len(enumerate_stable_trees(n, d)) for d in range(1, n - 2)
        )

    def test_seeded_samples_n8(self):
        n = 8
        ring = keelring.ring(n)
        rnd = random.Random(8)
        empty = 0
        for d in range(1, n - 2):
            pool = enumerate_stable_trees(n, d)
            for t in rnd.sample(pool, min(len(pool), 400)):
                side = rnd.choice(t.parts)
                got = ring._mul_divisor_compute(side, t.parts)
                assert got == ref_mul_divisor_compute(n, side, t.parts)
                empty += not got
        # trivalent endpoints on both sides emit nothing
        assert empty > 0


class TestVertexTableAgainstSquareRewrite:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_both_endpoints_of_every_edge(self, n):
        # the endpoints come from _tree_model here and from the cover step
        # in _mul_divisor_compute; the weight {s: 1} squares the edge s
        ring = keelring.Ring(n)
        f = trees.full_mask(n)
        edges = 0
        for d in range(1, n - 2):
            for t in enumerate_stable_trees(n, d):
                branches, parent = trees._tree_model(n, t.parts)
                for e, s in enumerate(t.parts):
                    got = []
                    for v in (parent[e], e + 1):
                        got += keelring._vertex_table(f, tuple(branches[v]), {s: 1})
                    want = ring._mul_divisor_compute(s, t.parts)
                    assert sorted(got) == sorted(want), (t, s)
                    edges += 1
        assert edges == sum(
            d * len(enumerate_stable_trees(n, d)) for d in range(1, n - 2)
        )


# ---------------------------------------------------------------------------
# The relation reduction that decided class equality before the pairing
# did, kept as a reference for n <= 6: each graded piece reduced modulo the
# span of the canonical relations, exactly over the rationals.


@functools.lru_cache(maxsize=None)
def ref_relation_span(n, d):
    index = {t.parts: i for i, t in enumerate(enumerate_stable_trees(n, d))}
    rref = FractionRREF()
    for rel in relations_of_degree(n, d):
        rref.add({index[t.parts]: c for t, c in rel.element.terms.items()})
    return index, rref


def ref_class_form(x):
    """Canonical form of the class of x: pieces reduced modulo relations."""
    out = []
    for d in x.degrees():
        index, rref = ref_relation_span(x.n, d)
        vec = {index[t.parts]: c for t, c in x.component(d).terms.items()}
        reduced = rref.reduce(vec)
        if reduced:
            out.append((d, tuple(sorted(reduced.items()))))
    return tuple(out)


def ref_tensor_is_zero(te):
    """Zero test on a tensor: products of the factors' reduced forms."""
    acc = {}
    for (p1, p2), c in te.terms:
        v1 = ref_class_form(RingElement.monomial(Tree(te.n1, p1)))
        v2 = ref_class_form(RingElement.monomial(Tree(te.n2, p2)))
        for d1, items1 in v1:
            for i1, a1 in items1:
                for d2, items2 in v2:
                    for i2, a2 in items2:
                        key = (d1, i1, d2, i2)
                        acc[key] = acc.get(key, 0) + c * a1 * a2
    return not any(acc.values())


relations_cached = functools.lru_cache(maxsize=None)(relations_of_degree)


@st.composite
def relation_sums(draw, n):
    """A random combination of canonical relations, mixed denominators."""
    rels = relations_cached(n, draw(st.integers(1, n - 3)))
    r = RingElement(n, {})
    for i in draw(st.lists(st.integers(0, len(rels) - 1), min_size=1, max_size=4)):
        c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS)))
        r = r + rels[i].element.scale(c)
    return r


@st.composite
def element_and_relations(draw, max_n=6):
    """A random element x and a relation sum r on the same labels."""
    n = draw(st.integers(4, max_n))
    return draw(elements(n)), draw(relation_sums(n))


@st.composite
def zero_tensors(draw, n1, n2):
    """Zero classes on a product: relation sums tensored with anything."""
    te = TensorElement.make(n1, n2, {})
    if n1 >= 4:
        te = te + tensor_of_factors(draw(relation_sums(n1)), draw(elements(n2)))
    if n2 >= 4:
        te = te + tensor_of_factors(draw(elements(n1)), draw(relation_sums(n2)))
    return te


class TestPairingAgainstRelationReduction:
    @given(element_and_relations())
    @settings(max_examples=60, deadline=None)
    def test_zero_test(self, xr):
        x, r = xr
        assert is_zero_class(r)
        for z in (x, r, x + r, x - r.scale(3)):
            assert is_zero_class(z) == (not ref_class_form(z))

    @given(element_and_relations(), element_pairs())
    @settings(max_examples=60, deadline=None)
    def test_equality(self, xr, yz):
        x, r = xr
        assert class_vector(x + r) == class_vector(x)
        for a, b in ((x, x + r), yz):
            same = class_vector(a) == class_vector(b)
            assert same == (ref_class_form(a) == ref_class_form(b))

    @given(element_pairs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tensor_zero_test_on_pullbacks(self, xy, data):
        x, _ = xy
        pool = [p for t in x.terms for p in t.parts] + list(stable_splits(x.n))
        sigma = Split(x.n, data.draw(st.sampled_from(pool)))
        pulled = pullback_to_divisor(sigma, x)
        zero = data.draw(zero_tensors(pulled.n1, pulled.n2))
        assert zero.is_zero_class() and ref_tensor_is_zero(zero)
        assert (pulled + zero - pulled).is_zero_class()
        for te in (pulled, pulled + zero, pulled - zero.scale(Fraction(1, 2))):
            assert te.is_zero_class() == ref_tensor_is_zero(te)


class TestCutImages:
    def test_against_divisor_geometry(self):
        # the live cut codes are built on masks; the pullback route's
        # relabelling, restrict_divisor, is the reference
        for n in range(4, 9):
            for sigma in stable_splits(n):
                geo = keelring.DivisorGeometry(Split(n, sigma))
                want = {}
                for p in stable_splits(n):
                    rules = geo.restrict_divisor(p) if p != sigma else None
                    if rules is not None:
                        ((which, side, coeff),) = rules
                        assert coeff == 1
                        want[p] = side | which << n
                assert trees._cut_images(n, sigma) == want, (n, sigma)


class TestSplittingAgainstPullbacks:
    @given(element_pairs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_verdicts(self, xy, data):
        # The law asked of x at one size of divisor is x's own pullback to
        # a divisor of that size, split into factor pairs, plus a zero
        # tensor and, sometimes, a drawn perturbation; other sizes ask for
        # drawn pairs.  Each divisor's verdict must be the pullback route's.
        x, _ = xy
        n = x.n
        pool = [p for t in x.terms for p in t.parts] + list(stable_splits(n))
        sigma = Split(n, data.draw(st.sampled_from(pool)))
        target = pullback_to_divisor(sigma, x)
        n1, n2 = target.n1, target.n2
        target = target + data.draw(zero_tensors(n1, n2))
        if data.draw(st.booleans()):
            target = target + tensor_of_factors(
                data.draw(elements(n1)), data.draw(elements(n2))
            )
        asked = {
            (n1, n2): [
                (RingElement.monomial(Tree(n1, p1), c), RingElement.monomial(Tree(n2, p2)))
                for (p1, p2), c in target.terms
            ]
        }

        def pairs(k1, k2):
            if (k1, k2) not in asked:
                asked[k1, k2] = [(data.draw(elements(k1)), data.draw(elements(k2)))]
            return asked[k1, k2]

        got = splitting_failures(x, pairs)
        want = []
        for side in stable_splits(n):
            k = side.bit_count()
            rhs = TensorElement.make(k + 1, n - k + 1, {})
            for y1, y2 in pairs(k + 1, n - k + 1):
                rhs = rhs + tensor_of_factors(y1, y2)
            if not (pullback_to_divisor(Split(n, side), x) - rhs).is_zero_class():
                want.append(side)
        assert got == want
        assert (sigma.side in got) == (not (target - pullback_to_divisor(sigma, x)).is_zero_class())
