"""Ring arithmetic: products, rewriting, relations, Betti numbers."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import keelring, trees
from genus0.keelring import (
    RingElement,
    betti,
    class_vector,
    d_sigma_squared_avg,
    equal_mod_relations,
    is_zero_class,
    keel_relation,
    mul,
    mul_divisor,
    pullback_to_divisor,
    reduce_product,
    relation,
    relations_of_degree,
    tensor_of_factors,
    tensor_unit,
)
from genus0.trees import Split, Tree, enumerate_stable_trees

from conftest import stable_trees


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
    ends = tree.edge_vertices(e)
    flags = [
        [f for f in tree.flags_at(v) if not (f.kind == "edge" and f.ref == e)]
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
                            trees.transplant(tree, e, grp)
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


class TestRelations:
    def test_four_labels(self):
        t = Tree.one_vertex(4)
        got = relation(t, 0, tuple(t.flags_at(0)))
        assert got.element == D(4, "12|34") - D(4, "14|23")

    def test_five_labels(self):
        t = Tree.one_vertex(5)
        f = {fl.ref: fl for fl in t.flags_at(0)}
        got = relation(t, 0, (f[1], f[2], f[3], f[4]))
        want = (
            D(5, "12|345")
            + D(5, "125|34")
            - D(5, "23|145")
            - D(5, "235|14")
        )
        assert got.element == want

    def test_all_reduce_to_zero_class(self):
        for n in (4, 5, 6):
            for r in range(n - 3):
                for rel in relations_of_degree(n, r + 1):
                    assert is_zero_class(rel.element), (n, str(rel.tree))

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
        # For small n both zero tests are available; they must agree.
        from genus0 import intersect

        for rel in relations_of_degree(5, 1):
            el = rel.element
            byrref = not class_vector(el)
            bypair = all(
                intersect.pair_element(el, m) == 0
                for m in enumerate_stable_trees(5, 1)
            )
            assert byrref and bypair


class TestBetti:
    def test_frozen_vectors(self):
        assert betti(4) == [1, 1]
        assert betti(5) == [1, 5, 1]
        assert betti(6) == [1, 16, 16, 1]

    def test_single_degree(self):
        assert betti(5, 1) == 5
        assert betti(6, 2) == 16

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

    @given(stable_trees(max_n=6))
    def test_monomial_round_trip(self, t):
        x = RingElement.monomial(t)
        assert RingElement.from_json(x.to_json()) == x
