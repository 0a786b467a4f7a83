"""Psi and kappa classes, forgetful pushforward, omega integrals."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from genus0.intersect import integrate
from genus0.keelring import (
    DivisorGeometry,
    RingElement,
    equal_mod_relations,
    is_zero_class,
    mul,
)
from genus0.taut import (
    check_logarithmic,
    kappa,
    omega_direct,
    psi,
    psi_monomial,
    pushforward_forget,
    z,
)
from genus0.trees import Split, Tree, enumerate_stable_trees


def boundary_sum(n, coeff):
    return RingElement(
        n, {t: Fraction(coeff) for t in enumerate_stable_trees(n, 1)}
    )


class TestPsi:
    def test_three_labels_vanish(self):
        assert psi(3, 1).element.terms == {}
        assert psi(3, 3).element.terms == {}

    def test_four_labels(self):
        want = boundary_sum(4, Fraction(1, 3))
        assert psi(4, 1).element == want
        # With two labels on each side every weight agrees, so the four
        # psi classes coincide on the nose.
        assert psi(4, 2).element == want
        # four labels make degree 1 the top degree, so this integrates
        # to the coefficient sum:
        assert integrate(psi(4, 1).element) == 1

    def test_square_integral(self):
        assert integrate(psi(5, 1).pow(2)) == 1

    def test_weights_by_side_size(self):
        el = psi(5, 1).element
        for tree, c in el.terms.items():
            side = tree.parts[0]
            s = side.bit_count() if side & 1 else 5 - side.bit_count()
            assert c == Fraction((5 - s) * (4 - s), 12)

    def test_homogeneous_degree_one(self):
        assert psi(6, 4).element.degrees() == (1,)

    def test_stabilizer_invariance(self):
        el = psi(5, 1).element
        for perm in itertools.permutations(range(2, 6)):
            full = (1,) + perm
            assert el.relabel(full) == el

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            psi(5, 6)


class TestPsiMonomials:
    # The closed form (n-3)!/prod(a_i!) is external to the ring engine,
    # which makes it a sharp end-to-end oracle.

    def closed_form(self, n, exps):
        out = Fraction(factorial(n - 3))
        for e in exps:
            out /= factorial(e)
        return out

    def exhaustive(self, n):
        for exps in itertools.product(range(n - 2), repeat=n):
            if sum(exps) != n - 3:
                continue
            assert psi_monomial(n, exps) == self.closed_form(n, exps), exps

    def test_n5(self):
        self.exhaustive(5)

    def test_n6(self):
        self.exhaustive(6)

    @pytest.mark.slow
    def test_n7(self):
        self.exhaustive(7)

    def test_low_degree_is_zero(self):
        assert psi_monomial(5, (1, 0, 0, 0, 0)) == 0

    def test_too_high_degree_is_zero(self):
        assert psi_monomial(5, (3, 0, 0, 0, 0)) == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            psi_monomial(5, (1, 1))


class TestPushforward:
    def test_point_to_point(self):
        x = RingElement.divisor(Split.parse("{12|34}"))
        got = pushforward_forget(x)
        assert got == RingElement.unit(3)

    def test_unit_dies(self):
        assert pushforward_forget(RingElement.unit(5)).terms == {}

    def test_surviving_split_dies(self):
        # Forgetting 5 from {12|345} leaves the stable split {12|34}:
        # nothing contracts, the fibers are curves, the class vanishes.
        x = RingElement.divisor(Split.parse("{12|345}"))
        assert pushforward_forget(x).terms == {}

    def test_contracting_split_survives(self):
        x = RingElement.divisor(Split.parse("{45|123}"))
        assert pushforward_forget(x) == RingElement.unit(4)

    def test_inner_label(self):
        x = RingElement.divisor(Split.parse("{12|34}"))
        assert pushforward_forget(x, label=2) == RingElement.unit(3)

    def test_projection_formula(self, rng):
        for n in (5, 6):
            tops = enumerate_stable_trees(n, n - 3)
            picks = rng.sample(tops, 6)
            x = RingElement(n, {t: Fraction(rng.randint(-4, 4)) for t in picks})
            assert integrate(pushforward_forget(x)) == integrate(x)

    def test_linear(self):
        a = RingElement.divisor(Split.parse("{45|123}"))
        b = RingElement.divisor(Split.parse("{35|124}"))
        lhs = pushforward_forget(a + b.scale(3))
        rhs = pushforward_forget(a) + pushforward_forget(b).scale(3)
        assert lhs == rhs


class TestKappa:
    def test_degree_zero_counts_sections(self):
        assert kappa(3, 0).element == RingElement.unit(3)
        assert kappa(4, 0).element == RingElement.unit(4).scale(2)
        assert kappa(6, 0).element == RingElement.unit(6).scale(4)

    def test_above_dimension_vanishes(self):
        assert kappa(4, 2).element.terms == {}
        assert kappa(5, 3).element.terms == {}

    def test_four_labels_class(self):
        # kappa_1 equals the sum of psi classes minus the full boundary;
        # on four labels that is one third of the boundary sum.
        k = kappa(4, 1).element
        assert integrate(k) == 1
        assert equal_mod_relations(k, boundary_sum(4, Fraction(1, 3)))

    def test_five_labels_class(self):
        # Same bookkeeping on five labels: each split picks up
        # 2*(1/2) + 3*(1/6) from the psi side and -1 from the boundary.
        k = kappa(5, 1).element
        assert equal_mod_relations(k, boundary_sum(5, Fraction(1, 2)))

    def test_homogeneous(self):
        assert kappa(6, 2).element.degrees() == (2,)

    def test_symmetric_class_n5(self):
        k = kappa(5, 1).element
        for a, b in itertools.combinations(range(1, 6), 2):
            perm = list(range(1, 6))
            perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
            assert is_zero_class(k.relabel(tuple(perm)) - k)

    def test_symmetric_class_n6(self, rng):
        k = kappa(6, 2).element
        for _ in range(5):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            assert is_zero_class(k.relabel(tuple(perm)) - k)

    def test_cached_identity(self):
        assert kappa(5, 1) is kappa(5, 1)


class TestLogarithmic:
    def test_kappa_one_passes(self):
        rep = check_logarithmic(lambda n: kappa(n, 1), 6)
        assert rep.passed
        assert rep.checked == 3 + 10 + 25

    def test_kappa_two_passes(self):
        rep = check_logarithmic(lambda n: kappa(n, 2), 6)
        assert rep.passed

    def test_psi_fails_and_names_a_divisor(self):
        rep = check_logarithmic(lambda n: psi(n, 1), 5)
        assert not rep.passed
        assert (5, "{12|345}") in rep.failures

    def test_psi_fails_past_seven_labels(self):
        # a divisor with a two-label side gives a factor with 7 labels
        rep = check_logarithmic(lambda n: psi(n, 1), 8)
        assert rep.checked == 3 + 10 + 25 + 56 + 119
        factors = [
            DivisorGeometry(Split.parse(name)) for n, name in rep.failures if n == 8
        ]
        assert any(7 in (geo.n1, geo.n2) for geo in factors)

    def test_report_dict(self):
        rep = check_logarithmic(lambda n: kappa(n, 1), 5)
        d = rep.to_dict()
        assert d["passed"] and d["failures"] == [] and d["checked"] == 13

    @pytest.mark.slow
    def test_kappa_three_passes_through_seven(self):
        rep = check_logarithmic(lambda n: kappa(n, 3), 7)
        assert rep.passed
        assert rep.checked == 3 + 10 + 25 + 56


class TestIntegrals:
    def test_z_values(self):
        assert z(3) == 1
        assert z(4) == 1
        assert z(5) == 1
        assert z(6) == 1

    def test_omega_direct_stride(self):
        assert omega_direct(6, 2) == 0
        assert omega_direct(7, 3) == 0
        assert omega_direct(3, 1) == 1

    def test_omega_direct_frozen(self):
        assert omega_direct(4, 1) == 1
        assert omega_direct(5, 1) == 5
        assert omega_direct(6, 1) == 61
        assert omega_direct(5, 2) == 1

    @pytest.mark.slow
    def test_omega_direct_frozen_seven(self):
        assert omega_direct(7, 1) == 1379
        assert omega_direct(7, 2) == 19

    def test_serialization_kind(self):
        d = kappa(4, 1).to_dict()
        assert d["kind"] == "kappa(1)"
        assert d["n"] == 4
