"""Psi and kappa classes, forgetful pushforward, omega integrals."""

import functools
import hashlib
import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from genus0.intersect import integrate
from genus0.keelring import (
    DivisorGeometry,
    RingElement,
    _element,
    equal_mod_relations,
    is_zero_class,
    mul,
    pullback_to_divisor,
)
from genus0.taut import (
    LogReport,
    TautClass,
    _psi_prefix,
    check_logarithmic,
    kappa,
    omega_direct,
    psi,
    psi_monomial,
    pushforward_forget,
    z,
)
from genus0.trees import (
    Split,
    Tree,
    enumerate_stable_trees,
    full_mask,
    stable_splits,
)

from surgery import tensor_of_factors


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

    @pytest.mark.parametrize("n, i", [(5, 1.0), (5, True), (5.0, 1), (True, 1)])
    def test_non_integers_refused(self, n, i):
        psi(5, 1)  # a cached class must not answer for 1.0 or True
        with pytest.raises(ValueError):
            psi(n, i)


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
        assert psi_monomial(5, (10**4, 0, 0, 0, 0)) == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            psi_monomial(5, (1, 1))

    @pytest.mark.parametrize(
        "n, exps",
        [
            (5, [1.5, 0, 0.5, 0, 0]),  # no run of steps of 1 reaches 0
            (5, [2.0, 0, 0, 0, 0]),
            (5, [True, 0, 0, 0, 1]),
            (5.0, [2, 0, 0, 0, 0]),
            (2, [0, 0]),
        ],
    )
    def test_bad_input_refused(self, n, exps):
        with pytest.raises(ValueError):
            psi_monomial(n, exps)


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

    @pytest.mark.parametrize(
        "x, label",
        [
            (RingElement(3, {}), None),
            (RingElement(5, {}), 9),
            (RingElement(5, {}), 0),
            (RingElement.unit(3), None),
            (RingElement.divisor(Split.parse("{12|345}")), 9),
            (RingElement.divisor(Split.parse("{45|123}")), 5.0),
            (RingElement.divisor(Split.parse("{45|123}")), True),
        ],
    )
    def test_bad_label_count_or_label(self, x, label):
        # refused whether or not the element has terms
        with pytest.raises(ValueError):
            pushforward_forget(x, label)

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

    @pytest.mark.parametrize(
        "n, a, digest",
        [
            (6, 3, "ecdfe8f79c0928099832802bf9d7a03987026932ef928f0d8fd9f56f19ac0334"),
            (7, 2, "efe41c74a3dd1ff0a3e1f519add47c474b12422b32d24dd07e90d7cd547fc846"),
            (7, 3, "2d7d3aec01c1c2a453196799d7dda4a5fc79f91fad250661e776cd611bd5cac1"),
            (8, 2, "9c185ad396c6cb19e0b395b7c60b7d93d752164288998dccc5e4111573a30980"),
        ],
    )
    def test_representative_is_pinned(self, n, a, digest):
        # `genus0 kappa` prints this representative, term for term, so a
        # change to the ring's rewriting must keep it or say so here
        got = hashlib.sha256(kappa(n, a).element.to_json().encode()).hexdigest()
        assert got == digest

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

    @pytest.mark.parametrize("n, a", [(5, 1.0), (5, True), (5.0, 1), (5, "1")])
    def test_non_integer_degree_refused(self, n, a):
        kappa(5, 1)  # a cached class must not answer for 1.0 or True
        with pytest.raises(ValueError):
            kappa(n, a)

    @pytest.mark.parametrize("k", [-1, 1.0, True, "2"])
    def test_pow_refuses_negative_or_non_integer(self, k):
        with pytest.raises(ValueError):
            kappa(5, 1).pow(k)

    def test_pow_zero_is_the_unit(self):
        assert kappa(5, 1).pow(0) == RingElement.unit(5)


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

    def test_family_off_its_label_count_is_refused(self):
        with pytest.raises(ValueError, match=r"family\(4\)"):
            check_logarithmic(lambda n: kappa(n + 1, 1), 5)
        with pytest.raises(ValueError, match=r"family\(4\)"):
            check_logarithmic(lambda n: 3, 5)


def ref_check_logarithmic(family, nmax):
    """The splitting audit through explicit pullbacks and Künneth zero tests."""

    def element_of(n):
        got = family(n)
        return got.element if isinstance(got, TautClass) else got

    checked = 0
    failures = []
    for n in range(4, nmax + 1):
        for side in stable_splits(n):
            sigma = Split(n, side)
            geo = DivisorGeometry(sigma)
            lhs = pullback_to_divisor(sigma, element_of(n))
            rhs = tensor_of_factors(
                element_of(geo.n1), RingElement.unit(geo.n2)
            ) + tensor_of_factors(RingElement.unit(geo.n1), element_of(geo.n2))
            checked += 1
            if not (lhs - rhs).is_zero_class():
                failures.append((n, str(sigma)))
    return LogReport(nmax, checked, tuple(failures))


def kappa_0_scaled_at_3(n):
    # kappa_0 is n - 2 times the unit; moving its n = 3 member breaks the
    # law exactly on the divisors with a two-label side
    x = kappa(n, 0).element
    return x.scale(5) if n == 3 else x


class TestLogarithmicAgainstPullbacks:
    """check_logarithmic agrees with the pullback route, failure by failure."""

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_kappa(self, a):
        family = lambda n: kappa(n, a)
        for nmax in (3, 6, 7):
            rep = check_logarithmic(family, nmax)
            assert rep.passed
            assert rep == ref_check_logarithmic(family, nmax)

    @pytest.mark.parametrize("nmax, count", [(5, 4), (7, 60)])
    def test_psi(self, nmax, count):
        family = lambda n: psi(n, 1)
        rep = check_logarithmic(family, nmax)
        assert len(rep.failures) == count
        assert rep == ref_check_logarithmic(family, nmax)

    def test_nonzero_at_three_labels(self):
        rep = check_logarithmic(kappa_0_scaled_at_3, 6)
        assert rep == ref_check_logarithmic(kappa_0_scaled_at_3, 6)
        assert rep.failures and all(
            3 in (geo.n1, geo.n2)
            for geo in (DivisorGeometry(Split.parse(name)) for _, name in rep.failures)
        )
        # a family living only on three labels fails on every divisor that
        # has a two-label side, though no class above n = 3 is nonzero
        only_three = lambda n: RingElement.unit(n) if n == 3 else RingElement(n, {})
        rep = check_logarithmic(only_three, 5)
        assert rep == ref_check_logarithmic(only_three, 5)
        assert rep.checked == 13 and len(rep.failures) == 3 + 10

    def test_inhomogeneous(self):
        family = lambda n: kappa(n, 1).element + kappa(n, 2).element
        rep = check_logarithmic(family, 7)
        assert rep.passed
        assert rep == ref_check_logarithmic(family, 7)
        mixed = lambda n: kappa(n, 1).element + psi(n, 2).element
        rep = check_logarithmic(mixed, 6)
        assert rep.failures
        assert rep == ref_check_logarithmic(mixed, 6)


class TestIntegrals:
    def test_z_values(self):
        assert z(3) == 1
        assert z(4) == 1
        assert z(5) == 1
        assert z(6) == 1

    def test_z_by_the_ring(self):
        # the closed form of z against the ring route it replaced
        for n in range(4, 8):
            assert integrate(kappa(n, n - 3).element) == 1

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


# ---------------------------------------------------------------------------
# The psi chain and the pushforward as they were before they ran on
# integer numerators, kept as references: one RingElement per stage of
# the chain, and one stabilized Tree per term of the pushforward.


@functools.lru_cache(maxsize=None)
def ref_psi_prefix(n, exps):
    last = max((idx for idx, e in enumerate(exps) if e), default=None)
    if last is None:
        return RingElement.unit(n)
    prev = exps[:last] + (exps[last] - 1,) + exps[last + 1 :]
    return mul(ref_psi_prefix(n, prev), psi(n, last + 1).element)


def ref_forget(tree, label):
    n = tree.n
    low = (1 << (label - 1)) - 1
    f = full_mask(n - 1)
    kept = set()
    for p in tree.parts:
        q = (p & low) | ((p >> 1) & ~low)
        k = q.bit_count()
        if k < 2 or (n - 1) - k < 2:
            continue
        kept.add(q if q & 1 else f ^ q)
    return Tree(n - 1, tuple(sorted(kept))), len(tree.parts) - len(kept)


def ref_pushforward(x, label):
    out = {}
    for tree, coeff in x.terms.items():
        smaller, contracted = ref_forget(tree, label)
        if contracted != 1:
            continue
        now = out.get(smaller, 0) + coeff
        if now:
            out[smaller] = now
        else:
            out.pop(smaller, None)
    return RingElement(x.n - 1, out)


def chain(n, exps):
    return _element(n, *_psi_prefix(n, exps))


class TestIntegerChainAgainstReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_exponent_vector(self, n):
        count = 0
        for exps in itertools.product(range(n - 2), repeat=n):
            if sum(exps) <= n - 3:
                assert chain(n, exps).terms == ref_psi_prefix(n, exps).terms, exps
                count += 1
        assert count == comb(2 * n - 3, n)

    @pytest.mark.parametrize("n", [7, 8])
    def test_powers_of_the_last_psi(self, n):
        for k in range(1, n - 2):
            exps = (0,) * (n - 1) + (k,)
            got = chain(n, exps)
            assert got.terms and got.terms == ref_psi_prefix(n, exps).terms, k

    def test_kappa_powers(self):
        for n, a in ((5, 1), (6, 1), (7, 1), (7, 2)):
            want = RingElement.unit(n)
            for k in range(1, (n - 3) // a + 1):
                want = mul(want, kappa(n, a).element)
                assert kappa(n, a).pow(k).terms == want.terms, (n, a, k)

    def test_kappa_is_the_pushforward_of_the_chain(self):
        for n in (4, 5, 6, 7):
            for a in range(n - 2):
                power = ref_psi_prefix(n + 1, (0,) * n + (a + 1,))
                assert kappa(n, a).element == ref_pushforward(power, n + 1)


class TestPushforwardAgainstReference:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_every_tree_and_label(self, n):
        for d in range(n - 2):
            for t in enumerate_stable_trees(n, d):
                x = RingElement.monomial(t, Fraction(3, 2))
                for label in range(1, n + 1):
                    assert pushforward_forget(x, label) == ref_pushforward(x, label)

    def test_cancellation(self):
        # {45|123} and {35|124} both contract to the point on 4 labels
        x = RingElement.divisor(Split.parse("{45|123}")) - RingElement.divisor(
            Split.parse("{35|124}")
        )
        assert pushforward_forget(x).terms == {}
        assert ref_pushforward(x, 5).terms == {}
