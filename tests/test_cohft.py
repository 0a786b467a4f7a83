"""Field-theory layer: associativity, reconstruction, tensors, recursions."""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import cohft, keelring, linalg
from genus0.cohft import (
    ACoefficients,
    Metric,
    Potential,
    RankOneTheory,
    a_coefficients,
    extract_p1xp1_numbers,
    identity_potential,
    matone_check,
    omega_recursion,
    p1_potential,
    p1xp1_numbers,
    potential_from_coordinates,
    reconstruct_classes,
    strata_integrals,
    tensor_metric,
    tensor_potential,
    wdvv_check,
    wp_volumes,
)
from genus0.intersect import _invariant_block, integrate, pair_kaufmann
from genus0.linalg import FractionRREF
from genus0.keelring import (
    RingElement,
    class_vector,
    is_zero_class,
    keel_relation,
    mul,
    pullback_to_divisor,
)
from genus0.taut import omega_direct, z
from genus0.trees import (
    Split,
    Tree,
    _tree_model,
    enumerate_stable_trees,
    iter_all_trees,
    orbit_sizes,
    stable_splits,
)

from surgery import (
    orbit,
    p1xp1_potential,
    solve_fraction,
    tensor_of_factors,
    tensor_reference,
)


def odd_pair_metric():
    # one even vector paired with itself, two odd vectors paired with
    # each other: the smallest base with both parities
    gram = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    return Metric(gram, (0, 1, 1))


# an orthogonal change of basis on the standard rank-2 metric
ROT = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))


def nilpotent_cubic():
    # the algebra of a fat point u^3 = 0 with trace pairing on u^2
    met = Metric(((0, 0, 1), (0, 1, 0), (1, 0, 0)), (0, 0, 0))
    return Potential.build(met, {(0, 0, 2): 1, (0, 1, 1): 1}, 8)


def assignment_class(classes, vec):
    """Class with the basis vector vec[i] inserted at label i + 1.

    Reconstruction stores one class per sorted multi-index; an arbitrary
    insertion order is its relabelling along the sorting permutation.
    """
    order = sorted(range(len(vec)), key=lambda i: vec[i])
    srt = tuple(vec[i] for i in order)
    perm = tuple(i + 1 for i in order)
    return classes[srt].relabel(perm)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: Metric(((x,),), (0,)),
        lambda x: Potential.build(Metric.standard(1), {(0, 0, 0): x}, 3),
        lambda x: potential_from_coordinates([1, x]),
        lambda x: RankOneTheory.scaling(x, 4),
        lambda x: RankOneTheory.from_kappa([x], 4),
        lambda x: matone_check(3, volumes=[1, x, 2]),
    ],
    ids=["metric", "build", "coordinates", "scaling", "from_kappa", "volumes"],
)
def test_constructors_take_exact_rationals_only(build):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not one tenth
    for x in (0.1, 0.5, True):
        with pytest.raises(ValueError):
            build(x)
    assert build(Fraction(1, 2)) == build("1/2")
    assert build(np.int64(3)) == build(3)


@pytest.mark.parametrize(
    "use",
    [
        lambda i: Potential.build(Metric.standard(2), {(i, 0, 0): 1}, 3),
        lambda i: Metric(((1, 0), (0, 1)), (0, i)),
        lambda i: p1_potential(4).y((i, 1, 1)),
        lambda i: strata_integrals(p1_potential(4), 4, (0, 1, 1, i)),
    ],
    ids=["build", "parities", "y", "strata_integrals"],
)
def test_indices_and_parities_are_integers_only(use):
    # int(0.9) is 0 and int(True) is 1: either would stand for another index
    for x in (0.9, 1.0, True, np.float64(1)):
        with pytest.raises(ValueError):
            use(x)
    assert use(np.int64(1)) == use(1)


class TestMetric:
    def test_standard(self):
        m = Metric.standard(3)
        assert m.rank == 3
        assert m.inverse == m.gram
        assert m.casimir == ((0, 0, 1), (1, 1, 1), (2, 2, 1))

    def test_hyperbolic(self):
        m = Metric.hyperbolic()
        assert m.casimir == ((0, 1, 1), (1, 0, 1))

    def test_inverse_dense(self):
        m = Metric(((2, 1), (1, 1)), (0, 0))
        assert m.inverse == ((1, -1), (-1, 2))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Metric(((1, 1), (1, 1)), (0, 0))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            Metric(((1, 0),), (0, 0))
        with pytest.raises(ValueError):
            Metric(((1,),), (0, 0))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Metric(((0, 1), (2, 0)), (0, 0))

    def test_cross_parity_entry_rejected(self):
        with pytest.raises(ValueError):
            Metric(((0, 1), (1, 0)), (0, 1))

    def test_odd_block_allowed(self):
        assert odd_pair_metric().rank == 3

    def test_dict_roundtrip(self):
        m = Metric(((Fraction(1, 2), 0), (0, 3)), (0, 0))
        assert Metric.from_dict(m.to_dict()) == m


class TestPotential:
    def test_koszul_sign_in_lookup(self):
        phi = Potential.build(odd_pair_metric(), {(0, 1, 2): 5}, 6)
        assert phi.y((0, 1, 2)) == 5
        # swapping the two odd insertions flips the sign
        assert phi.y((0, 2, 1)) == -5
        # moving the even insertion is free
        assert phi.y((1, 0, 2)) == 5

    def test_repeated_odd_vanishes(self):
        phi = Potential.build(odd_pair_metric(), {(0, 1, 2): 5}, 6)
        assert phi.y((1, 1, 0)) == 0
        with pytest.raises(ValueError):
            Potential.build(odd_pair_metric(), {(0, 1, 1): 1}, 6)

    def test_koszul_duplicates_merge(self):
        phi = Potential.build(odd_pair_metric(), {(0, 1, 2): 5, (0, 2, 1): -5}, 6)
        assert len(phi.terms) == 1
        with pytest.raises(ValueError):
            Potential.build(odd_pair_metric(), {(0, 1, 2): 5, (0, 2, 1): 5}, 6)

    def test_build_validation(self):
        met = Metric.standard(1)
        with pytest.raises(ValueError):
            Potential.build(met, {}, 2)
        with pytest.raises(ValueError):
            Potential.build(met, {(0, 0): 1}, 6)
        with pytest.raises(ValueError):
            Potential.build(met, {(0,) * 7: 1}, 6)
        with pytest.raises(ValueError):
            Potential.build(met, {(0, 0, 1): 1}, 6)

    def test_lookup_beyond_order(self):
        phi = p1_potential(6)
        with pytest.raises(ValueError):
            phi.y((1,) * 7)

    def test_zero_terms_dropped(self):
        phi = Potential.build(Metric.standard(1), {(0, 0, 0): 0}, 5)
        assert phi.terms == ()

    def test_dict_roundtrip(self):
        phi = p1_potential(6)
        back = Potential.from_dict(phi.to_dict())
        assert back == phi

    def test_from_coordinates(self):
        phi = potential_from_coordinates([Fraction(1, 3), 7])
        assert phi.order == 4
        assert phi.y((0, 0, 0)) == Fraction(1, 3)
        assert phi.y((0, 0, 0, 0)) == 7
        with pytest.raises(ValueError):
            potential_from_coordinates([1], order=6)


class TestWdvv:
    def test_projective_line_passes(self):
        rep = wdvv_check(p1_potential(10))
        assert rep.passed
        assert rep.checked == 448

    def test_order_slice(self):
        rep = wdvv_check(p1_potential(10), order=4)
        assert rep.passed and rep.checked == 16

    def test_both_spellings_share_one_report(self):
        # tensor_potential checks the square of the line with an explicit
        # order and with the default one: both must hit one cached report
        phi = p1_potential(7)
        assert wdvv_check(phi) is wdvv_check(phi, phi.order)

    def test_located_failure_rank_two(self):
        # an xz^2 term breaks associativity in the first quadruple that
        # mixes the two insertions
        base = dict(p1_potential(8).terms)
        base[(0, 1, 1)] = Fraction(1)
        bad = Potential.build(Metric.hyperbolic(), base, 8)
        rep = wdvv_check(bad)
        assert not rep.passed
        quad, nu, lhs, rhs = rep.failure
        assert quad == (0, 0, 1, 1) and nu == ()
        assert lhs != rhs

    def test_fat_point_passes(self):
        assert wdvv_check(nilpotent_cubic()).passed

    def test_fat_point_twisted_fails(self):
        coeffs = dict(nilpotent_cubic().terms)
        coeffs[(1, 1, 2)] = Fraction(1)
        met = nilpotent_cubic().metric
        rep = wdvv_check(Potential.build(met, coeffs, 8))
        assert not rep.passed
        assert rep.failure[0] == (1, 1, 2, 2)

    def test_report_dict(self):
        good = wdvv_check(p1_potential(6)).to_dict()
        assert good["passed"] and good["failure"] is None
        coeffs = dict(nilpotent_cubic().terms)
        coeffs[(1, 1, 2)] = Fraction(1)
        bad = wdvv_check(Potential.build(nilpotent_cubic().metric, coeffs, 8))
        d = bad.to_dict()
        assert d["failure"]["quadruple"] == [1, 1, 2, 2]

    def test_odd_base_rejected(self):
        phi = Potential.build(odd_pair_metric(), {(0, 1, 2): 5}, 6)
        with pytest.raises(ValueError):
            wdvv_check(phi)

    def test_failures_are_keel_relations(self):
        # a constraint is Keel's four-point relation D(12|34) = D(13|24)
        # pulled back to n labels: at the failing index, each side sums
        # the one-edge strata that separate one pair of labels from the
        # other, and their difference pairs c_n with keel_relation
        rnd = random.Random(1994)
        failing, spectators = 0, set()
        for trial in range(30):
            # associative below `low` insertions, random from there on, so
            # that the first failure has 0, 1 or 2 spectators
            order = rnd.choice((5, 6))
            low = rnd.randrange(3, order)
            if trial % 3 == 0:
                met, coeffs = Metric.hyperbolic(), dict(p1_potential(order).terms)
            elif trial % 3 == 1:
                # a sum of two rank-one theories in the basis rotated by
                # ROT: every value is mixed, whereas the line's unit 0
                # kills each of its values that has a 0 among four or
                # more insertions, and with it every multinomial weight
                f = [rnd.randint(-3, 3) for _ in range(low - 3)]
                g = [rnd.randint(-3, 3) for _ in range(low - 3)]
                met, coeffs = Metric.standard(2), {}
                for k in range(3, low):
                    for m in itertools.combinations_with_replacement(range(2), k):
                        coeffs[m] = f[k - 3] * prod(ROT[0][i] for i in m)
                        coeffs[m] += g[k - 3] * prod(ROT[1][i] for i in m)
            else:
                met, coeffs, low = Metric(((2, 1), (1, 3)), (0, 0)), {}, 3
            for k in range(low, order + 1):
                for m in itertools.combinations_with_replacement(range(2), k):
                    coeffs[m] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
            phi = Potential.build(met, coeffs, order)
            rep = wdvv_check(phi)
            if rep.passed:
                continue
            failing += 1
            quad, nu, lhs, rhs = rep.failure
            idx = quad + nu
            n = len(idx)
            brute = brute_strata(phi)
            assert lhs == sum(brute(t, idx) for t in separating(n, (1, 2), (3, 4)))
            assert rhs == sum(brute(t, idx) for t in separating(n, (1, 3), (2, 4)))
            rel = keel_relation(n, 1, 2, 4, 3)
            assert lhs - rhs == sum(c * brute(t, idx) for t, c in rel.terms.items())
            spectators.add(nu)
        # a repeated spectator is where the multinomial weights matter
        assert failing >= 20 and {len(nu) for nu in spectators} == {0, 1, 2}
        assert (0, 0) in spectators

    def test_check_stores_no_root_values(self):
        # the check contracts leaf entries of `_vertex` only, so the branch
        # memo it leaves behind holds no root value
        phi = direct_sum(
            [Fraction(2, 9), 5, Fraction(-4, 11), 3],
            [1, Fraction(7, 13), -2, Fraction(1, 6)],
            6,
        )
        assert wdvv_check(phi).passed
        assert phi._branches
        assert not [key for key in phi._branches if key[0]]

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_any_one_variable_series_passes(self, coords):
        # with a single even variable both sides of every constraint are
        # the same contraction, so associativity holds identically
        phi = potential_from_coordinates(coords)
        assert wdvv_check(phi).passed


def separating(n, pair, other):
    """The one-edge trees on n labels that split pair from other."""
    pm, qm = (sum(1 << (k - 1) for k in p) for p in (pair, other))
    full = (1 << n) - 1
    return [
        Tree(n, (s,))
        for s in stable_splits(n)
        if (s & pm == pm and (full ^ s) & qm == qm)
        or (s & qm == qm and (full ^ s) & pm == pm)
    ]


def one_edge_report(phi, order, brute):
    """`wdvv_check(phi, order).to_dict()`, rebuilt from brute-force strata.

    Each constraint compares the sums of ``brute`` over the one-edge
    trees separating {1, 2} from {3, 4} and {1, 3} from {2, 4}, with the
    quadruple at labels 1..4 and the spectators after them; the first
    failure in `product` order ends the check.
    """
    rank = phi.metric.rank
    checked = 0
    for size in range(order - 3):
        n = 4 + size
        left, right = separating(n, (1, 2), (3, 4)), separating(n, (1, 3), (2, 4))
        for nu in itertools.combinations_with_replacement(range(rank), size):
            for quad in itertools.product(range(rank), repeat=4):
                lhs = sum(brute(t, quad + nu) for t in left)
                rhs = sum(brute(t, quad + nu) for t in right)
                checked += 1
                if lhs != rhs:
                    failure = {
                        "quadruple": list(quad),
                        "spectators": list(nu),
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }
                    return {
                        "order": order,
                        "checked": checked,
                        "passed": False,
                        "failure": failure,
                    }
    return {"order": order, "checked": checked, "passed": True, "failure": None}


def _diag_sum(k):
    return {(0,) * k: Fraction(k - 5, k), (1,) * k: Fraction(2, k + 1)}


def _block_sum(k):
    out = {(0,) * k: Fraction(3, k - 1), (2,) * k: Fraction(k - 7, 2)}
    if k == 3:
        out[(1, 1, 2)] = Fraction(1, 3)
    return out


_DIAG = ((3, 0), (0, 1))
_BLOCK = ((2, 0, 0), (0, 0, Fraction(1, 3)), (0, Fraction(1, 3), 0))
_DENSE = ((1, Fraction(1, 3)), (Fraction(1, 3), 2))
# (gram, associative values, count of insertions from which values are
# random): diag(3, 1) and a rank-3 gram with a 1/3 entry carry sums of
# theories that do not mix their blocks, associative until the random
# values start; the dense gram's random values start at once
DENOMINATOR_CASES = [
    *((_DIAG, _diag_sum, low) for low in (3, 4, 5, 7)),
    *((_BLOCK, _block_sum, low) for low in (3, 4, 5, 7)),
    (_DENSE, None, 3),
]


def denominator_potential(case, order=6):
    """Seeded potential of DENOMINATOR_CASES[case], truncated at order."""
    gram, base, low = DENOMINATOR_CASES[case]
    met = Metric(gram, (0,) * len(gram))
    rnd = random.Random(2024 + case)
    coeffs = {}
    for k in range(3, order + 1):
        if k < low:
            coeffs.update(base(k))
            continue
        for m in itertools.combinations_with_replacement(range(met.rank), k):
            coeffs[m] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 4))
    return Potential.build(met, coeffs, order)


def brute_strata(phi):
    """Independent stratum integrals of phi, as a function of (tree, idx).

    Sums over all edge decorations outright instead of sweeping the tree,
    so it shares no code path with the production evaluator.  Edges are
    decorated one at a time, and a vertex is weighed as soon as its last
    edge is, so a zero value cuts off every decoration that extends the
    prefix.  A decoration weighs one value per vertex times one casimir
    entry per edge, so the sum runs over integer numerators and is divided
    once by the common denominator at the end.
    """
    dy = lcm(*(v.denominator for _, v in phi.terms))
    dw = lcm(*(w.denominator for _, _, w in phi.metric.casimir))
    cas = [(a, b, int(w * dw)) for a, b, w in phi.metric.casimir]
    ynum: dict[tuple[int, ...], int] = {}  # by flags in vertex order

    def value(tree, idx):
        branches, parent = _tree_model(tree.n, tree.parts)
        nv = len(branches)
        edges = [(v, e + 1) for e, v in enumerate(parent)]
        tails = [
            [q.bit_length() - 1 for q in fl if q.bit_count() == 1] for fl in branches
        ]
        # the flags at each vertex: its tails, then (edge, end) for each
        # edge end it carries, end 0 on the parent side
        base = [tuple(idx[t] for t in tails[v]) for v in range(nv)]
        ends = [
            [(e, end) for e, pair in enumerate(edges) for end in (0, 1) if pair[end] == v]
            for v in range(nv)
        ]
        ready: list[list[int]] = [[] for _ in range(len(edges) + 1)]
        for v in range(nv):
            ready[max((e + 1 for e, _ in ends[v]), default=0)].append(v)
        decor: list[tuple[int, int]] = []

        def weigh(step, weight):
            for v in ready[step]:
                key = base[v] + tuple(decor[e][end] for e, end in ends[v])
                if key not in ynum:
                    ynum[key] = int(phi.y(key) * dy)
                weight *= ynum[key]
                if not weight:
                    return 0
            if step == len(edges):
                return weight
            total = 0
            for a, b, w in cas:
                decor.append((a, b))
                total += weigh(step + 1, weight * w)
                decor.pop()
            return total

        return Fraction(weigh(0, 1), dw ** len(edges) * dy**nv)

    return value


def non_associative_rank_two():
    base = dict(p1_potential(8).terms)
    base[(0, 1, 1)] = Fraction(2, 7)  # need not be associative
    return Potential.build(Metric.hyperbolic(), base, 8)


def random_rank_four(seed=7, order=6):
    """Seeded values on the tensor-square metric; about half of them zero."""
    rnd = random.Random(seed)
    coeffs = {}
    for k in range(3, order + 1):
        for m in itertools.combinations_with_replacement(range(4), k):
            if rnd.random() < 0.5:
                coeffs[m] = Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))
    met = tensor_metric(Metric.hyperbolic(), Metric.hyperbolic())
    return Potential.build(met, coeffs, order)


def direct_sum(f, g, order=5):
    """Y = f(x0) + g(x1) on the standard rank-2 metric: associative."""
    coeffs = {}
    for k in range(3, order + 1):
        coeffs[(0,) * k] = f[k - 3]
        coeffs[(1,) * k] = g[k - 3]
    return Potential.build(Metric.standard(2), coeffs, order)


class TestWdvvWithDenominators:
    @pytest.mark.parametrize("case", range(len(DENOMINATOR_CASES)))
    def test_reports_match_brute_force_with_denominators(self, case):
        # values and inverse pairings with denominators, so that the
        # integers of `_vertex` stand over D and E other than 1: every
        # report up to the truncation, failure values included, must be
        # the one rebuilt from brute-force one-edge strata, and so must
        # every stratum value
        phi = denominator_potential(case)
        assert lcm(*(v.denominator for _, v in phi.terms)) > 1
        assert lcm(*(w.denominator for _, _, w in phi.metric.casimir)) > 1
        brute = brute_strata(phi)
        for order in range(4, phi.order + 1):
            assert wdvv_check(phi, order).to_dict() == one_edge_report(phi, order, brute)
        for n in range(3, 6):
            for m in itertools.combinations_with_replacement(range(phi.metric.rank), n):
                for tree in iter_all_trees(n):
                    got = cohft._stratum_value(phi, tree, m, phi._branches)
                    assert got == brute(tree, m), (tree, m)

    def test_denominator_cases_cover_every_outcome(self):
        # the cases above pass, and fail with 0, 1 and 2 spectators
        outcomes = set()
        for case in range(len(DENOMINATOR_CASES)):
            rep = wdvv_check(denominator_potential(case))
            outcomes.add(None if rep.passed else len(rep.failure[1]))
        assert outcomes == {None, 0, 1, 2}


class TestStrataIntegrals:
    def test_one_vertex_is_the_potential(self):
        phi = p1_potential(8)
        for n in (4, 5, 6):
            for m in itertools.combinations_with_replacement(range(2), n):
                assert cohft._stratum_value(phi, Tree(n, ()), m) == phi.y(m)

    def test_rank_one_factorizes_over_vertices(self):
        coords = [Fraction(3, 2), Fraction(-1, 3), Fraction(7)]
        phi = potential_from_coordinates(coords)
        vals = strata_integrals(phi, 5)
        y = {k: phi.y((0,) * k) for k in range(3, 6)}
        for tree, got in vals.items():
            want = Fraction(1)
            for v in tree.valencies():
                want *= y[v]
            assert got == want

    def test_matches_brute_force(self):
        phi = non_associative_rank_two()
        brute = brute_strata(phi)
        for n in (4, 5):
            for m in itertools.combinations_with_replacement(range(2), n):
                for tree in iter_all_trees(n):
                    assert cohft._stratum_value(phi, tree, m) == brute(tree, m)

    @pytest.mark.parametrize("make", [non_associative_rank_two, random_rank_four])
    def test_one_memo_across_trees_and_indices(self, make):
        # branches of one potential are hash-consed across every tree and
        # multi-index; a key that forgets what fixes a message shows up
        # as a wrong value somewhere in the shuffled sweep
        phi = make()
        jobs = [
            (tree, m)
            for n in range(3, 7)
            for m in itertools.combinations_with_replacement(range(phi.metric.rank), n)
            for tree in iter_all_trees(n)
        ]
        random.Random(1995).shuffle(jobs)
        brute = brute_strata(phi)
        memo: dict = {}
        for tree, m in jobs:
            got = cohft._stratum_value(phi, tree, m, memo)
            assert got == brute(tree, m), (tree, m)

    def test_integrals_match_memo_free_values(self):
        phi = random_rank_four()
        rnd = random.Random(6)
        for n in (4, 5, 6):
            midxs = list(itertools.combinations_with_replacement(range(4), n))
            for m in rnd.sample(midxs, 12):
                want = {t: cohft._stratum_value(phi, t, m) for t in iter_all_trees(n)}
                assert strata_integrals(phi, n, m) == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda: p1_potential(6),
            lambda: direct_sum(
                [Fraction(3, 2), -1, Fraction(1, 3), 2],
                [2, Fraction(-5, 7), 4, Fraction(1, 9)],
                6,
            ),
            random_rank_four,
        ],
        ids=["line", "direct_sum", "random_rank_four"],
    )
    def test_orbit_columns_match_every_tree(self, make):
        # a column is evaluated on one tree per stabiliser orbit and copied
        # along it; every tree must still get its own direct value
        phi = make()
        memo: dict = {}
        for n in range(3, 7):
            for m in itertools.combinations_with_replacement(range(phi.metric.rank), n):
                got = strata_integrals(phi, n, m)
                for d in range(n - 2):
                    trees = enumerate_stable_trees(n, d)
                    want = [cohft._stratum_value(phi, t, m, memo) for t in trees]
                    assert [got[t] for t in trees] == want, (n, m, d)

    def test_unsorted_indices(self):
        # only runs of equal neighbouring indices are permuted then
        phi = random_rank_four()
        rnd = random.Random(11)
        for n in (4, 5, 6):
            for _ in range(8):
                m = tuple(rnd.randrange(4) for _ in range(n))
                want = {t: cohft._stratum_value(phi, t, m) for t in iter_all_trees(n)}
                assert strata_integrals(phi, n, m) == want, m

    def test_validation(self):
        phi = p1_potential(6)
        with pytest.raises(ValueError):
            strata_integrals(phi, 7)
        with pytest.raises(ValueError):
            strata_integrals(phi, 5)  # rank 2 needs explicit indices
        with pytest.raises(ValueError):
            strata_integrals(phi, 5, (0, 1, 1, 0))
        with pytest.raises(ValueError):
            strata_integrals(phi, 5, (0, 0, 0, 0, 2))
        with pytest.raises(ValueError):
            strata_integrals(
                Potential.build(odd_pair_metric(), {(0, 1, 2): 5}, 6), 4, (0,) * 4
            )


class TestReconstruction:
    def test_identity_gives_units(self):
        phi = identity_potential(6)
        for n in range(3, 7):
            classes = reconstruct_classes(phi, n)
            assert classes[(0,) * n] == RingElement.unit(n)

    def test_order_three(self):
        # a 3-point class is its value times the unit; below four points
        # no associativity constraint is checked
        phi = p1_potential(3)
        got = reconstruct_classes(phi, 3)
        assert got == {
            m: RingElement.unit(3).scale(phi.y(m))
            for m in itertools.combinations_with_replacement(range(2), 3)
        }

    def test_integrals_reproduce_the_potential(self):
        phi = p1_potential(6)
        for n in (4, 5, 6):
            for m, cls in reconstruct_classes(phi, n).items():
                assert integrate(cls) == phi.y(m)

    def test_pairing_against_every_stratum(self):
        # the defining system, re-checked on every stratum through each
        # class's pairing vector; the quadric's multi-indices have up to
        # four runs, so its stabilisers have up to four factors
        for phi in (p1_potential(7), p1xp1_potential(7)):
            for n in (5, 6, 7):
                pos = {
                    t: j
                    for d in range(n - 2)
                    for j, t in enumerate(enumerate_stable_trees(n, d))
                }
                for m, cls in reconstruct_classes(phi, n).items():
                    want: dict = {}
                    for t, v in strata_integrals(phi, n, m).items():
                        if v:
                            want.setdefault(n - 3 - t.degree, []).append((pos[t], v))
                    got = {d: list(piece) for d, piece in class_vector(cls)}
                    assert got == want, (n, m)

    def test_zero_pairings_build_no_block(self, monkeypatch):
        # every pairing of the degree-2 class at m is zero, so its orbit
        # sums are zero with no block built and no system solved
        def refuse(*args):
            raise AssertionError("a solve for a zero class")

        blocks = cohft._runs((0, 0, 1, 1, 1, 1))
        count = len(orbit_sizes(6, 2, blocks)[0])
        rhs = [Fraction(0)] * len(orbit_sizes(6, 1, blocks)[0])
        monkeypatch.setattr(keelring, "_invariant_block", refuse)
        monkeypatch.setattr(linalg, "solve_certified", refuse)
        assert cohft._solve_full_rank(6, 2, blocks, rhs) == (0,) * count and count > 1

    def test_zero_degrees_are_skipped(self):
        # a semisimple base's mixed classes vanish in every degree
        phi = direct_sum([1, 0, 2, 0], [Fraction(1, 2), 3, 0, -1], order=6)
        for n in (4, 5, 6):
            ys = cohft._reconstruct_all(phi, n)
            assert not any(map(any, ys[(0,) * (n - 1) + (1,)]))
            classes = reconstruct_classes(phi, n)
            assert classes[(0,) * (n - 1) + (1,)] == RingElement(n, {})
            for m, cls in classes.items():
                assert integrate(cls) == phi.y(m)

    def test_coefficients_past_int64(self):
        # numerators above 2^70 take the exact object path through the
        # columns, the solve and the residual; the classes must equal the
        # pure-Fraction solution of the full system over all degree-r
        # trees, and the tensor products the ring products of the classes
        big = direct_sum(
            [2**72 + 1, Fraction(3, 2**71), -(2**80)],
            [Fraction(-(2**75), 7), 5, 2**66],
        )
        brute = brute_strata(big)
        for n in (3, 4, 5):
            classes = reconstruct_classes(big, n)
            want = {m: RingElement(n, {}) for m in classes}
            for r in range(n - 2):
                trees_c = enumerate_stable_trees(n, n - 3 - r)
                trees_r = enumerate_stable_trees(n, r)
                rows = [[pair_kaufmann(t, u) for u in trees_r] for t in trees_c]
                for m in classes:
                    x = solve_fraction(rows, [brute(t, m) for t in trees_c])
                    want[m] = want[m] + RingElement(
                        n, {t: v for t, v in zip(trees_r, x) if v}
                    )
            for m, cls in classes.items():
                assert is_zero_class(cls - want[m]), (n, m)
        assert max(abs(c.numerator) for c in classes[(0,) * 5].terms.values()) > 2**70
        line = p1_potential(5)
        for left, right in ((big, line), (line, big)):
            out = tensor_potential(left, right)
            for n in (3, 4, 5):
                cl, cr = reconstruct_classes(left, n), reconstruct_classes(right, n)
                for m in itertools.combinations_with_replacement(range(4), n):
                    a = assignment_class(cl, [b // 2 for b in m])
                    c = assignment_class(cr, [b % 2 for b in m])
                    assert out.y(m) == integrate(mul(a, c)), (left, right, m)

    def test_gate_on_broken_potential(self):
        coeffs = dict(p1_potential(6).terms)
        coeffs[(0, 1, 1)] = Fraction(1)
        bad = Potential.build(Metric.hyperbolic(), coeffs, 6)
        with pytest.raises(ValueError, match="associativity"):
            reconstruct_classes(bad, 4)

    def test_restriction_axiom(self):
        # pulling a class back to a boundary divisor splits it into the
        # two factor classes joined by the inverse pairing at the node
        phi = p1_potential(6)
        classes = {n: reconstruct_classes(phi, n) for n in range(3, 6)}
        cas = phi.metric.casimir
        for n in (4, 5):
            for m in itertools.combinations_with_replacement(range(2), n):
                for side in stable_splits(n):
                    s1 = [i + 1 for i in range(n) if side >> i & 1]
                    s2 = [i + 1 for i in range(n) if not side >> i & 1]
                    got = pullback_to_divisor(
                        Split(n, side), assignment_class(classes[n], list(m))
                    )
                    want = None
                    for a, b, w in cas:
                        v1 = [m[l - 1] for l in s1] + [a]
                        v2 = [m[l - 1] for l in s2] + [b]
                        piece = tensor_of_factors(
                            assignment_class(classes[len(v1)], v1),
                            assignment_class(classes[len(v2)], v2),
                        ).scale(w)
                        want = piece if want is None else want + piece
                    assert (got - want).is_zero_class(), (n, m, side)


class TestTensor:
    def test_metric(self):
        m = tensor_metric(Metric.hyperbolic(), Metric.hyperbolic())
        assert m.rank == 4
        assert m.gram[0][3] == 1 and m.gram[1][2] == 1
        assert sum(1 for row in m.gram for x in row if x) == 4

    def test_identity_acts_trivially(self):
        phi = p1_potential(6)
        out = tensor_potential(identity_potential(6), phi)
        assert out.metric == phi.metric and out.terms == phi.terms

    def test_scalars_multiply(self):
        t, u = Fraction(2, 3), Fraction(7, 5)
        pt = potential_from_coordinates([t, 0, 0])
        pu = potential_from_coordinates([u, 0, 0])
        out = tensor_potential(pt, pu)
        assert out.terms == potential_from_coordinates([t * u, 0, 0]).terms

    def test_equals_cup_product_of_classes(self):
        # same numbers via the ring: reconstruct both factors, multiply,
        # integrate
        phi = p1_potential(5)
        sq = tensor_potential(phi, phi)
        classes = {n: reconstruct_classes(phi, n) for n in (3, 4, 5)}
        for n in (3, 4, 5):
            for m in itertools.combinations_with_replacement(range(4), n):
                left = assignment_class(classes[n], [b // 2 for b in m])
                right = assignment_class(classes[n], [b % 2 for b in m])
                assert sq.y(m) == integrate(mul(left, right))

    def test_two_different_factors(self):
        # each factor's branches stay in a memo of their own; one memo
        # shared by both would hand one theory's messages to the other
        f = direct_sum([Fraction(3, 2), -1, Fraction(1, 3)], [2, Fraction(-5, 7), 4])
        g = direct_sum([1, Fraction(2, 5), -3], [Fraction(-1, 2), 6, Fraction(1, 9)])
        for left, right in ((f, g), (g, f), (p1_potential(5), f)):
            out = tensor_potential(left, right)
            for n in (3, 4, 5):
                cl, cr = reconstruct_classes(left, n), reconstruct_classes(right, n)
                for m in itertools.combinations_with_replacement(range(4), n):
                    a = assignment_class(cl, [b // 2 for b in m])
                    c = assignment_class(cr, [b % 2 for b in m])
                    assert out.y(m) == integrate(mul(a, c)), (left, right, m)

    def test_square_of_the_line_order_six(self):
        sq = tensor_potential(p1_potential(6), p1_potential(6))
        pred = p1xp1_potential(6)
        assert sq.metric == pred.metric
        assert dict(sq.terms) == dict(pred.terms)
        assert wdvv_check(sq).passed

    @pytest.mark.slow
    def test_square_of_the_line_order_eight(self):
        sq = tensor_potential(p1_potential(8), p1_potential(8))
        assert sq.y((0, 0, 3)) == 1  # 1/2 x^2 z as a function of x, z
        assert sq.y((0, 1, 2)) == 1  # x y1 y2
        assert dict(sq.terms) == dict(p1xp1_potential(8).terms)
        ext = extract_p1xp1_numbers(sq)
        ref = p1xp1_numbers(4)
        assert ext and all(ref.get(k, 0) == v for k, v in ext.items())
        assert ext[(1, 0)] == 1 and ext[(0, 1)] == 1
        assert ext[(1, 1)] == 1 and ext[(2, 1)] == 1
        assert wdvv_check(sq).passed

    @pytest.mark.parametrize(
        "left, right, orders",
        [
            (p1_potential(7), p1_potential(7), (3, 4, 5, 6, 7)),
            (p1_potential(6), potential_from_coordinates([1, 2, -3, 5]), (6,)),
            (potential_from_coordinates([1, 2, -3, 5]), p1_potential(6), (6,)),
            (
                direct_sum([1, 0, 2, 0], [Fraction(1, 2), 3, 0, -1], order=6),
                p1_potential(6),
                (6,),
            ),
        ],
        ids=["p1xp1", "p1xrank1", "rank1xp1", "zero-classes"],
    )
    def test_assembly_matches_the_reference(self, left, right, orders):
        # one Fraction per stratum value and every orbit table asked for
        for order in orders:
            got = tensor_potential(left, right, order=order)
            want = tensor_reference(left, right, order)
            assert got.metric == want.metric and got.terms == want.terms, order

    @pytest.mark.parametrize(
        "left",
        [identity_potential(6), direct_sum([1, 0, 2, 0], [1, 0, 0, 1], order=6)],
        ids=["identity", "semisimple"],
    )
    def test_no_orbits_for_zero_classes(self, left, monkeypatch):
        # the first factor's class vanishes in most degrees; no orbit table
        # is asked for a product pattern in such a degree
        right = p1_potential(6)
        r2 = right.metric.rank
        keys, skipped = set(), set()
        for n in range(3, 7):
            rec = cohft._reconstruct_all(left, n)
            for m, ys in rec.items():
                keys.update((n, r, cohft._runs(m)) for r in range(n - 2))
            ranks = range(left.metric.rank * r2)
            for midx in itertools.combinations_with_replacement(ranks, n):
                ys = rec[tuple(b // r2 for b in midx)]
                for r, y in enumerate(ys):
                    key = (n, r, cohft._runs(midx))
                    (keys if any(y) else skipped).add(key)
        calls = []
        record = cohft.orbit_sizes

        def spy(*args):
            calls.append(args)
            return record(*args)

        monkeypatch.setattr(cohft, "orbit_sizes", spy)
        out = tensor_potential(left, right)
        assert calls and skipped - keys
        assert set(calls) <= keys
        assert out.terms == tensor_reference(left, right, 6).terms

    def test_factors_of_order_three(self):
        three = tensor_potential(p1_potential(3), p1_potential(3))
        four = tensor_potential(p1_potential(4), p1_potential(4), order=3)
        assert three.order == 3 and three.metric == four.metric
        assert three.terms == four.terms and three.terms

    def test_validation(self):
        with pytest.raises(ValueError):
            tensor_potential(p1_potential(6), p1_potential(6), order=7)
        odd = Potential.build(odd_pair_metric(), {(0, 1, 2): 5}, 6)
        with pytest.raises(ValueError):
            tensor_potential(odd, p1_potential(6))
        # a non-associative right factor is refused up front, as a left
        # one is, instead of surfacing as an inconsistent product
        bad = Potential.build(Metric.standard(2), {(0, 1, 1): 1}, 4)
        with pytest.raises(ValueError, match="associativity"):
            tensor_potential(p1_potential(4), bad)


class TestRankOne:
    def test_identity_and_scaling_coordinates(self):
        assert RankOneTheory.identity(6).coordinates() == [1, 0, 0, 0]
        t = Fraction(5, 7)
        th = RankOneTheory.scaling(t, 6)
        assert th.coordinate(3) == t
        assert th.coordinate(4) == 0  # positive-dimensional, degree zero

    def test_scaling_group_law(self):
        t, u = Fraction(2, 3), Fraction(-5, 4)
        lhs = RankOneTheory.scaling(t, 6).tensor(RankOneTheory.scaling(u, 6))
        assert lhs.equals(RankOneTheory.scaling(t * u, 6))

    def test_from_coordinates_order_three(self):
        # one coordinate: no associativity constraint, the scaled unit
        th = RankOneTheory.from_coordinates([2])
        assert th.nmax == 3 and th.equals(RankOneTheory.scaling(2, 3))

    def test_from_coordinates_scaling(self):
        t = Fraction(3, 2)
        th = RankOneTheory.from_coordinates([t, 0, 0, 0])
        assert th.equals(RankOneTheory.scaling(t, 6))

    def test_kappa_coordinates_frozen(self):
        th = RankOneTheory.from_kappa([Fraction(1, 2), Fraction(-1, 3)], 6)
        assert th.coordinates() == [
            1,
            Fraction(1, 2),
            Fraction(7, 24),
            Fraction(-11, 48),
        ]

    def test_coordinate_roundtrip(self):
        th = RankOneTheory.from_kappa([Fraction(1, 2), Fraction(-1, 3)], 6)
        assert RankOneTheory.from_coordinates(th.coordinates()).equals(th)

    def test_log_exp_inverse(self):
        th = RankOneTheory.from_kappa([Fraction(1, 3), Fraction(2, 5)], 6)
        assert RankOneTheory.from_log(th.log()).equals(th)

    def test_log_turns_tensor_into_sum(self):
        a = RankOneTheory.from_kappa([Fraction(1, 2)], 6)
        b = RankOneTheory.from_kappa([0, Fraction(1, 5)], 6)
        lhs = a.tensor(b).log()
        rhs = tuple(x + y for x, y in zip(a.log(), b.log()))
        for got, want in zip(lhs, rhs):
            assert is_zero_class(got - want)

    def test_factor_splits_the_scalar(self):
        th = RankOneTheory.from_kappa([Fraction(1, 4)], 6).tensor(
            RankOneTheory.scaling(Fraction(3, 2), 6)
        )
        t, unital = th.factor()
        assert t == Fraction(3, 2)
        assert unital.coordinate(3) == 1
        assert RankOneTheory.scaling(t, 6).tensor(unital).equals(th)

    def test_non_invertible(self):
        zero3 = RingElement(3, {})
        th = RankOneTheory((zero3, RingElement.unit(4)))
        assert not th.is_invertible()
        with pytest.raises(ValueError):
            th.factor()
        with pytest.raises(ValueError):
            th.log()

    def test_splitting_law(self):
        th = RankOneTheory.from_kappa([Fraction(1, 2), Fraction(-1, 3)], 6)
        for n in (4, 5, 6):
            assert th.verify_splitting(n)

    def test_splitting_law_against_pullbacks(self):
        def ref_verify(th, n):
            for side in stable_splits(n):
                k = side.bit_count()
                got = pullback_to_divisor(Split(n, side), th.c(n))
                want = tensor_of_factors(th.c(k + 1), th.c(n - k + 1))
                if not (got - want).is_zero_class():
                    return False
            return True

        th = RankOneTheory.from_kappa([Fraction(1, 2), Fraction(-1, 3)], 7)
        # move one degree of c_5: its own law breaks, and so do those of
        # c_6 and c_7, which have divisors with a four-label side
        c5 = th.c(5)
        bent = c5 + c5.component(1).scale(Fraction(1, 4))
        bad = RankOneTheory(th.classes[:2] + (bent,) + th.classes[3:])
        for n in range(4, 8):
            assert th.verify_splitting(n) and ref_verify(th, n)
            assert bad.verify_splitting(n) == ref_verify(bad, n) == (n == 4)

    def test_coordinates_triangular_in_kappa_data(self):
        # moving the top kappa coefficient moves the top coordinate
        # linearly, with slope the top omega integral
        s = [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7)]
        for n in (4, 5, 6):
            base = list(s[: n - 3])
            base[-1] = Fraction(0)
            shifted = list(base)
            shifted[-1] = Fraction(4, 9)
            c0 = RankOneTheory.from_kappa(base, n).coordinate(n)
            c1 = RankOneTheory.from_kappa(shifted, n).coordinate(n)
            assert z(n) != 0
            assert c1 - c0 == Fraction(4, 9) * z(n)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RankOneTheory(())
        with pytest.raises(ValueError):
            RankOneTheory((RingElement.unit(4),))
        with pytest.raises(ValueError):
            RankOneTheory.identity(6).c(7)

    def test_dict(self):
        th = RankOneTheory.scaling(Fraction(1, 2), 5)
        assert th.to_dict() == {"Cn": ["1/2", "0", "0"]}


class TestVolumes:
    def test_frozen_values(self):
        assert wp_volumes(10) == [1, 5, 61, 1379, 49946, 2648967, 193530835]

    def test_agree_with_direct_integrals(self):
        vols = wp_volumes(6)
        for n in (4, 5, 6):
            assert vols[n - 4] == omega_direct(n, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            wp_volumes(3)

    def test_matone_passes(self):
        rep = matone_check(12)
        assert rep.passed and rep.checked == 13

    def test_matone_locates_a_bad_volume(self):
        vols = [Fraction(v) for v in [1, 1, 5, 61, 1379, 49946]]
        vols[3] += 1  # v_6
        rep = matone_check(6, volumes=vols)
        assert not rep.passed
        assert rep.failure[0] == 5
        d = rep.to_dict()
        assert d["failure"]["power"] == 5

    def test_matone_validation(self):
        with pytest.raises(ValueError):
            matone_check(2)
        with pytest.raises(ValueError):
            matone_check(6, volumes=[1, 1, 5])


def tree_values(ac):
    """Each degree-a tree's coefficient, read off its orbit's entry."""
    return {t: val for rep, _, val in ac.entries for t in orbit(rep)}


class TestACoefficients:
    def test_four_labels(self):
        ac = a_coefficients(4, 1)
        assert ac.kernel_dim == 0
        ((rep, size, val),) = ac.entries
        assert str(rep) == "{12|34}" and size == 3 and val == Fraction(1, 3)

    def test_five_labels(self):
        ac1 = a_coefficients(5, 1)
        assert [(s, v) for _, s, v in ac1.entries] == [(10, Fraction(1, 2))]
        ac2 = a_coefficients(5, 2)
        assert ac2.kernel_dim == 0
        assert [(s, v) for _, s, v in ac2.entries] == [(15, Fraction(1, 15))]

    def test_six_labels_frozen(self):
        got = {
            a: (ac.kernel_dim, [(str(t), s, v) for t, s, v in ac.entries])
            for a, ac in ((a, a_coefficients(6, a)) for a in (1, 2, 3))
        }
        assert got[1] == (
            0,
            [
                ("{12|3456}", 15, Fraction(3, 5)),
                ("{123|456}", 10, Fraction(4, 5)),
            ],
        )
        assert got[2] == (
            0,
            [
                ("{12|3456}{123|456}", 60, Fraction(1, 10)),
                ("{12|3456}{1234|56}", 45, Fraction(1, 15)),
            ],
        )
        # at top degree the boundary monomials are dependent, so the
        # solver reports one direction of freedom
        assert got[3][0] == 1

    def test_defining_equations(self):
        # re-derive the system from public pieces and check the table
        # satisfies it: coefficients against any complementary monomial
        # integrate to 1 exactly when a vertex has valency a + 3
        from genus0.intersect import pair_kaufmann

        for n, a in ((5, 1), (5, 2), (6, 1), (6, 2)):
            values = tree_values(a_coefficients(n, a))
            for t in enumerate_stable_trees(n, n - 3 - a):
                got = sum(
                    values[sigma] * pair_kaufmann(sigma, t)
                    for sigma in enumerate_stable_trees(n, a)
                )
                want = int(any(v == a + 3 for v in t.valencies()))
                assert got == want, (n, a, t)

    def test_value_lookup(self):
        # the entries' orbits hold every degree-a tree once, each as many
        # times as its entry's size says
        for n, a in ((5, 1), (6, 2), (7, 2)):
            ac = a_coefficients(n, a)
            assert [len(orbit(rep)) for rep, _, _ in ac.entries] == [
                size for _, size, _ in ac.entries
            ]
            trees = enumerate_stable_trees(n, a)
            assert sum(size for _, size, _ in ac.entries) == len(trees)
            assert set(tree_values(ac)) == set(trees)
        assert set(tree_values(a_coefficients(5, 1)).values()) == {Fraction(1, 2)}
        with pytest.raises(ValueError):
            a_coefficients(5, 3)

    @pytest.mark.slow
    def test_kernel_dim_against_fraction_rref(self):
        # the certified GF(p) kernel against exact elimination over Q
        for n in range(4, 10):
            for a in range(1, n - 2):
                block = _invariant_block(n, a, (n,))
                rref = FractionRREF()
                for row in block.tolist():
                    rref.add({j: x for j, x in enumerate(row) if x})
                want = block.shape[1] - rref.rank
                assert a_coefficients(n, a).kernel_dim == want, (n, a)
        assert [a_coefficients(9, a).kernel_dim for a in range(1, 7)] == [
            0, 0, 6, 13, 12, 5
        ]

    def test_kernel_dim_retries_a_prime_that_drops_the_rank(self, monkeypatch):
        # an eliminator that loses every row finds no pivot, so no column
        # lies in the span of the pivots; the solve refuses, and the next
        # prime certifies.  Three such primes are an error.
        lossy = {linalg.PRIMES[0]}

        class Lossy(linalg.ModEliminator):
            def feed_all(self, rows, *args, **kwargs):
                if self.p not in lossy:
                    super().feed_all(rows, *args, **kwargs)

        monkeypatch.setattr(cohft, "ModEliminator", Lossy)
        a_coefficients.cache_clear()
        try:
            assert a_coefficients(7, 3).kernel_dim == 2
            lossy.update(linalg.PRIMES[:3])
            with pytest.raises(RuntimeError):
                a_coefficients(7, 1)
        finally:
            a_coefficients.cache_clear()

    def test_dict(self):
        d = a_coefficients(4, 1).to_dict()
        assert d["orbits"] == [{"tree": "{12|34}", "size": 3, "value": "1/3"}]


class TestOmegaRecursion:
    def test_matches_direct_integrals(self):
        for n in (3, 4, 5, 6):
            assert omega_recursion(n, 1) == omega_direct(n, 1)
        assert omega_recursion(5, 2) == omega_direct(5, 2) == 1
        assert omega_recursion(6, 3) == 1

    def test_matches_volumes(self):
        vols = wp_volumes(6)
        for n in (4, 5, 6):
            assert omega_recursion(n, 1) == vols[n - 4]

    @pytest.mark.slow
    def test_seven_labels(self):
        assert omega_recursion(7, 1) == 1379 == omega_direct(7, 1)
        assert omega_recursion(7, 2) == 19 == omega_direct(7, 2)

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            omega_recursion(6, 2)
        with pytest.raises(ValueError):
            omega_recursion(4, 0)
        with pytest.raises(ValueError):
            omega_recursion(2, 1)


class TestQuadricCounts:
    def test_frozen_table(self):
        nums = p1xp1_numbers(6)
        assert nums[(1, 0)] == 1 and nums[(0, 1)] == 1
        assert nums[(1, 1)] == 1
        assert nums[(2, 2)] == 12
        assert nums[(2, 3)] == 96
        assert nums[(3, 3)] == 3510
        assert nums[(2, 4)] == 640
        # a ruling through any number of points stays a single line
        assert all(nums[(1, k)] == 1 for k in range(1, 6))
        # nothing of bidegree (k, 0) beyond the ruling itself
        assert all(nums.get((k, 0), 0) == 0 for k in range(2, 7))

    def test_symmetry(self):
        nums = p1xp1_numbers(6)
        for (a, b), v in nums.items():
            assert nums.get((b, a), 0) == v

    def test_extraction_recovers_the_table(self):
        ext = extract_p1xp1_numbers(p1xp1_potential(8))
        ref = p1xp1_numbers(4)
        assert ext
        for k, v in ext.items():
            assert ref.get(k, 0) == v
        with pytest.raises(ValueError):
            extract_p1xp1_numbers(p1_potential(6))

    def test_extraction_bound_is_the_rank(self):
        # extract_p1xp1_numbers solves total degree k exactly when
        # 3k - 1 <= order; the moment system it solves has full column
        # rank for exactly those k
        for order in range(3, 22):
            full = []
            for k in range(1, (order + 1) // 2 + 1):
                m = 2 * k - 1
                rref = FractionRREF()
                for p in range(order - m + 1):
                    for q in range(order - m - p + 1):
                        if m + p + q >= 3:
                            row = [Fraction(a**p * (k - a) ** q) for a in range(k + 1)]
                            rref.add({a: x for a, x in enumerate(row) if x})
                if rref.rank == k + 1:
                    full.append(k)
            assert full == list(range(1, (order + 1) // 3 + 1)), order
