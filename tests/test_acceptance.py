"""Acceptance gate: the eleven headline checks, one line per criterion.

Runs under pytest (one test per criterion) or directly as a script, in
which case each criterion prints a PASS/FAIL line and the exit status
reports the overall outcome.
"""

import itertools
import random
import sys
import time
from fractions import Fraction
from math import factorial

from genus0.cohft import (
    RankOneTheory,
    extract_p1xp1_numbers,
    matone_check,
    omega_recursion,
    p1_potential,
    p1xp1_numbers,
    tensor_potential,
    wdvv_check,
    wp_volumes,
)
from genus0.intersect import pair_kaufmann, pair_oracle
from genus0.keelring import (
    RingElement,
    betti,
    equal_mod_relations,
    is_zero_class,
    keel_relation,
    mul,
)
from genus0.taut import check_logarithmic, kappa, omega_direct, psi_monomial
from genus0.trees import Split, enumerate_stable_trees
from surgery import edge_vertices, flags_at, mul_divisor, transplant


def check_01_volume_numbers():
    start = time.perf_counter()
    assert wp_volumes(7) == [1, 5, 61, 1379]
    assert time.perf_counter() - start < 1.0


def check_02_volume_series_equation():
    start = time.perf_counter()
    report = matone_check(12)
    assert report.passed and report.checked == 13
    assert time.perf_counter() - start < 1.0


def check_03_pairing_engines_agree():
    for n in range(3, 8):
        for r in range(n - 2):
            left = enumerate_stable_trees(n, r)
            right = enumerate_stable_trees(n, n - 3 - r)
            for m1 in left:
                for m2 in right:
                    assert pair_kaufmann(m1, m2) == pair_oracle(m1, m2), (
                        str(m1),
                        str(m2),
                    )


def check_04_betti_numbers_both_ways():
    # betti() itself certifies each entry two ways: monomial count minus
    # relation rank must meet the pairing rank before a value is emitted
    assert betti(5) == [1, 5, 1]
    assert betti(6) == [1, 16, 16, 1]
    b7 = betti(7)
    assert b7 == [1, 42, 127, 42, 1]
    assert b7 == b7[::-1]


def _flag_variants(tree, e):
    """All rewrites of D_sigma * m(tree) allowed by the endpoint choice."""
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
            acc = RingElement(tree.n, {})
            for movable in (mov0, mov1):
                for k in range(1, len(movable) + 1):
                    for grp in itertools.combinations(movable, k):
                        acc = acc + RingElement.monomial(
                            transplant(tree, e, grp)
                        ).scale(-1)
            out.append(acc)
    return out


def check_05_operator_laws():
    # commutativity, exhaustive for up to five labels
    for n in (4, 5):
        divisors = enumerate_stable_trees(n, 1)
        monos = [t for r in range(n - 2) for t in enumerate_stable_trees(n, r)]
        for t1, t2 in itertools.combinations_with_replacement(divisors, 2):
            s1, s2 = Split(n, t1.parts[0]), Split(n, t2.parts[0])
            for m in monos:
                x = RingElement.monomial(m)
                assert mul_divisor(s1, mul_divisor(s2, x)) == mul_divisor(
                    s2, mul_divisor(s1, x)
                )
    # flag independence, exhaustive for up to five labels
    for n in (4, 5):
        for r in range(1, n - 2):
            for tree in enumerate_stable_trees(n, r):
                for e in range(len(tree.parts)):
                    variants = _flag_variants(tree, e)
                    engine = mul_divisor(
                        Split(n, tree.parts[e]), RingElement.monomial(tree)
                    )
                    assert engine in variants
                    for v in variants[1:]:
                        assert equal_mod_relations(variants[0], v)
    # randomized at six labels
    rng = random.Random(20260815)
    divisors = enumerate_stable_trees(6, 1)
    monos = [t for r in range(4) for t in enumerate_stable_trees(6, r)]
    for _ in range(1000):
        s1 = Split(6, rng.choice(divisors).parts[0])
        s2 = Split(6, rng.choice(divisors).parts[0])
        x = RingElement.monomial(rng.choice(monos))
        assert mul_divisor(s1, mul_divisor(s2, x)) == mul_divisor(
            s2, mul_divisor(s1, x)
        )
    pool = [
        (t, e)
        for r in range(1, 4)
        for t in enumerate_stable_trees(6, r)
        for e in range(r)
    ]
    for tree, e in rng.sample(pool, 40):
        variants = _flag_variants(tree, e)
        for v in variants[1:]:
            assert equal_mod_relations(variants[0], v)


def check_06_keel_relations_annihilate():
    for n in (4, 5, 6):
        monos = [t for r in range(n - 2) for t in enumerate_stable_trees(n, r)]
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
            for quad in ((i, j, k, l), (i, k, j, l), (i, l, j, k)):
                rel = keel_relation(n, *quad)
                for m in monos:
                    assert is_zero_class(mul(rel, RingElement.monomial(m)))


def check_07_psi_multinomials():
    for n in range(4, 8):
        for exps in itertools.product(range(n - 2), repeat=n):
            if sum(exps) != n - 3:
                continue
            want = Fraction(factorial(n - 3))
            for e in exps:
                want /= factorial(e)
            assert psi_monomial(n, exps) == want, (n, exps)


def check_08_logarithmic_splitting():
    for a in (1, 2, 3):
        report = check_logarithmic(lambda n: kappa(n, a), 7)
        assert report.passed, (a, report.failures)


def check_09_generalized_recursion():
    for n in (4, 5, 6, 7):
        assert omega_recursion(n, 1) == omega_direct(n, 1)
    assert omega_recursion(7, 2) == omega_direct(7, 2)
    assert omega_recursion(7, 2) == 19


def check_10_tensor_square_of_the_line():
    phi = p1_potential(8)
    square = tensor_potential(phi, phi)
    assert square.y((0, 0, 3)) == 1  # the function term (x^2 z)/2
    assert square.y((0, 1, 2)) == 1  # the function term x y1 y2
    extracted = extract_p1xp1_numbers(square)
    reference = p1xp1_numbers(max(a + b for a, b in extracted))
    assert extracted[(1, 0)] == 1 and extracted[(0, 1)] == 1
    for key, val in extracted.items():
        assert reference.get(key, Fraction(0)) == val, key
    assert wdvv_check(square).passed


def check_11_rank_one_group_laws():
    nmax = 6
    th = RankOneTheory.from_kappa([Fraction(1, 2), Fraction(-1, 3)], nmax)
    one = RankOneTheory.identity(nmax)
    assert th.tensor(one).equals(th)
    s, t = Fraction(2, 3), Fraction(-7, 4)
    assert (
        RankOneTheory.scaling(s, nmax)
        .tensor(RankOneTheory.scaling(t, nmax))
        .equals(RankOneTheory.scaling(s * t, nmax))
    )
    assert RankOneTheory.from_coordinates(th.coordinates()).equals(th)
    assert RankOneTheory.from_log(th.log()).equals(th)
    other = RankOneTheory.from_kappa([Fraction(1, 5)], nmax)
    joint = th.tensor(other).log()
    for got, x, y in zip(joint, th.log(), other.log()):
        assert is_zero_class(got - (x + y))
    scale, unital = th.tensor(RankOneTheory.scaling(Fraction(5, 2), nmax)).factor()
    assert scale == Fraction(5, 2)
    assert unital.coordinate(3) == 1
    for n in range(4, nmax + 1):
        assert th.verify_splitting(n)


CRITERIA = (
    ("criterion 1, volume numbers v4..v7", check_01_volume_numbers),
    ("criterion 2, volume series equation to x^12", check_02_volume_series_equation),
    ("criterion 3, pairing formula vs oracle, n <= 7", check_03_pairing_engines_agree),
    ("criterion 4, betti numbers certified both ways", check_04_betti_numbers_both_ways),
    ("criterion 5, operator commutativity and flag choice", check_05_operator_laws),
    ("criterion 6, relations annihilate monomials, n <= 6", check_06_keel_relations_annihilate),
    ("criterion 7, psi multinomials, n <= 7", check_07_psi_multinomials),
    ("criterion 8, logarithmic splitting of kappa, n <= 7", check_08_logarithmic_splitting),
    ("criterion 9, generalized volume recursion", check_09_generalized_recursion),
    ("criterion 10, tensor square of the line to degree 8", check_10_tensor_square_of_the_line),
    ("criterion 11, rank-one group laws", check_11_rank_one_group_laws),
)


def _run(label, fn):
    fn()
    print(f"PASS {label}")


def test_criterion_01():
    _run(*CRITERIA[0])


def test_criterion_02():
    _run(*CRITERIA[1])


def test_criterion_03():
    _run(*CRITERIA[2])


def test_criterion_04():
    _run(*CRITERIA[3])


def test_criterion_05():
    _run(*CRITERIA[4])


def test_criterion_06():
    _run(*CRITERIA[5])


def test_criterion_07():
    _run(*CRITERIA[6])


def test_criterion_08():
    _run(*CRITERIA[7])


def test_criterion_09():
    _run(*CRITERIA[8])


def test_criterion_10():
    _run(*CRITERIA[9])


def test_criterion_11():
    _run(*CRITERIA[10])


def main() -> int:
    failed = 0
    for label, fn in CRITERIA:
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # keep going; report every criterion
            failed += 1
            print(f"FAIL {label}: {exc!r}")
            continue
        print(f"PASS {label}  [{time.perf_counter() - start:.2f}s]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
