"""Tautological classes: psi and kappa in divisor coordinates.

The cotangent-line class at a marked point expands into boundary
divisors with weights depending only on the side sizes.  Kappa classes
arrive by raising the psi class at an extra marked point to a power and
pushing forward along the map that forgets it.  Both feed the splitting
check and the omega integrals used by the recursion layer.

Products of psi classes stay in the integers from the first product to
the last: each stage of the chain is a map from edge tuples to integer
numerators over one denominator, straight from the ring's kernel, and
the pushforward maps edge tuples through a cached table of side images.
A `RingElement` is built once, for the class that is returned.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .intersect import integrate
from .keelring import (
    RingElement,
    _element,
    _numerators,
    ring,
    splitting_failures,
)
from .trees import (
    Split,
    Tree,
    _forget_images,
    _integer,
    enumerate_stable_trees,
    stable_splits,
)


@dataclass(frozen=True)
class TautClass:
    """A named tautological element of the divisor ring."""

    n: int
    kind: str
    element: RingElement

    def to_dict(self) -> dict:
        d = self.element.to_dict()
        d["kind"] = self.kind
        return d

    def pow(self, k: int) -> RingElement:
        """The k-th power, multiplied out on integer numerators.

        k must be a nonnegative integer.
        """
        if _integer(k) < 0:
            raise ValueError(f"negative power {k}")
        ys, dy = _numerators(self.element.terms)
        xs, dx = {(): 1}, 1
        for _ in range(k):
            xs, dx = ring(self.n).mul_numerators(xs, ys), dx * dy
        return _element(self.n, xs, dx)


@lru_cache(maxsize=None, typed=True)
def psi(n: int, i: int) -> TautClass:
    """The cotangent-line class at label i, as a sum of divisors.

    Every split whose i-side has size s contributes the weight
    (n-s)(n-s-1) / ((n-1)(n-2)).  On three labels there is nothing to
    bound and the class is zero.  The cache tells 1 from 1.0 and True, so
    those are refused, not served from it.
    """
    if _integer(n) < 3:
        raise ValueError("need at least three labels")
    if not 1 <= _integer(i) <= n:
        raise ValueError(f"label {i} out of range for n={n}")
    terms: dict[Tree, Fraction] = {}
    if n >= 4:
        bit = 1 << (i - 1)
        denom = (n - 1) * (n - 2)
        for tree in enumerate_stable_trees(n, 1):
            side = tree.parts[0]
            size = side.bit_count() if side & bit else n - side.bit_count()
            w = Fraction((n - size) * (n - size - 1), denom)
            if w:
                terms[tree] = w
    return TautClass(n, f"psi({i})", RingElement(n, terms))


@lru_cache(maxsize=None)
def _psi_prefix(n: int, exps: tuple[int, ...]) -> tuple[dict, int]:
    """psi_1^e_1 ... psi_n^e_n as (edge tuples -> integers, denominator).

    Partial products share prefixes across the whole exponent lattice, so
    each is built by peeling the last nonzero exponent and every stage is
    memoized.  The chain stays in the integers: each stage multiplies the
    previous numerators by psi's, and the denominators multiply.
    """
    last = max((idx for idx, e in enumerate(exps) if e), default=None)
    if last is None:
        return {(): 1}, 1
    prev = exps[:last] + (exps[last] - 1,) + exps[last + 1 :]
    xs, dx = _psi_prefix(n, prev)
    ys, dy = _numerators(psi(n, last + 1).element.terms)
    return ring(n).mul_numerators(xs, ys), dx * dy


def psi_monomial(n: int, exponents: Sequence[int]) -> Fraction:
    """Integral of a product of psi powers, one exponent per label."""
    if _integer(n) < 3:
        raise ValueError("need at least three labels")
    exps = tuple(_integer(e) for e in exponents)
    if len(exps) != n:
        raise ValueError("need one exponent per label")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    if sum(exps) != n - 3:
        return Fraction(0)  # the product is homogeneous of another degree
    nums, den = _psi_prefix(n, exps)
    return Fraction(sum(c for parts, c in nums.items() if len(parts) == n - 3), den)


def _pushforward(n: int, label: int, nums: dict) -> dict:
    """Push integer combinations of good monomials on n labels down to n-1.

    A monomial survives exactly when stabilizing contracts one edge, that
    is when the images of its edges under `trees._forget_images` number
    one fewer than its edges (an unstable image, 0, does not count); its
    image is the monomial with those edges.  With no contraction the
    stratum maps with positive-dimensional fibers and dies.
    """
    image = _forget_images(n, label)
    out: dict = {}
    for parts, c in nums.items():
        kept = {image[p] for p in parts}
        kept.discard(0)
        if len(kept) == len(parts) - 1:
            key = tuple(sorted(kept))
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def pushforward_forget(x: RingElement, label: int | None = None) -> RingElement:
    """Push a class down along the map forgetting one label (default n).

    The label count and the label are checked even when x has no terms.
    """
    if label is None:
        label = x.n
    if x.n < 4 or not 1 <= _integer(label) <= x.n:
        raise ValueError(f"cannot forget label {label} of {x.n} (need n >= 4)")
    nums, den = _numerators(x.terms)
    return _element(x.n - 1, _pushforward(x.n, label, nums), den)


@lru_cache(maxsize=None, typed=True)
def kappa(n: int, a: int) -> TautClass:
    """The degree-a kappa class on n labels.

    Computed as the forgetful pushforward of the (a+1)-st power of the
    psi class at the extra label.  Vanishes above the dimension; a = 0
    gives n-2 times the unit.  Only integers are accepted (see `psi`).
    """
    if _integer(n) < 3:
        raise ValueError("need at least three labels")
    if _integer(a) < 0:
        raise ValueError("negative degree")
    if a > n - 3:
        element = RingElement(n, {})
    else:
        # psi^(a+1) at the extra label sits on the psi_monomial prefix
        # chain, so kappa_1, kappa_2, ... share their lower powers
        nums, den = _psi_prefix(n + 1, (0,) * n + (a + 1,))
        element = _element(n, _pushforward(n + 1, n + 1, nums), den)
    return TautClass(n, f"kappa({a})", element)


@dataclass(frozen=True)
class LogReport:
    """Outcome of auditing the splitting identity for one family."""

    nmax: int
    checked: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "nmax": self.nmax,
            "checked": self.checked,
            "passed": self.passed,
            "failures": [
                {"n": n, "divisor": s} for n, s in self.failures
            ],
        }


def check_logarithmic(family: Callable[[int], RingElement], nmax: int) -> LogReport:
    """Audit the divisor-splitting identity for a family of classes.

    For every boundary divisor the restriction of the ambient class must
    equal the factor class on one side plus the factor class on the
    other, each taken with the node as an extra label.  Families that
    obey this are exactly the logarithmic ones; the report lists every
    divisor where the identity breaks.

    No restriction is computed (see `keelring.splitting_failures`).  By
    the projection formula the restriction pairs with a product m1 ⊗ m2
    of good monomials on the two factors as the ambient class pairs with
    the tree glued from m1, the divisor's edge and m2; and the pairing of
    f(n1) ⊗ 1 + 1 ⊗ f(n2) with m1 ⊗ m2 is <f(n1), m1> <1, m2> + <1, m1>
    <f(n2), m2>.  By Künneth the pairing on the divisor is perfect and
    the products span, so comparing these numbers decides the identity
    exactly.  A value of ``family(n)`` that is neither a `RingElement`
    nor a `TautClass` on n labels is a ValueError.
    """

    def element_of(n: int) -> RingElement:
        got = family(n)
        if isinstance(got, TautClass):
            got = got.element
        if not isinstance(got, RingElement) or got.n != n:
            raise ValueError(f"family({n}) is not a class on {n} labels")
        return got

    def pairs(n1: int, n2: int) -> list:
        return [
            (element_of(n1), RingElement.unit(n2)),
            (RingElement.unit(n1), element_of(n2)),
        ]

    checked = 0
    failures = []
    for n in range(4, nmax + 1):
        checked += len(stable_splits(n))
        for side in splitting_failures(element_of(n), pairs):
            failures.append((n, str(Split(n, side))))
    return LogReport(nmax, checked, tuple(failures))


def z(n: int) -> Fraction:
    """Integral of the top-degree kappa class, 1 for every n >= 3.

    kappa_{n-3} is the pushforward of psi_{n+1}^{n-2} from n + 1 labels,
    and the integral of psi^(m-3) at one label over M̄₀,ₘ is the
    multinomial (m-3)!/(m-3)! = 1.  The ring route stays in the tests.
    """
    if n < 3:
        raise ValueError("need at least three labels")
    return Fraction(1)


def omega_direct(n: int, a: int) -> Fraction:
    """Integral of the (n-3)/a power of kappa(n, a); zero off-stride."""
    if n < 3:
        raise ValueError("need at least three labels")
    if a < 1:
        raise ValueError("positive degree required")
    if (n - 3) % a:
        return Fraction(0)
    return integrate(kappa(n, a).pow((n - 3) // a))
