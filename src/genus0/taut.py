"""Tautological classes: psi and kappa in divisor coordinates.

The cotangent-line class at a marked point expands into boundary
divisors with weights depending only on the side sizes.  Kappa classes
arrive by raising the psi class at an extra marked point to a power and
pushing forward along the map that forgets it.  Both feed the splitting
check and the omega integrals used by the recursion layer.

Products of psi classes stay in the integers from the first product to
the last: each stage of the chain is a map from edge tuples to integer
numerators over one denominator, straight from the ring's kernel.  The
last factor of a kappa class is multiplied and pushed forward in one
pass (`Ring.forget_product`), so its top power is never built; the
pushforward maps edge tuples through a cached table of side images.  A
`RingElement` is built once, for the class that is returned.

A `TautClass` checks its arguments when it is made and builds each
representative on first read.  The ring representative (``element``) is
the pushforward above, term for term: `genus0 kappa`, powers and the
omega integrals read it.  A kappa class also has an invariant
representative (``invariant``), its class in S_n-orbit sums, solved from
its pairings with strata and certified by the solve's residual and the
perfect pairing.  By Arbarello-Cornalba, kappa_a restricts to a stratum
as the sum of its vertices' kappa_a, and the integral of kappa_{k-3} over
M̄₀,ₖ is 1, so kappa_a pairs with a complementary tree as the number of
its vertices of valency a + 3 (`_kappa_pairings`).  `check_logarithmic`
audits kappa through that representative, with no ring product.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

from .intersect import integrate
from .keelring import (
    RingElement,
    _element,
    _numerators,
    _orbit_element,
    _solve_full_rank,
    ring,
    splitting_failures,
)
from .trees import (
    Split,
    Tree,
    _forget_images,
    _integer,
    enumerate_stable_trees,
    orbit_reps,
    stable_splits,
)


@dataclass(frozen=True, eq=False)
class TautClass:
    """A named tautological class of the divisor ring on n labels.

    ``element`` is its ring representative, made by ``build`` on first
    read and kept.  ``invariant`` is its class in S_n-orbit sums, made by
    ``build_invariant`` on first read, or None for a class without one
    (psi is not S_n-invariant).  The two represent the same class but
    are in general not the same element term for term.
    """

    n: int
    kind: str
    build: Callable[[], RingElement] = field(repr=False)
    build_invariant: Callable[[], RingElement] | None = field(default=None, repr=False)

    @cached_property
    def element(self) -> RingElement:
        return self.build()

    @cached_property
    def invariant(self) -> RingElement | None:
        return None if self.build_invariant is None else self.build_invariant()

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
    return TautClass(n, f"psi({i})", partial(_psi_element, n, i))


def _psi_element(n: int, i: int) -> RingElement:
    """psi's ring representative, for arguments `psi` has checked."""
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
    return RingElement(n, terms)


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

    The arguments are checked here; each representative is built on its
    first read.  The ring representative is the forgetful pushforward of
    the (a+1)-st power of the psi class at the extra label
    (`_kappa_element`); the invariant one is solved from the class's
    pairings with strata (`_kappa_invariant`).  Vanishes above the
    dimension; a = 0 gives n-2 times the unit.  Only integers are
    accepted (see `psi`).
    """
    if _integer(n) < 3:
        raise ValueError("need at least three labels")
    if _integer(a) < 0:
        raise ValueError("negative degree")
    return TautClass(
        n, f"kappa({a})", partial(_kappa_element, n, a), partial(_kappa_invariant, n, a)
    )


def _kappa_element(n: int, a: int) -> RingElement:
    """kappa's ring representative: the pushforward of psi_{n+1}^{a+1}.

    The a-th power comes from the prefix chain, and its product with one
    more psi is pushed forward as it is formed (`Ring.forget_product`),
    keeping only the terms that survive; the representative is the
    pushforward of the full power, term for term.
    """
    if a > n - 3:
        return RingElement(n, {})
    # psi^a at the extra label sits on the psi_monomial prefix chain,
    # so kappa_1, kappa_2, ... share their lower powers
    nums, den = _psi_prefix(n + 1, (0,) * n + (a,))
    ws, dw = _numerators(psi(n + 1, n + 1).element.terms)
    weight = {s: w for (s,), w in ws.items()}
    return _element(n, ring(n + 1).forget_product(nums, weight), den * dw)


def _kappa_pairings(n: int, a: int) -> list[int]:
    """<kappa_a, R_q> for the first tree R_q of each S_n-orbit q of
    complementary trees, in the order of `orbit_reps(n, n - 3 - a)`.

    kappa_a restricts to the stratum of a tree as the sum over its
    vertices v of kappa_a on M̄₀,ₖ₍ᵥ₎, k(v) the valency (Arbarello-
    Cornalba, J. Alg. Geom. 1996).  On the product of the vertex spaces
    the term of v integrates to 1 when a = k(v) - 3 and every other vertex
    is a point, and to 0 otherwise.  The valencies exceed 3 by a in all,
    so the pairing counts the vertices of valency a + 3: n - 2 when
    a = 0, and 0 or 1 when a >= 1.
    """
    return [
        sum(v == a + 3 for v in t.valencies()) for t, _ in orbit_reps(n, n - 3 - a)
    ]


def _kappa_invariant(n: int, a: int) -> RingElement:
    """kappa_a in S_n-orbit sums, solved from its pairings with strata.

    kappa_a is S_n-invariant, so `keelring._solve_full_rank` on the
    pairings of `_kappa_pairings` gives it: the certified residual on the
    orbit representatives is the residual on every complementary
    stratum, and the pairing is perfect.  Above the dimension the class
    is zero, with no solve.
    """
    if a > n - 3:
        return RingElement(n, {})
    y = _solve_full_rank(n, a, (n,), _kappa_pairings(n, a))
    return _orbit_element(n, (n,), [(a, y)])


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

    No restriction is computed: `keelring.splitting_failures` compares
    pairings with the products of good monomials on the two factors,
    which decides the identity exactly.

    A `RingElement` is audited as it is.  A `TautClass` is audited
    through its invariant representative where it has one, so a kappa
    family forms no ring product, and through ``element`` otherwise.
    Either way every class vector is computed against every
    complementary tree (`keelring._pairings_by_tree`).  A value of
    ``family(n)`` that is neither a `RingElement` nor a `TautClass` on n
    labels is a ValueError, and so is an nmax that is not an integer of
    at least 3.
    """
    if _integer(nmax) < 3:
        raise ValueError(f"nmax = {nmax}: need at least three labels")

    def element_of(n: int) -> RingElement:
        got = family(n)
        if isinstance(got, TautClass):
            # an empty invariant representative is the zero class, not a
            # missing one, so the choice is by None and not by truth
            got = got.element if got.invariant is None else got.invariant
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
    Only integers are accepted.
    """
    if _integer(n) < 3:
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
