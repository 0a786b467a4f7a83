"""Field-theory layer on top of the divisor ring.

A theory is handed to us as a potential: the generating function of its
n-point integrals over a finite-dimensional base with a nondegenerate
pairing.  This module checks the associativity constraints on such a
potential, reconstructs the underlying cohomology classes degree by
degree from their integrals against boundary strata, forms tensor
products, and specializes to the rank-one setting where the classes form
a group under cup product.  It also carries the volume recursions that
fall out of the rank-one theory: Weil-Petersson volumes, the equation
they satisfy as a power series, and the kappa-class generalization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, groupby, product
from math import comb, factorial, lcm

import numpy as np

from .intersect import _invariant_block, integrate
from .intersect import _build_sp  # noqa: F401  (perfbench/spans.py times it here)
from .keelring import (
    RingElement,
    _orbit_element,
    _solve_full_rank,
    equal_mod_relations,
    mul,
    splitting_failures,
)
from .linalg import (
    PRIMES,
    Inconsistent,
    ModEliminator,
    _integral,
    solve_certified,
)
from .taut import _kappa_pairings, kappa, z
from .trees import (
    Tree,
    _exact,
    _exacts,
    _families,
    _fmt_coeff,
    _index,
    _integer,
    _tree_model,
    enumerate_stable_trees,
    orbit_reps,
    orbit_sizes,
)


# ---------------------------------------------------------------------------
# multi-indices over a graded basis


def _koszul_sort(idx: tuple[int, ...], parities: tuple[int, ...]):
    """Sort a multi-index, tracking the sign from moving odd entries.

    Returns (sorted tuple, sign); the sign is 0 when an odd-parity index
    repeats, since the corresponding insertion squares to zero.
    """
    arr = list(idx)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j and arr[j - 1] > arr[j]:
            if parities[arr[j - 1]] and parities[arr[j]]:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for k in range(1, len(arr)):
        if arr[k] == arr[k - 1] and parities[arr[k]]:
            return tuple(arr), 0
    return tuple(arr), sign


# ---------------------------------------------------------------------------
# the base of a theory: a graded vector space with a nondegenerate pairing


@dataclass(frozen=True)
class Metric:
    """Symmetric nondegenerate pairing on the basis gamma_0..gamma_{r-1}.

    ``gram[a][b]`` is the pairing of basis vectors a and b; ``parities``
    records the mod-2 degree of each vector.  The pairing must respect
    the grading: vectors of different parity pair to zero.
    """

    gram: tuple[tuple[Fraction, ...], ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        gram = tuple(tuple(_exacts(row)) for row in self.gram)
        parities = tuple(_index(p) % 2 for p in self.parities)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "parities", parities)
        r = len(gram)
        if r == 0 or len(parities) != r:
            raise ValueError("parity list must match the matrix size")
        for row in gram:
            if len(row) != r:
                raise ValueError("pairing matrix must be square")
        for a in range(r):
            for b in range(r):
                if gram[a][b] != gram[b][a]:
                    raise ValueError("pairing matrix must be symmetric")
                if gram[a][b] and parities[a] != parities[b]:
                    raise ValueError("pairing must vanish across parities")
        self.inverse  # fail fast on a degenerate pairing

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        r = self.rank
        identity = [[int(i == j) for i in range(r)] for j in range(r)]
        try:
            cols = solve_certified(self.gram, identity)
        except Inconsistent:
            raise ValueError("pairing matrix is singular") from None
        return tuple(zip(*cols))

    @cached_property
    def casimir(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Nonzero entries (a, b, weight) of the inverse pairing."""
        inv = self.inverse
        return tuple(
            (a, b, inv[a][b])
            for a in range(self.rank)
            for b in range(self.rank)
            if inv[a][b]
        )

    @cached_property
    def _casimir_num(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(E, entries (a, b, E * weight)): the casimir over one denominator."""
        den = lcm(*(w.denominator for _, _, w in self.casimir))
        return den, tuple(
            (a, b, w.numerator * (den // w.denominator)) for a, b, w in self.casimir
        )

    @classmethod
    def standard(cls, rank: int) -> "Metric":
        gram = tuple(
            tuple(Fraction(int(a == b)) for b in range(rank)) for a in range(rank)
        )
        return cls(gram, (0,) * rank)

    @classmethod
    def hyperbolic(cls) -> "Metric":
        """The two-dimensional pairing with ones off the diagonal."""
        return cls(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), (0, 0))

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "parities": list(self.parities),
            "gram": [[_fmt_coeff(x) for x in row] for row in self.gram],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Metric":
        return cls(obj["gram"], tuple(_integer(p) for p in obj["parities"]))


def _require_even(metric: Metric, what: str) -> None:
    if any(metric.parities):
        raise ValueError(f"{what} supports even-parity bases only")


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Truncated generating function of n-point values on a metric base.

    ``terms`` maps sorted multi-indices (a_1 <= ... <= a_n) to the value
    Y(gamma_{a_1}, ..., gamma_{a_n}); everything with more than ``order``
    insertions is treated as unknown rather than zero.
    """

    metric: Metric
    order: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @classmethod
    def build(cls, metric: Metric, coeffs, order: int) -> "Potential":
        if order < 3:
            raise ValueError("truncation order must be at least 3")
        norm: dict[tuple[int, ...], Fraction] = {}
        for key, val in coeffs.items():
            v = _exact(val)
            k = tuple(_index(i) for i in key)
            if len(k) < 3:
                raise ValueError("a term needs at least three insertions")
            if len(k) > order:
                raise ValueError("term reaches beyond the truncation order")
            if any(not 0 <= i < metric.rank for i in k):
                raise ValueError("multi-index outside the basis range")
            sk, sign = _koszul_sort(k, metric.parities)
            if sign == 0:
                if v:
                    raise ValueError("a repeated odd index forces a zero value")
                continue
            v = sign * v
            if sk in norm:
                if norm[sk] != v:
                    raise ValueError(f"conflicting values for index {sk}")
                continue
            if v:
                norm[sk] = v
        terms = tuple(sorted(norm.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return cls(metric=metric, order=order, terms=terms)

    @cached_property
    def _map(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    @cached_property
    def _numerators(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """(D, {index: D * value}): the values over one denominator."""
        den = lcm(*(v.denominator for _, v in self.terms))
        return den, {k: v.numerator * (den // v.denominator) for k, v in self.terms}

    @cached_property
    def _branches(self) -> dict:
        """The branch memo of `_vertex`, for this potential alone."""
        return {}

    def y(self, idx) -> Fraction:
        """The n-point value at a multi-index, in any insertion order."""
        k = tuple(_index(i) for i in idx)
        if len(k) > self.order:
            raise ValueError("index reaches beyond the truncation order")
        key, sign = _koszul_sort(k, self.metric.parities)
        if sign == 0:
            return Fraction(0)
        return sign * self._map.get(key, Fraction(0))

    def to_dict(self) -> dict:
        out = self.metric.to_dict()
        out["order"] = self.order
        out["terms"] = [
            {"multi_index": list(k), "coeff": _fmt_coeff(v)} for k, v in self.terms
        ]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "Potential":
        """Parse a potential file's JSON; malformed input is a ValueError."""
        try:
            metric = Metric.from_dict(obj)
            coeffs = {
                tuple(_integer(i) for i in t["multi_index"]): t["coeff"]
                for t in obj["terms"]
            }
            return cls.build(metric, coeffs, _integer(obj["order"]))
        except KeyError as exc:
            raise ValueError(f"potential lacks the key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed potential: {exc}") from exc


def identity_potential(order: int = 10) -> Potential:
    """The trivial theory: a one-point base where only the triple counts."""
    return Potential.build(Metric.standard(1), {(0, 0, 0): 1}, order)


def potential_from_coordinates(coords, order: int | None = None) -> Potential:
    """Rank-one potential with prescribed full integrals C_3, C_4, ...

    The k-th entry of ``coords`` is the integral of the (k+3)-point
    class, which is exactly the coefficient Y(gamma_0^{k+3}).
    """
    vals = _exacts(coords)
    if not vals:
        raise ValueError("need at least the three-point value")
    if order is None:
        order = len(vals) + 2
    if order > len(vals) + 2:
        raise ValueError("not enough values for the requested order")
    coeffs = {(0,) * k: vals[k - 3] for k in range(3, order + 1) if vals[k - 3]}
    return Potential.build(Metric.standard(1), coeffs, order)


def p1_potential(order: int = 10) -> Potential:
    """The projective-line potential on the basis (unit, point).

    Classical part x^2 z / 2 plus one quantum correction z^k / k! at
    every k >= 3: each count of rational curves through prescribed
    points equals one in this geometry.
    """
    coeffs: dict[tuple[int, ...], Fraction] = {(0, 0, 1): Fraction(1)}
    for k in range(3, order + 1):
        coeffs[(1,) * k] = Fraction(1)
    return Potential.build(Metric.hyperbolic(), coeffs, order)


# ---------------------------------------------------------------------------
# the associativity constraints


@dataclass(frozen=True)
class WdvvReport:
    """Outcome of checking the quadratic constraints on a potential."""

    order: int
    checked: int
    failure: tuple | None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        out = {"order": self.order, "checked": self.checked, "passed": self.passed}
        if self.failure is not None:
            quad, nu, lhs, rhs = self.failure
            out["failure"] = {
                "quadruple": list(quad),
                "spectators": list(nu),
                "lhs": _fmt_coeff(lhs),
                "rhs": _fmt_coeff(rhs),
            }
        else:
            out["failure"] = None
        return out


def _submultiset_splits(nu: tuple[int, ...]):
    """All ways to split a multiset in two, with multinomial weights."""
    counted = sorted(Counter(nu).items())
    vals = [v for v, _ in counted]
    mult = [m for _, m in counted]
    out = []
    for pick in product(*(range(m + 1) for m in mult)):
        coeff = 1
        mu1: list[int] = []
        mu2: list[int] = []
        for v, m, k in zip(vals, mult, pick):
            coeff *= comb(m, k)
            mu1.extend([v] * k)
            mu2.extend([v] * (m - k))
        out.append((tuple(mu1), tuple(mu2), coeff))
    return out


def wdvv_check(phi: Potential, order: int | None = None) -> WdvvReport:
    """Check every quadratic associativity constraint up to the order.

    A constraint is Keel's four-point relation D(ab|cd) = D(ac|bd) on
    M̄₀,₄ pulled back to M̄₀,ₙ: with a, b, c, d at labels 1..4 and a
    spectator multiset at the rest, the n-point class integrates to the
    same value over the one-edge strata separating {1, 2} from {3, 4} as
    over those separating {1, 3} from {2, 4}.  Odd bases are refused.
    The report carries the first violated instance, if any, with its two
    sides as exact fractions, although the sides are summed in integers.
    Only the leaf entries of `_vertex` enter the potential's branch memo,
    never a root value.  ``order`` defaults to phi.order, and is resolved
    before the cached `_wdvv` is asked, so that both spellings of one
    check share an entry.
    """
    if order is None:
        order = phi.order
    if not 4 <= order <= phi.order:
        raise ValueError("order must lie between 4 and the truncation order")
    return _wdvv(phi, order)


@lru_cache(maxsize=None)
def _wdvv(phi: Potential, order: int) -> WdvvReport:
    """`wdvv_check` proper, one spectator multiset nu at a time.

    A side sums its one-edge strata by spectator split (mu1, mu2),
    weighted by the multinomial count of such strata: one vertex holds a,
    b and mu1, the other c, d and mu2, and the stratum's value is the
    open row of the first contracted with the message of the second, both
    leaf entries of `_vertex`.  So for each split the sides of all pairs
    of sorted pairs come at once, S[P1][P2] += cf <row(P1 + mu1),
    message(P2 + mu2)>, from one leaf entry per pair and sub-multiset,
    all in integers over D^2 E (`_vertex`); a failure reports the two
    sides as fractions.  Each split comes with its mirror at the same
    weight, so S is symmetric and only its upper triangle is summed.
    Only leaf entries enter `Potential._branches`: no root value does.
    """
    _require_even(phi.metric, "constraint checking")
    rank = phi.metric.rank
    memo = phi._branches
    pairs = list(combinations_with_replacement(range(rank), 2))
    at = [
        [pairs.index((min(a, b), max(a, b))) for b in range(rank)] for a in range(rank)
    ]
    scale = phi._numerators[0] ** 2 * phi.metric._casimir_num[0]

    def leaves(mu):
        return [_vertex(phi, False, tuple(sorted(p + mu)), [], memo) for p in pairs]

    def sides(nu):
        tot = [[0] * len(pairs) for _ in pairs]
        for mu1, mu2, cf in _submultiset_splits(nu):
            rows = [row for _, _, row in leaves(mu1)]
            msgs = [msg for _, msg, _ in leaves(mu2)]
            for i, row in enumerate(rows):
                if not any(row):
                    continue
                here = tot[i]
                for j in range(i, len(pairs)):
                    v = sum([x * y for x, y in zip(row, msgs[j])])
                    if v:
                        here[j] += cf * v
        for i in range(len(pairs)):
            for j in range(i):
                tot[i][j] = tot[j][i]
        return tot

    checked = 0
    failure = None
    for size in range(0, order - 3):
        if failure is not None:
            break
        for nu in combinations_with_replacement(range(rank), size):
            tot = sides(nu)
            for quad in product(range(rank), repeat=4):
                a, b, c, d = quad
                lhs = tot[at[a][b]][at[c][d]]
                rhs = tot[at[a][c]][at[b][d]]
                checked += 1
                if lhs != rhs:
                    failure = (quad, nu, Fraction(lhs, scale), Fraction(rhs, scale))
                    break
            if failure is not None:
                break
    return WdvvReport(order=order, checked=checked, failure=failure)


# ---------------------------------------------------------------------------
# integrals over boundary strata


@lru_cache(maxsize=None)
def _plan(tree: Tree):
    """(parent, tails): edge e joins parent[e] to vertex e+1, and tails[v]
    lists the labels (from 0) at vertex v, as in `trees._tree_model`."""
    branches, parent = _tree_model(tree.n, tree.parts)
    tails = tuple(
        tuple(q.bit_length() - 1 for q in fl if q.bit_count() == 1) for fl in branches
    )
    return tuple(parent), tails


def _vertex(phi: Potential, root: bool, base: tuple, below: list, memo: dict):
    """One vertex of a stratum: the root's value, or a branch's entry.

    ``base`` holds the sorted indices at the vertex's tails, and ``below``
    the entries of its branches, each of whose messages is contracted with
    the vertex's values on one flag.  A non-root vertex leaves one flag
    open: its entry is (id, message, row), where row[a] is its value with
    a on the open flag, message is row closed off with the inverse
    pairing, the vector it sends up, and id is a new small integer.
    Everything is an integer: values are numerators over D
    (`Potential._numerators`) and casimir weights over E
    (`Metric._casimir_num`).  So the row of a vertex whose branch has V
    vertices stands over D^V E^(V-1) and its message over D^V E^V, and
    the root's value of a V-vertex stratum over D^V E^(V-1).  ``memo``
    hash-conses entries, keyed by (root, base, the sorted ids below).
    The key is exact: values are looked up under sorted multi-indices, so
    the order of a vertex's flags cannot matter, nor, integer addition
    being exact, that of the summands; and callers require an even
    metric, so no Koszul sign depends on it.  Callers pass
    `Potential._branches`, one per potential.
    """
    key = (root, base, tuple(sorted([entry[0] for entry in below])))
    got = memo.get(key)
    if got is not None:
        return got
    rank = phi.metric.rank
    ynum = phi._numerators[1]
    combos = [(base, 1)]
    for _, vec, _ in below:
        nxt = []
        for part, w in combos:
            for slot in range(rank):
                wv = vec[slot]
                if wv:
                    nxt.append((part + (slot,), w * wv))
        combos = nxt
        if not combos:
            break
    if root:
        got = 0
        for part, w in combos:
            yv = ynum.get(tuple(sorted(part)))
            if yv:
                got += w * yv
    else:
        row = [0] * rank
        for part, w in combos:
            for a in range(rank):
                yv = ynum.get(tuple(sorted(part + (a,))))
                if yv:
                    row[a] += w * yv
        out = [0] * rank
        for a, b, w in phi.metric._casimir_num[1]:
            if row[a]:
                out[b] += w * row[a]
        got = (len(memo), out, row)
    memo[key] = got
    return got


def _stratum_numerator(phi: Potential, tree: Tree, idx, memo: dict) -> int:
    """One stratum's integral times `_stratum_den`: the one stratum walk.

    Works up the tree from the leaves through `_vertex`: each component
    sends its parent a vector obtained by closing its own value off with
    the inverse pairing, and the root contracts everything that reaches
    it.  That contraction runs in integers, one value numerator over D
    per vertex and one casimir numerator over E per edge, so the root's
    value stands over D^V E^(V-1) for V vertices.  ``memo`` is the
    potential's branch memo, `Potential._branches`, or a fresh dict.
    """
    parent, tails = _plan(tree)
    # parent[e] <= e, so vertex v comes after every vertex below it
    sent: list[list] = [[] for _ in tails]
    for v in range(len(tails) - 1, 0, -1):
        base = tuple(sorted([idx[t] for t in tails[v]]))
        sent[parent[v - 1]].append(_vertex(phi, False, base, sent[v], memo))
    return _vertex(phi, True, tuple(sorted([idx[t] for t in tails[0]])), sent[0], memo)


def _stratum_den(phi: Potential, nv: int) -> int:
    """D^V E^(V-1): the denominator of every stratum with V = nv vertices."""
    return phi._numerators[0] ** nv * phi.metric._casimir_num[0] ** (nv - 1)


def _stratum_value(phi: Potential, tree: Tree, idx, memo=None) -> Fraction:
    """One stratum's integral: vertex values contracted along the edges.

    The numerator comes from `_stratum_numerator` and is divided once by
    `_stratum_den` of the tree's vertex count.  Callers pass the
    potential's branch memo, `Potential._branches`; without one, a fresh
    dict makes this the memo-free reference.
    """
    num = _stratum_numerator(phi, tree, idx, {} if memo is None else memo)
    return Fraction(num, _stratum_den(phi, tree.degree + 1))


def strata_integrals(phi: Potential, n: int, indices=None) -> dict[Tree, Fraction]:
    """Integral of the n-point class against every boundary stratum.

    ``indices`` fixes the basis vector inserted at each of the n labels;
    a one-dimensional base defaults to all zeros.  Keys run over all
    stable trees on n labels in degree order.
    """
    _require_even(phi.metric, "stratum integration")
    if not 3 <= n <= phi.order:
        raise ValueError("label count must lie between 3 and the order")
    if indices is None:
        if phi.metric.rank != 1:
            raise ValueError("indices are required on a base of rank > 1")
        indices = (0,) * n
    idx = tuple(_index(i) for i in indices)
    if len(idx) != n:
        raise ValueError("need one basis index per label")
    if any(not 0 <= i < phi.metric.rank for i in idx):
        raise ValueError("basis index out of range")
    out: dict[Tree, Fraction] = {}
    for d in range(n - 2):
        vals = _stratum_column(phi, n, d, idx)
        slot = orbit_sizes(n, d, _runs(idx))[2]
        out.update(zip(enumerate_stable_trees(n, d), [vals[k] for k in slot.tolist()]))
    return out


def _runs(idx: tuple[int, ...]) -> tuple[int, ...]:
    """The lengths of the runs of equal consecutive entries of idx."""
    return tuple(len(list(run)) for _, run in groupby(idx))


def _stratum_column(phi: Potential, n: int, d: int, idx: tuple[int, ...]) -> list:
    """Stratum integrals at one multi-index, one per orbit of d-edge trees.

    The orbits are those of the relabellings that permute labels within
    runs of equal consecutive indices, and each value is that of the
    orbit's first tree (`orbit_sizes`).  It is the value of every tree of
    the orbit: such a relabelling sigma fixes the index at every label,
    so the vertices of sigma(T) carry the same multisets of tail indices
    and branches as those of T; the values are looked up under sorted
    multi-indices, and callers require an even metric, so no Koszul sign
    arises either: the integral over sigma(T) is the one over T.
    """
    firsts = orbit_sizes(n, d, _runs(idx))[0]
    fams = _families(n, d)
    memo = phi._branches
    return [_stratum_value(phi, Tree(n, fams[i]), idx, memo) for i in firsts.tolist()]


# ---------------------------------------------------------------------------
# basis selection


def _greedy_rows(rows, width: int, p: int) -> tuple[int, ...]:
    """Indices of a maximal set of rows of an integer matrix that are
    independent mod p, greedily.

    Independence mod p implies independence over the rationals, so the
    selection is safe, but it may miss rows that are independent only
    over the rationals.  Nothing in the package calls it: the tests check
    it against the plain rank, and the bench times it.
    """
    elim = ModEliminator(width, p)
    elim.feed_all(rows)
    return tuple(sorted(elim.sources))


# ---------------------------------------------------------------------------
# reconstruction of the n-point classes


@lru_cache(maxsize=None)
def _reconstruct_all(phi: Potential, n: int) -> dict[tuple[int, ...], tuple]:
    """The n-point classes at every sorted multi-index, in orbit sums.

    The class c_n(m) is invariant under the stabiliser G_m of m, which
    permutes labels within runs of equal indices, and so it is a
    combination of G_m-orbit sums: averaging any representative over G_m
    gives one.  Entry m holds, per degree r, the coefficients y_o of
    c_n(m) = sum of y_o s_o (`_invariant_block`).  They solve the pairing
    equations at the first tree R_q of each G_m-orbit q of complementary
    strata, whose right-hand sides v(R_q, m) come from `_stratum_column`,
    and `keelring._solve_full_rank` proves the residual on those rows.

    By invariance that is the residual on every complementary stratum:
    <x, g.R_q> = <x, R_q> = v(R_q, m) = v(g.R_q, m) for g in G_m, the
    last step by the orbit argument of `_stratum_column`.  So x pairs
    with every complementary stratum as c_n(m) does, and since the
    pairing is perfect, x is c_n(m).  Where every v(R_q, m) is zero, so
    is c_n(m) in degree r: `_solve_full_rank` returns its zero vector
    without a solve, and the callers skip that degree.
    """
    _require_even(phi.metric, "class reconstruction")
    if not 3 <= n <= phi.order:
        raise ValueError("label count must lie between 3 and the order")
    return {
        m: tuple(
            _solve_full_rank(n, r, _runs(m), _stratum_column(phi, n, n - 3 - r, m))
            for r in range(n - 2)
        )
        for m in combinations_with_replacement(range(phi.metric.rank), n)
    }


def reconstruct_classes(phi: Potential, n: int) -> dict[tuple[int, ...], RingElement]:
    """The n-point classes of a potential, one per sorted multi-index.

    Each class is the unique solution of the pairing equations against
    all complementary boundary monomials, with right-hand sides given by
    the stratum integrals; the potential must satisfy the associativity
    constraints for those equations to be consistent.  Each tree carries
    the coefficient of its orbit sum in `_reconstruct_all`; a degree
    whose coefficients are all zero has no terms, and its orbit table is
    not read.
    """
    _require_associative(phi)
    return {
        m: _orbit_element(n, _runs(m), enumerate(ys))
        for m, ys in _reconstruct_all(phi, n).items()
    }


def _require_associative(phi: Potential, order: int | None = None) -> None:
    """ValueError unless phi passes `wdvv_check`; below order 4 there is
    no constraint to check."""
    if (phi.order if order is None else order) < 4:
        return
    report = wdvv_check(phi, order)
    if not report.passed:
        quad, nu, _, _ = report.failure
        raise ValueError(
            f"potential violates associativity at quadruple {quad}, "
            f"spectators {nu}"
        )


# ---------------------------------------------------------------------------
# tensor products


def tensor_metric(m1: Metric, m2: Metric) -> Metric:
    """Pairing on the tensor base, flat index a * rank2 + b."""
    r1, r2 = m1.rank, m2.rank
    parities = tuple(
        (m1.parities[a] + m2.parities[b]) % 2 for a in range(r1) for b in range(r2)
    )
    gram = []
    for a in range(r1):
        for b in range(r2):
            row = []
            for c in range(r1):
                for d in range(r2):
                    v = m1.gram[a][c] * m2.gram[b][d]
                    if v and m2.parities[b] and m1.parities[c]:
                        v = -v
                    row.append(v)
            gram.append(tuple(row))
    return Metric(tuple(gram), parities)


def tensor_potential(
    phi1: Potential, phi2: Potential, order: int | None = None
) -> Potential:
    """Potential of the tensor theory, assembled degree by degree.

    The n-point value at a product insertion splits as an integral of a
    first-factor class against the second factor; expanding the first
    factor in orbit sums (`_reconstruct_all`) reduces everything to
    stratum integrals of the second, summed over orbits.  Those integrals
    are constant on the orbits of H, the stabiliser of the product index,
    by the argument of `_stratum_column`.  H lies inside the first
    factor's stabiliser, so each orbit sum is a sum over H-orbits of size
    times the value at the first tree, evaluated only under a nonzero
    coefficient.  A degree whose first-factor coefficients are all zero
    adds nothing, and its H-orbits are never asked for.  In degree r
    every stratum has r + 1 vertices and so one denominator,
    `_stratum_den`, and the coefficients come over one denominator
    (`linalg._integral`): the degree's sum of coefficient times size
    times `_stratum_numerator` runs in integers and is divided once.
    Both factors must satisfy the associativity constraints through the
    order (ValueError otherwise), and the output is checked against them
    before it is returned.  Below order 4 there are no constraints to
    check.
    """
    if order is None:
        order = min(phi1.order, phi2.order)
    if not 3 <= order <= min(phi1.order, phi2.order):
        raise ValueError("order must not exceed either truncation")
    _require_even(phi1.metric, "tensor assembly")
    _require_even(phi2.metric, "tensor assembly")
    met = tensor_metric(phi1.metric, phi2.metric)
    r2 = phi2.metric.rank
    memo = phi2._branches
    coeffs: dict[tuple[int, ...], Fraction] = {}
    _require_associative(phi2, order)
    _require_associative(phi1)
    for n in range(3, order + 1):
        # per first-factor index: (degree, numerators, denominator) of
        # each nonzero degree of its class
        classes = {
            m: [(r, *_integral(y)) for r, y in enumerate(ys) if any(y)]
            for m, ys in _reconstruct_all(phi1, n).items()
        }
        for midx in combinations_with_replacement(range(met.rank), n):
            aseq = tuple(b // r2 for b in midx)
            cseq = tuple(b % r2 for b in midx)
            tot = Fraction(0)
            for r, ynum, yden in classes[aseq]:
                slot = orbit_sizes(n, r, _runs(aseq))[2]
                firsts, sizes, _ = orbit_sizes(n, r, _runs(midx))
                fams = _families(n, r)
                num = 0
                for i, o, size in zip(
                    firsts.tolist(), slot[firsts].tolist(), sizes.tolist()
                ):
                    if ynum[o]:
                        v = _stratum_numerator(phi2, Tree(n, fams[i]), cseq, memo)
                        num += ynum[o] * size * v
                if num:
                    tot += Fraction(num, yden * _stratum_den(phi2, r + 1))
            if tot:
                coeffs[midx] = tot
    out = Potential.build(met, coeffs, order)
    if order >= 4 and not wdvv_check(out).passed:
        raise ArithmeticError("tensor assembly produced an inconsistent potential")
    return out


# ---------------------------------------------------------------------------
# rank-one theories


def _ring_exp(x: RingElement) -> RingElement:
    out = RingElement.unit(x.n)
    term = RingElement.unit(x.n)
    for k in range(1, x.n - 2):
        term = mul(term, x).scale(Fraction(1, k))
        if not term:
            break
        out = out + term
    return out


def _ring_log(c: RingElement) -> RingElement:
    u = c - RingElement.unit(c.n)
    out = RingElement(c.n, {})
    pw = RingElement.unit(c.n)
    for k in range(1, c.n - 2):
        pw = mul(pw, u)
        if not pw:
            break
        out = out + pw.scale(Fraction((-1) ** (k + 1), k))
    return out


@dataclass(frozen=True)
class RankOneTheory:
    """A sequence of classes c_n, one per label count starting at n = 3.

    These are the n-point classes of a theory on a one-dimensional base;
    the tensor product of two theories is the cup product of their
    classes, which makes the invertible ones a group.
    """

    classes: tuple[RingElement, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("need at least the three-point class")
        for k, cls in enumerate(self.classes):
            if cls.n != k + 3:
                raise ValueError("classes must cover n = 3, 4, ... in order")

    @property
    def nmax(self) -> int:
        return len(self.classes) + 2

    def c(self, n: int) -> RingElement:
        if not 3 <= n <= self.nmax:
            raise ValueError("label count out of range")
        return self.classes[n - 3]

    def coordinate(self, n: int) -> Fraction:
        return integrate(self.c(n))

    def coordinates(self) -> list[Fraction]:
        return [self.coordinate(n) for n in range(3, self.nmax + 1)]

    @classmethod
    def identity(cls, nmax: int) -> "RankOneTheory":
        return cls(tuple(RingElement.unit(n) for n in range(3, nmax + 1)))

    @classmethod
    def scaling(cls, t, nmax: int) -> "RankOneTheory":
        """The theory t^(n-2) times the unit; these form the scalars."""
        t = _exact(t)
        return cls(
            tuple(
                RingElement.unit(n).scale(t ** (n - 2)) for n in range(3, nmax + 1)
            )
        )

    @classmethod
    def from_coordinates(cls, coords) -> "RankOneTheory":
        """Reconstruct the classes whose full integrals are prescribed."""
        phi = potential_from_coordinates(coords)
        out = []
        for n in range(3, phi.order + 1):
            out.append(reconstruct_classes(phi, n)[(0,) * n])
        return cls(tuple(out))

    @classmethod
    def from_kappa(cls, s, nmax: int) -> "RankOneTheory":
        """Exponential of a kappa-class combination, sum of s_a kappa_a."""
        svals = _exacts(s)
        out = []
        for n in range(3, nmax + 1):
            x = RingElement(n, {})
            for a, sa in enumerate(svals, start=1):
                if sa:
                    x = x + kappa(n, a).element.scale(sa)
            out.append(_ring_exp(x))
        return cls(tuple(out))

    def tensor(self, other: "RankOneTheory") -> "RankOneTheory":
        nmax = min(self.nmax, other.nmax)
        return RankOneTheory(
            tuple(mul(self.c(n), other.c(n)) for n in range(3, nmax + 1))
        )

    def equals(self, other: "RankOneTheory") -> bool:
        """Class-level equality: representatives may differ by relations."""
        if self.nmax != other.nmax:
            return False
        return all(
            equal_mod_relations(self.c(n), other.c(n))
            for n in range(3, self.nmax + 1)
        )

    def is_invertible(self) -> bool:
        return self.coordinate(3) != 0

    def factor(self) -> tuple[Fraction, "RankOneTheory"]:
        """Split off the scalar part: c = scaling(t) tensor unital.

        The scalar is the three-point integral; the remaining factor has
        unit leading coefficient in every degree, which the construction
        verifies exactly.
        """
        t = self.coordinate(3)
        if t == 0:
            raise ValueError("theory is not invertible")
        unital = RankOneTheory(
            tuple(self.c(n).scale(t ** (2 - n)) for n in range(3, self.nmax + 1))
        )
        for n in range(3, unital.nmax + 1):
            if unital.c(n).component(0) != RingElement.unit(n):
                raise ArithmeticError("leading coefficients failed to normalize")
        return t, unital

    def log(self) -> tuple[RingElement, ...]:
        """Logarithms of a unital theory, degree by degree."""
        for n in range(3, self.nmax + 1):
            if self.c(n).component(0) != RingElement.unit(n):
                raise ValueError("logarithm needs unit leading coefficients")
        return tuple(_ring_log(self.c(n)) for n in range(3, self.nmax + 1))

    @classmethod
    def from_log(cls, lams) -> "RankOneTheory":
        return cls(tuple(_ring_exp(x) for x in lams))

    def verify_splitting(self, n: int) -> bool:
        """Check the boundary restriction law for every divisor at n.

        Pulling c_n back to a boundary divisor must give the outer
        product of the two smaller classes attached to its sides.  The
        law is checked in pairing space, with no pullback computed; the
        argument is in `keelring.splitting_failures`.
        """
        return not splitting_failures(
            self.c(n), lambda n1, n2: [(self.c(n1), self.c(n2))]
        )

    def to_dict(self) -> dict:
        return {"Cn": [_fmt_coeff(c) for c in self.coordinates()]}


# ---------------------------------------------------------------------------
# volume recursions


def _volumes(nmax: int) -> dict[int, Fraction]:
    v = {3: Fraction(1)}
    for n in range(4, nmax + 1):
        tot = Fraction(0)
        for i in range(1, n - 2):
            tot += (
                Fraction(i * (n - i - 2), n - 1)
                * comb(n - 4, i - 1)
                * comb(n, i + 1)
                * v[i + 2]
                * v[n - i]
            )
        v[n] = tot / 2
    return v


def wp_volumes(nmax: int) -> list[Fraction]:
    """Weil-Petersson volume polynomials' leading integrals v_4..v_nmax.

    Normalized so every value is a positive integer; v_3 = 1 seeds the
    quadratic recursion.
    """
    if nmax < 4:
        raise ValueError("nmax must be at least 4")
    vols = _volumes(nmax)
    return [vols[n] for n in range(4, nmax + 1)]


def _ser_mul(a: list[Fraction], b: list[Fraction], nmax: int) -> list[Fraction]:
    out = [Fraction(0)] * (nmax + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(min(len(b), nmax + 1 - i)):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


@dataclass(frozen=True)
class MatoneReport:
    """Coefficient-by-coefficient outcome of the volume ODE check."""

    nmax: int
    checked: int
    failure: tuple | None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_dict(self) -> dict:
        out = {"nmax": self.nmax, "checked": self.checked, "passed": self.passed}
        if self.failure is not None:
            k, lhs, rhs = self.failure
            out["failure"] = {
                "power": k,
                "lhs": _fmt_coeff(lhs),
                "rhs": _fmt_coeff(rhs),
            }
        else:
            out["failure"] = None
        return out


def matone_check(nmax: int = 12, volumes=None) -> MatoneReport:
    """Check x(x - g)g'' = x(g')^2 + (x - g)g' through x^nmax.

    The series g packages the volumes as g_k = (k+1)(k-1) v_{k+1} over
    (k+1)!(k-2)!.  Passing explicit ``volumes`` (the list v_3, v_4, ...,
    at least up to v_{nmax+1}) substitutes them for the computed ones,
    which is how a perturbed sequence is shown to break the equation.
    """
    if nmax < 3:
        raise ValueError("nmax must be at least 3")
    if volumes is None:
        vols = _volumes(nmax + 1)
        seq = [vols[k] for k in range(3, nmax + 2)]
    else:
        seq = _exacts(volumes)
        if len(seq) < nmax - 1:
            raise ValueError("need volumes up through v_{nmax+1}")
    g = [Fraction(0)] * (nmax + 1)
    for k in range(2, nmax + 1):
        vk1 = seq[k - 2]
        g[k] = Fraction((k + 1) * (k - 1)) * vk1 / (factorial(k + 1) * factorial(k - 2))
    gp = [Fraction(0)] * (nmax + 1)
    gpp = [Fraction(0)] * (nmax + 1)
    for k in range(1, nmax + 1):
        gp[k - 1] = k * g[k]
    for k in range(2, nmax + 1):
        gpp[k - 2] = k * (k - 1) * g[k]
    xmg = [-c for c in g]
    xmg[1] += 1
    lhs = _ser_mul(xmg, gpp, nmax)
    lhs = [Fraction(0)] + lhs[:nmax]  # multiply by x
    rhs1 = _ser_mul(gp, gp, nmax)
    rhs1 = [Fraction(0)] + rhs1[:nmax]
    rhs2 = _ser_mul(xmg, gp, nmax)
    rhs = [a + b for a, b in zip(rhs1, rhs2)]
    failure = None
    for k in range(nmax + 1):
        if lhs[k] != rhs[k]:
            failure = (k, lhs[k], rhs[k])
            break
    return MatoneReport(nmax=nmax, checked=nmax + 1, failure=failure)


# ---------------------------------------------------------------------------
# stratum coefficients of the kappa classes


@dataclass(frozen=True)
class ACoefficients:
    """Symmetric stratum coefficients of one kappa class.

    ``entries`` lists one orbit representative per symmetry class of
    degree-a trees with its orbit size and coefficient.  The system that
    determines them is solved in the row space, so the answer is the
    canonical one even when boundary monomials are linearly dependent;
    ``kernel_dim`` records how much freedom was quotiented away.
    """

    n: int
    a: int
    entries: tuple[tuple[Tree, int, Fraction], ...]
    kernel_dim: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "kernel_dim": self.kernel_dim,
            "orbits": [
                {"tree": str(rep), "size": size, "value": _fmt_coeff(val)}
                for rep, size, val in self.entries
            ],
        }


@lru_cache(maxsize=None)
def a_coefficients(n: int, a: int) -> ACoefficients:
    """Solve for the stratum expansion coefficients of kappa_a at n.

    The defining equations pair a symmetric degree-a boundary sum
    against every complementary monomial; the right-hand side is 1
    exactly when the monomial's tree has a vertex of valency a + 3
    (`taut._kappa_pairings`).  By symmetry one equation per orbit
    suffices: the matrix M is `_invariant_block` for the whole symmetric
    group.  The canonical solution y = M^T w lies in the row space; w
    solves the integer normal equations M M^T w = rhs, and M y = rhs is
    checked exactly.  ``kernel_dim`` counts the independent relations
    among the orbit sums, M's kernel.  The pivot columns P of M mod p are
    independent over the rationals, and a certified solve of M[:, P] x =
    -M[:, f] puts each other column f in their span; a prime that drops
    the rank leaves some f outside it, and the next prime is tried.
    """
    if not 1 <= a <= n - 3:
        raise ValueError("need 1 <= a <= n - 3")
    unknowns = orbit_reps(n, a)
    block = _invariant_block(n, a, (n,))
    rhs = _kappa_pairings(n, a)
    for p in PRIMES[:3]:
        elim = ModEliminator(len(unknowns), p)
        elim.feed_all(block)
        free = [-block[:, f] for f in range(len(unknowns)) if f not in elim.piv_cols]
        try:
            solve_certified(block[:, elim.piv_cols], [col.tolist() for col in free])
            break
        except Inconsistent:
            pass
    else:
        raise RuntimeError("the kernel dimension failed to certify with three primes")
    m = block.astype(object)
    (w,) = solve_certified((m @ m.T).tolist(), [rhs])
    y = [Fraction(v) for v in m.T @ np.array(w, dtype=object)]
    if (m @ np.array(y, dtype=object)).tolist() != rhs:
        raise ArithmeticError("row-space solution failed verification")
    entries = tuple((rep, size, y[k]) for k, (rep, size) in enumerate(unknowns))
    return ACoefficients(n=n, a=a, entries=entries, kernel_dim=len(free))


# ---------------------------------------------------------------------------
# the generalized volume recursion


@lru_cache(maxsize=None)
def omega_recursion(n: int, a: int) -> Fraction:
    """Integral of the exponentiated kappa_a class via the recursion.

    Sums over degree-a boundary strata weighted by the kappa stratum
    coefficients, a multinomial in the slot counts (|v| - 3)/a, and the
    product of the smaller integrals at each vertex.  Defined when a
    divides n - 3; the a = 1 case reproduces the volume sequence.
    """
    if a < 1:
        raise ValueError("a must be positive")
    if n < 3:
        raise ValueError("need at least three labels")
    if (n - 3) % a:
        raise ValueError("the recursion needs a to divide n - 3")
    if n == 3:
        return Fraction(1)
    if n == a + 3:
        return z(a + 3)
    slots = (n - 3) // a
    tot = Fraction(0)
    for rep, size, value in a_coefficients(n, a).entries:
        vals = rep.valencies()
        if any((v - 3) % a for v in vals):
            continue
        weight = Fraction(factorial(slots - 1))
        for v in vals:
            weight /= factorial((v - 3) // a)
        prod_part = Fraction(1)
        for v in vals:
            prod_part *= omega_recursion(v, a)
        tot += size * value * weight * prod_part
    return z(a + 3) * tot


# ---------------------------------------------------------------------------
# the product of two projective lines


def p1xp1_numbers(kmax: int) -> dict[tuple[int, int], Fraction]:
    """Counts of rational curves of bidegree (a, b) on the quadric.

    Seeded by the two rulings and grown by the quadratic recursion that
    the associativity constraints impose on the bidegree generating
    function.  Keys cover 1 <= a + b <= kmax.
    """
    out: dict[tuple[int, int], Fraction] = {
        (1, 0): Fraction(1),
        (0, 1): Fraction(1),
    }
    for total in range(2, kmax + 1):
        for alpha in range(total + 1):
            beta = total - alpha
            acc = Fraction(0)
            for a in range(alpha + 1):
                for b in range(beta + 1):
                    k1 = a + b
                    if k1 == 0 or k1 == total:
                        continue
                    ap, bp = alpha - a, beta - b
                    n1 = out.get((a, b))
                    n2 = out.get((ap, bp))
                    if not n1 or not n2:
                        continue
                    w = (a * a * bp * bp + a * b * ap * bp) * comb(
                        2 * total - 4, 2 * k1 - 2
                    ) - (a * a * b * bp + a * b * b * ap) * comb(
                        2 * total - 4, 2 * k1 - 1
                    )
                    if w:
                        acc += n1 * n2 * w
            out[(alpha, beta)] = acc
    return out


def extract_p1xp1_numbers(phi: Potential) -> dict[tuple[int, int], Fraction]:
    """Read bidegree counts back off a quadric-surface potential.

    For each total degree k, the coefficients of z^(2k-1) y1^p y2^q form
    a moment system a^p (k-a)^q in the numbers N(a, k - a), a = 0 .. k,
    solved exactly for the k where it pins the numbers down uniquely at
    this truncation order: exactly k <= (order + 1) / 3.  For k >= 2
    every row with p + q <= D = order - 2k + 1 is present; on the k + 1
    points a those rows span the polynomials of degree <= D, so the
    columns are independent iff D >= k, that is iff 3k - 1 <= order.
    For k = 1 the rows (p, q) = (2, 0) and (0, 2) already give rank 2
    (order >= 3).
    """
    if phi.metric.rank != 4:
        raise ValueError("expected a potential on the rank-four flat basis")
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(1, (phi.order + 1) // 3 + 1):
        m = 2 * k - 1
        pairs = [(a, k - a) for a in range(k + 1)]
        rows = []
        rhs = []
        for p in range(0, phi.order - m + 1):
            for q in range(0, phi.order - m - p + 1):
                if m + p + q < 3:
                    continue
                rows.append([a**p * b**q for a, b in pairs])
                rhs.append(phi.y((1,) * q + (2,) * p + (3,) * m))
        (sol,) = solve_certified(rows, [rhs])
        for (a, b), v in zip(pairs, sol):
            out[(a, b)] = v
    return out
