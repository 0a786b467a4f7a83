"""The boundary-divisor presentation of the cohomology ring of M̄₀,ₙ.

Elements are rational combinations of good monomials (products of pairwise
compatible boundary divisors, one per stable tree).  Multiplication rewrites
any divisor-times-monomial product back into that spanning set: compatible
divisors extend the tree, crossing divisors kill the term, and a repeated
divisor is traded for a signed sum of one-edge refinements obtained by
transplanting branches onto the doubled edge.

Good monomials span but are not a basis; the canonical linear relations
among them are generated here as well, both to compute Betti numbers and
to decide equality of classes (reduction modulo the relation span).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from . import linalg
from .trees import (
    Flag,
    Split,
    Tree,
    a_value_masks,
    canonical_side,
    enumerate_stable_trees,
    full_mask,
    labels_of,
    mask_of,
    stable_splits,
)


def _fmt_coeff(c) -> str:
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


class RingElement:
    """A rational combination of good monomials over one label set."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Tree, Fraction] | None = None):
        self.n = n
        self.terms = {t: c for t, c in (terms or {}).items() if c}

    @classmethod
    def unit(cls, n: int) -> "RingElement":
        return cls(n, {Tree.one_vertex(n): Fraction(1)})

    @classmethod
    def divisor(cls, sigma: Split) -> "RingElement":
        return cls(sigma.n, {Tree(sigma.n, (sigma.side,)): Fraction(1)})

    @classmethod
    def monomial(cls, tree: Tree, coeff=1) -> "RingElement":
        return cls(tree.n, {tree: Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        """Formal (term-by-term) equality, not equality of classes."""
        if isinstance(other, RingElement):
            return self.n == other.n and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) + c
        return RingElement(self.n, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.n, {t: -c for t, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return ring(self.n).mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def relabel(self, perm: tuple[int, ...]) -> "RingElement":
        """Rename the labels of every monomial by i -> perm[i-1]."""
        from .trees import relabel

        return RingElement(self.n, {relabel(t, perm): c for t, c in self.terms.items()})

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        return RingElement(self.n, {t: c * v for t, v in self.terms.items()})

    def _check(self, other: "RingElement") -> None:
        if self.n != other.n:
            raise ValueError("elements live on different label sets")

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({t.degree for t in self.terms}))

    def component(self, d: int) -> "RingElement":
        return RingElement(self.n, {t: c for t, c in self.terms.items() if t.degree == d})

    def sorted_terms(self) -> list[tuple[Tree, Fraction]]:
        return sorted(self.terms.items(), key=lambda tc: (tc[0].degree, tc[0].parts))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t, c in self.sorted_terms():
            mono = str(t) if t.degree else "1"
            bits.append(f"{_fmt_coeff(c)}*{mono}")
        return " + ".join(bits)

    def to_dict(self) -> dict:
        from .trees import tree_dict

        return {
            "n": self.n,
            "terms": [
                {"tree": tree_dict(t), "coeff": _fmt_coeff(c)}
                for t, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, obj: dict) -> "RingElement":
        from .trees import tree_from_dict

        n = int(obj["n"])
        terms: dict[Tree, Fraction] = {}
        for item in obj["terms"]:
            t = tree_from_dict(item["tree"])
            terms[t] = terms.get(t, Fraction(0)) + Fraction(item["coeff"])
        return cls(n, terms)

    @classmethod
    def from_json(cls, text: str) -> "RingElement":
        return cls.from_dict(json.loads(text))


class Ring:
    """Multiplication context for one label count, with product memoing."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least three labels")
        self.n = n
        # at n = 8 the divisor-times-monomial keys essentially never repeat
        # across a computation, so a memo would only burn memory
        self._mul_cache: dict | None = {} if n <= 7 else None

    def unit_tree(self) -> Tree:
        return Tree.one_vertex(self.n)

    def mul_divisor_raw(self, side: int, m: Tree) -> dict[Tree, int]:
        """D_sigma times a good monomial, as a bare tree -> coeff map."""
        cache = self._mul_cache
        if cache is not None:
            hit = cache.get((side, m.parts))
            if hit is not None:
                return hit
        out = self._mul_divisor_compute(side, m)
        if cache is not None:
            cache[(side, m.parts)] = out
        return out

    def _mul_divisor_compute(self, side: int, m: Tree) -> dict[Tree, int]:
        n = self.n
        if side in m.parts:
            return self._square_rewrite(m, m.parts.index(side))
        for p in m.parts:
            if a_value_masks(n, side, p) == 4:
                return {}
        return {Tree(n, tuple(sorted(m.parts + (side,)))): 1}

    def _square_rewrite(self, m: Tree, e: int) -> dict[Tree, int]:
        """Trade the doubled edge e for refinements with one extra edge.

        At each endpoint the two branches with the smallest labels stay
        put; every nonempty subset of the remaining branches moves onto
        the subdivided edge, each resulting tree with coefficient -1.
        The choice of the fixed pair does not affect the class (tested
        exhaustively), only the representative.
        """
        n = self.n
        f = full_mask(n)
        out: dict[Tree, int] = {}
        for v in m.edge_vertices(e):
            flags = [
                fl
                for fl in m.flags_at(v)
                if not (fl.kind == "edge" and fl.ref == e)
            ]
            flags.sort(key=lambda fl: (fl.branch & -fl.branch))
            movable = flags[2:]
            if not movable:
                continue
            # labels across e from v: the edge flag's branch at v
            _, inner = m.edge_vertices(e)
            far = m.parts[e] if v == inner else f ^ m.parts[e]
            for k in range(1, len(movable) + 1):
                for chosen in combinations(movable, k):
                    moved = 0
                    for fl in chosen:
                        moved |= fl.branch
                    new_part = canonical_side(n, far | moved)
                    parts = tuple(sorted(m.parts + (new_part,)))
                    t = Tree(n, parts)
                    out[t] = out.get(t, 0) - 1
        return {t: c for t, c in out.items() if c}

    def mul_element_divisor(self, terms: dict, side: int) -> dict:
        out: dict[Tree, Fraction] = {}
        for t, c in terms.items():
            for t2, c2 in self.mul_divisor_raw(side, t).items():
                now = out.get(t2, 0) + c * c2
                if now:
                    out[t2] = now
                else:
                    out.pop(t2, None)
        return out

    def reduce(self, sigmas: Iterable[Split]) -> RingElement:
        """Normal form of a product of boundary divisors."""
        terms: dict = {self.unit_tree(): Fraction(1)}
        for s in sigmas:
            if s.n != self.n:
                raise ValueError("partition over the wrong label set")
            terms = self.mul_element_divisor(terms, s.side)
            if not terms:
                break
        return RingElement(self.n, terms)

    def mul_monomials(self, t1: Tree, t2: Tree) -> dict:
        terms: dict = {t1: Fraction(1)}
        for side in t2.parts:
            terms = self.mul_element_divisor(terms, side)
            if not terms:
                break
        return terms

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        if x.n != self.n or y.n != self.n:
            raise ValueError("elements over the wrong label set")
        # iterate over the element with fewer divisor factors
        if sum(t.degree for t in y.terms) > sum(t.degree for t in x.terms):
            x, y = y, x
        out: dict[Tree, Fraction] = {}
        for t2, c2 in y.terms.items():
            terms = dict(x.terms)
            for side in t2.parts:
                terms = self.mul_element_divisor(terms, side)
                if not terms:
                    break
            for t, c in terms.items():
                now = out.get(t, 0) + c2 * c
                if now:
                    out[t] = now
                else:
                    out.pop(t, None)
        return RingElement(self.n, out)

    def power(self, x: RingElement, k: int) -> RingElement:
        out = RingElement.unit(self.n)
        for _ in range(k):
            out = self.mul(out, x)
        return out


@lru_cache(maxsize=None)
def ring(n: int) -> Ring:
    return Ring(n)


def mul_divisor(sigma: Split, m) -> RingElement:
    """D_sigma times a good monomial (or any element), in normal form."""
    r = ring(sigma.n)
    if isinstance(m, Tree):
        return RingElement(sigma.n, dict(r.mul_divisor_raw(sigma.side, m)))
    return RingElement(sigma.n, r.mul_element_divisor(m.terms, sigma.side))


def reduce_product(sigmas: list[Split]) -> RingElement:
    if not sigmas:
        raise ValueError("empty product; use RingElement.unit")
    return ring(sigmas[0].n).reduce(sigmas)


def mul(x: RingElement, y: RingElement) -> RingElement:
    return ring(x.n).mul(x, y)


def d_sigma_squared_avg(sigma: Split) -> RingElement:
    """The square of a boundary divisor, averaged over all rewrites.

    Instead of fixing one pair of stationary branches, average the
    one-branch-moving rewrites with the weights that make the expression
    symmetric in both sides of the partition.  Must agree with the
    deterministic rewrite modulo relations, which the tests check.
    """
    n = sigma.n
    r = ring(n)
    out: dict[Tree, Fraction] = {}
    for here, there in ((sigma.side, sigma.other), (sigma.other, sigma.side)):
        labels = labels_of(here)
        size = len(labels)
        for k in range(1, size - 1):
            weight = Fraction((size - k) * (size - k - 1), size * (size - 1))
            for moved in combinations(labels, k):
                moved_mask = mask_of(moved, n)
                other_side = canonical_side(n, there | moved_mask)
                for t, c in r.mul_divisor_raw(
                    other_side, Tree(n, (canonical_side(n, sigma.side),))
                ).items():
                    now = out.get(t, 0) - weight * c
                    if now:
                        out[t] = now
                    else:
                        out.pop(t, None)
    return RingElement(n, out)


# ---------------------------------------------------------------------------
# canonical linear relations among good monomials


@dataclass(frozen=True)
class Relation:
    element: RingElement
    tree: Tree
    vertex: int
    foursome: tuple[Flag, Flag, Flag, Flag]


def _insertion_sum(tree: Tree, v: int, pair: tuple[Flag, Flag], rest: list[Flag]):
    """All one-edge refinements at v grouping the pair plus any subset of rest."""
    n = tree.n
    base = pair[0].branch | pair[1].branch
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            side = base
            for fl in extra:
                side |= fl.branch
            yield Tree(n, tuple(sorted(tree.parts + (canonical_side(n, side),))))


def relation(tree: Tree, v: int, foursome: tuple[Flag, ...]) -> Relation:
    """The canonical relation attached to four flags at a fat vertex.

    Summing all refinements that keep the first two flags together, minus
    all refinements that keep flags two and three together, gives a
    combination of good monomials that vanishes in the cohomology ring.
    """
    if len(foursome) != 4 or len(set(foursome)) != 4:
        raise ValueError("need four distinct flags")
    if any(fl not in tree.flags_at(v) for fl in foursome):
        raise ValueError("flags must sit at the given vertex")
    if len(tree.flags_at(v)) < 4:
        raise ValueError("vertex valency must be at least 4")
    fi, fj, fk, fl = foursome
    rest = [f for f in tree.flags_at(v) if f not in foursome]
    terms: dict[Tree, Fraction] = {}
    for t in _insertion_sum(tree, v, (fi, fj), rest):
        terms[t] = terms.get(t, 0) + 1
    for t in _insertion_sum(tree, v, (fk, fj), rest):
        terms[t] = terms.get(t, 0) - 1
    return Relation(RingElement(tree.n, terms), tree, v, tuple(foursome))


def relations_of_degree(n: int, d: int) -> list[Relation]:
    """Every canonical relation among degree-d good monomials.

    Both independent flag pairings are taken for each foursome at each
    fat vertex of each degree-(d-1) tree; the redundancy is harmless for
    rank purposes and needed for the spanning property at small n.
    """
    if d < 1:
        return []
    out = []
    for tree in enumerate_stable_trees(n, d - 1):
        for v in range(tree.degree + 1):
            flags = tree.flags_at(v)
            if len(flags) < 4:
                continue
            for foursome in combinations(flags, 4):
                a, b, c, e = foursome
                # grouping a flag set and its complement insert the same
                # edge, so each foursome has three distinct pair sums; two
                # differences with a common middle term span all of them
                out.append(relation(tree, v, (a, b, c, e)))
                out.append(relation(tree, v, (a, c, b, e)))
    return out


def keel_relation(n: int, i: int, j: int, k: int, l: int) -> RingElement:
    """The classical four-point relation pulled up to n labels.

    Sum of divisors separating {i,j} from {k,l} minus those separating
    {k,j} from {i,l}; its product with anything reduces to zero.
    """
    if len({i, j, k, l}) != 4:
        raise ValueError("labels must be distinct")
    terms: dict[Tree, Fraction] = {}
    mij = mask_of([i, j], n)
    mkl = mask_of([k, l], n)
    mkj = mask_of([k, j], n)
    mil = mask_of([i, l], n)
    for side in stable_splits(n):
        far = full_mask(n) ^ side
        for a, b, sign in ((mij, mkl, 1), (mkj, mil, -1)):
            if (side & a == a and far & b == b) or (side & b == b and far & a == a):
                t = Tree(n, (side,))
                terms[t] = terms.get(t, 0) + sign
    return RingElement(n, terms)


# ---------------------------------------------------------------------------
# equality modulo relations, and Betti numbers


@lru_cache(maxsize=None)
def _coordmap(n: int, d: int) -> linalg.FractionRREF:
    """Reduced form of the relation span among degree-d monomials, n <= 6."""
    basis = {t: i for i, t in enumerate(enumerate_stable_trees(n, d))}
    rref = linalg.FractionRREF()
    for rel in relations_of_degree(n, d):
        rref.add({basis[t]: c for t, c in rel.element.terms.items()})
    return rref


def class_vector(x: RingElement) -> tuple:
    """A canonical coordinate form of the class of x (exact, n <= 6).

    Two elements represent the same cohomology class exactly when their
    canonical forms coincide: each graded piece is reduced modulo the
    span of the canonical relations.
    """
    if x.n > 6:
        raise ValueError("canonical class coordinates implemented for n <= 6")
    out = []
    for d in x.degrees():
        basis = {t: i for i, t in enumerate(enumerate_stable_trees(x.n, d))}
        vec = {basis[t]: c for t, c in x.component(d).terms.items()}
        reduced = _coordmap(x.n, d).reduce(vec)
        if reduced:
            out.append((d, tuple(sorted(reduced.items()))))
    return tuple(out)


def is_zero_class(x: RingElement) -> bool:
    """Whether x vanishes in cohomology (not just formally)."""
    if not x.terms:
        return True
    if x.n <= 6:
        return not class_vector(x)
    # Poincaré duality: a class on a smooth proper space is zero exactly
    # when it pairs to zero with everything of complementary degree
    from .intersect import pair_element

    return not any(
        pair_element(x, m)
        for d in x.degrees()
        for m in enumerate_stable_trees(x.n, x.n - 3 - d)
    )


def equal_mod_relations(x: RingElement, y: RingElement) -> bool:
    return is_zero_class(x - y)


def _relation_rows(n: int, d: int) -> list:
    """Canonical degree-d relations as sparse (cols, vals) rows."""
    basis = {t: i for i, t in enumerate(enumerate_stable_trees(n, d))}
    return [
        (
            [basis[t] for t in rel.element.terms],
            [int(c) for c in rel.element.terms.values()],
        )
        for rel in relations_of_degree(n, d)
    ]


def betti(n: int, r: int | None = None):
    """Exact Betti numbers of the even cohomology, doubly certified.

    For each degree the count of good monomials minus the rank of the
    relation span must equal the rank of the intersection pairing against
    the complementary degree.  Working mod p both ranks are only lower
    bounds of the rational ones, but relations pair to zero with
    everything, so the two bounds squeeze the same number from both sides:
    when they meet, both are exact.  A failure to meet triggers a retry
    with a fresh prime; persistent failure is an engine bug worth a crash.

    Returns the full vector, or a single number when r is given.
    """
    from .cohft import _sp_rows

    degrees = range(n - 2) if r is None else [r]
    out = []
    for d in degrees:
        ngood = len(enumerate_stable_trees(n, d))
        ncomp = len(enumerate_stable_trees(n, n - 3 - d))
        relations = _relation_rows(n, d)
        pairings = _sp_rows(n, d)
        for p in linalg.PRIMES[:3]:
            relrank = linalg.rank_mod(relations, ngood, p)
            pairrank = linalg.rank_mod(pairings, ncomp, p)
            if relrank + pairrank == ngood:
                out.append(pairrank)
                break
        else:
            raise RuntimeError(
                f"rank certificate failed at n={n}, degree {d}: "
                "relation and pairing ranks never squeeze shut"
            )
    return out if r is None else out[0]


# ---------------------------------------------------------------------------
# restriction to a boundary divisor


@dataclass(frozen=True)
class TensorElement:
    """An element of the tensor product of two divisor rings.

    Terms map a pair of tree keys (one per factor) to a coefficient.
    Used for restrictions to a boundary divisor, whose ambient space is a
    product of two smaller moduli spaces.
    """

    n1: int
    n2: int
    terms: tuple  # sorted ((parts1, parts2), Fraction) pairs

    @classmethod
    def make(cls, n1: int, n2: int, data: dict) -> "TensorElement":
        cleaned = {k: Fraction(v) for k, v in data.items() if v}
        return cls(n1, n2, tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        out = dict(self.terms)
        for k, v in other.terms:
            out[k] = out.get(k, 0) + v
        return TensorElement.make(self.n1, self.n2, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElement":
        return TensorElement.make(
            self.n1, self.n2, {k: Fraction(c) * v for k, v in self.terms}
        )

    def is_zero_class(self) -> bool:
        """Zero as a class: reduce both factors to canonical coordinates.

        The per-factor canonical forms are injective on classes, so their
        tensor is injective on the tensor product of the quotients.
        """
        acc: dict = {}
        for (p1, p2), c in self.terms:
            v1 = class_vector(RingElement.monomial(Tree(self.n1, p1)))
            v2 = class_vector(RingElement.monomial(Tree(self.n2, p2)))
            for d1, items1 in v1:
                for c1i, a1 in items1:
                    for d2, items2 in v2:
                        for c2i, a2 in items2:
                            key = (d1, c1i, d2, c2i)
                            now = acc.get(key, 0) + c * a1 * a2
                            if now:
                                acc[key] = now
                            else:
                                acc.pop(key, None)
        return not acc


def tensor_unit(n1: int, n2: int) -> TensorElement:
    return TensorElement.make(n1, n2, {((), ()): Fraction(1)})


def tensor_of_factors(x1: RingElement, x2: RingElement) -> TensorElement:
    out: dict = {}
    for t1, c1 in x1.terms.items():
        for t2, c2 in x2.terms.items():
            out[(t1.parts, t2.parts)] = c1 * c2
    return TensorElement.make(x1.n, x2.n, out)


class DivisorGeometry:
    """Label bookkeeping for one boundary divisor's product structure.

    Side i of the partition, together with a marker for the attaching
    node, forms the label set of factor i: the side's labels in sorted
    order become 1..|S_i| and the marker becomes the last label.
    """

    def __init__(self, sigma: Split):
        self.sigma = sigma
        self.n = sigma.n
        s1 = labels_of(sigma.side)
        s2 = labels_of(sigma.other)
        self.n1 = len(s1) + 1
        self.n2 = len(s2) + 1
        self.pos1 = {lab: i + 1 for i, lab in enumerate(s1)}
        self.pos2 = {lab: i + 1 for i, lab in enumerate(s2)}

    def factor_mask(self, which: int, mask: int) -> int:
        pos = self.pos1 if which == 0 else self.pos2
        out = 0
        for lab in labels_of(mask):
            out |= 1 << (pos[lab] - 1)
        return out

    def _marker_sums(self) -> list[tuple[int, int, int]]:
        """(factor, side-mask, coefficient) terms of the self-restriction.

        The divisor restricted to its own stratum is minus the sum, on
        each factor, of all divisors separating that factor's two
        smallest original labels from the attaching marker.
        """
        out = []
        for which, nf in ((0, self.n1), (1, self.n2)):
            keep = 0b11  # factor labels 1 and 2, the two smallest originals
            marker = 1 << (nf - 1)
            for side in stable_splits(nf):
                # canonical sides contain factor label 1, so "keep with the
                # pair, marker across" reads off one way only
                if side & keep == keep and not side & marker:
                    out.append((which, side, -1))
        return out

    def restrict_divisor(self, t_side: int) -> list[tuple[int, int, int]] | None:
        """One divisor's restriction as (factor, side, coeff) terms.

        None means the divisor meets this boundary stratum in a smaller
        stratum transversally on neither side: the product vanishes.
        """
        sig = self.sigma.side
        if t_side == sig:
            return self._marker_sums()
        n = self.n
        if a_value_masks(n, sig, t_side) == 4:
            return None
        f = full_mask(n)
        other = f ^ sig
        for cand in (t_side, f ^ t_side):
            if cand and cand & other == 0:
                return [(0, self.factor_mask(0, cand), 1)]
            if cand and cand & sig == 0:
                return [(1, self.factor_mask(1, cand), 1)]
        raise AssertionError("unreachable: compatible divisor must restrict")


def pullback_to_divisor(sigma: Split, x: RingElement) -> TensorElement:
    """Restriction of a class to the boundary divisor named by sigma.

    The result lives on the product of the two factor spaces, each factor
    carrying one side of the partition plus the attaching node as a fresh
    last label.
    """
    geo = DivisorGeometry(sigma)
    r1, r2 = ring(geo.n1), ring(geo.n2)
    total: dict = {}
    for mono, coeff in x.terms.items():
        acc: dict = {((), ()): Fraction(coeff)}
        for part in mono.parts:
            rules = geo.restrict_divisor(part)
            if rules is None:
                acc = {}
                break
            nxt: dict = {}
            for (p1, p2), c in acc.items():
                for which, side, sign in rules:
                    if which == 0:
                        prods = r1.mul_divisor_raw(
                            canonical_side(geo.n1, side), Tree(geo.n1, p1)
                        )
                        for t, c2 in prods.items():
                            key = (t.parts, p2)
                            now = nxt.get(key, 0) + c * sign * c2
                            if now:
                                nxt[key] = now
                            else:
                                nxt.pop(key, None)
                    else:
                        prods = r2.mul_divisor_raw(
                            canonical_side(geo.n2, side), Tree(geo.n2, p2)
                        )
                        for t, c2 in prods.items():
                            key = (p1, t.parts)
                            now = nxt.get(key, 0) + c * sign * c2
                            if now:
                                nxt[key] = now
                            else:
                                nxt.pop(key, None)
            acc = nxt
        for key, c in acc.items():
            now = total.get(key, 0) + c
            if now:
                total[key] = now
            else:
                total.pop(key, None)
    return TensorElement.make(geo.n1, geo.n2, total)
