"""The boundary-divisor presentation of the cohomology ring of M̄₀,ₙ.

Elements are rational combinations of good monomials (products of pairwise
compatible boundary divisors, one per stable tree).  Multiplication rewrites
any divisor-times-monomial product back into that spanning set: compatible
divisors extend the tree, crossing divisors kill the term (rejected by one
bitmask test, see `Ring`), and a repeated divisor is traded for a signed sum
of one-edge refinements obtained by transplanting branches onto the doubled
edge.

Good monomials span but are not a basis; the canonical linear relations
among them are generated here as well, for the Betti numbers.  Equality
of classes needs no basis: the intersection pairing is perfect, so a
class is zero exactly when it pairs to zero with every good monomial of
the complementary degree (see `class_vector`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Iterable

from . import linalg
from .trees import (
    Flag,
    Split,
    Tree,
    _compat_graph,
    _integer,
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


def _exact(value) -> Fraction:
    """A rational read from JSON: an integer or a string such as "p/q".

    Floats are refused: the binary value of 0.1 is not one tenth, and an
    inexact number must not enter an exact computation.  So are bools,
    which Python counts as integers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an integer or a 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"{value!r} has a zero denominator") from exc


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

        n = _integer(obj["n"])
        terms: dict[Tree, Fraction] = {}
        for item in obj["terms"]:
            if _integer(item["tree"]["n"]) != n:
                raise ValueError(f"a term's tree does not have {n} labels")
            t = tree_from_dict(item["tree"])
            terms[t] = terms.get(t, Fraction(0)) + _exact(item["coeff"])
        return cls(n, terms)

    @classmethod
    def from_json(cls, text: str) -> "RingElement":
        return cls.from_dict(json.loads(text))


class Ring:
    """Multiplication context for one label count, with product memoing.

    Every product runs through one kernel, `_product`: a combination of
    good monomials times words of boundary divisors.  A divisor whose split
    crosses an edge of a monomial multiplies it to zero.  So each monomial
    carries one compatibility bitmask over `stable_splits(n)`, the AND of
    its edges' rows of `trees._compat_graph(n)` (each row with its own bit
    set), and a crossing product is rejected by a single AND: it never
    reaches `mul_divisor_raw`, builds no tree and does no `Fraction`
    arithmetic.  Coefficients stay integers over one common denominator
    until the result is built.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least three labels")
        self.n = n
        sides = stable_splits(n)
        graph = _compat_graph(n)
        self._bit = {s: 1 << i for i, s in enumerate(sides)}
        self._row = {s: graph[i] | 1 << i for i, s in enumerate(sides)}
        self._everything = (1 << len(sides)) - 1
        # The memo holds products that survived the crossing test.  On the
        # psi_monomial lattice at n = 7 they repeat across elements: 1.97 M
        # asked, 13,356 distinct (hit ratio 0.993), and the memo cuts the
        # time to a third.  The psi powers behind kappa never repeat one
        # (hit ratio 0 at n = 7 and at n = 8, where a memo costs 131k
        # entries and 70 % more time), and n = 8 lattices are out of reach.
        self._mul_cache: dict | None = {} if n <= 7 else None

    def mul_divisor_raw(self, side: int, parts: tuple[int, ...]) -> tuple:
        """D_side times the monomial with these edges, none crossing side.

        Every term of such a product is the monomial with one more edge,
        so the answer lists (edges of the term, new edge, coefficient).
        """
        cache = self._mul_cache
        if cache is not None:
            hit = cache.get((side, parts))
            if hit is not None:
                return hit
        out = self._mul_divisor_compute(side, parts)
        if cache is not None:
            cache[(side, parts)] = out
        return out

    def _mul_divisor_compute(self, side: int, parts: tuple[int, ...]) -> tuple:
        if side in parts:
            terms = self._square_rewrite(parts, parts.index(side))
        else:
            terms = ((side, 1),)
        return tuple((tuple(sorted(parts + (new,))), new, c) for new, c in terms)

    def _square_rewrite(self, parts: tuple[int, ...], e: int) -> tuple:
        """Trade the doubled edge e for refinements with one extra edge.

        At each endpoint the two branches with the smallest labels stay
        put; every nonempty subset of the remaining branches moves onto
        the subdivided edge, each resulting tree with coefficient -1.
        The choice of the fixed pair does not affect the class (tested
        exhaustively), only the representative.
        """
        n = self.n
        f = full_mask(n)
        # the sides of the other edges, seen from either end
        sides = [q for g, p in enumerate(parts) if g != e for q in (p, f ^ p)]
        out: dict[int, int] = {}
        # the endpoint nearer label 1 first; its branches cover parts[e]
        for here in (parts[e], f ^ parts[e]):
            # The edge sides form a laminar family, so the branches at this
            # endpoint are the maximal sides inside `here` plus the labels
            # no such side covers.
            inside = [q for q in sides if q & here == q]
            branches = [q for q in inside if not any(q & r == q != r for r in inside)]
            covered = 0
            for q in branches:
                covered |= q
            rest = here & ~covered
            while rest:
                branches.append(rest & -rest)
                rest &= rest - 1
            branches.sort(key=lambda q: q & -q)
            movable = branches[2:]
            for k in range(1, len(movable) + 1):
                for chosen in combinations(movable, k):
                    moved = 0
                    for q in chosen:
                        moved |= q
                    new = canonical_side(n, (f ^ here) | moved)
                    out[new] = out.get(new, 0) - 1
        return tuple(out.items())

    def _product(self, terms: dict, words) -> dict:
        """Sum of c * w * m * D_s1 * ... * D_sk, with integer coefficients.

        ``terms`` maps edge tuples m to c; ``words`` yields ((s1, ..., sk),
        w).  Each word is applied divisor by divisor to the whole
        combination, so like terms merge after every step.  Returns edge
        tuples -> nonzero integers.
        """
        bit, row = self._bit, self._row
        # a monomial's mask: the splits compatible with all of its edges
        masks = {}
        for parts in terms:
            mask = self._everything
            for p in parts:
                mask &= row[p]
            masks[parts] = mask
        start = [(m, c, masks[m]) for m, c in terms.items()]
        out: dict = {}
        for word, w in words:
            need = 0
            for s in word:
                need |= bit[s]
            cur = {m: c for m, c, mask in start if mask & need == need}
            for s in word:
                b = bit[s]
                nxt: dict = {}
                for parts, c in cur.items():
                    mask = masks[parts]
                    if not mask & b:  # s crosses an edge added on the way
                        continue
                    for key, new, k in self.mul_divisor_raw(s, parts):
                        nxt[key] = nxt.get(key, 0) + c * k
                        if key not in masks:
                            masks[key] = mask & row[new]
                cur = nxt
            for parts, c in cur.items():
                out[parts] = out.get(parts, 0) + w * c
        return {m: c for m, c in out.items() if c}

    def _element(self, terms: dict, den: int = 1) -> RingElement:
        n = self.n
        return RingElement(n, {Tree(n, m): Fraction(c, den) for m, c in terms.items()})

    def reduce(self, sigmas: Iterable[Split]) -> RingElement:
        """Normal form of a product of boundary divisors."""
        word = []
        for s in sigmas:
            if s.n != self.n:
                raise ValueError("partition over the wrong label set")
            word.append(s.side)
        return self._element(self._product({(): 1}, [(tuple(word), 1)]))

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        if x.n != self.n or y.n != self.n:
            raise ValueError("elements over the wrong label set")
        # take the divisor words from the element with fewer divisor factors
        if sum(t.degree for t in y.terms) > sum(t.degree for t in x.terms):
            x, y = y, x
        xs, dx = _numerators(x.terms)
        ys, dy = _numerators(y.terms)
        return self._element(self._product(xs, ys.items()), dx * dy)


def _numerators(terms: dict) -> tuple[dict, int]:
    """Edge tuples -> integer numerators over the lcm of the denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    nums = {t.parts: c.numerator * (den // c.denominator) for t, c in terms.items()}
    return nums, den


@lru_cache(maxsize=None)
def ring(n: int) -> Ring:
    return Ring(n)


def mul_divisor(sigma: Split, m) -> RingElement:
    """D_sigma times a good monomial (or any element), in normal form."""
    x = RingElement.monomial(m) if isinstance(m, Tree) else m
    return ring(sigma.n).mul(x, RingElement.divisor(sigma))


def reduce_product(sigmas: list[Split]) -> RingElement:
    if not sigmas:
        raise ValueError("empty product; use RingElement.unit")
    return ring(sigmas[0].n).reduce(sigmas)


def mul(x: RingElement, y: RingElement) -> RingElement:
    return ring(x.n).mul(x, y)


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
# equality of classes, and Betti numbers


@lru_cache(maxsize=None)
def _positions(n: int, d: int) -> dict:
    """Degree-d good monomials' positions in the tree enumeration, by edges."""
    return {t.parts: i for i, t in enumerate(enumerate_stable_trees(n, d))}


def _pairings(n: int, nums: dict) -> dict:
    """Integer pairings of sum(c * m) with every complementary monomial.

    ``nums`` maps edge tuples m to integers c.  Returns the nonzero sums,
    keyed by (degree of m, column in the complementary degree's
    enumeration), from the cached sparse pairing rows.
    """
    from .cohft import _sp_rows

    out: dict = {}
    for parts, c in nums.items():
        d = len(parts)
        cols, vals = _sp_rows(n, d)[_positions(n, d)[parts]]
        for j, v in zip(cols.tolist(), vals.tolist()):
            out[d, j] = out.get((d, j), 0) + c * v
    return {key: v for key, v in out.items() if v}


def class_vector(x: RingElement) -> tuple:
    """The class of x: its pairings with every complementary monomial.

    The pairing on M̄₀,ₙ is perfect (Poincaré duality) and good monomials
    span every degree, so a degree-d class is determined by its pairings
    with all good monomials of degree n-3-d.  Two elements represent the
    same class exactly when their vectors coincide, for every n, with no
    basis, prime or certificate involved.  Returns the nonzero pieces as
    (d, ((column, value), ...)), columns indexing
    ``enumerate_stable_trees(n, n - 3 - d)``.
    """
    nums, den = _numerators(x.terms)
    pieces: dict = {}
    for (d, j), v in sorted(_pairings(x.n, nums).items()):
        pieces.setdefault(d, []).append((j, Fraction(v, den)))
    return tuple((d, tuple(piece)) for d, piece in pieces.items())


def is_zero_class(x: RingElement) -> bool:
    """Whether x vanishes in cohomology (not just formally)."""
    return not class_vector(x)


def equal_mod_relations(x: RingElement, y: RingElement) -> bool:
    return is_zero_class(x - y)


def _relation_rows(n: int, d: int) -> list:
    """Canonical degree-d relations as sparse (cols, vals) rows."""
    index = _positions(n, d)
    return [
        (
            [index[t.parts] for t in rel.element.terms],
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
        """Zero as a class: pairs to zero with every complementary product.

        By Künneth the cohomology of the product space is the tensor
        product of the factors', and its pairing is the product of the
        factors' pairings, so it is perfect as well.  The element is thus
        zero exactly when, for every complementary monomial of the second
        factor, pairing each term's second factor with it leaves a zero
        class in the first factor.
        """
        den = lcm(*(c.denominator for _, c in self.terms))
        by_left: dict = {}
        for (p1, p2), c in self.terms:
            by_left.setdefault(p1, {})[p2] = c.numerator * (den // c.denominator)
        contracted: dict = {}
        for p1, right in by_left.items():
            for key, v in _pairings(self.n2, right).items():
                contracted.setdefault(key, {})[p1] = v
        return not any(_pairings(self.n1, left) for left in contracted.values())


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
        """One divisor's restriction as (factor, canonical side, coeff) terms.

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
                side = canonical_side(self.n1, self.factor_mask(0, cand))
                return [(0, side, 1)]
            if cand and cand & sig == 0:
                side = canonical_side(self.n2, self.factor_mask(1, cand))
                return [(1, side, 1)]
        raise AssertionError("unreachable: compatible divisor must restrict")


def pullback_to_divisor(sigma: Split, x: RingElement) -> TensorElement:
    """Restriction of a class to the boundary divisor named by sigma.

    The result lives on the product of the two factor spaces, each factor
    carrying one side of the partition plus the attaching node as a fresh
    last label.
    """
    geo = DivisorGeometry(sigma)
    nums, den = _numerators(x.terms)
    # Expand each monomial's restriction, the product of its edges'
    # restrictions, into pairs of divisor words, one word per factor and
    # each in the order of the edges; pairs sharing a second word share
    # one kernel call per factor.
    lefts: dict = {}
    restricted: dict = {}  # edge -> its restriction; monomials share edges
    for parts, c in nums.items():
        pairs = [((), (), c)]
        for part in parts:
            if part not in restricted:
                restricted[part] = geo.restrict_divisor(part)
            rules = restricted[part]
            if rules is None:
                pairs = []
                break
            pairs = [
                (w1 + (side,), w2, k * sign)
                if which == 0
                else (w1, w2 + (side,), k * sign)
                for w1, w2, k in pairs
                for which, side, sign in rules
            ]
        for w1, w2, k in pairs:
            lefts.setdefault(w2, []).append((w1, k))
    total: dict = {}
    for w2, words in lefts.items():
        right = ring(geo.n2)._product({(): 1}, [(w2, 1)])
        for p1, c1 in ring(geo.n1)._product({(): 1}, words).items():
            for p2, c2 in right.items():
                total[(p1, p2)] = total.get((p1, p2), 0) + c1 * c2
    return TensorElement.make(
        geo.n1, geo.n2, {key: Fraction(c, den) for key, c in total.items()}
    )
