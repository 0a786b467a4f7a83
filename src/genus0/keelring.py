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
the complementary degree (see `class_vector`).  The same pairings decide
the splitting law of a class on the boundary divisors without computing
a restriction (see `splitting_failures`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
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
    _families,
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
            branches = _branches(sides, here)
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


def _branches(sides: list, here: int) -> list:
    """Branch masks at the tree vertex whose branches cover ``here``.

    ``sides`` holds sides of the tree's edges, in either orientation, but
    not ``here`` itself.  They form a laminar family, so the branches are
    the maximal sides inside ``here``, in the order of ``sides``, then the
    labels no such side covers, ascending.  Taken largest first, a side
    that meets the union of the sides kept so far lies inside one of them
    (laminar, and no larger), so it is maximal exactly when it misses
    that union.
    """
    inside = [q for q in sides if q & here == q]
    kept = set()
    covered = 0
    for q in sorted(inside, key=int.bit_count, reverse=True):
        if not q & covered:
            kept.add(q)
            covered |= q
    branches = [q for q in inside if q in kept]
    rest = here & ~covered
    while rest:
        branches.append(rest & -rest)
        rest &= rest - 1
    return branches


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


def _relation_terms(n: int, parts: tuple, fi: int, fj: int, fk: int, rest: list):
    """Edge tuples of the two insertion sums of one canonical relation.

    ``fi``, ``fj`` and ``fk`` are the branch masks of three flags of a
    foursome at one vertex of the tree with edges ``parts``, and ``rest``
    those of the flags outside it.  Returns (plus, minus): the one-edge
    refinements grouping fi with fj, and fk with fj, each together with
    every subset of rest in `combinations` order.  A new edge keeps both
    sides of the vertex at valency 3 or more, so every refinement is
    stable.  No refinement is in both lists: a plus side holds fi and fj,
    while a minus side holds fj without fi and its complement lacks fj.
    """
    sums = [sum(extra) for k in range(len(rest) + 1) for extra in combinations(rest, k)]

    def refine(side: int) -> tuple:
        side = canonical_side(n, side)
        i = bisect_left(parts, side)
        return parts[:i] + (side,) + parts[i:]

    return [refine(fi | fj | s) for s in sums], [refine(fk | fj | s) for s in sums]


def _relations(n: int, d: int):
    """Every canonical relation among degree-d good monomials.

    Yields (tree, vertex, foursome, plus, minus): a degree-(d-1) tree, a
    fat vertex, the positions among its flags of the four flags (i, j, k,
    l), and the edge tuples of the terms with coefficient +1 and -1 (see
    `_relation_terms`).  Both independent flag pairings are taken for
    each foursome at each fat vertex; the redundancy is harmless for rank
    purposes and needed for the spanning property at small n.
    """
    if d < 1:
        return
    f = full_mask(n)
    for tree in enumerate_stable_trees(n, d - 1):
        below = [f ^ p for p in tree.parts]
        # flags in `trees._tree_model` order: vertex 0 carries label 1 and
        # vertex e+1 is edge e's far end, whose edge to label 1 sorts
        # before the edges below it (their sides contain parts[e])
        flag_sets = [_branches(below, f)] + [
            [tree.parts[e]] + _branches(below[:e] + below[e + 1 :], below[e])
            for e in range(len(below))
        ]
        for v, branch in enumerate(flag_sets):
            if len(branch) < 4:
                continue
            for quad in combinations(range(len(branch)), 4):
                a, b, c, e = quad
                rest = [m for i, m in enumerate(branch) if i not in quad]
                # grouping a flag set and its complement insert the same
                # edge, so each foursome has three distinct pair sums; two
                # differences with a common middle term span all of them
                for four in ((a, b, c, e), (a, c, b, e)):
                    i, j, k, _ = four
                    plus, minus = _relation_terms(
                        n, tree.parts, branch[i], branch[j], branch[k], rest
                    )
                    yield tree, v, four, plus, minus


def _as_relation(tree: Tree, v: int, foursome: tuple, plus: list, minus: list):
    terms = {Tree(tree.n, parts): 1 for parts in plus}
    terms.update((Tree(tree.n, parts), -1) for parts in minus)
    return Relation(RingElement(tree.n, terms), tree, v, foursome)


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
    fi, fj, fk, _ = foursome
    rest = [f.branch for f in tree.flags_at(v) if f not in foursome]
    plus, minus = _relation_terms(
        tree.n, tree.parts, fi.branch, fj.branch, fk.branch, rest
    )
    return _as_relation(tree, v, tuple(foursome), plus, minus)


def relations_of_degree(n: int, d: int) -> list[Relation]:
    """Every canonical relation among degree-d good monomials, as elements."""
    return [
        _as_relation(tree, v, tuple(tree.flags_at(v)[i] for i in quad), plus, minus)
        for tree, v, quad, plus, minus in _relations(n, d)
    ]


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
    rows = []
    for _, _, _, plus, minus in _relations(n, d):
        cols = [index[parts] for parts in plus]
        cols += [index[parts] for parts in minus]
        rows.append((cols, [1] * len(plus) + [-1] * len(minus)))
    return rows


def betti(n: int, r: int | None = None):
    """Exact Betti numbers of the even cohomology, doubly certified.

    In degree d the ngood good monomials span the cohomology and the
    pairing with the complementary degree is perfect, so the Betti number
    is the rank of the pairing matrix P.  The canonical relations vanish
    in cohomology, so they pair to zero with everything: their span R
    lies in the kernel of P, and dim R + rank P <= ngood.  Mod p the rank
    of P, and the rank of any subset of the relation rows, can only fall
    short of the rational ones.  So once rank_p(P) + rank_p(subset) =
    ngood, every inequality is an equality and rank_p(P) is exact.  The
    pairing rank comes first, and the relation sweep stops as soon as its
    rank reaches ngood - rank_p(P).  A bad prime leaves the squeeze open
    and triggers a retry with a fresh prime; persistent failure is an
    engine bug worth a crash.

    Returns the full vector, or a single number when r is given.
    """
    from .cohft import _sp_rows

    degrees = range(n - 2) if r is None else [r]
    pairranks: dict = {}
    out = []
    for d in degrees:
        c = n - 3 - d
        ngood = len(enumerate_stable_trees(n, d))
        ncomp = len(enumerate_stable_trees(n, c))
        # the pairing matrices of d and c are transposes with one rank,
        # taken once per prime; the narrower one keeps the dense sweep
        # small (167 against 293 MB peak for betti(8), in the same time)
        side, width = (d, ncomp) if ncomp <= ngood else (c, ngood)
        relations = _relation_rows(n, d)
        for p in linalg.PRIMES[:3]:
            key = (min(d, c), p)
            if key not in pairranks:
                pairranks[key] = linalg.rank_mod(_sp_rows(n, side), width, p)
            pairrank = pairranks[key]
            relrank = linalg.rank_mod(relations, ngood, p, target=ngood - pairrank)
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


def _pairings_by_tree(x: RingElement) -> tuple[dict, int]:
    """x's class vector keyed by the complementary trees' edge tuples.

    Returns (integer pairings, denominator); complementary trees of
    different degrees have edge tuples of different lengths, so the keys
    never collide.
    """
    nums, den = _numerators(x.terms)
    vec = {
        _families(x.n, x.n - 3 - d)[j]: v for (d, j), v in _pairings(x.n, nums).items()
    }
    return vec, den


def _factor_products(pairs, shift: int) -> tuple[dict, int]:
    """Pairings of sum(y1 ⊗ y2) with every product m1 ⊗ m2 of good monomials.

    Each is <y1, m1> * <y2, m2>, so the vector is a sum of outer products
    of the factors' class vectors.  A product is keyed by the sorted codes
    of its edges: a side of the first factor is its own code, a side of
    the second is tagged by ``1 << shift``.  Returns (integer values,
    common denominator).
    """
    outers = []
    for y1, y2 in pairs:
        (v1, d1), (v2, d2) = _pairings_by_tree(y1), _pairings_by_tree(y2)
        v2 = {tuple(q | 1 << shift for q in m2): b for m2, b in v2.items()}
        outers.append((v1, v2, d1 * d2))
    den = lcm(*(d for _, _, d in outers))
    out: dict = {}
    for v1, v2, d in outers:
        scale = den // d
        for m1, a in v1.items():
            a *= scale
            for m2, b in v2.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + a * b
    return {key: v for key, v in out.items() if v}, den


def _cut_codes(n: int, sigma: int) -> dict:
    """The edges that can share a tree with σ, coded on the factors of D_σ.

    Every such edge restricts to one divisor on one factor, with
    coefficient 1; its code is that divisor's side, tagged by ``1 << n``
    on the second factor (see `_factor_products`).
    """
    geo = DivisorGeometry(Split(n, sigma))
    out = {}
    for p in stable_splits(n):
        rules = geo.restrict_divisor(p) if p != sigma else None
        if rules is not None:
            ((which, side, _),) = rules
            out[p] = side | which << n
    return out


def splitting_failures(x: RingElement, pairs) -> list[int]:
    """Sides of the boundary divisors where x breaks a splitting law.

    ``pairs(n1, n2)`` lists the pairs (y1, y2) of classes on the factors
    of a divisor D_σ whose sides hold n1 - 1 and n2 - 1 labels; the law
    says x restricts to D_σ as the sum of the y1 ⊗ y2.  No restriction is
    computed.  For good monomials m1, m2 on the factors, the projection
    formula gives <ι^*x, m1 ⊗ m2> = <x, m_T>, T the tree glued from m1,
    the edge σ and m2; and the pairing on the product is the product of
    the factors' pairings, <y1 ⊗ y2, m1 ⊗ m2> = <y1, m1> * <y2, m2>.  By
    Künneth the pairing on D_σ is perfect and the products m1 ⊗ m2 span,
    so the law holds at σ exactly when x's class vector on the trees
    through σ, each cut at σ into (m1, m2), equals the factors' products.
    Both sides are compared as sparse integer vectors, so only pairs
    where one of them is nonzero are visited.  Sides are returned in the
    order of `stable_splits`.
    """
    n = x.n
    vec, den = _pairings_by_tree(x)
    sides = stable_splits(n)
    expected: dict = {}
    laws = {}  # σ -> its cut map, and the factor vector of its sizes
    for s in sides:
        k = s.bit_count()
        sizes = (k + 1, n - k + 1)
        if sizes not in expected:
            expected[sizes] = _factor_products(pairs(*sizes), n)
        laws[s] = (_cut_codes(n, s), *expected[sizes])
    # Cutting T at σ is injective, so σ passes when every pairing of x
    # through it matches and the matches number as many as the factor
    # vector's terms.
    matched = dict.fromkeys(sides, 0)
    failed = set()
    for parts, v in vec.items():
        for s in parts:
            if s in failed:
                continue
            cut, want, wden = laws[s]
            key = tuple(sorted([cut[p] for p in parts if p != s]))
            if v * wden == want.get(key, 0) * den:
                matched[s] += 1
            else:
                failed.add(s)
    return [s for s in sides if s in failed or matched[s] != len(laws[s][1])]
