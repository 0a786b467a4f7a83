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
the complementary degree (see `class_vector`), read off the pairing rows
of `intersect`.  The same pairings decide the splitting law of a class
on the boundary divisors without a restriction (`splitting_failures`);
only the tests compute one (`pullback_to_divisor`), as a reference.
They also give a class invariant under relabelling from its pairings
with orbit representatives, in orbit sums (`_solve_full_rank`,
`_orbit_element`): field-theory classes and kappa are found that way.
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from . import linalg
from .intersect import _invariant_block, _pairings, _positions, _sp_rows
from .trees import (
    Split,
    Tree,
    _compat_graph,
    _cut_images,
    _exact,
    _families,
    _fmt_coeff,
    _forget_images,
    _integer,
    _tree_model,
    canonical_side,
    compatible_masks,
    enumerate_stable_trees,
    full_mask,
    labels_of,
    mask_of,
    orbit_sizes,
    relabel,
    stable_splits,
    tree_dict,
    tree_from_dict,
)


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
        return cls(tree.n, {tree: _exact(coeff)})

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
        return RingElement(self.n, {relabel(t, perm): c for t, c in self.terms.items()})

    def scale(self, c) -> "RingElement":
        c = _exact(c)
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
    """Multiplication context for one label count, with a square memo.

    Every product runs through one kernel, `_product`: a combination of
    good monomials times words of boundary divisors, one pass per
    monomial.  A monomial is keyed by a bitset over `stable_splits(n)`,
    and carries one compatibility bitmask, the AND of its edges' rows of
    `trees._compat_graph(n)`, each of which holds its own bit.  A divisor
    whose split crosses an edge multiplies the monomial to zero and is
    dropped by that AND; a new compatible divisor extends it by one OR.
    Neither builds a tree or does `Fraction` arithmetic: only a divisor
    that is already an edge reaches `mul_divisor_raw`.  Coefficients stay
    integers over one common denominator until the result is built.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need at least three labels")
        self.n = n
        self._full = full_mask(n)
        sides = stable_splits(n)
        self._bit = {s: 1 << i for i, s in enumerate(sides)}
        self._side = {1 << i: s for i, s in enumerate(sides)}
        self._row = dict(zip(sides, _compat_graph(n)))
        # The memo holds square rewrites, the only products that reach
        # mul_divisor_raw.  On the psi_monomial lattice at n = 7 they
        # repeat across elements: 856k asked, 4,816 distinct (hit ratio
        # 0.994), and the memo halves the time.  At n = 8 none repeats:
        # `genus0 kappa --n 8 --a 4` asks 180,403 and `omega --n 8 --a 1`
        # 99,481, all distinct, so a memo there would save nothing (the
        # last psi factor of kappa asks none, see `forget_product`), and
        # n = 8 lattices are out of reach.
        self._mul_cache: dict | None = {} if n <= 7 else None

    def mul_divisor_raw(self, side: int, parts: tuple[int, ...]) -> tuple:
        """D_side times the monomial with edges ``parts``, side among them.

        The doubled edge is traded for refinements with one more edge, so
        the answer lists (new edge, coefficient) pairs.
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
        """The square rewrite of the edge ``side`` of ``parts``.

        Each endpoint refines by `_transplants`, each new tree with
        coefficient -1.  A trivalent endpoint has nothing to move.

        Only the two endpoints are needed, so their branches come from a
        cover step here rather than from `trees._tree_model`, which builds
        every vertex.  Reading `_tree_model` gives identical tuples for
        every (edge, tree) with n <= 8 but took twice as long on a 2-core
        x86-64 host: 5.1-5.7 against 2.6-2.9 us per rewrite at n = 8, and
        10-11 against 5 us at n = 9.  `genus0 kappa --n 8 --a 4` computes
        180,403 rewrites and `omega --n 8 --a 1` 99,481, with no memo at
        n = 8; the bench's `psi_products` computes 245 with the memo on.
        """
        f = self._full
        # each other edge has one side inside the cover of one endpoint
        low, high = [], []  # the sides inside side, and inside f ^ side
        for p in parts:
            if p & side == side:
                if p != side:
                    high.append(f ^ p)
            elif p & side == p:
                low.append(p)
            else:
                low.append(f ^ p)
        out = []
        for here, branches in ((side, low), (f ^ side, high)):
            # the branches: the maximal sides inside here, then the labels
            # they miss
            if len(branches) > 1:
                branches, covered = _maximal(branches)
            else:
                covered = sum(branches)
            rest = here & ~covered
            if len(branches) + rest.bit_count() < 3:
                continue
            while rest:
                branches.append(rest & -rest)
                rest &= rest - 1
            out += _transplants(f, f ^ here, branches)
        return tuple(out)

    def _edges(self, key: int) -> tuple:
        """A monomial key's edges, ascending (`stable_splits` is sorted)."""
        parts = []
        while key:
            parts.append(self._side[key & -key])
            key &= key - 1
        return tuple(parts)

    def _mask(self, parts) -> int:
        """The splits compatible with every edge of ``parts``."""
        mask = -1
        for p in parts:
            mask &= self._row[p]
        return mask

    def _times(self, key, parts, mask, c, weight, singles, out) -> None:
        """Add c * m * sum(weight[b] * D_b), b over the bits of singles, to out.

        m is the monomial with this key, these edges and this `_mask`;
        ``out`` maps keys to integers.  Divisors crossing an edge of m fall
        out of the AND with its mask, new ones are one OR each, and m's own
        edges are squared through `mul_divisor_raw`.
        """
        new = mask & singles & ~key
        while new:
            b = new & -new
            new ^= b
            out[key | b] = out.get(key | b, 0) + c * weight[b]
        old = key & singles
        while old:
            b = old & -old
            old ^= b
            cw = c * weight[b]
            for side, k in self.mul_divisor_raw(self._side[b], parts):
                got = key | self._bit[side]
                out[got] = out.get(got, 0) + cw * k

    def _product(self, terms: dict, words) -> dict:
        """Sum of c * w * m * D_s1 * ... * D_sk, with integer coefficients.

        ``terms`` maps edge tuples m to c; ``words`` yields ((s1, ..., sk),
        w).  One pass per monomial: all one-divisor words at once, then
        each other word that its mask admits.  A word of distinct,
        pairwise compatible divisors, none of them an edge of the
        monomial, only appends, so it is one OR; any other word goes
        divisor by divisor.  Keys become edge tuples once, at the end.
        Returns edge tuples -> nonzero integers.
        """
        bit = self._bit
        weight: dict = {}  # the bit of each one-divisor word -> its summed w
        longer = []  # the other words, as (bits, w, OR of the bits, a tree?)
        for word, w in words:
            bits = [bit[s] for s in word]
            if len(bits) == 1:
                weight[bits[0]] = weight.get(bits[0], 0) + w
            else:
                need = sum(set(bits))
                tree = len(set(bits)) == len(bits)
                tree = tree and all(self._row[s] & need == need for s in word)
                longer.append((bits, w, need, tree))
        singles = sum(weight)  # distinct bits, so the sum is their OR
        out: dict = {}
        for parts, c in terms.items():
            key = sum(bit[p] for p in parts)
            mask = self._mask(parts)
            self._times(key, parts, mask, c, weight, singles, out)
            for bits, w, need, tree in longer:
                if mask & need != need:
                    continue
                if tree and not key & need:
                    out[key | need] = out.get(key | need, 0) + c * w
                    continue
                cur = {key: c * w}
                for b in bits:
                    nxt: dict = {}
                    for k, v in cur.items():
                        # only the first divisor meets the monomial itself
                        edges = parts if k == key else self._edges(k)
                        here = mask if k == key else self._mask(edges)
                        self._times(k, edges, here, v, {b: 1}, b, nxt)
                    cur = nxt
                for k, v in cur.items():
                    out[k] = out.get(k, 0) + v
        return {self._edges(k): v for k, v in out.items() if v}

    def forget_product(self, terms: dict, weight: dict) -> dict:
        """Push c * m * sum(weight[s] * D_s) down along forgetting label n.

        ``terms`` maps edge tuples m to integers c and ``weight`` maps
        sides to integers.  The answer, edge tuples on n-1 labels ->
        nonzero integers, is the forgetful pushforward of `_product` with
        the one-divisor words of ``weight``, term for term, but that
        product is never built.  It runs vertex by vertex
        (`_vertex_table`), and forgetting label n decides which vertices
        count: a product term survives when label n sits at a trivalent
        vertex of its tree (see `taut._pushforward`).

        If label n's vertex in m is trivalent, every refinement of every
        other vertex survives.  If that vertex is fat, only its
        refinements that leave n with exactly one other branch survive,
        and all of them contract back onto m's image.  Each edge's square
        rewrite there yields exactly one of those (`_transplants` either
        moves n alone or moves all but the fixed pair, n among them), so
        their coefficients sum to the weights of the n-and-one-branch
        sides less the weights of the vertex's edges.  The tables of the
        other vertices are computed once per call, keyed on the sorted
        branch masks; keys are bitmasks over ``stable_splits(n - 1)``
        until the end.
        """
        n, f = self.n, self._full
        top = 1 << (n - 1)  # the tail of label n
        low = ring(n - 1)
        image = {p: q and low._bit[q] for p, q in _forget_images(n, n).items()}
        tables: dict = {}
        out: dict = {}
        for parts, c in terms.items():
            key = 0
            for p in parts:
                key |= image[p]
            branches = _tree_model(n, parts)[0]
            home = next(b for b in branches if top in b)
            if len(home) > 3:
                w = 0
                for b in home:
                    if b != top:  # a tail has no weight
                        nb = b | top
                        w += weight.get(nb if nb & 1 else f ^ nb, 0)
                        w -= weight.get(b if b & 1 else f ^ b, 0)
                if w:
                    out[key] = out.get(key, 0) + c * w
                continue
            for b in branches:
                if len(b) > 3:
                    b = tuple(sorted(b))
                    rows = tables.get(b)
                    if rows is None:
                        rows = tables[b] = [
                            (image[u], w) for u, w in _vertex_table(f, b, weight)
                        ]
                    for u, w in rows:
                        out[key | u] = out.get(key | u, 0) + c * w
        return {low._edges(k): v for k, v in out.items() if v}

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        if x.n != self.n or y.n != self.n:
            raise ValueError("elements over the wrong label set")
        xs, dx = _numerators(x.terms)
        ys, dy = _numerators(y.terms)
        return _element(self.n, self.mul_numerators(xs, ys), dx * dy)

    def mul_numerators(self, xs: dict, ys: dict) -> dict:
        """The product of two integer combinations of good monomials.

        Both factors and the result map edge tuples to integers, so a
        chain of products stays in the integers over one denominator.
        """
        # take the divisor words from the factor with fewer divisor factors
        if sum(map(len, ys)) > sum(map(len, xs)):
            xs, ys = ys, xs
        return self._product(xs, ys.items())


def _transplants(f: int, through: int, branches: list) -> list:
    """The square rewrite of an edge at one of its endpoints.

    ``through`` is the branch beyond the squared edge and ``branches`` the
    endpoint's other branch masks (sorted in place); ``f`` is the full
    label mask.  The two branches with the smallest labels stay put, and
    every nonempty union of the others moves onto the subdivided edge,
    beside ``through``.  Returns (new edge's canonical side, -1) pairs.
    The choice of the fixed pair does not affect the class (tested
    exhaustively), only the representative.
    """
    branches.sort(key=lambda q: q & -q)
    unions = [through]
    for q in branches[2:]:
        unions += [u | q for u in unions]
    return [(u if u & 1 else f ^ u, -1) for u in unions[1:]]


def _vertex_table(f: int, branches: tuple, weight: dict) -> list:
    """One vertex's share of a monomial times sum(weight[s] * D_s).

    ``branches`` are the branch masks at a vertex of the monomial's tree
    and ``weight`` maps canonical sides to integers.  A divisor that is
    compatible with the tree but not an edge of it refines one vertex,
    and the square of an edge refines its two endpoints (`_transplants`).
    So the product is a sum over the vertices, and this vertex's part
    gives each refinement u, the new edge's canonical side, the weight
    of u minus the weights of the vertex's edges whose rewrite here
    yields u.  Returns the (u, coefficient) pairs with nonzero
    coefficient.
    """
    coef: dict = {}
    for i, s in enumerate(branches):
        w = weight.get(s if s & 1 else f ^ s)  # a tail has no weight
        if w:
            rest = list(branches[:i] + branches[i + 1 :])
            for u, k in _transplants(f, s, rest):
                coef[u] = coef.get(u, 0) + k * w
    # a refinement groups 2 to k-2 of the k branches, the one holding
    # label 1 among them
    head = next(q for q in branches if q & 1)
    others = [q for q in branches if q != head]
    for j in range(1, len(branches) - 2):
        for group in combinations(others, j):
            u = head | sum(group)
            coef[u] = coef.get(u, 0) + weight.get(u, 0)
    return [(u, c) for u, c in coef.items() if c]


def _maximal(sides: list) -> tuple[list, int]:
    """The maximal members of a laminar family of sides, and their union.

    The members are pairwise disjoint or nested.  Taken largest first, a
    side that meets the union of the sides kept so far lies inside one of
    them (laminar, and no larger), so it is maximal exactly when it
    misses that union.  The kept sides come largest first.
    """
    kept = []
    covered = 0
    for q in sorted(sides, key=int.bit_count, reverse=True):
        if not q & covered:
            kept.append(q)
            covered |= q
    return kept, covered


def _numerators(terms: dict) -> tuple[dict, int]:
    """Edge tuples -> integer numerators over the lcm of the denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    nums = {t.parts: c.numerator * (den // c.denominator) for t, c in terms.items()}
    return nums, den


def _element(n: int, nums: dict, den: int = 1) -> RingElement:
    """The inverse of `_numerators`: edge tuples -> integers, over den."""
    return RingElement(n, {Tree(n, m): Fraction(c, den) for m, c in nums.items()})


@lru_cache(maxsize=None)
def ring(n: int) -> Ring:
    return Ring(n)


def mul(x: RingElement, y: RingElement) -> RingElement:
    return ring(x.n).mul(x, y)


# ---------------------------------------------------------------------------
# canonical linear relations among good monomials


@dataclass(frozen=True)
class Relation:
    element: RingElement
    tree: Tree
    vertex: int
    foursome: tuple[int, int, int, int]  # branch masks


def _relation_terms(n: int, fi: int, fj: int, fk: int, sums: list):
    """New-edge sides of the two insertion sums of one canonical relation.

    ``fi``, ``fj`` and ``fk`` are the branch masks of three flags of a
    foursome at a vertex, and ``sums`` the unions of each subset of the
    flags outside it, in `combinations` order.  Returns (plus, minus): the
    canonical sides grouping fi with fj, and fk with fj, each with every
    union.  Both sides of the vertex keep valency 3 or more, so each
    refinement is stable, and none is in both lists: a plus side holds fi
    and fj, a minus side fj without fi and its complement lacks fj.
    """
    f = full_mask(n)
    plus, minus = [fi | fj | s for s in sums], [fk | fj | s for s in sums]
    return [u if u & 1 else f ^ u for u in plus], [u if u & 1 else f ^ u for u in minus]


def _unions(masks: list) -> list:
    """The union of each subset of disjoint masks, in `combinations` order."""
    return [sum(x) for k in range(len(masks) + 1) for x in combinations(masks, k)]


def _relations(n: int, d: int):
    """A basis of the canonical relations among degree-d good monomials.

    Yields (parts, vertex, foursome, plus, minus): the edges of a
    degree-(d-1) tree, a fat vertex, the branch masks (i, j, k, l) of
    four of its flags, and the new edges' sides of the terms with
    coefficient +1 and -1 (see `_relation_terms`).

    At a vertex of valency k, with its branches numbered 0..k-1 as
    `_tree_model` lists them, the foursomes are {0, 1, x, y} with
    2 <= x < y, each with the pairing (0, 1, x, y), and for x = 2 also
    (0, 2, 1, y): k(k-3)/2 relations, not all 2 C(k, 4).  Each way of
    splitting the branches is T plus one new edge, so the relations at
    (T, v) are the degree-1 four-point relations of M̄₀,ₖ with the branches
    as labels, under an injective map on columns.  Those span the kernel
    of the divisors onto H², of dimension (2^(k-1) - k - 1) -
    (2^(k-1) - C(k, 2) - 1) = k(k-3)/2 (Keel 1992).  The chosen ones are
    independent: (0, 1, x, y) is the only one of the first kind that holds
    the divisor {x, y}, which none of the second kind holds, and
    (0, 2, 1, y) the only one of the second kind that holds {1, y}.  So
    they span every relation, in every degree.
    """
    if d < 1:
        return
    for parts in _families(n, d - 1):
        for v, branch in enumerate(_tree_model(n, parts)[0]):
            for x, y in combinations(range(2, len(branch)), 2):
                quad = (0, 1, x, y)
                sums = _unions([m for i, m in enumerate(branch) if i not in quad])
                for i, j, k, l in (quad, (0, 2, 1, y)) if x == 2 else (quad,):
                    four = (branch[i], branch[j], branch[k], branch[l])
                    plus, minus = _relation_terms(n, *four[:3], sums)
                    yield parts, v, four, plus, minus


def _as_relation(tree: Tree, v: int, foursome: tuple, plus: list, minus: list):
    n, parts = tree.n, tree.parts
    terms = {Tree(n, tuple(sorted((*parts, s)))): 1 for s in plus}
    terms.update((Tree(n, tuple(sorted((*parts, s)))), -1) for s in minus)
    return Relation(RingElement(n, terms), tree, v, foursome)


def relations_of_degree(n: int, d: int) -> list[Relation]:
    """The basis of `_relations` among degree-d good monomials, as elements;
    they span every canonical relation of degree d."""
    return [_as_relation(Tree(n, parts), *rest) for parts, *rest in _relations(n, d)]


def keel_relation(n: int, i: int, j: int, k: int, l: int) -> RingElement:
    """The classical four-point relation pulled up to n labels.

    Sum of divisors separating {i,j} from {k,l} minus those separating
    {k,j} from {i,l}; its product with anything reduces to zero.  It is
    the canonical relation of the tails i, j, k, l at the one vertex of
    the tree without edges (`_relation_terms`).
    """
    if len({i, j, k, l}) != 4:
        raise ValueError("labels must be distinct")
    four = mask_of([i, j, k, l], n)
    rest = [1 << x for x in range(n) if not four >> x & 1]
    fi, fj, fk = (1 << x - 1 for x in (i, j, k))
    plus, minus = _relation_terms(n, fi, fj, fk, _unions(rest))
    terms = {Tree(n, (s,)): 1 for s in plus}
    terms.update((Tree(n, (s,)), -1) for s in minus)
    return RingElement(n, terms)


# ---------------------------------------------------------------------------
# equality of classes, and Betti numbers


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


# ---------------------------------------------------------------------------
# invariant classes from their pairings, in orbit sums


def _solve_full_rank(
    n: int, r: int, blocks: tuple[int, ...], rhs: list
) -> tuple[Fraction, ...]:
    """Orbit-sum coefficients of a degree-r class invariant under G.

    G permutes labels within ``blocks`` (`trees.orbit_labels`).  ``rhs``
    holds the class's pairings with the complementary representatives of
    `_invariant_block`, which goes to `linalg.solve_certified` as it is:
    rank-deficient where the orbit sums are dependent in cohomology.  A
    zero ``rhs`` is solved by the zero class, which pairs to zero with
    every representative exactly, so it returns one zero per G-orbit of
    degree r with no block and no eliminator built.

    The certified residual covers every complementary stratum, not just
    the representatives: a stratum g.R_q is in the orbit of R_q, the
    solution x is G-invariant, and relabelling preserves the pairing, so
    <x, g.R_q> = <x, R_q>.  So when the class itself is G-invariant, x
    pairs with every stratum as it does, and the pairing is perfect.
    """
    if not any(rhs):
        return (Fraction(0),) * len(orbit_sizes(n, r, blocks)[0])
    return tuple(linalg.solve_certified(_invariant_block(n, r, blocks), [rhs])[0])


def _orbit_element(n: int, blocks: tuple[int, ...], ys) -> RingElement:
    """The element with coefficient ys[o] on every tree of orbit o.

    ``ys`` yields pairs (r, y) of a degree and one coefficient per orbit
    of degree-r trees under relabelling within ``blocks``, numbered as
    `orbit_sizes` numbers them.  A degree whose coefficients are all zero
    has no terms, and its orbit table is not read.
    """
    terms: dict[Tree, Fraction] = {}
    for r, y in ys:
        if not any(y):
            continue
        slot = orbit_sizes(n, r, blocks)[2]
        trees = enumerate_stable_trees(n, r)
        terms.update((t, y[o]) for t, o in zip(trees, slot.tolist()) if y[o])
    return RingElement(n, terms)


def _relation_rows(n: int, d: int) -> list:
    """Canonical degree-d relations as sparse (cols, vals) rows, each term
    found at its position in the tree enumeration (`intersect._positions`)
    once its new edge is inserted among the old ones."""
    index = _positions(n, d)
    rows = []
    for parts, _, _, plus, minus in _relations(n, d):
        cols = []
        for s in plus + minus:
            at = bisect(parts, s)
            cols.append(index[(*parts[:at], s, *parts[at:])])
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
    ngood, every inequality is an equality and rank_p(P) is exact.  Any
    valid relations keep the squeeze sound; the rows are the basis of R
    that `_relations` builds, so that it can also close.  The pairing
    rank comes first, and the relation sweep stops as soon as its rank
    reaches ngood - rank_p(P).  A bad prime leaves the squeeze open
    and triggers a retry with a fresh prime; persistent failure is an
    engine bug worth a crash.

    Returns the full vector, or a single number when r is given.  Fewer
    than three labels, or a degree outside 0..n-3, is a ValueError.
    """
    if n < 3:
        raise ValueError(f"n = {n}: need at least three labels")
    if r is not None and not 0 <= r <= n - 3:
        raise ValueError(f"degree {r} lies outside 0..{n - 3}")
    degrees = range(n - 2) if r is None else [r]
    pairranks: dict = {}
    out = []
    for d in degrees:
        c = n - 3 - d
        ngood = len(_families(n, d))
        ncomp = len(_families(n, c))
        # the pairing matrices of d and c are transposes with one rank,
        # taken once per prime.  When one side's rows fit one `_BLOCK`,
        # that side is one dense block and the cheaper table to build:
        # 56 x 1,260 from _sp_rows(7, 1), not 1,260 x 56 from _sp_rows(7,
        # 3).  Past that the narrower side keeps the dense sweep small:
        # 9,450 x 1,918 took 1.0-1.3 s and 114 MB, 1,918 x 9,450 took
        # 1.8-2.7 s and 279-293 MB (2-core x86-64)
        fewer = (d, ncomp) if ngood <= ncomp else (c, ngood)
        narrower = (d, ncomp) if ncomp <= ngood else (c, ngood)
        side, width = fewer if min(ngood, ncomp) <= linalg._BLOCK else narrower
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
        if not compatible_masks(n, sig, t_side):
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
    where one of them is nonzero are visited, the cut trees keyed as in
    `_factor_products` (`trees._cut_images`).  Sides are returned in the
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
        laws[s] = (_cut_images(n, s), *expected[sizes])
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
