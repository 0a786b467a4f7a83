"""Tree surgery and helpers that only the tests use, as references for
the ring.

`tree_model` is the vertex/flag incidence of a tree found by a quadratic
parent search, the reference for `trees._tree_model`; `flags_at` and
`edge_vertices` read it.  `transplant` is the square rewrite done one flag
set at a time, `insert_edge` builds canonical relations term by term,
`relation` builds one of them from four branch masks, `tree_product`
intersects strata edge set by edge set, `forget_and_stabilize` forgets a
label on one tree, and `orbit` lists the trees that relabelling reaches.
`a_value_masks` counts the regions that two splits cut out (`a_value`).
`mul_divisor`, `reduce_product`, `tensor_unit` and `tensor_of_factors`
build ring and tensor elements from divisors and factors,
`p1xp1_potential` is the quadric surface's potential in closed form,
`tensor_reference` assembles a tensor product one stratum value at a
time, and `solve_fraction` solves a small system over the rationals.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from genus0.cohft import (
    Metric,
    Potential,
    _reconstruct_all,
    _runs,
    _stratum_value,
    p1xp1_numbers,
    tensor_metric,
)
from genus0.keelring import (
    Relation,
    RingElement,
    TensorElement,
    _as_relation,
    _element,
    _relation_terms,
    ring,
)
from genus0.linalg import FractionRREF, Inconsistent
from genus0.trees import (
    Split,
    Tree,
    _families,
    _forget_images,
    _tree_model,
    canonical_side,
    compatible_masks,
    full_mask,
    orbit_labels,
    orbit_sizes,
)


class Flag(NamedTuple):
    """One (vertex, incident edge-or-tail) pair of a tree.

    ``branch`` is the set of labels sitting on the far side of the flag,
    viewed from its vertex; for a tail it is just that label.
    """

    vertex: int
    kind: str  # "tail" or "edge"
    ref: int  # tail label, or edge index into Tree.parts
    branch: int


class TreeModel(NamedTuple):
    flags: tuple[tuple[Flag, ...], ...]  # indexed by vertex
    edges: tuple[tuple[int, int], ...]  # (outer, inner) vertices per edge


@lru_cache(maxsize=None)
def tree_model(n: int, parts: tuple[int, ...]) -> TreeModel:
    """Vertex/flag incidence of the tree with the given edge partitions.

    Vertex 0 is the component carrying label 1; vertex e+1 is the endpoint
    of edge e on the far side from label 1.  Raises if the partitions do
    not form a stable tree (a crossing pair, or a vertex of valency < 3).
    """
    f = full_mask(n)
    below = [f ^ p for p in parts]
    k = len(parts)
    parent = []
    for e in range(k):
        best = -1
        for g in range(k):
            if g == e:
                continue
            if below[e] & below[g] == below[e]:
                if below[e] == below[g]:
                    raise ValueError("repeated edge partition")
                if best < 0 or below[g] & below[best] == below[g]:
                    best = g
        parent.append(best + 1)
    vflags: list[list[Flag]] = [[] for _ in range(k + 1)]
    for e in range(k):
        vflags[parent[e]].append(Flag(parent[e], "edge", e, below[e]))
        vflags[e + 1].append(Flag(e + 1, "edge", e, f ^ below[e]))
    for label in range(1, n + 1):
        bit = 1 << (label - 1)
        home, size = 0, n + 1
        for e in range(k):
            if below[e] & bit and below[e].bit_count() < size:
                home, size = e + 1, below[e].bit_count()
        vflags[home].append(Flag(home, "tail", label, bit))
    for v, fl in enumerate(vflags):
        if len(fl) < 3:
            raise ValueError(f"vertex {v} has valency {len(fl)} < 3")
        cover = 0
        for fg in fl:
            if cover & fg.branch:
                raise ValueError("edge partitions cross; not a tree")
            cover |= fg.branch
    return TreeModel(
        tuple(tuple(fl) for fl in vflags),
        tuple((parent[e], e + 1) for e in range(k)),
    )


def flags_at(tree: Tree, v: int) -> tuple[Flag, ...]:
    return tree_model(tree.n, tree.parts).flags[v]


def edge_vertices(tree: Tree, e: int) -> tuple[int, int]:
    return tree_model(tree.n, tree.parts).edges[e]


def edge_partition(tree: Tree, e: int) -> Split:
    return Split(tree.n, tree.parts[e])


def a_value_masks(n: int, s: int, t: int) -> int:
    """Number of nonempty regions cut out by two canonical sides.

    Returns 2 exactly when the partitions are equal, 3 when they are
    compatible but distinct (one side contains another, or two sides are
    disjoint), and 4 otherwise.  In the divisor ring, 4 means the two
    boundary divisors have empty intersection.
    """
    if s == t:
        return 2
    f = full_mask(n)
    count = 0
    if s & t:
        count += 1
    if s & ~t & f:
        count += 1
    if t & ~s & f:
        count += 1
    if ~(s | t) & f:
        count += 1
    return count


def a_value(sigma: Split, tau: Split) -> int:
    if sigma.n != tau.n:
        raise ValueError("partitions live on different label sets")
    return a_value_masks(sigma.n, sigma.side, tau.side)


def tree_product(sigma: Tree, tau: Tree) -> Tree | None:
    """The tree carrying the union of both edge partition sets.

    This realizes the categorical product of trees: the result's edge
    partitions are exactly the union of the inputs' (so sigma * sigma is
    sigma itself).  Returns None when some pair of partitions crosses, in
    which case the corresponding strata are disjoint.
    """
    if sigma.n != tau.n:
        raise ValueError("trees live on different label sets")
    n = sigma.n
    for s in sigma.parts:
        for t in tau.parts:
            if not compatible_masks(n, s, t):
                return None
    merged = tuple(sorted(set(sigma.parts) | set(tau.parts)))
    return Tree(n, merged)


def transplant(tree: Tree, e: int, moved: Iterable[Flag]) -> Tree:
    """Subdivide edge e, moving the given branches to the new midpoint.

    ``moved`` is a nonempty set of flags at one endpoint of e, not
    containing the edge's own flag there; the endpoint must retain at
    least two other flags so both vertices of the new edge stay stable.
    Contracting the inserted edge recovers the input tree.
    """
    moved = list(moved)
    if not moved:
        raise ValueError("must move at least one branch")
    outer, inner = edge_vertices(tree, e)
    v = moved[0].vertex
    if v not in (outer, inner):
        raise ValueError("flags are not at an endpoint of the edge")
    branch_union = 0
    for fg in moved:
        if fg.vertex != v:
            raise ValueError("flags sit at different vertices")
        if fg.kind == "edge" and fg.ref == e:
            raise ValueError("cannot transplant the subdivided edge itself")
        branch_union |= fg.branch
    if len(flags_at(tree, v)) - len(moved) < 3:
        raise ValueError("endpoint would become unstable")
    far = tree.parts[e] if v == inner else full_mask(tree.n) ^ tree.parts[e]
    # the far side of e seen from v is unchanged except it absorbs the
    # moved branches; that union is the partition of the inserted edge
    new_part = canonical_side(tree.n, far | branch_union)
    return Tree.make(tree.n, tree.parts + (new_part,))


def insert_edge(tree: Tree, v: int, group: Iterable[Flag]) -> Tree:
    """Split vertex v in two, one side keeping the given flags.

    Needs 2 <= |group| <= valency(v) - 2 so both new vertices are stable.
    """
    group = list(group)
    if any(fg.vertex != v for fg in group):
        raise ValueError("flags sit at different vertices")
    if not 2 <= len(group) <= len(flags_at(tree, v)) - 2:
        raise ValueError("each side of the new edge needs two old flags")
    side = 0
    for fg in group:
        side |= fg.branch
    return Tree.make(tree.n, tree.parts + (canonical_side(tree.n, side),))


def contract_edge(tree: Tree, e: int) -> Tree:
    return Tree(tree.n, tree.parts[:e] + tree.parts[e + 1 :])


def relation(tree: Tree, v: int, foursome: tuple[int, ...]) -> Relation:
    """The canonical relation attached to four branches at a fat vertex.

    ``foursome`` holds four branch masks at vertex v, numbered as in
    `trees._tree_model`.  Summing all refinements that keep the first two
    branches together, minus all refinements that keep branches two and
    three together, gives a combination of good monomials that vanishes
    in the cohomology ring.
    """
    if not 0 <= v <= tree.degree:
        raise ValueError(f"vertex {v} outside 0..{tree.degree}")
    branches = _tree_model(tree.n, tree.parts)[0][v]
    if len(foursome) != 4 or len(set(foursome)) != 4:
        raise ValueError("need four distinct branches")
    if any(b not in branches for b in foursome):
        raise ValueError("branches must sit at the given vertex")
    fi, fj, fk, _ = foursome
    rest = [b for b in branches if b not in foursome]
    sums = [sum(x) for k in range(len(rest) + 1) for x in combinations(rest, k)]
    plus, minus = _relation_terms(tree.n, fi, fj, fk, sums)
    return _as_relation(tree, v, tuple(foursome), plus, minus)


def orbit(tree: Tree) -> frozenset[Tree]:
    """The trees that relabelling carries tree to.

    They are the trees of its degree in its class under
    `orbit_labels(n, d, (n,))`, the whole symmetric group.
    """
    n, d = tree.n, tree.degree
    fams = _families(n, d)
    pos = bisect_left(fams, tree.parts)
    if pos == len(fams) or fams[pos] != tree.parts:
        raise ValueError(f"{tree} is not a stable tree on {n} labels")
    label = orbit_labels(n, d, (n,))
    return frozenset(
        Tree(n, fams[i]) for i in np.flatnonzero(label == label[pos]).tolist()
    )


def forget_and_stabilize(tree: Tree, label: int) -> tuple[Tree, int]:
    """Remove one tail and contract whatever becomes unstable.

    Returns the stabilized tree on n-1 labels (the survivors renumbered,
    preserving order) and the number of contracted edges, which is 0 or 1:
    removing a single tail can only break the one vertex that carried it.
    That vertex is contracted either along an edge whose image is
    unstable or by merging its two edges into one image.
    """
    n = tree.n
    if n < 4:
        raise ValueError("cannot forget below three labels")
    if not 1 <= label <= n:
        raise ValueError(f"label {label} outside 1..{n}")
    image = _forget_images(n, label)
    kept = {image[p] for p in tree.parts}
    kept.discard(0)
    return Tree(n - 1, tuple(sorted(kept))), len(tree.parts) - len(kept)


def mul_divisor(sigma: Split, m) -> RingElement:
    """D_sigma times a good monomial (or any element), in normal form."""
    x = RingElement.monomial(m) if isinstance(m, Tree) else m
    return ring(sigma.n).mul(x, RingElement.divisor(sigma))


def reduce_product(sigmas: Iterable[Split]) -> RingElement:
    """Normal form of a product of boundary divisors."""
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("empty product; use RingElement.unit")
    n = sigmas[0].n
    if any(s.n != n for s in sigmas):
        raise ValueError("partition over the wrong label set")
    word = tuple(s.side for s in sigmas)
    return _element(n, ring(n)._product({(): 1}, [(word, 1)]))


def tensor_unit(n1: int, n2: int) -> TensorElement:
    return TensorElement.make(n1, n2, {((), ()): Fraction(1)})


def tensor_of_factors(x1: RingElement, x2: RingElement) -> TensorElement:
    out: dict = {}
    for t1, c1 in x1.terms.items():
        for t2, c2 in x2.terms.items():
            out[(t1.parts, t2.parts)] = c1 * c2
    return TensorElement.make(x1.n, x2.n, out)


def p1xp1_potential(order: int = 8) -> Potential:
    """The quadric surface potential on the tensor-square flat basis.

    Flat index 0 is the unit, 3 is the point; 2 and 1 are the two ruling
    classes (first-factor hyperplane first).  Quantum terms carry the
    bidegree counts evaluated against ruling insertions.
    """
    met = tensor_metric(Metric.hyperbolic(), Metric.hyperbolic())
    coeffs: dict[tuple[int, ...], Fraction] = {
        (0, 0, 3): Fraction(1),
        (0, 1, 2): Fraction(1),
    }
    numbers = p1xp1_numbers((order + 1) // 2)
    for m in range(1, order + 1, 2):
        k = (m + 1) // 2
        for p in range(0, order - m + 1):
            for q in range(0, order - m - p + 1):
                if m + p + q < 3:
                    continue
                val = Fraction(0)
                for a in range(k + 1):
                    b = k - a
                    nv = numbers.get((a, b))
                    if nv:
                        val += nv * a**p * b**q
                if val:
                    coeffs[(1,) * q + (2,) * p + (3,) * m] = val
    return Potential.build(met, coeffs, order)


def tensor_reference(phi1: Potential, phi2: Potential, order: int) -> Potential:
    """The tensor product as `cohft.tensor_potential` once assembled it;
    the reference for its assembly.

    Every degree of every product index asks for the orbits of its own
    block pattern, whether or not the first factor's class vanishes
    there, and every stratum value is a `Fraction` of its own, summed as
    one.  The product's associativity is not checked.
    """
    met = tensor_metric(phi1.metric, phi2.metric)
    r2 = phi2.metric.rank
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for n in range(3, order + 1):
        rec1 = _reconstruct_all(phi1, n)
        for midx in combinations_with_replacement(range(met.rank), n):
            aseq = tuple(b // r2 for b in midx)
            cseq = tuple(b % r2 for b in midx)
            tot = Fraction(0)
            for r, y in enumerate(rec1[aseq]):
                slot = orbit_sizes(n, r, _runs(aseq))[2]
                firsts, sizes, _ = orbit_sizes(n, r, _runs(midx))
                fams = _families(n, r)
                for i, size in zip(firsts.tolist(), sizes.tolist()):
                    if y[slot[i]]:
                        v = _stratum_value(phi2, Tree(n, fams[i]), cseq, phi2._branches)
                        tot += y[slot[i]] * size * v
            if tot:
                coeffs[midx] = tot
    return Potential.build(met, coeffs, order)


def solve_fraction(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """One exact solution of a small dense system, or Inconsistent; the
    reference for `linalg.solve_certified`.

    Eliminates the augmented matrix [A | b]; a pivot landing in the b
    column means b is outside the column space of A.  Free variables are
    set to zero, so each pivot row reads off its variable directly.
    """
    ncols = len(rows[0]) if rows else 0
    rref = FractionRREF()
    for row, b in zip(rows, rhs):
        vec = {j: Fraction(x) for j, x in enumerate(row) if x}
        if b:
            vec[ncols] = Fraction(b)
        rref.add(vec)
    if ncols in rref.pivot_rows:
        raise Inconsistent("rhs outside the row space")
    x = [Fraction(0)] * ncols
    for piv, row in rref.pivot_rows.items():
        x[piv] = row.get(ncols, Fraction(0))
    return x
