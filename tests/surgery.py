"""Tree surgery that only the tests use, as references for the ring.

`tree_model` is the vertex/flag incidence of a tree found by a quadratic
parent search, the reference for `trees._tree_model`; `flags_at` and
`edge_vertices` read it.  `transplant` is the square rewrite done one flag
set at a time, `insert_edge` builds canonical relations term by term,
`relation` builds one of them from four branch masks, `tree_product`
intersects strata edge set by edge set, and `orbit` lists the trees that
relabelling reaches.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from genus0.keelring import Relation, _as_relation, _relation_terms
from genus0.trees import (
    Split,
    Tree,
    _families,
    _tree_model,
    a_value_masks,
    canonical_side,
    compatible_masks,
    full_mask,
    orbit_labels,
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
    plus, minus = _relation_terms(tree.n, tree.parts, fi, fj, fk, rest)
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
