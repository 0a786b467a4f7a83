"""Tree surgery that only the tests use, as references for the ring.

`transplant` is the square rewrite done one flag set at a time on tree
models, `insert_edge` builds canonical relations term by term, and
`tree_product` intersects strata edge set by edge set.
"""

from __future__ import annotations

from typing import Iterable

from genus0.trees import (
    Flag,
    Split,
    Tree,
    a_value_masks,
    canonical_side,
    compatible_masks,
    full_mask,
)


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
    outer, inner = tree.edge_vertices(e)
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
    if len(tree.flags_at(v)) - len(moved) < 3:
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
    if not 2 <= len(group) <= len(tree.flags_at(v)) - 2:
        raise ValueError("each side of the new edge needs two old flags")
    side = 0
    for fg in group:
        side |= fg.branch
    return Tree.make(tree.n, tree.parts + (canonical_side(tree.n, side),))


def contract_edge(tree: Tree, e: int) -> Tree:
    return Tree(tree.n, tree.parts[:e] + tree.parts[e + 1 :])
