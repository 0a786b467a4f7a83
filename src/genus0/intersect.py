"""Integration and the Poincaré pairing on good monomials.

Two independent evaluations of the pairing are provided.  The oracle
multiplies the monomials out in the ring and reads off the top-degree
coefficient sum.  The production path is purely combinatorial: the pairing
of two strata classes is a signed product of factorials over the vertices
of the union tree, nonzero exactly when the doubled edges admit an
orientation giving every vertex as many incoming arrows as its valency
exceeds three.  Their agreement on every complementary pair is one of the
acceptance gates of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .keelring import RingElement, mul
from .linalg import densify
from .trees import Tree, _families, _tree_model, enumerate_stable_trees, orbit_reps


def integrate(x: RingElement) -> Fraction:
    """Evaluation against the fundamental class: top-degree coefficient sum.

    Every trivalent monomial is a point class of total integral 1; lower
    degrees integrate to zero.
    """
    top = x.n - 3
    return Fraction(sum((c for t, c in x.terms.items() if t.degree == top), 0))


def pair_oracle(m1: Tree, m2: Tree) -> Fraction:
    """Pairing by brute-force ring reduction; the slow reference method."""
    _check_complementary(m1, m2)
    prod = mul(RingElement.monomial(m1), RingElement.monomial(m2))
    return Fraction(sum(prod.terms.values(), 0))


def good_orientation(n: int, parts: tuple[int, ...], edges: tuple[int, ...]):
    """The unique orientation of the marked edges of the tree with edge
    sides ``parts`` feeding every vertex exactly its excess valency, or
    None.

    Returns a dict edge index -> head vertex, vertices numbered as in
    `trees._tree_model`.
    """
    branches, parent = _tree_model(n, parts)
    return _orient([len(fl) - 3 for fl in branches], parent, edges)


def _orient(need: list, parent: list, edges: tuple[int, ...]):
    """`good_orientation` on the tree where edge e joins parent[e] to e+1.

    Each vertex v must receive need[v] = |v| - 3 incoming marked edges.
    Since parent[e] <= e, every edge below vertex e+1 has a larger index,
    so taking the marked edges in descending order settles those first.
    Edge e is then the last undecided edge at vertex e+1, and it is
    forced: it points in when the vertex still needs one arrow and out
    when it needs none.  Any other need is missed whichever way e points,
    so the pass stops there.  The final check, that every need is met,
    covers the root and each vertex whose edge towards label 1 is not
    marked.  ``need`` is used up.
    """
    orient: dict[int, int] = {}
    for e in sorted(edges, reverse=True):
        v = e + 1
        if need[v] == 0:
            v = parent[e]
        elif need[v] != 1:
            return None
        orient[e] = v
        need[v] -= 1
    return orient if not any(need) else None


def _pair_parts(n: int, parts1: tuple, parts2: tuple) -> int:
    """The pairing of the strata with edge sides parts1 and parts2."""
    union = tuple(sorted(set(parts1) | set(parts2)))
    try:
        branches, parent = _tree_model(n, union)
    except ValueError:
        # distinct stable sides assemble into a tree exactly when no two
        # cross, and crossing strata are disjoint
        return 0
    need = [len(fl) - 3 for fl in branches]
    value = 1
    for k in need:
        value *= (-1) ** k * factorial(k)
    doubled = tuple(e for e, p in enumerate(union) if p in parts1 and p in parts2)
    return 0 if _orient(need, parent, doubled) is None else value


def pair_kaufmann(m1: Tree, m2: Tree) -> Fraction:
    """The closed-form pairing of two strata classes.

    Divisors never repeat inside one good monomial, so multiplicities in
    the product are at most two and the orientation rule covers every
    case; the value is a signed product of (|v|-3)! over the union tree.
    """
    _check_complementary(m1, m2)
    return Fraction(_pair_parts(m1.n, m1.parts, m2.parts))


def _check_complementary(m1: Tree, m2: Tree) -> None:
    if m1.n != m2.n:
        raise ValueError("monomials over different label sets")
    if m1.degree + m2.degree != m1.n - 3:
        raise ValueError(
            f"degrees {m1.degree}+{m2.degree} do not sum to {m1.n - 3}"
        )


def pairing_matrix_int(n: int, r: int) -> np.ndarray:
    """Dense integer pairing matrix, degree r rows against n-3-r columns.

    The sparse pairing rows of `cohft._sp_rows`, densified.
    """
    from .cohft import _sp_rows

    width = len(_families(n, n - 3 - r))
    return densify(_sp_rows(n, r), width, np.int64)


@dataclass(frozen=True)
class PairingMatrix:
    n: int
    r: int
    invariant: bool
    row_basis: tuple[Tree, ...]
    col_basis: tuple[Tree, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def to_dict(self) -> dict:
        from .keelring import _fmt_coeff
        from .trees import tree_dict

        return {
            "n": self.n,
            "r": self.r,
            "invariant": self.invariant,
            "row_basis": [tree_dict(t) for t in self.row_basis],
            "col_basis": [tree_dict(t) for t in self.col_basis],
            "entries": [[_fmt_coeff(v) for v in row] for row in self.entries],
        }


def pairing_matrix(n: int, r: int, invariant: bool = False) -> PairingMatrix:
    """Gram matrix of strata classes in complementary degrees.

    With ``invariant`` set, rows and columns are orbit sums under
    relabelling; the entry for orbits (O_i, O_j) is |O_i| times the sum of
    pairings of one O_i representative against all of O_j.
    """
    s = n - 3 - r
    if not invariant:
        rows = enumerate_stable_trees(n, r)
        cols = enumerate_stable_trees(n, s)
        entries = tuple(
            tuple(Fraction(int(v)) for v in row) for row in pairing_matrix_int(n, r)
        )
        return PairingMatrix(n, r, False, rows, cols, entries)
    from .cohft import _invariant_block

    row_reps = orbit_reps(n, r)
    _, block = _invariant_block(n, s, (n,))
    entries = tuple(
        tuple(Fraction(size * v) for v in row)
        for (_, size), row in zip(row_reps, block.tolist())
    )
    rows = tuple(t for t, _ in row_reps)
    cols = tuple(t for t, _ in orbit_reps(n, s))
    return PairingMatrix(n, r, True, rows, cols, entries)
