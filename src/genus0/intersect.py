"""Integration, the Poincaré pairing on good monomials, and its rows.

Two independent evaluations of the pairing are provided.  The oracle
multiplies the monomials out in the ring and reads off the top-degree
coefficient sum.  The production path is purely combinatorial: the pairing
of two strata classes is a signed product of factorials over the vertices
of the union tree, nonzero exactly when the doubled edges admit an
orientation giving every vertex as many incoming arrows as its valency
exceeds three.  Their agreement on every complementary pair is one of the
acceptance gates of the package.

The production pairing is tabulated here, once per complementary pair of
degrees, as sparse integer rows over the tree enumeration order
(`_sp_rows`), and summed by relabelling orbit into invariant blocks
(`_invariant_block`).  Every consumer reads those tables: class equality
and the Betti certificate in `keelring` (through `_pairings`), the dense
`pairing_matrix`, and reconstruction in `cohft`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING

import numpy as np

from .linalg import densify
from .trees import (
    Tree,
    _compat_graph,
    _families,
    _fmt_coeff,
    _split_index,
    _tree_ids,
    _tree_model,
    _tree_transpositions,
    enumerate_stable_trees,
    orbit_reps,
    orbit_sizes,
    tree_dict,
)

if TYPE_CHECKING:
    from .keelring import RingElement


def integrate(x: RingElement) -> Fraction:
    """Evaluation against the fundamental class: top-degree coefficient sum.

    Every trivalent monomial is a point class of total integral 1; lower
    degrees integrate to zero.
    """
    top = x.n - 3
    return Fraction(sum((c for t, c in x.terms.items() if t.degree == top), 0))


def pair_oracle(m1: Tree, m2: Tree) -> Fraction:
    """Pairing by brute-force ring reduction; the slow reference method."""
    from .keelring import RingElement, mul

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


# ---------------------------------------------------------------------------
# sparse pairing rows


def _build_sp(n: int, lo: int, hi: int) -> list:
    """Sparse pairing rows of the degree-lo trees against degree hi.

    Only the first row of each relabelling orbit is evaluated, pair by
    pair, over the columns the compatibility graph allows.  The other rows
    of the orbit are filled from rows already filled, one adjacent
    transposition at a time.  Swapping labels k+1 and k+2 carries the tree
    at row position s to `_tree_transpositions(n, lo)[k, s]` and each
    column tree at position j to `_tree_transpositions(n, hi)[k, j]`, and
    relabelling preserves the pairing; so that row holds the values of row
    s at the mapped columns, sorted back into ascending order.  The
    integer values are copied, so every row equals its pair-by-pair
    evaluation entry for entry.

    For lo = 0 the one row is the unit against every trivalent tree.
    Each such stratum is a point, which integrates to 1, so that row is
    all ones and needs no evaluation.
    """
    rows_parts = _families(n, lo)
    cols_parts = _families(n, hi)
    if lo == 0:
        ones = np.ones(len(cols_parts), dtype=np.int64)
        return [(np.arange(len(cols_parts), dtype=np.int64), ones)]
    sid = _split_index(n)
    nsplit = len(sid)
    full = (1 << nsplit) - 1
    col_ids = _tree_ids(n, hi)
    adj = _compat_graph(n)
    row_moves = _tree_transpositions(n, lo).tolist()
    col_moves = _tree_transpositions(n, hi)
    out: list = [None] * len(rows_parts)
    for i, parts in enumerate(rows_parts):
        if out[i] is not None:
            continue
        sig = full
        for part in parts:
            k = sid[part]
            sig &= adj[k] | 1 << k
        allowed = np.array([sig >> k & 1 for k in range(nsplit)], dtype=bool)
        ok = allowed[col_ids].all(axis=1)
        cs: list[int] = []
        vs: list[int] = []
        for j in np.nonzero(ok)[0].tolist():
            v = _pair_parts(n, parts, cols_parts[j])
            if v:
                cs.append(j)
                vs.append(v)
        out[i] = (np.asarray(cs, dtype=np.int64), np.asarray(vs, dtype=np.int64))
        filled = [i]
        while filled:
            s = filled.pop()
            cols, vals = out[s]
            for moves, col_move in zip(row_moves, col_moves):
                u = moves[s]
                if out[u] is None:
                    image = col_move[cols]
                    order = np.argsort(image)
                    out[u] = (image[order], vals[order])
                    filled.append(u)
    return out


@lru_cache(maxsize=None)
def _sp_rows(n: int, d: int) -> list:
    """Sparse pairing rows: degree-d monomials against the complement.

    Row i lists the complementary-degree trees its tree pairs nonzero
    with, as (column indices, values), the columns strictly ascending.
    Built once per complementary pair of degrees, by `_build_sp`, with
    the lower degree's trees as rows; the flipped orientation is its
    transpose.
    """
    c = n - 3 - d
    if d < 0 or c < 0:
        raise ValueError("degree out of range")
    lo, hi = min(d, c), max(d, c)
    if d != lo:
        base = _sp_rows(n, lo)
        acc: list[tuple[list[int], list[int]]] = [([], []) for _ in _families(n, hi)]
        for i, (cols, vals) in enumerate(base):
            for j, v in zip(cols.tolist(), vals.tolist()):
                acc[j][0].append(i)
                acc[j][1].append(v)
        return [
            (np.asarray(cs, dtype=np.int64), np.asarray(vs, dtype=np.int64))
            for cs, vs in acc
        ]
    return _build_sp(n, lo, hi)


@lru_cache(maxsize=None)
def _invariant_block(n: int, r: int, blocks: tuple[int, ...]) -> np.ndarray:
    """Pairings of degree-r orbit sums with complementary representatives.

    G permutes labels within ``blocks``, as in `trees.orbit_labels`.  The
    unknowns are the orbit sums s_o = sum of [T] over the G-orbit o of
    degree-r trees; the equations pair them with R_q, the first tree of
    each G-orbit q of the complementary degree.  Returns M, where
    M[q, o] = sum over T in o of <R_q, T>, both orbits numbered as the
    slots of `orbit_sizes` number them.

    Relabelling preserves the pairing, so M[q, o] is the same for every
    tree of q in place of R_q, and |q| M[q, o] = <s_q, s_o> = |o| M'[o, q]
    for the block M' of the complementary degree.  So only the block
    whose rows have the lower degree is built, from R_q's sparse row
    (`_sp_rows`, as `_build_sp` evaluates it) summed by orbit; its entries
    are at most the row's length times its largest |value|, checked to
    fit int64.  The other comes back to int64 from Python ints, which
    raises rather than wraps.
    """
    c = n - 3 - r
    _, sizes, slot = orbit_sizes(n, r, blocks)
    firsts, qsizes, _ = orbit_sizes(n, c, blocks)
    if r < c:
        whole = _invariant_block(n, c, blocks).T.astype(object) * sizes
        block = (whole // qsizes[:, None]).astype(np.int64)
    else:
        rows = _sp_rows(n, c)
        block = np.zeros((len(firsts), len(sizes)), dtype=np.int64)
        for q, i in enumerate(firsts.tolist()):
            cols, vals = rows[i]
            if len(vals) * int(np.abs(vals).max(initial=0)) >= 2**63:
                raise RuntimeError(f"orbit sums of pairings overflow int64 at n={n}")
            np.add.at(block[q], slot[cols], vals)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def _positions(n: int, d: int) -> dict:
    """Degree-d good monomials' positions in the tree enumeration, by edges."""
    return {parts: i for i, parts in enumerate(_families(n, d))}


def _pairings(n: int, nums: dict) -> dict:
    """Integer pairings of sum(c * m) with every complementary monomial.

    ``nums`` maps edge tuples m to integers c.  Returns the nonzero sums,
    keyed by (degree of m, column in the complementary degree's
    enumeration), from the cached sparse pairing rows.
    """
    out: dict = {}
    for parts, c in nums.items():
        d = len(parts)
        cols, vals = _sp_rows(n, d)[_positions(n, d)[parts]]
        for j, v in zip(cols.tolist(), vals.tolist()):
            out[d, j] = out.get((d, j), 0) + c * v
    return {key: v for key, v in out.items() if v}


# ---------------------------------------------------------------------------
# pairing matrices


def pairing_matrix_int(n: int, r: int) -> np.ndarray:
    """Dense integer pairing matrix, degree r rows against n-3-r columns.

    The sparse pairing rows of `_sp_rows`, densified.
    """
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
    row_reps = orbit_reps(n, r)
    block = _invariant_block(n, s, (n,))
    entries = tuple(
        tuple(Fraction(size * v) for v in row)
        for (_, size), row in zip(row_reps, block.tolist())
    )
    rows = tuple(t for t, _ in row_reps)
    cols = tuple(t for t, _ in orbit_reps(n, s))
    return PairingMatrix(n, r, True, rows, cols, entries)
