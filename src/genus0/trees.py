"""Stable trees with labelled tails and their two-partition calculus.

Labels are the integers 1..n.  A subset of labels is a bitmask in which bit
i-1 stands for label i.  A stable 2-partition of {1..n} (both sides of size
at least two) is stored in canonical form as the side containing label 1.
A tree is identified with the sorted tuple of the canonical sides of its
edge partitions; distinct pairwise-compatible partitions always assemble
into a unique stable tree, so this tuple is a faithful canonical key.  It
doubles as the monomial key of the divisor ring built on top.

The vertices of a tree come from one function, `_tree_model`.  Vertex 0
carries label 1, and vertex e+1 is the far end of edge e from label 1.  A
branch at a vertex is the set of labels beyond one of its edges or tails,
as a bitmask; a tail is a branch of one label.  At each vertex the edge
towards label 1 comes first, then the edges away from it by index, then
the tails in ascending order.  Every edge's endpoint towards label 1
has the smaller number, so descending vertex numbers walk a tree leaves
first; `intersect._orient` and `cohft._stratum_numerator` sweep that way.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator

import numpy as np


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(labels: Iterable[int], n: int) -> int:
    m = 0
    for x in labels:
        if not 1 <= x <= n:
            raise ValueError(f"label {x} outside 1..{n}")
        bit = 1 << (x - 1)
        if m & bit:
            raise ValueError(f"repeated label {x}")
        m |= bit
    return m


def labels_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def canonical_side(n: int, mask: int) -> int:
    """The side of a 2-partition that contains label 1."""
    return mask if mask & 1 else full_mask(n) ^ mask


def compatible_masks(n: int, s: int, t: int) -> bool:
    """True unless the two partitions cross: s and t meet, neither holds
    the other, and together they miss a label.  Crossing boundary
    divisors have empty intersection."""
    f = full_mask(n)
    return not (s & t and s & ~t & f and t & ~s & f and ~(s | t) & f)


@dataclass(frozen=True, order=True)
class Split:
    """A stable 2-partition of {1..n}, canonicalized to the side with label 1."""

    n: int
    side: int

    @classmethod
    def of(cls, labels: Iterable[int], n: int) -> "Split":
        side = canonical_side(n, mask_of(labels, n))
        sp = cls(n, side)
        sp.validate()
        return sp

    @classmethod
    def parse(cls, text: str) -> "Split":
        sides = _parse_sides(text)
        if len(sides) != 2:
            raise ValueError(f"expected two sides in {text!r}")
        all_labels = sorted(sides[0] + sides[1])
        n = len(all_labels)
        if all_labels != list(range(1, n + 1)):
            raise ValueError(f"sides of {text!r} do not partition 1..n")
        return cls.of(sides[0], n)

    def validate(self) -> None:
        k = self.side.bit_count()
        if not (self.side & 1):
            raise ValueError("side must contain label 1")
        if self.side & ~full_mask(self.n):
            raise ValueError("side exceeds the label range")
        if k < 2 or self.n - k < 2:
            raise ValueError("both sides must have at least two labels")

    @property
    def other(self) -> int:
        return full_mask(self.n) ^ self.side

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return labels_of(self.side), labels_of(self.other)

    def __str__(self) -> str:
        a, b = self.sides()
        return "{%s|%s}" % (_fmt_labels(a, self.n), _fmt_labels(b, self.n))


def _tree_model(n: int, parts: tuple[int, ...]) -> tuple[list, list]:
    """The vertices of the tree with the ascending edge sides ``parts``.

    Returns (branches, parent): ``branches[v]`` holds the branch masks at
    vertex v in the order of the module docstring, and edge e joins
    ``parent[e]``, its endpoint on the label-1 side, to vertex e+1.
    parent[e] <= e, so every vertex outnumbers its parent: the order that
    `intersect._orient` and `cohft._stratum_numerator` read.
    Raises ValueError on a repeated side, a crossing pair, or a vertex of
    valency below 3.
    """
    f = full_mask(n)
    branches = [[]] + [[p] for p in parts]
    parent = []
    for e, p in enumerate(parts):
        # the sides inside p belong to the edges between edge e and label
        # 1; they sort before p, and the last of them is the nearest
        v = e
        while v:
            q = parts[v - 1]
            if q & p == q:
                if q == p:
                    raise ValueError("repeated edge partition")
                break
            v -= 1
        parent.append(v)
        branches[v].append(f ^ p)
    for v, fl in enumerate(branches):
        covered = crossed = 0
        for q in fl:
            crossed |= covered & q
            covered |= q
        rest = f ^ covered
        valency = len(fl) + rest.bit_count()
        if valency < 3:
            raise ValueError(f"vertex {v} has valency {valency} < 3")
        if crossed:
            raise ValueError("edge partitions cross; not a tree")
        while rest:
            fl.append(rest & -rest)
            rest &= rest - 1
    return branches, parent


@dataclass(frozen=True, order=True, slots=True)
class Tree:
    """A stable tree on labels 1..n, keyed by its sorted edge partitions.

    Ring elements hold one tree per term, so a tree has slots rather than
    an instance dict: the 321k terms of the n = 7 psi_monomial lattice
    take 14 MB less that way.
    """

    n: int
    parts: tuple[int, ...]

    @classmethod
    def make(cls, n: int, sides: Iterable[int]) -> "Tree":
        parts = tuple(sorted(canonical_side(n, s) for s in sides))
        _tree_model(n, parts)  # validates stability and compatibility
        return cls(n, parts)

    @classmethod
    def one_vertex(cls, n: int) -> "Tree":
        if n < 3:
            raise ValueError("need at least three labels")
        return cls(n, ())

    @classmethod
    def from_splits(cls, splits: Iterable[Split]) -> "Tree":
        splits = list(splits)
        if not splits:
            raise ValueError("no splits; use one_vertex(n)")
        n = splits[0].n
        if any(s.n != n for s in splits):
            raise ValueError("splits live on different label sets")
        return cls.make(n, (s.side for s in splits))

    @property
    def degree(self) -> int:
        return len(self.parts)

    def splits(self) -> tuple[Split, ...]:
        return tuple(Split(self.n, p) for p in self.parts)

    def valencies(self) -> tuple[int, ...]:
        return tuple(map(len, _tree_model(self.n, self.parts)[0]))

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return "".join(str(Split(self.n, p)) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Tree":
        text = text.strip()
        if text in ("{}", "1", ""):
            raise ValueError("ambiguous label count; use one_vertex(n)")
        groups = re.findall(r"\{[^{}]*\}", text)
        leftover = re.sub(r"\{[^{}]*\}|[\s*]", "", text)
        if not groups or leftover:
            raise ValueError(f"cannot parse tree from {text!r}")
        splits = [Split.parse(g) for g in groups]
        return cls.from_splits(splits)

    def to_json(self) -> str:
        return json.dumps(tree_dict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Tree":
        return tree_from_dict(json.loads(text))


def tree_dict(tree: Tree) -> dict:
    """JSON form: each edge listed by the sorted labels of its smaller side.

    On a tie the side containing label 1 is listed.
    """
    edges = []
    for p in tree.parts:
        k, n = p.bit_count(), tree.n
        side = p if (k < n - k or (2 * k == n)) else full_mask(n) ^ p
        edges.append(list(labels_of(side)))
    return {"n": tree.n, "edges": sorted(edges)}


def _integer(value) -> int:
    """An integer read from JSON; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _index(value) -> int:
    """An integer given in code: an int or a numpy integer, as an int.

    Floats are refused rather than truncated, and so are bools, as
    `_exact` refuses them.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _exact(value) -> Fraction:
    """An exact rational: an int, a `Fraction`, a numpy integer, or a
    string such as "p/q", as JSON holds them.

    Floats are refused: the binary value of 0.1 is not one tenth, and an
    inexact number must not enter an exact computation.  So are bools,
    which Python counts as integers.
    """
    if isinstance(value, bool) or not isinstance(value, (numbers.Rational, str)):
        raise ValueError(f"{value!r} is not an exact rational or a 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"{value!r} has a zero denominator") from exc


def _exacts(values) -> list[Fraction]:
    """A sequence of exact rationals, each read by `_exact`.

    A string or bytes is refused rather than split: "12" would otherwise
    read as [1, 2], and b"12" as [49, 50].
    """
    if isinstance(values, (str, bytes)):
        raise ValueError(f"{values!r} is a string, not a list of exact rationals")
    return [_exact(x) for x in values]


def _fmt_coeff(c) -> str:
    """A rational written for JSON: "p/q", or the integer alone."""
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def tree_from_dict(obj: dict) -> Tree:
    """Inverse of `tree_dict`; malformed input is a ValueError."""
    try:
        n = _integer(obj["n"])
        sides = [[_integer(x) for x in side] for side in obj["edges"]]
    except KeyError as exc:
        raise ValueError(f"tree lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed tree: {exc}") from exc
    return Tree.make(n, (mask_of(side, n) for side in sides))


def _fmt_labels(labels: tuple[int, ...], n: int) -> str:
    if n <= 9:
        return "".join(str(x) for x in labels)
    return ",".join(str(x) for x in labels)


def _parse_sides(text: str) -> list[tuple[int, ...]]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"expected braces around {text!r}")
    sides = []
    for chunk in text[1:-1].split("|"):
        chunk = chunk.strip()
        if "," in chunk:
            sides.append(tuple(int(x) for x in chunk.split(",")))
        else:
            sides.append(tuple(int(c) for c in chunk))
    return sides


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def stable_splits(n: int) -> tuple[int, ...]:
    """All canonical sides of stable 2-partitions of {1..n}, ascending."""
    out = []
    rest = list(range(2, n + 1))
    for k in range(1, n - 2):
        for extra in combinations(rest, k):
            out.append(1 | mask_of(extra, n))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _split_index(n: int) -> dict[int, int]:
    """Position of each canonical side in stable_splits(n)."""
    return {m: i for i, m in enumerate(stable_splits(n))}


@lru_cache(maxsize=None)
def _compat_graph(n: int) -> tuple[int, ...]:
    """Adjacency bitsets of the compatibility graph on stable_splits(n).

    Compatibility is reflexive (`compatible_masks(n, s, s)`), so row i
    holds bit i: the AND of the rows of a tree's edges keeps every edge.
    """
    sp = stable_splits(n)
    adj = [0] * len(sp)
    for i in range(len(sp)):
        for j in range(i, len(sp)):
            if compatible_masks(n, sp[i], sp[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


@lru_cache(maxsize=None)
def _families(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Sorted part-tuples of all r-edge stable trees on {1..n}."""
    if n < 3 or r < 0:
        raise ValueError("need n >= 3 and r >= 0")
    if r == 0:
        return ((),)
    if r > n - 3:
        return ()
    sp = stable_splits(n)
    adj = _compat_graph(n)
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def grow(candidates: int, low: int) -> None:
        if len(stack) == r:
            out.append(tuple(sp[i] for i in stack))
            return
        c = candidates & ~((1 << (low + 1)) - 1)
        while c:
            i = (c & -c).bit_length() - 1
            c &= c - 1
            if len(sp) - i < r - len(stack):
                break
            stack.append(i)
            grow(candidates & adj[i], i)
            stack.pop()

    grow(full_mask(len(sp)), -1)
    return tuple(out)


def enumerate_stable_trees(n: int, r: int) -> tuple[Tree, ...]:
    """All r-edge stable trees on labels 1..n, in canonical order."""
    return tuple(Tree(n, parts) for parts in _families(n, r))


# ---------------------------------------------------------------------------
# forgetting a label, and cutting at a boundary divisor


@lru_cache(maxsize=None)
def _forget_images(n: int, label: int) -> dict[int, int]:
    """Each side of ``stable_splits(n)`` -> its image once label is forgotten.

    The image is the canonical side on n-1 labels, the survivors
    renumbered in order, or 0 when that split is unstable (a side of one
    label).
    """
    low = (1 << (label - 1)) - 1
    f = full_mask(n - 1)
    out = {}
    for p in stable_splits(n):
        q = (p & low) | ((p >> 1) & ~low)
        k = q.bit_count()
        out[p] = 0 if k < 2 or (n - 1) - k < 2 else q if q & 1 else f ^ q
    return out


@lru_cache(maxsize=None)
def _cut_images(n: int, sigma: int) -> dict[int, int]:
    """Each other side of ``stable_splits(n)`` compatible with σ -> its
    code on the factors of D_σ: factor 1 has σ's labels and factor 2 the
    others, renumbered in order, each with the node as a last label.
    Such a split has one side properly inside σ or inside its complement,
    where it is a split of that factor; its code is that split's
    canonical side, tagged by ``1 << n`` on the second factor."""
    f = full_mask(n)
    sides = (sigma, f ^ sigma)
    bits = [[1 << i for i in range(n) if side >> i & 1] for side in sides]
    out = {}
    for p in stable_splits(n):
        cut = p if p & sigma == p else f ^ p  # p holds label 1, as σ does
        for which, side in enumerate(sides):
            if cut != side and cut & side == cut:
                q = sum(1 << k for k, b in enumerate(bits[which]) if cut & b)
                out[p] = canonical_side(len(bits[which]) + 1, q) | which << n
    return out


# ---------------------------------------------------------------------------
# symmetric group action


def apply_perm_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    i = 1
    while mask:
        if mask & 1:
            out |= 1 << (perm[i - 1] - 1)
        mask >>= 1
        i += 1
    return out


def relabel(tree: Tree, perm: tuple[int, ...]) -> Tree:
    """Rename labels by i -> perm[i-1]; perm must be a bijection of 1..n."""
    if sorted(perm) != list(range(1, tree.n + 1)):
        raise ValueError("perm is not a bijection of 1..n")
    return Tree(
        tree.n,
        tuple(
            sorted(
                canonical_side(tree.n, apply_perm_mask(p, perm)) for p in tree.parts
            )
        ),
    )


@lru_cache(maxsize=None)
def _split_transpositions(n: int) -> np.ndarray:
    """Row k: the permutation of stable_splits(n) ids induced by swapping
    labels k+1 and k+2."""
    sid = _split_index(n)
    rows = []
    for k in range(1, n):
        perm = list(range(1, n + 1))
        perm[k - 1], perm[k] = k + 1, k
        rows.append(
            [sid[canonical_side(n, apply_perm_mask(m, perm))] for m in stable_splits(n)]
        )
    table = np.array(rows, dtype=np.int64)
    table.flags.writeable = False
    return table


def _split_keys(n: int, ids: np.ndarray) -> np.ndarray:
    """One int64 key per row of sorted split ids in stable_splits(n).

    The key is the row in radix len(stable_splits(n)), its first id the
    most significant, so distinct rows get distinct keys and the keys of
    `enumerate_stable_trees` ascend with it.  That fits through n = 10,
    and is checked rather than asserted so that it also holds under
    ``python -O``.
    """
    nsplit = len(stable_splits(n))
    d = ids.shape[1]
    if nsplit**d >= 2**63:
        raise RuntimeError(f"packed split keys overflow int64 at n={n}")
    radix = np.array([nsplit**k for k in reversed(range(d))], dtype=np.int64)
    return ids @ radix


@lru_cache(maxsize=None)
def _tree_ids(n: int, d: int) -> np.ndarray:
    """The sorted split ids of the d-edge trees, one row per tree."""
    sid = _split_index(n)
    fams = _families(n, d)
    ids = np.array(
        [[sid[part] for part in parts] for parts in fams], dtype=np.int64
    ).reshape(len(fams), d)
    ids.flags.writeable = False
    return ids


@lru_cache(maxsize=None)
def _tree_transpositions(n: int, d: int) -> np.ndarray:
    """Row k: the position in enumerate_stable_trees(n, d) of each tree
    with labels k+1 and k+2 swapped."""
    ids = _tree_ids(n, d)
    keys = _split_keys(n, ids)
    table = np.empty((n - 1, len(ids)), dtype=np.int64)
    for k, row in enumerate(_split_transpositions(n)):
        image = _split_keys(n, np.sort(row[ids], axis=1))
        table[k] = np.searchsorted(keys, image)
        if not np.array_equal(keys[table[k]], image):
            raise AssertionError("unreachable: relabelling maps trees to trees")
    table.flags.writeable = False
    return table


def orbit_labels(n: int, d: int, blocks: tuple[int, ...]) -> np.ndarray:
    """Orbits of the d-edge trees under relabelling within blocks.

    ``blocks`` cuts 1..n into runs of consecutive labels by their sizes:
    (2, 3) stands for {1, 2} and {3, 4, 5}.  The group permutes labels
    within each block, so it is generated by the adjacent transpositions
    inside the blocks.  Entry t is the position, in
    enumerate_stable_trees(n, d), of the first tree of tree t's orbit.

    Each tree starts with its own position as label.  A round takes the
    least label over the tree and its images under the generators, then
    jumps once through the labels (label of the label).  Every label is
    always a tree of the same orbit at or before the tree, and a round
    that changes nothing leaves the label constant across every
    generator, so on each orbit it is the orbit's least position.
    """
    if any(b < 1 for b in blocks) or sum(blocks) != n:
        raise ValueError(f"blocks {blocks} do not cut 1..{n} into runs")
    table = _tree_transpositions(n, d)
    gens, first = [], 0
    for b in blocks:
        gens.extend(range(first, first + b - 1))
        first += b
    moves = table[gens]
    label = np.arange(table.shape[1])
    while True:
        low = np.minimum(label, label[moves].min(axis=0)) if gens else label
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


@lru_cache(maxsize=None)
def orbit_sizes(
    n: int, d: int, blocks: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits of `orbit_labels(n, d, blocks)`, in enumeration order.

    Returns the position of each orbit's first tree, ascending, the
    orbit's size, and each tree's slot: the number of its orbit in that
    order, found by counting the first trees, the ones labelled by
    themselves.  It is the one orbit table per (n, d, blocks).
    """
    label = orbit_labels(n, d, blocks)
    first = label == np.arange(label.size)
    firsts = np.flatnonzero(first)
    slot = (np.cumsum(first, dtype=np.int32) - 1)[label]
    sizes = np.bincount(slot, minlength=firsts.size)
    firsts.flags.writeable = slot.flags.writeable = sizes.flags.writeable = False
    return firsts, sizes, slot


@lru_cache(maxsize=None)
def orbit_reps(n: int, r: int) -> tuple[tuple[Tree, int], ...]:
    """One representative per relabelling orbit of r-edge trees, with sizes.

    The representative is the orbit's first tree in enumeration order.
    """
    fams = _families(n, r)
    firsts, sizes, _ = orbit_sizes(n, r, (n,))
    return tuple((Tree(n, fams[i]), int(s)) for i, s in zip(firsts, sizes))


def iter_all_trees(n: int) -> Iterator[Tree]:
    """All stable trees on labels 1..n, degree by degree."""
    if n < 3:
        raise ValueError("need n >= 3")
    return chain.from_iterable(enumerate_stable_trees(n, r) for r in range(n - 2))
