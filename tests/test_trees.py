import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus0 import trees as T
from genus0.trees import Split, Tree

from conftest import stable_trees, trees_with_perm
from surgery import (
    a_value,
    contract_edge,
    edge_partition,
    flags_at,
    forget_and_stabilize,
    insert_edge,
    orbit,
    transplant,
    tree_model,
    tree_product,
)

# enumeration totals frozen from an independent brute-force pass: for each
# degree, every r-subset of stable 2-partitions was tested for pairwise
# compatibility (a-value 3) and assembled into a tree.
TREE_COUNTS = {
    4: [1, 3],
    5: [1, 10, 15],
    6: [1, 25, 105, 105],
    7: [1, 56, 490, 1260, 945],
    8: [1, 119, 1918, 9450, 17325, 10395],
}


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class TestSplit:
    def test_canonical_side_contains_label_one(self):
        s = Split.of([3, 4, 5], 5)
        assert s.side == T.mask_of([1, 2], 5)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            Split.of([1], 4)
        with pytest.raises(ValueError):
            Split.of([1, 2, 3], 4)

    def test_parse_and_str(self):
        s = Split.parse("{12|345}")
        assert s == Split.of([1, 2], 5)
        assert str(s) == "{12|345}"
        wide = Split.of([1, 10], 10)
        assert Split.parse(str(wide)) == wide

    def test_a_value_equal_case(self):
        s = Split.of([1, 2], 5)
        assert a_value(s, s) == 2

    def test_a_value_crossing(self):
        assert a_value(Split.of([1, 2], 4), Split.of([1, 3], 4)) == 4

    def test_a_value_nested(self):
        assert a_value(Split.of([1, 2], 5), Split.of([1, 2, 3], 5)) == 3

    def test_a_value_exhaustive_n5(self):
        # cross-check the bitmask fast path against literal set algebra
        splits = [Split(5, p) for p in T.stable_splits(5)]
        universe = set(range(1, 6))
        for s, t in combinations(splits, 2):
            blocks = [set(T.labels_of(s.side)), universe - set(T.labels_of(s.side))]
            cuts = sum(
                1
                for a in blocks
                for b in (set(T.labels_of(t.side)), universe - set(T.labels_of(t.side)))
                if a & b
            )
            assert a_value(s, t) == cuts


class TestEnumeration:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_frozen_counts(self, n):
        got = [len(T.enumerate_stable_trees(n, r)) for r in range(n - 2)]
        assert got == TREE_COUNTS[n]

    @pytest.mark.slow
    def test_frozen_counts_n8(self):
        got = [len(T.enumerate_stable_trees(8, r)) for r in range(6)]
        assert got == TREE_COUNTS[8]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_degree_one_count_formula(self, n):
        assert len(T.enumerate_stable_trees(n, 1)) == 2 ** (n - 1) - n - 1
        # equivalently: half the number of proper stable subsets
        assert len(T.stable_splits(n)) == sum(comb(n, k) for k in range(2, n - 1)) // 2

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_top_degree_trivalent(self, n):
        top = T.enumerate_stable_trees(n, n - 3)
        assert len(top) == double_factorial(2 * n - 5)
        for t in top:
            assert set(t.valencies()) == {3}

    def test_overfull_degree_empty(self):
        assert T.enumerate_stable_trees(5, 3) == ()

    def test_no_duplicates_and_sorted(self):
        for n in (4, 5, 6):
            for r in range(n - 2):
                ts = T.enumerate_stable_trees(n, r)
                assert len(set(ts)) == len(ts)
                assert list(ts) == sorted(ts)

    @pytest.mark.parametrize("n", [5, 6])
    def test_edges_of_one_tree_pairwise_compatible(self, n):
        for r in range(2, n - 2):
            for t in T.enumerate_stable_trees(n, r):
                for e, g in combinations(range(r), 2):
                    assert (
                        a_value(edge_partition(t, e), edge_partition(t, g)) == 3
                    )


class TestTreeStructure:
    def test_edge_partition_round_trip(self):
        cat = Tree.parse("{12|345}{123|45}")
        assert edge_partition(cat, 0) == Split.of([1, 2], 5)
        assert edge_partition(cat, 1) == Split.of([1, 2, 3], 5)

    def test_caterpillar_model(self):
        cat = Tree.parse("{12|345}{123|45}")
        assert sorted(cat.valencies()) == [3, 3, 3]
        # middle vertex carries tail 3 and both edges
        mids = [
            v
            for v in range(3)
            if {f.kind for f in flags_at(cat, v)} == {"tail", "edge"}
            and sum(f.kind == "edge" for f in flags_at(cat, v)) == 2
        ]
        assert len(mids) == 1
        (tail,) = [f for f in flags_at(cat, mids[0]) if f.kind == "tail"]
        assert tail.ref == 3

    def test_rejects_crossing_parts(self):
        with pytest.raises(ValueError):
            Tree.make(4, [T.mask_of([1, 2], 4), T.mask_of([1, 3], 4)])

    def test_rejects_duplicate_parts(self):
        with pytest.raises(ValueError):
            Tree.make(5, [T.mask_of([1, 2], 5), T.mask_of([3, 4, 5], 5)])

    def test_one_vertex_needs_three_labels(self):
        with pytest.raises(ValueError):
            Tree.one_vertex(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_model_matches_reference(self, n):
        # the bitmask vertices against the quadratic parent search: the
        # branch masks in order at every vertex, and both ends of every edge
        for r in range(n - 2):
            for parts in T._families(n, r):
                branches, parent = T._tree_model(n, parts)
                ref = tree_model.__wrapped__(n, parts)
                assert branches == [[f.branch for f in fl] for fl in ref.flags]
                assert [(parent[e], e + 1) for e in range(r)] == list(ref.edges)
                # leaves first by vertex number: a child outnumbers its parent
                assert all(parent[e] <= e for e in range(r))

    @pytest.mark.parametrize(
        "n, labels, message",
        [
            (5, [[1, 2], [3, 4, 5]], "repeated edge partition"),
            (4, [[1, 2], [1, 3]], "edge partitions cross; not a tree"),
            (4, [[1, 2], [1, 2, 3]], "vertex 2 has valency 2 < 3"),
        ],
    )
    def test_model_refusals_match_reference(self, n, labels, message):
        parts = tuple(sorted(T.canonical_side(n, T.mask_of(s, n)) for s in labels))
        for build in (T._tree_model, tree_model.__wrapped__):
            with pytest.raises(ValueError, match=message):
                build(n, parts)
        with pytest.raises(ValueError, match=message):
            Tree.make(n, (T.mask_of(s, n) for s in labels))

    def test_branches_partition_labels(self):
        for t in T.enumerate_stable_trees(6, 2):
            for v in range(t.degree + 1):
                total = 0
                for f in flags_at(t, v):
                    assert total & f.branch == 0
                    total |= f.branch
                assert total == T.full_mask(6)


class TestProduct:
    def test_product_of_compatible_edges(self):
        a = Tree.parse("{12|345}")
        b = Tree.parse("{123|45}")
        assert tree_product(a, b) == Tree.parse("{12|345}{123|45}")

    def test_product_crossing_is_none(self):
        a = Tree.parse("{12|34}")
        b = Tree.parse("{13|24}")
        assert tree_product(a, b) is None

    def test_self_product(self):
        a = Tree.parse("{12|345}{123|45}")
        assert tree_product(a, a) == a

    @given(stable_trees(max_n=6), stable_trees(max_n=6))
    def test_product_is_union_of_partitions(self, a, b):
        if a.n != b.n:
            return
        p = tree_product(a, b)
        if p is not None:
            assert set(p.parts) == set(a.parts) | set(b.parts)
            assert p == tree_product(b, a)


class TestTransplant:
    def test_single_tail_move_inserts_edge(self):
        t = Tree.parse("{12|345}")
        v_345 = next(
            v for v in (0, 1) if any(f.ref == 3 and f.kind == "tail" for f in flags_at(t, v))
        )
        moved = [f for f in flags_at(t, v_345) if f.kind == "tail" and f.ref == 3]
        assert transplant(t, 0, moved) == Tree.parse("{12|345}{123|45}")

    def test_contract_round_trip(self):
        t = Tree.parse("{12|345}")
        v = 1
        moved = [f for f in flags_at(t, v) if f.kind == "tail" and f.ref == 4]
        bigger = transplant(t, 0, moved)
        new_edge = next(
            e for e in range(bigger.degree) if bigger.parts[e] not in t.parts
        )
        assert contract_edge(bigger, new_edge) == t

    def test_maximal_move_leaves_valency_three(self):
        # moving every movable flag but two must leave the old endpoint
        # with exactly three flags: the edge plus the two stragglers
        t = Tree.one_vertex(6)
        g = [f for f in flags_at(t, 0) if f.ref in (1, 2)]
        one_edge = insert_edge(t, 0, g)
        v = next(
            v
            for v in (0, 1)
            if sum(f.kind == "tail" for f in flags_at(one_edge, v)) == 4
        )
        movable = [
            f for f in flags_at(one_edge, v) if f.kind == "tail" and f.ref in (3, 4)
        ]
        out = transplant(one_edge, 0, movable)
        assert sorted(out.valencies()) == [3, 3, 4]

    def test_rejects_empty_and_oversized(self):
        t = Tree.parse("{12|345}")
        with pytest.raises(ValueError):
            transplant(t, 0, [])
        v = 1
        all_tails = [f for f in flags_at(t, v) if f.kind == "tail"]
        with pytest.raises(ValueError):
            transplant(t, 0, all_tails)  # endpoint would drop below valency 3

    def test_rejects_moving_the_edge_itself(self):
        t = Tree.parse("{123|456}")
        flags = list(flags_at(t, 0))
        with pytest.raises(ValueError):
            transplant(t, 0, [f for f in flags if f.kind == "edge"])


class TestForget:
    def test_forget_to_minimum(self):
        t, contracted = forget_and_stabilize(Tree.parse("{12|34}"), 4)
        assert t == Tree.one_vertex(3)
        assert contracted == 1

    def test_forget_from_one_vertex(self):
        t, contracted = forget_and_stabilize(Tree.one_vertex(5), 2)
        assert t == Tree.one_vertex(4)
        assert contracted == 0

    def test_forget_trivalent_middle_contracts(self):
        # middle vertex of the n=5 caterpillar has valency exactly 3, so
        # removing its tail merges the two edges into one
        t, contracted = forget_and_stabilize(Tree.parse("{12|345}{123|45}"), 3)
        assert t == Tree.parse("{12|34}")
        assert contracted == 1

    def test_forget_fat_middle_survives(self):
        # same shape but a second middle tail keeps the vertex stable
        cat6 = Tree.parse("{12|3456}{45|1236}")
        t, contracted = forget_and_stabilize(cat6, 3)
        assert contracted == 0
        # old tail 6 becomes 5 and stays in the middle: 12 - (5) - 34
        assert t == Tree.parse("{12|345}{34|125}")

    def test_relabelling_preserves_order(self):
        t, _ = forget_and_stabilize(Tree.parse("{16|2345}"), 3)
        # labels 4,5,6 slide down to 3,4,5
        assert t == Tree.parse("{15|234}")

    @given(stable_trees(min_n=5), st.data())
    def test_forget_keeps_stability(self, t, data):
        label = data.draw(st.integers(1, t.n))
        out, contracted = forget_and_stabilize(t, label)
        assert out.n == t.n - 1
        assert contracted in (0, 1)
        assert all(k >= 3 for k in out.valencies())
        assert out.degree == t.degree - contracted


class TestCanonical:
    def test_idempotent(self):
        t = Tree.parse("{12|345}{123|45}")
        assert Tree.make(t.n, t.parts) == t

    def test_json_round_trip(self):
        for n in (4, 5, 6):
            for r in range(n - 2):
                for t in T.enumerate_stable_trees(n, r):
                    assert Tree.from_json(t.to_json()) == t

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"n": 4.7, "edges": [[1, 2]]}', id="float-n"),  # was {12|34}
            pytest.param('{"n": 4, "edges": [[1, 2.9]]}', id="float-label"),  # was TypeError
            pytest.param('{"n": true, "edges": []}', id="bool-n"),
            pytest.param('{"n": "5", "edges": [[1, 2]]}', id="string-n"),
            pytest.param('{"n": 5, "edges": [[1, false]]}', id="bool-label"),
            pytest.param('{"n": 5, "edges": 3}', id="edges-not-a-list"),
            pytest.param('{"n": 5, "edges": [2]}', id="side-not-a-list"),
            pytest.param('{"edges": [[1, 2]]}', id="no-n"),
            pytest.param("[]", id="not-an-object"),
        ],
    )
    def test_json_refuses_malformed_input(self, text):
        with pytest.raises(ValueError):
            Tree.from_json(text)

    def test_json_lists_smaller_side(self):
        payload = json.loads(Tree.parse("{12|3456}").to_json())
        assert payload == {"n": 6, "edges": [[1, 2]]}
        tied = json.loads(Tree.parse("{124|356}").to_json())
        assert tied["edges"] == [[1, 2, 4]]

    def test_parse_str_round_trip(self):
        for t in T.enumerate_stable_trees(6, 3):
            assert Tree.parse(str(t)) == t

    @given(trees_with_perm(max_n=6))
    def test_relabel_is_group_action(self, tp):
        t, perm = tp
        u = T.relabel(t, perm)
        inv = [0] * t.n
        for i, x in enumerate(perm, start=1):
            inv[x - 1] = i
        assert T.relabel(u, tuple(inv)) == t

    def test_orbit_sizes(self):
        assert [(k) for _, k in T.orbit_reps(5, 1)] == [10]
        assert [(k) for _, k in T.orbit_reps(5, 2)] == [15]
        # degree-1 orbits at n=6: the 2|4 splits (15) and the 3|3 splits (10)
        assert sorted(k for _, k in T.orbit_reps(6, 1)) == [10, 15]

    def test_orbits_partition_enumeration(self):
        for n, r in [(5, 2), (6, 2), (6, 3)]:
            total = sum(k for _, k in T.orbit_reps(n, r))
            assert total == len(T.enumerate_stable_trees(n, r))

    @given(trees_with_perm(max_n=6))
    def test_relabel_lands_in_enumeration(self, tp):
        t, perm = tp
        u = T.relabel(t, perm)
        assert u in set(T.enumerate_stable_trees(t.n, t.degree))


def reference_orbit(tree):
    """The orbit by breadth-first relabelling with adjacent transpositions."""
    gens = []
    for i in range(1, tree.n):
        perm = list(range(1, tree.n + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        gens.append(tuple(perm))
    seen = {tree}
    frontier = [tree]
    while frontier:
        t = frontier.pop()
        for perm in gens:
            u = T.relabel(t, perm)
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


class TestOrbitWalk:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_reference(self, n, rng):
        for r in range(n - 2):
            reps, seen = [], set()
            for t in T.enumerate_stable_trees(n, r):
                if t in seen:
                    continue
                orb = reference_orbit(t)
                seen |= orb
                reps.append((min(orb), len(orb)))
                assert orbit(t) == orb
                assert orbit(rng.choice(sorted(orb))) == orb
            assert T.orbit_reps(n, r) == tuple(reps)


def compositions(n):
    """Every way to cut 1..n into runs of consecutive labels, by sizes."""
    for cuts in range(2 ** (n - 1)):
        sizes, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        yield tuple(sizes + [run])


def reference_labels(n, d, blocks, images):
    """Orbit labels by breadth-first search over the allowed swaps.

    ``images[k]`` maps each tree to its relabelling by the swap of labels
    k+1 and k+2; only swaps inside a block are followed.
    """
    starts = [sum(blocks[:i]) for i in range(len(blocks))]
    allowed = [k for s, b in zip(starts, blocks) for k in range(s, s + b - 1)]
    pool = T.enumerate_stable_trees(n, d)
    pos = {t: i for i, t in enumerate(pool)}
    label = [None] * len(pool)
    for i, t in enumerate(pool):
        if label[i] is not None:
            continue
        label[i] = i
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for k in allowed:
                v = images[k][u]
                if label[pos[v]] is None:
                    label[pos[v]] = i
                    frontier.append(v)
    return label


class TestOrbitLabels:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_transposition_table(self, n):
        # orbit labels and the pairing rows of intersect._build_sp both read
        # this table, so check it against relabel tree by tree
        for d in range(n - 2):
            pool = T.enumerate_stable_trees(n, d)
            pos = {t: i for i, t in enumerate(pool)}
            table = T._tree_transpositions(n, d)
            assert table.shape == (n - 1, len(pool))
            for k in range(n - 1):
                perm = list(range(1, n + 1))
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                want = [pos[T.relabel(t, tuple(perm))] for t in pool]
                assert table[k].tolist() == want

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_every_block_pattern(self, n):
        for d in range(n - 2):
            pool = T.enumerate_stable_trees(n, d)
            images = []
            for k in range(n - 1):
                perm = list(range(1, n + 1))
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                images.append({t: T.relabel(t, tuple(perm)) for t in pool})
            for blocks in compositions(n):
                got = T.orbit_labels(n, d, blocks)
                assert got.tolist() == reference_labels(n, d, blocks, images), blocks
                # the orbit table numbers the same orbits, by first tree
                firsts, sizes, slot = T.orbit_sizes(n, d, blocks)
                assert firsts[slot].tolist() == got.tolist()
                assert sizes.tolist() == np.bincount(slot).tolist()

    def test_pattern_sizes(self):
        # one block is the whole symmetric group; singletons fix every tree
        assert T.orbit_labels(6, 3, (1,) * 6).tolist() == list(range(105))
        assert len(set(T.orbit_labels(6, 3, (6,)).tolist())) == 2
        assert T.orbit_labels(5, 3, (5,)).size == 0  # no tree of degree 3

    @pytest.mark.parametrize("blocks", [(3, 2), (2, 2, 3), (0, 6), (7, -1)])
    def test_refuses_a_bad_pattern(self, blocks):
        with pytest.raises(ValueError):
            T.orbit_labels(6, 2, blocks)

    def test_split_keys_refuse_overflow(self):
        # 1,012 splits at n = 11: seven ids in that radix need 70 bits
        ids = np.zeros((1, 7), dtype=np.int64)
        with pytest.raises(RuntimeError, match="overflow"):
            T._split_keys(11, ids)
