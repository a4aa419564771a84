"""Colored partitions, orders, fixed points, trees and index degrees."""

import itertools

import numpy as np
import pytest

from ellstab import partitions
from ellstab.core import BudgetError
from ellstab.partitions import (Box, ColoredPartition, FixedPoint,
                                FramingGroup, _cell_edges,
                                _enumerate_fixed_points,
                                addable_removable, box_order_cmp, chern_slots,
                                fixed_points, index_degrees, k_eigen_sum_ok,
                                lambda_trees, make_fixed_point,
                                partitions_upto, rho_less, spanning_trees,
                                weight_identity_ok)


def random_partition(rng, max_size, n_colors):
    size = int(rng.integers(0, max_size + 1))
    rows, rem, mx = [], size, size
    while rem > 0:
        part = int(rng.integers(1, min(rem, mx) + 1))
        rows.append(part)
        mx = part
        rem -= part
    return ColoredPartition(tuple(sorted(rows, reverse=True)),
                            int(rng.integers(0, n_colors)), n_colors)


def test_canonical_order_reproduces_staircase_example():
    fp = make_fixed_point([(6, 5, 4, 1)], (1, 0, 0), 3)
    slots = chern_slots(fp)
    assert [(b.x, b.y) for b in slots[0]] == [(2, 5), (1, 4), (3, 3), (2, 2),
                                              (1, 1), (4, 1)]
    assert [(b.x, b.y) for b in slots[1]] == [(1, 6), (2, 4), (1, 3), (3, 2),
                                              (2, 1)]
    assert [(b.x, b.y) for b in slots[2]] == [(1, 5), (3, 4), (2, 3), (1, 2),
                                              (3, 1)]
    assert fp.v == (6, 5, 5)


def test_box_order_same_box_and_framing_rank():
    a = Box(1, 1, 0, 0)
    b = Box(1, 1, 1, 0)
    assert box_order_cmp(a, a) == 0
    assert box_order_cmp(a, b) == -1


def test_box_order_is_strict_total_order():
    rng = np.random.default_rng(0)
    boxes = [Box(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                 int(rng.integers(0, 3)), int(rng.integers(0, 3)))
             for _ in range(40)]
    for a, b in itertools.combinations(boxes, 2):
        assert box_order_cmp(a, b) == -box_order_cmp(b, a)
    for a, b, c in itertools.combinations(boxes, 3):
        if box_order_cmp(a, b) < 0 and box_order_cmp(b, c) < 0:
            assert box_order_cmp(a, c) < 0


def test_rho_shift_comparisons():
    a = Box(1, 1, 0, 0)
    b = Box(1, 2, 0, 0)
    assert not rho_less(a, 0, b)      # contents 0 vs -1: greater
    c = Box(1, 1, 1, 0)
    assert rho_less(a, 1, c)          # earlier framing wins regardless
    a2 = Box(2, 1, 0, 0)
    b2 = Box(1, 2, 0, 0)
    assert not rho_less(a2, 1, b2)    # (2, -1) vs (-1, -1): greater


def test_addable_removable_examples():
    lam = ColoredPartition((), 0, 3)
    add, rem = addable_removable(lam, 0)
    assert add == [(1, 1)] and rem == []
    for i in (1, 2):
        add, rem = addable_removable(lam, i)
        assert add == [] and rem == []

    lam = ColoredPartition((1,), 0, 3)
    assert addable_removable(lam, 0) == ([], [(1, 1)])
    assert addable_removable(lam, 1) == ([(2, 1)], [])
    assert addable_removable(lam, 2) == ([(1, 2)], [])

    lam = ColoredPartition((2, 1), 0, 3)
    assert addable_removable(lam, 0) == ([(2, 2)], [])
    assert addable_removable(lam, 1) == ([(1, 3)], [(2, 1)])
    assert addable_removable(lam, 2) == ([(3, 1)], [(1, 2)])


def test_weight_identity_randomized():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.choice([3, 4, 5]))
        lam = random_partition(rng, 12, n)
        ok, bad = weight_identity_ok(lam)
        assert ok, (lam, bad)
        assert k_eigen_sum_ok(lam)


def brute_force_count(v, w, n):
    total = sum(v)
    slots = [k for k in range(n) for _ in range(w[k])]
    count = 0
    for combo in itertools.product(list(partitions_upto(total)),
                                   repeat=len(slots)):
        prof = [0] * n
        for rows, k in zip(combo, slots):
            lam = ColoredPartition(rows, k, n)
            for a, b in zip(range(n), lam.profile()):
                prof[a] += b
        if tuple(prof) == tuple(v):
            count += 1
    return count


def test_fixed_point_counts_match_brute_force():
    n = 3
    for w in [(1, 0, 0), (1, 1, 0)]:
        for total in range(5):
            for v in itertools.product(range(total + 1), repeat=3):
                if sum(v) != total:
                    continue
                got = len(fixed_points(v, w, n))
                assert got == brute_force_count(v, w, n), (v, w)


def test_fixed_points_examples():
    pts = fixed_points((1, 1, 1), (1, 0, 0), 3)
    assert [p.partitions() for p in pts] == [((1, 1, 1),), ((2, 1),), ((3,),)]
    assert fixed_points((0, 0, 0), (1, 0, 0), 3)[0].partitions() == ((),)
    big = fixed_points((6, 5, 5), (1, 0, 0), 3)
    assert ((6, 5, 4, 1),) in [p.partitions() for p in big]


def _recursive_fixed_points(v, slots, n_colors):
    """The enumerator as it was before it built its candidates once per
    call: every recursion node sorts the partitions that fit in the boxes
    left and builds each with its profile."""
    results = []

    def rec(idx, remaining, acc):
        if idx == len(slots):
            if not any(remaining):
                results.append(FixedPoint(tuple(zip(slots, acc)), n_colors))
            return
        for rows in sorted(partitions_upto(sum(remaining))):
            lam = ColoredPartition(rows, slots[idx].color, n_colors)
            nxt = [r - q for r, q in zip(remaining, lam.profile())]
            if any(r < 0 for r in nxt):
                continue
            rec(idx + 1, nxt, acc + [lam])

    rec(0, list(v), [])
    return results


def _slots(*groups):
    """Group-major slots of framing vectors with name prefixes, color-major
    within a group."""
    return [s for w, prefix in groups for s in FramingGroup(w, prefix).slots()]


def test_one_pass_enumerator_matches_the_recursion():
    """Every profile of at most 5 boxes, at six framings and two two-group
    bases: the same fixed points, in the same order."""
    n = 3
    framings = [_slots((w, "u")) for w in ((1, 0, 0), (1, 1, 0), (2, 0, 0),
                                            (1, 1, 1), (2, 1, 0), (3, 0, 0))]
    framings += [_slots(((1, 0, 0), "ua"), ((0, 1, 0), "ub")),
                 _slots(((1, 1, 0), "ua"), ((1, 0, 0), "ub"))]
    compared = nonempty = 0
    for slots in framings:
        for total in range(6):
            for v in itertools.product(range(total + 1), repeat=n):
                if sum(v) != total:
                    continue
                got = _enumerate_fixed_points(v, slots, n)
                assert repr(got) == repr(_recursive_fixed_points(v, slots, n)), v
                compared += 1
                nonempty += bool(got)
    assert (compared, nonempty) == (8 * 56, 160)
    # a profile with a negative entry has no fixed point, with or without slots
    for slots in ([], framings[0]):
        assert _enumerate_fixed_points((1, -1, 0), slots, n) == \
            _recursive_fixed_points((1, -1, 0), slots, n) == []


def test_chern_slot_variable_assignment():
    fp = make_fixed_point([(2, 1)], (1, 0, 0), 3)
    from ellstab.partitions import box_slot_vars, phi_weight
    xvar = box_slot_vars(fp)
    by_cell = {(b.x, b.y): name for b, name in xvar.items()}
    assert by_cell == {(1, 1): "x0_1", (2, 1): "x1_1", (1, 2): "x2_1"}
    root = next(b for b in fp.boxes() if (b.x, b.y) == (1, 1))
    assert phi_weight(fp, root).exps == {"u0_1": 1}
    b21 = next(b for b in fp.boxes() if (b.x, b.y) == (2, 1))
    w = phi_weight(fp, b21).exps
    assert w["t2"] == -1 and "t1" not in w


def test_tree_enumeration_counts():
    assert len(spanning_trees(ColoredPartition((1,), 0, 3))) == 1
    assert spanning_trees(ColoredPartition((1,), 0, 3))[0].kappa == 0
    assert len(spanning_trees(ColoredPartition((4,), 0, 3))) == 1
    sq = ColoredPartition((2, 2), 0, 3)
    assert len(spanning_trees(sq)) == 4
    admissible = lambda_trees(sq)
    assert len(admissible) == 2          # golden value of the default filter
    assert all(t.kappa == 0 for t in admissible)


def test_lambda_trees_root_only_the_admissible_choices(monkeypatch):
    """The mirrored-L rule is decided on a choice of edges: the square
    (2, 2) roots its 2 admissible trees, not its 4 spanning trees."""
    rooted = []
    original = partitions._rooted_tree

    def counted(cells, edges):
        rooted.append(edges)
        return original(cells, edges)

    monkeypatch.setattr(partitions, "_rooted_tree", counted)
    sq = ColoredPartition((2, 2), 0, 3)
    assert len(lambda_trees(sq)) == len(rooted) == 2
    rooted.clear()
    assert len(spanning_trees(sq)) == len(rooted) == 4


def test_trees_are_spanning_and_acyclic():
    lam = ColoredPartition((3, 2), 0, 3)
    cells = set(lam.cells())
    for tree in spanning_trees(lam):
        assert set(tree.parent) | {(1, 1)} == cells
        seen = set()
        for cell in tree.parent:
            cur, steps = cell, 0
            while cur != (1, 1):
                cur = tree.parent[cur]
                steps += 1
                assert steps <= len(cells)
            seen.add(cell)
        assert len(seen) == len(cells) - 1


def _tree_data(tree):
    return (list(tree.parent.items()), tree.kappa, list(tree.subtree.items()),
            tree.edges())


def _union_find_spanning_trees(lam):
    """The enumeration as it was before one search both rooted a choice of
    edges and decided whether it spans: a union-find rejects every choice
    of cells - 1 edges, in ``itertools.combinations`` order, that closes a
    cycle, and each choice left is rooted by ``_rooted_tree``."""
    cells = lam.cells()
    edges = _cell_edges(lam)
    trees = []
    parent_of = {}

    def find(c):
        while parent_of[c] != c:
            parent_of[c] = parent_of[parent_of[c]]
            c = parent_of[c]
        return c

    for combo in itertools.combinations(range(len(edges)), len(cells) - 1):
        parent_of = {c: c for c in cells}
        ok = True
        for ei in combo:
            a, b = edges[ei]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent_of[ra] = rb
        if ok:
            trees.append(partitions._rooted_tree(cells, [edges[ei] for ei in combo]))
    return trees


def test_trees_are_those_of_the_union_find_enumeration():
    """Every partition of 1-8 boxes: ``spanning_trees`` and ``lambda_trees``
    give the parent maps, kappas, subtree lists and edges of the union-find
    enumeration, each in the same order."""
    compared = 0
    for size in range(1, 9):
        for rows in partitions.partitions_of(size):
            lam = ColoredPartition(rows, 0, 3)
            square = len(rows) > 1 and rows[1] > 1
            # a hook, and only a hook, has one adjacency fewer than cells
            assert (len(_cell_edges(lam)) == lam.size - 1) == (not square), rows
            want = _union_find_spanning_trees(lam)
            got = spanning_trees(lam)
            assert [_tree_data(t) for t in got] == [_tree_data(t) for t in want], rows
            admissible = [t for t in want if partitions.no_lshape_filter(t, lam)]
            assert ([_tree_data(t) for t in lambda_trees(lam)]
                    == [_tree_data(t) for t in admissible]), rows
            compared += 1
    assert compared == 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22


def test_tree_budget_guard():
    with pytest.raises(BudgetError):
        spanning_trees(ColoredPartition((5, 5, 5), 0, 3))


def test_fixed_point_budget_guard():
    assert len(fixed_points((1, 1, 1), (1, 0, 0), 3, budget=3)) == 3
    with pytest.raises(BudgetError):
        fixed_points((1, 1, 1), (1, 0, 0), 3, budget=2)


def test_index_degrees_goldens():
    def degs(rows, n=3):
        fp = make_fixed_point([rows], tuple(1 if i == 0 else 0 for i in range(n)), n)
        return {(b.x, b.y): d for b, d in index_degrees(fp).items()}

    assert degs((1,)) == {(1, 1): 0}
    assert degs((2,)) == {(1, 1): 0, (1, 2): 0}
    assert degs((1, 1)) == {(1, 1): 0, (2, 1): 0}
    assert degs((4,)) == {(1, 1): 1, (1, 2): 0, (1, 3): 0, (1, 4): 0}
    assert degs((1, 1, 1, 1)) == {(1, 1): -1, (2, 1): 0, (3, 1): 0, (4, 1): 1}


def test_index_degrees_empty():
    fp = make_fixed_point([()], (1, 0, 0), 3)
    assert index_degrees(fp) == {}
