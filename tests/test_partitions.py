"""Colored partitions, orders, fixed points, trees and index degrees."""

import itertools

import numpy as np
import pytest

from ellstab.core import BudgetError
from ellstab.partitions import (Box, ColoredPartition, addable_removable,
                                box_order_cmp, chern_slots, fixed_points,
                                index_degrees, k_eigen_sum_ok, lambda_trees,
                                make_fixed_point, partitions_upto, rho_less,
                                spanning_trees, weight_identity_ok)


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
