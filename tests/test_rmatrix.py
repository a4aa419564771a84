"""Transition matrices, R-matrix properties, Yang-Baxter."""

import numpy as np
import pytest

from ellstab.core import ParamPoint
from ellstab.partitions import fixed_points
from ellstab.rmatrix import (FramingGroup, bare_transition, basis_fixed_points,
                             composition_residual,
                             leading_pair_factorization_residual, profiles,
                             restriction_matrix, shift_invariance_residual,
                             transition_r, transition_r_star,
                             transpose_relation_residual,
                             weight_block_residual, ybe_residual)
from ellstab.sampling import sample_param_point

N = 3
G1 = FramingGroup((1, 0, 0), "ua")
G2 = FramingGroup((1, 0, 0), "ub")
G3 = FramingGroup((1, 0, 0), "uc")
PP = sample_param_point(21, N, framing_counts={"ua": [1, 0, 0],
                                               "ub": [1, 0, 0],
                                               "uc": [1, 0, 0]})


def test_one_box_basis_is_two_dimensional():
    basis = basis_fixed_points((1, 0, 0), [G1, G2], N)
    assert [b.partitions() for b in basis] == [((), (1,)), ((1,), ())]


def test_single_group_basis_is_fixed_points_with_its_names():
    g = FramingGroup((1, 1, 0), "g")
    for m in range(4):
        for v in profiles(m, N):
            assert basis_fixed_points(v, [g], N) == fixed_points(
                v, g.w, N, u_names=g.u_names())


def test_trivial_profile_gives_identity():
    basis, bare, _ = bare_transition((0, 0, 0), G1, G2, PP, N)
    assert bare.shape == (1, 1)
    assert abs(bare[0, 0] - 1) < 1e-12


def test_composition_and_weight_blocks():
    for total in (1, 2):
        for v in profiles(total, N):
            if not basis_fixed_points(v, [G1, G2], N):
                continue
            assert composition_residual(v, G1, G2, PP, N) < 1e-8
            basis, bare, conds = bare_transition(v, G1, G2, PP, N)
            assert weight_block_residual(basis, bare) < 1e-10
            assert all(c < 1e8 for c in conds)


def test_scale_invariance():
    _, bare, _ = bare_transition((1, 0, 0), G1, G2, PP, N)
    a = 1.3 - 0.4j
    values = dict(PP.values)
    values["ua0_1"] *= a
    values["ub0_1"] *= a
    pp2 = ParamPoint(N, values, tol=PP.tol)
    _, bare2, _ = bare_transition((1, 0, 0), G1, G2, pp2, N)
    assert np.max(np.abs(bare - bare2)) < 1e-10


def test_full_r_includes_exchange_scalar():
    res = transition_r((1, 0, 0), G1, G2, PP, N)
    assert np.max(np.abs(res.full - res.scalar * res.bare)) == 0.0
    assert res.scalar != 1.0


def test_ybe_one_box_several_seeds():
    for seed in range(3):
        pp = sample_param_point(seed + 31, N,
                                framing_counts={"ua": [1, 0, 0],
                                                "ub": [1, 0, 0],
                                                "uc": [1, 0, 0]})
        assert ybe_residual((G1, G2, G3), pp, N, 1) < 1e-7


def test_ybe_two_boxes():
    assert ybe_residual((G1, G2, G3), PP, N, 2) < 1e-6


def test_ybe_empty_space():
    assert ybe_residual((G1, G2, G3), PP, N, 0) < 1e-14


def test_shift_invariance_assumption_holds():
    for v in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
        r = shift_invariance_residual(v, G1, G2, PP, N)
        assert r < 1e-10


def test_leading_pair_factorization_mixed_colors():
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(88, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0],
                                                   "uc": [1, 0, 0]})
    r = leading_pair_factorization_residual((G1, g2, G3), pp, N, (1, 1, 0))
    assert r < 1e-10


def test_mixed_framing_ybe_deviation_is_reported_not_asserted():
    """The blockwise pair assembly of the triple-space relation holds exactly
    for equal framing colors; for mixed framing colors the trailing-pair
    transition mixes the spectator slot and the pure-block equation deviates.
    The deviation is measured and reported here as a diagnostic.
    """
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(88, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0],
                                                   "uc": [1, 0, 0]})
    r1 = ybe_residual((G1, g2, G3), pp, N, 1)
    assert r1 < 1e-7  # one box: exact even for mixed framing colors
    r2 = ybe_residual((G1, g2, G3), pp, N, 2)
    print(f"\nmixed-framing 2-box relation deviation (reported): {r2:.3e}")


def test_star_transition_transpose_relation():
    assert transpose_relation_residual((1, 0, 0), G1, G2, PP, N) < 1e-8
    res = transition_r_star((1, 0, 0), G1, G2, PP, N)
    assert weight_block_residual(res.basis, res.bare) < 1e-10


def test_star_ybe_one_box():
    from ellstab.rmatrix import inverted_kahler
    # with the inverted Kahler arguments the starred transitions satisfy the
    # same composition law
    assert composition_residual((1, 0, 0), G1, G2, PP, N, star=True,
                                kahler=inverted_kahler(N)) < 1e-8


def test_restriction_matrix_budget_guard():
    from ellstab.core import BudgetError
    big = basis_fixed_points((2, 1, 1), [G1], N)
    with pytest.raises(BudgetError):
        fps = basis_fixed_points((6, 5, 5), [G1], N)
        restriction_matrix(fps, PP)
