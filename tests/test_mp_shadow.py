"""Float restriction matrices, transitions, the Yang-Baxter check and the
vertex series against their 40-digit shadow.

Every other check compares the library with itself at double precision.
Here the reference is the same compiled envelopes evaluated at ``shadow(pp)``
(``mp_shadow``), a parameter point whose numbers are mpmath's at 40 digits,
so a gap says whether a float value is rounding or wrong.

Cases: every profile of 1 to 3 boxes at the framing w = (1,0,0), and at the
unit pairs of framing colors (0,0) and (0,1), at seeds 0-3.  No fixed point
of at most 3 boxes holds a 2x2 square, so no restriction meets the 0/0 of
ROADMAP item 3.  Restriction matrices, bare transitions (M_C B = P^T M_Cbar P)
and the starred transpose relation at ``inverted_kahler`` agree with the
shadow within 1e-11 relative, or cond * 1e-15 where that is larger, cond the
largest float condition number of the matrices solved.  The transpose
relation is compared as a value with its 40-digit value, not with 0: it is
O(1) at both precisions for colors (0,1) at (1,1,0) and (1,1,1) (ROADMAP
item 6) and for colors (0,0) at (2,1,0).  At the shadow, the Yang-Baxter
equation for colors (0,0,0) at 1 and 2 boxes and the leading-pair
factorization for colors (0,1,0) at (1,1,0) and (1,1,1) hold to 1e-30.
The vertex series of every pair of 1 to 3 boxes at three framings, up to
degree 2, agree with the shadow's, which meets criterion 8's Jackson oracle
to 1e-30.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ellstab.core import SingularityError
from ellstab.partitions import FramingGroup, fixed_points, profiles
from ellstab.rmatrix import (ChamberMatrices, RestrictionMatrix,
                             basis_fixed_points, inverted_kahler,
                             leading_pair_factorization_residual,
                             restriction_matrix, ybe_residual)
from ellstab.sampling import sample_param_point
from ellstab.vertex import oracle_residual, vertex_series
from mp_shadow import MP, shadow

N = 3
SEEDS = range(4)
PROFILES = [v for m in (1, 2, 3) for v in profiles(m, N)]
SINGLE = FramingGroup((1, 0, 0))
PAIRS = {colors: (FramingGroup.unit(colors[0], N, "ua"),
                  FramingGroup.unit(colors[1], N, "ub"))
         for colors in ((0, 0), (0, 1))}


def _triple(colors):
    return tuple(FramingGroup.unit(c, N, prefix)
                 for c, prefix in zip(colors, ("ua", "ub", "uc")))


def _point(seed: int, groups):
    return sample_param_point(seed, N,
                              framing_counts={g.prefix: list(g.w) for g in groups})


def _tol(cond: float) -> float:
    return max(1e-11, cond * 1e-15)


def _gap(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| / max |ref| of a float array against the shadow's."""
    ref = ref.astype(complex)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _assert_shadowed(got: RestrictionMatrix, ref: RestrictionMatrix):
    """The shadow's entries are 40-digit numbers, or an exact 0 (the sum of
    an envelope whose every term vanishes keeps the 0j it starts from), and
    the float matrix agrees with them."""
    assert all(isinstance(x, MP.mpc) or x == 0 for x in ref.matrix.flat)
    assert any(isinstance(x, MP.mpc) for x in ref.matrix.flat)
    assert _gap(got.matrix, ref.matrix) <= _tol(got.cond)


@pytest.mark.parametrize("seed", SEEDS)
def test_restriction_matrices_of_one_framing(seed):
    pp = _point(seed, [SINGLE])
    sh = shadow(pp)
    for v in PROFILES:
        basis = basis_fixed_points(v, [SINGLE], N)
        if basis:
            _assert_shadowed(restriction_matrix(basis, pp), restriction_matrix(basis, sh))


@pytest.mark.parametrize("colors", PAIRS)
@pytest.mark.parametrize("seed", SEEDS)
def test_transitions_and_transpose_relation(seed, colors):
    groups = PAIRS[colors]
    pp = _point(seed, groups)
    sh = shadow(pp)
    for v in PROFILES:
        if not basis_fixed_points(v, list(groups), N):
            continue
        for star, kahler in ((False, None), (True, inverted_kahler(N))):
            got = ChamberMatrices.build(v, *groups, pp, N, star, kahler)
            ref = ChamberMatrices.build(v, *groups, sh, N, star, kahler)
            _assert_shadowed(got.m_c, ref.m_c)
            _assert_shadowed(got.m_cbar, ref.m_cbar)
            assert _gap(got.bare(), ref.bare()) <= _tol(max(got.conds))
        # ``got`` and ``ref`` are the starred matrices at inverted_kahler
        tol = _tol(max(got.conds + got.at(star=True).conds))
        r = ref.transpose_relation()
        assert abs(got.transpose_relation() - r) <= tol * max(r, 1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_yang_baxter_holds_at_40_digits(seed):
    """For colors (0,0,0) the YBE holds at 1 and 2 boxes: to 40 digits at
    the shadow, to 1e-12 in float (measured: 3.8e-39 and 5.3e-14 at most)."""
    groups = _triple((0, 0, 0))
    pp = _point(seed, groups)
    sh = shadow(pp)
    for boxes in (1, 2):
        assert ybe_residual(groups, pp, N, boxes) < 1e-12
        assert ybe_residual(groups, sh, N, boxes) < 1e-30


@pytest.mark.parametrize("seed", SEEDS)
def test_leading_pair_factorization_holds_at_40_digits(seed):
    """The honest triple transition of the leading pair equals the assembled
    pair transition to 40 digits for colors (0,1,0) at v = (1,1,0) and
    (1,1,1) (measured: 9.7e-40 at most; in float it reaches 3.0e-11)."""
    groups = _triple((0, 1, 0))
    sh = shadow(_point(seed, groups))
    for v in ((1, 1, 0), (1, 1, 1)):
        assert leading_pair_factorization_residual(groups, sh, N, v) < 1e-30


def _series(lam, mu, pp):
    """The series of the pair up to degree 2, or None when it raises."""
    try:
        return vertex_series(lam, mu, 2, pp)
    except SingularityError:
        return None


@pytest.mark.parametrize("seed", SEEDS)
def test_vertex_series_and_oracle_at_40_digits(seed):
    """Criterion 8 at the shadow: every pair of 1 to 3 boxes at the framings
    (1,0,0), (1,1,0) and (2,0,0) raises a pole at both precisions or at
    neither, its float coefficients agree with the shadow's within 1e-12 of
    the largest, and the shadow's series meets its Jackson oracle to 40
    digits (measured: 3.6e-15 and 2.1e-40 at most)."""
    for w in ((1, 0, 0), (1, 1, 0), (2, 0, 0)):
        pp = _point(seed, [FramingGroup(w)])
        sh = shadow(pp)
        for v in PROFILES:
            basis = fixed_points(v, w, N)
            for lam, mu in itertools.product(basis, repeat=2):
                got, ref = _series(lam, mu, pp), _series(lam, mu, sh)
                assert (got is None) == (ref is None), (w, lam, mu)
                if ref is None:
                    continue
                scale = max(abs(c) for c in ref.coefficients.values())
                assert all(abs(c - complex(ref.coefficients[d])) <= 1e-12 * scale
                           for d, c in got.coefficients.items())
                assert oracle_residual(ref, sh) < 1e-30
