"""Vertex series, Jackson oracle, normalization and Bethe equations."""

import numpy as np
import pytest

from ellstab.core import HBAR, Monomial, ParamPoint, SingularityError
from ellstab.envelopes import Envelope, EnvelopeSpec, restrict
from ellstab.partitions import fixed_points, make_fixed_point
from ellstab.rmatrix import profiles
from ellstab.sampling import sample_param_point
from ellstab.scalars import mu_vacuum_ope
from ellstab.vertex import (BetheSolution, _degree_vectors, bethe_residuals,
                            bethe_solve, jackson_term_ratio,
                            jordan_bethe_residuals, normalization_factor,
                            qpoch_mono, vertex_series)

N = 3
W = (1, 0, 0)
PP = sample_param_point(41, N, framing_counts={"u": list(W)})


def test_degree_vectors_cover_the_simplex():
    vecs = list(_degree_vectors(3, 2))
    assert len(vecs) == len(set(vecs)) == 10
    assert all(sum(v) <= 2 for v in vecs)
    assert list(_degree_vectors(0, 3)) == [()]


def _direct_qpoch(z, length, skip=None):
    """(z; p)_length as a plain product, leaving out factor ``skip``;
    ``length=None`` is a 200-factor truncation of the infinite product."""
    p = PP.p
    if length is not None and length < 0:
        return 1.0 / _direct_qpoch(z * p ** length, -length)
    return np.prod([1.0 - z * p ** n
                    for n in range(200 if length is None else length)
                    if n != skip])


def test_qpoch_mono_generic_base_is_the_direct_product():
    base = Monomial.var("t1") * Monomial.var("u0_1") ** -1
    z = PP.materialize(base)
    for offset in (0, 2):
        for length in (-3, -2, -1, 0, 1, 2, 3, None):
            val, zeros = qpoch_mono(base, length, PP, offset)
            want = _direct_qpoch(z * PP.p ** offset, length)
            assert zeros == 0
            assert abs(val - want) < 1e-14 * abs(want)


def test_qpoch_mono_counts_and_skips_the_vanishing_factor():
    base = Monomial.var("p", -2)  # factor n = 2 is 1 - p^0
    for length, zeros in ((0, 0), (2, 0), (3, 1), (5, 1), (None, 1)):
        val, got = qpoch_mono(base, length, PP)
        want = _direct_qpoch(PP.p ** -2, length, skip=2)
        assert got == zeros
        assert abs(val - want) < 1e-14 * abs(want)
    # the reciprocal product counts the vanishing factor with sign -1
    val, got = qpoch_mono(base, -2, PP, offset=4)
    assert got == -1
    assert abs(val - 1 / (1 - PP.p)) < 1e-15
    assert qpoch_mono(base, None, PP, offset=3)[1] == 0


def test_qpoch_mono_cocycle():
    """(b; p)_(m+n) = (b; p)_m (b p^m; p)_n for all integers m, n."""
    for base in (Monomial.var("t2") * Monomial.var("z1"), Monomial.var("p", -2)):
        for m in range(-3, 4):
            for n in range(-3, 4):
                v_mn, z_mn = qpoch_mono(base, m + n, PP)
                v_m, z_m = qpoch_mono(base, m, PP)
                v_n, z_n = qpoch_mono(base, n, PP, offset=m)
                assert z_mn == z_m + z_n
                assert abs(v_mn - v_m * v_n) < 1e-13 * abs(v_mn)


def _fresh_point():
    return ParamPoint(PP.n_colors, PP.values, PP.logs, min_terms=PP.min_terms)


def test_qpoch_mono_memo_repeats_bitwise():
    """Infinite products go through the point's one value memo."""
    pp = _fresh_point()
    assert pp._qpoch_memo == {}
    base = Monomial.var("t1") * Monomial.var("u0_1") ** -1
    for offset in (0, 2):
        first = qpoch_mono(base, None, pp, offset)
        size = len(pp._qpoch_memo)
        assert qpoch_mono(base, None, pp, offset) == first
        assert len(pp._qpoch_memo) == size
    assert len(pp._qpoch_memo) == 2
    # finite products are not memoised
    qpoch_mono(base, 3, pp)
    assert len(pp._qpoch_memo) == 2


def test_qpoch_mono_memo_is_shared_with_extensions_only():
    pp = _fresh_point()
    ext = pp.extended({"w": 0.3 + 0.4j})
    assert ext._qpoch_memo is pp._qpoch_memo
    first = qpoch_mono(Monomial.var("w"), None, ext)
    assert len(pp._qpoch_memo) == 1
    assert _fresh_point()._qpoch_memo == {}
    assert qpoch_mono(Monomial.var("w"), None, ext.extended({"y": 2.0})) == first


def test_qpoch_mono_memo_hit_counts_the_structural_zero():
    pp = _fresh_point()
    base = Monomial.var("p", -2)  # factor n = 2 is 1 - p^0
    first = qpoch_mono(base, None, pp)
    assert first[1] == 1
    # past the vanishing factor the product is (p; p)_inf, from the memo
    assert list(pp._qpoch_memo) == [(pp.p, pp.p)]
    assert qpoch_mono(base, None, pp) == first
    assert len(pp._qpoch_memo) == 1
    # the same base past its zero (offset 3) is another product with no zero
    assert qpoch_mono(base, None, pp, offset=3)[1] == 0
    assert qpoch_mono(base, None, pp)[1] == 1


def test_normalization_of_empty_cycle_is_vacuum_scalar():
    fp = make_fixed_point([()], W, N)
    val = normalization_factor(fp, PP)
    assert abs(val - mu_vacuum_ope(W, PP)) < 1e-12 * abs(val)


def test_normalization_single_box_hand_expansion():
    from ellstab.core import qpoch_inf
    fp = make_fixed_point([(1,)], W, N)
    val = normalization_factor(fp, PP)
    p, h = PP.p, PP.hbar
    u = PP.values["u0_1"]
    phi = 1.0  # unframed weight of the (1,1) box
    want = mu_vacuum_ope(W, PP) * phi \
        * qpoch_inf(p * u / phi, p) / qpoch_inf(h * u / phi, p)
    assert abs(val - want) < 1e-12 * abs(want)


def test_normalization_depends_only_on_cycle():
    fp = make_fixed_point([(2, 1)], W, N)
    v1 = normalization_factor(fp, PP)
    v2 = normalization_factor(fp, PP)
    assert v1 == v2


def test_degree_zero_law_and_oracle():
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = fixed_points(v, W, N)
            for lam in basis:
                env = Envelope(EnvelopeSpec(lam, "hat"))
                qp = env.qp_unit_factors()
                for mu in basis:
                    try:
                        series = vertex_series(lam, mu, 3, PP)
                    except SingularityError:
                        continue
                    d0 = tuple([0] * total)
                    assert series.coefficients[d0] == series.envelope_at_mu
                    scale = max(abs(c) for c in series.coefficients.values())
                    for d, c in series.coefficients.items():
                        oracle = jackson_term_ratio(mu, d, PP, qp) \
                            * series.envelope_at_mu
                        assert abs(c - oracle) <= 1e-8 * max(abs(c), abs(oracle),
                                                             1e-10 * scale)


@pytest.mark.parametrize("w", [(1, 0, 0), (1, 1, 0), (2, 0, 0)])
def test_quasi_periodicity_factor_is_z_inverse_times_an_hbar_power(w):
    """Every slot's multiplier times its z_k is hbar^e for an integer e, so
    the vertex prefactor's Kahler part is exactly z_k."""
    for total in range(1, 4):
        for v in profiles(total, N):
            for lam in fixed_points(v, w, N):
                qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
                for name, factor in qp.items():
                    k = int(name[1:name.index("_")])
                    e = factor.get("t1")
                    assert type(e) is int
                    assert factor * Monomial.var(f"z{k}") == HBAR ** e, \
                        (lam.partitions(), name, factor)


def test_off_diagonal_divergent_pairs_raise():
    basis = fixed_points((1, 1, 1), W, N)
    lam = next(b for b in basis if b.partitions() == ((2, 1),))
    mu = next(b for b in basis if b.partitions() == ((3,),))
    with pytest.raises(SingularityError):
        vertex_series(lam, mu, 2, PP)


def test_bethe_one_variable_closed_form():
    z0 = PP.values["z0"]
    u = PP.values["u0_1"]
    h = PP.hbar
    x = u * (1 - h * z0) / (1 - z0)
    res = bethe_residuals({0: [x], 1: [], 2: []}, PP, W)
    assert np.max(np.abs(res)) < 1e-12


def test_bethe_trivial_profile():
    sol = bethe_solve((0, 0, 0), W, PP)
    assert sol.converged and sol.residual == 0.0


def test_bethe_newton_converges_and_matches_closed_form():
    sol = bethe_solve((1, 0, 0), W, PP, seed=5)
    assert sol.converged and sol.residual < 1e-10
    z0, u, h = PP.values["z0"], PP.values["u0_1"], PP.hbar
    x = u * (1 - h * z0) / (1 - z0)
    assert abs(sol.roots[0][0] - x) < 1e-8 * abs(x)
    sol = bethe_solve((1, 1, 1), W, PP, seed=5)
    assert sol.converged and sol.residual < 1e-10


def test_jordan_variant_contract():
    uvals = [PP.values["u0_1"]]
    z = PP.values["z0"]
    h = PP.hbar
    u = uvals[0]
    x = u * (1 - h * z) / (1 - z)
    res = jordan_bethe_residuals([x], uvals, z, PP)
    assert res.shape == (1,)
    assert np.max(np.abs(res)) < 1e-12
    assert jordan_bethe_residuals([], uvals, z, PP).shape == (0,)
