"""Exchange scalars, triple Gamma ratios and the fusion consistency identity."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from ellstab.core import Monomial, SingularityError
from ellstab.rmatrix import FramingGroup
from ellstab.sampling import sample_param_point
from ellstab.scalars import (_qpoch, chi_exchange, eta_pairing, gamma3v, mu_exchange,
                             mu_exchange_scalar, mu_star_exchange,
                             mu_vacuum_ope, qpoch2_ratio, rho_plus, rho_ratio,
                             rll_scalar_residual)
from qseries_oracles import gamma3, qpoch2_inf

N = 3
PP0 = sample_param_point(61, N)
PP = PP0.extended({"u": 0.83 + 0.41j, "v": 1.1 - 0.3j})
ZU = Monomial.var("u")


def test_eta_values_and_symmetry():
    assert eta_pairing(0, 2, N) == 0
    assert eta_pairing(1, 1, N) == Fraction(2, 3)
    assert eta_pairing(1, 2, N) == Fraction(1, 3)
    for k in range(N):
        for l in range(N):
            assert eta_pairing(k, l, N) == eta_pairing(l, k, N)


def test_gamma3v_matches_scalar_reference():
    a, b, c = 0.2 + 0.05j, 0.3 - 0.1j, 0.15 + 0.12j
    z = 0.7 + 0.3j
    assert abs(gamma3v(z, a, b, c) - gamma3(z, a, b, c)) \
        < 1e-12 * abs(gamma3(z, a, b, c))


def test_gamma3v_stable_under_truncation_tightening():
    a, b, c = 0.25, 0.3 + 0.1j, 0.2 - 0.05j
    z = 0.9 + 0.2j
    v1 = gamma3v(z, a, b, c, cutoff=1e-18)
    v2 = gamma3v(z, a, b, c, cutoff=1e-24)
    assert abs(v1 - v2) < 1e-9 * abs(v1)


@pytest.mark.parametrize("zmod", [0.3, 1.0, 6.0])
def test_qpoch_kernel_q_difference_near_unit_moduli(zmod):
    # (a z; a, b, c) (z; b, c) = (z; a, b, c) at the moduli t1^N, t2^N, t1 t2
    # of |t| = 0.88, where a direct product needs some 10^5 lattice factors.
    t1, t2 = 0.88 * cmath.exp(0.7j), 0.88 * cmath.exp(-1.9j)
    a, b, c = t1 ** N, t2 ** N, t1 * t2
    z = zmod * cmath.exp(0.4j)
    lhs = _qpoch((a * z,), (a, b, c)) * _qpoch((z,), (b, c))
    rhs = _qpoch((z,), (a, b, c))
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_qpoch2_ratio_at_one_matches_direct_product():
    p, h, big2 = PP0.p, PP0.hbar, PP0.t2 ** N
    want = (qpoch2_inf(1.0, p, big2, skip_origin=True)
            / qpoch2_inf(1.0, h, big2, skip_origin=True))
    got = qpoch2_ratio(1.0 + 0.0j, p, h, big2, at_one=True)
    assert abs(got - want) < 1e-12 * abs(want)


def test_kernels_reject_moduli_outside_the_unit_disc():
    with pytest.raises(SingularityError):
        gamma3v(0.7 + 0.1j, 0.2, 1.0, 0.3)
    with pytest.raises(SingularityError):
        gamma3v(0.7 + 0.1j, 0.2, 0.3, 1.2j)
    with pytest.raises(SingularityError):
        qpoch2_ratio(0.5 + 0.0j, 0.2, 0.3, 1.0)


def test_mu_reciprocal_branch_rule():
    for (k, l) in [(0, 1), (1, 2), (0, 2)]:
        prod = mu_exchange(PP, ZU, l, k) * mu_exchange(PP, ZU ** -1, k, l)
        assert abs(prod - 1) < 1e-12
        prod = mu_star_exchange(PP, ZU, l, k) * mu_star_exchange(PP, ZU ** -1, k, l)
        assert abs(prod - 1) < 1e-12


def test_rho_plus_inversion_product_is_one():
    val = rho_plus(PP, ZU) * rho_plus(PP, ZU ** -1)
    assert abs(val - 1) < 1e-12


def test_star_toggle_is_an_involution_of_the_code_path():
    a = rho_plus(PP, ZU, star=False)
    b = rho_plus(PP, ZU, star=True)
    assert abs(rho_plus(PP, ZU, star=False) - a) == 0.0
    assert abs(rho_ratio(PP, ZU) - b / a) < 1e-14 * abs(b / a)


def test_all_kernels_finite_on_a_smoke_corpus():
    rng = np.random.default_rng(4)
    for _ in range(50):
        uval = (0.6 + 0.7 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        pp = PP0.extended({"u": uval})
        for k in range(N):
            for l in range(N):
                for fn in (mu_exchange, mu_star_exchange, chi_exchange):
                    val = fn(pp, Monomial.var("u"), k, l)
                    assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert np.isfinite(abs(rho_plus(pp, Monomial.var("u"))))


def test_rll_scalar_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        uval = (0.55 + 0.8 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        pp = PP0.extended({"u": uval})
        for k in range(N):
            assert rll_scalar_residual(pp, Monomial.var("u"), k) < 1e-7


def test_vacuum_ope_single_weight_is_finite():
    pp = sample_param_point(62, N, framing_counts={"u": [1, 0, 0]})
    val = mu_vacuum_ope((1, 0, 0), pp)
    assert np.isfinite(abs(val)) and abs(val) > 0


def test_vacuum_ope_regularized_ratio_at_one():
    p, h, t2 = PP0.p, PP0.hbar, PP0.t2
    v = qpoch2_ratio(1.0 + 0.0j, p, h, t2 ** N, at_one=True)
    assert np.isfinite(abs(v)) and abs(v) > 0


def test_exchange_scalar_of_groups():
    g1 = FramingGroup((1, 0, 0), "ua")
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(63, N, framing_counts={"ua": list(g1.w),
                                                   "ub": list(g2.w)})
    val = mu_exchange_scalar(g1, g2, pp)
    assert np.isfinite(abs(val)) and abs(val) > 0
