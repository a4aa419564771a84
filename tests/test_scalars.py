"""Exchange scalars, triple Gamma ratios and the fusion consistency identity."""

import cmath
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from ellstab import scalars
from ellstab.core import SQRT_HBAR, Monomial, ParamPoint, SingularityError
from ellstab.rmatrix import FramingGroup
from ellstab.sampling import Annuli, sample_param_point
from ellstab.scalars import (MINUS, _qpoch, chi_exchange, eta_pairing, gamma3v,
                             mu_exchange, mu_exchange_scalar, mu_star_exchange,
                             mu_vacuum_ope, qpoch2_ratio, rho_plus, rho_ratio,
                             rll_scalar_residual)
from qseries_oracles import gamma3, qpoch2_inf, qpoch_per_axis

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
    assert abs(gamma3v(PP0, [z], [], a, b, c) - gamma3(z, a, b, c)) \
        < 1e-12 * abs(gamma3(z, a, b, c))


def test_gamma3v_stable_under_truncation_tightening(monkeypatch):
    a, b, c = 0.25, 0.3 + 0.1j, 0.2 - 0.05j
    z = 0.9 + 0.2j
    assert scalars.SERIES_CUTOFF == 1e-18
    v1 = gamma3v(PP0, [z], [], a, b, c)
    monkeypatch.setattr(scalars, "SERIES_CUTOFF", 1e-24)
    # a new point builds its table at the tighter cutoff
    v2 = gamma3v(sample_param_point(61, N), [z], [], a, b, c)
    assert abs(v1 - v2) < 1e-9 * abs(v1)


@pytest.mark.parametrize("zmod", [0.3, 1.0, 6.0])
def test_qpoch_kernel_q_difference_near_unit_moduli(zmod):
    # (a z; a, b, c) (z; b, c) = (z; a, b, c) at the moduli t1^N, t2^N, t1 t2
    # of |t| = 0.88, where a direct product needs some 10^5 lattice factors.
    t1, t2 = 0.88 * cmath.exp(0.7j), 0.88 * cmath.exp(-1.9j)
    a, b, c = t1 ** N, t2 ** N, t1 * t2
    z = zmod * cmath.exp(0.4j)
    lhs = _qpoch(PP0, (a * z,), (), (a, b, c)) * _qpoch(PP0, (z,), (), (b, c))
    rhs = _qpoch(PP0, (z,), (), (a, b, c))
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


@pytest.mark.parametrize("tmod", [0.45, 0.7, 0.88])
@pytest.mark.parametrize("zmod", [0.3, 1.0, 6.0])
def test_batched_gamma3v_is_the_ratio_of_single_calls(tmod, zmod):
    t1, t2 = tmod * cmath.exp(0.7j), tmod * cmath.exp(-1.9j)
    qs = (t1 ** N, t2 ** N, t1 * t2)
    z = zmod * cmath.exp(0.4j)
    num = [z, 0.7 * z * cmath.exp(1.1j), 1.3 * z * cmath.exp(-2.0j)]
    den = [0.8 * z * cmath.exp(-0.5j), 1.2 * z * cmath.exp(2.6j)]
    want = (np.prod([gamma3v(PP0, [x], [], *qs) for x in num])
            / np.prod([gamma3v(PP0, [x], [], *qs) for x in den]))
    assert abs(gamma3v(PP0, num, den, *qs) - want) < 1e-14 * abs(want)
    assert abs(gamma3v(PP0, num[:1], num[:1], *qs) - 1) < 1e-14
    assert gamma3v(PP0, [], [], *qs) == 1


def test_qpoch2_ratio_at_one_matches_direct_product():
    p, h, big2 = PP0.p, PP0.hbar, PP0.t2 ** N
    want = (qpoch2_inf(1.0, p, big2, skip_origin=True)
            / qpoch2_inf(1.0, h, big2, skip_origin=True))
    got = qpoch2_ratio(PP0, (), p, h, big2, at_one=(1.0 + 0.0j,))
    assert abs(got - want) < 1e-12 * abs(want)


def test_kernels_reject_moduli_outside_the_unit_disc():
    with pytest.raises(SingularityError):
        gamma3v(PP0, [0.7 + 0.1j], [], 0.2, 1.0, 0.3)
    with pytest.raises(SingularityError):
        gamma3v(PP0, [0.7 + 0.1j], [], 0.2, 0.3, 1.2j)
    with pytest.raises(SingularityError):
        qpoch2_ratio(PP0, [0.5 + 0.0j], 0.2, 0.3, 1.0)
    with pytest.raises(SingularityError):
        gamma3v(PP0, [0.7 + 0.1j, 0.0], [], 0.2, 0.3, 0.1j)
    with pytest.raises(SingularityError):
        gamma3v(PP0, [0.7 + 0.1j], [0.0], 0.2, 0.3, 0.1j)


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
    v = qpoch2_ratio(PP0, (), p, h, t2 ** N, at_one=(1.0 + 0.0j,))
    assert np.isfinite(abs(v)) and abs(v) > 0


def test_exchange_scalar_of_groups():
    g1 = FramingGroup((1, 0, 0), "ua")
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(63, N, framing_counts={"ua": list(g1.w),
                                                   "ub": list(g2.w)})
    val = mu_exchange_scalar(g1, g2, pp)
    assert np.isfinite(abs(val)) and abs(val) > 0


# ---------------------------------------------------------------------------
# Each kernel against its formula in single oracle factors, at |t| <= 1/2
# where the direct lattice products of the oracles converge fast
# ---------------------------------------------------------------------------

PPS = sample_param_point(2, N, framing_counts={"u": [2, 1, 0]},
                         annuli=Annuli(t=(0.4, 0.5)))
PPS_U = PPS.extended({"x": 0.83 + 0.41j})
ZX = Monomial.var("x")


def _close(got, want):
    assert abs(got - want) < 1e-12 * abs(want)


def _g(x, nome):
    return gamma3(x, PPS.t1 ** N, PPS.t2 ** N, nome)


@pytest.mark.parametrize("k, l", [(0, 0), (0, 2), (1, 2), (2, 1), (2, 0)])
def test_mu_exchange_matches_its_gamma3_formula(k, l):
    pp, b1, b2 = PPS_U, PPS_U.t1 ** N, PPS_U.t2 ** N
    t1, t2, h, p = pp.t1, pp.t2, pp.hbar, pp.p
    eta = eta_pairing(k, l, N)
    if k <= l:
        d, zv, pref = k - l, pp.materialize(ZX), pp.materialize(ZX ** -eta)
    else:  # reciprocal rule: 1 / mu(1/z)_{lk}
        d, zv, pref = l - k, 1 / pp.materialize(ZX), pp.materialize(ZX ** eta)
    want = (pref
            * _g(t2 ** -d * zv, h) * _g(b1 * t1 ** d * zv, h)
            / (_g(b1 * t2 ** -d * zv, h) * _g(b1 * b2 * t1 ** d * zv, h))
            / (_g(t2 ** -d * zv, p) * _g(b1 * t1 ** d * zv, p))
            * (_g(b1 * t2 ** -d * zv, p) * _g(b1 * b2 * t1 ** d * zv, p)))
    _close(mu_exchange(pp, ZX, k, l), want if k <= l else 1 / want)


@pytest.mark.parametrize("k, l", [(0, 0), (0, 2), (1, 2)])
def test_mu_star_exchange_matches_its_gamma3_formula(k, l):
    pp, b1, b2 = PPS_U, PPS_U.t1 ** N, PPS_U.t2 ** N
    t1, t2, h, ps = pp.t1, pp.t2, pp.hbar, pp.nome(True)
    zv, d = pp.materialize(ZX), k - l
    want = (pp.materialize(ZX ** eta_pairing(k, l, N))
            * _g(h * b2 * t1 ** -d * zv, h) * _g(h * b1 * b2 * t2 ** d * zv, h)
            / (_g(h * t1 ** -d * zv, h) * _g(h * b2 * t2 ** d * zv, h))
            * _g(b2 * t1 ** -d * zv, ps) * _g(b1 * b2 * t2 ** d * zv, ps)
            / (_g(t1 ** -d * zv, ps) * _g(b2 * t2 ** d * zv, ps)))
    _close(mu_star_exchange(pp, ZX, k, l), want)


@pytest.mark.parametrize("k, l", [(0, 0), (0, 2), (2, 1), (2, 0)])
def test_chi_exchange_matches_its_gamma3_formula(k, l):
    pp, b1, b2 = PPS_U, PPS_U.t1 ** N, PPS_U.t2 ** N
    t1, t2, h = pp.t1, pp.t2, pp.hbar
    x, d = pp.materialize(SQRT_HBAR) * pp.materialize(ZX), k - l
    if d <= 0:
        ratio = (_g(b2 * t2 ** d * x, h) * _g(t1 ** -d * x, h)
                 / (_g(b2 * t1 ** -d * x, h) * _g(b1 * b2 * t2 ** d * x, h)))
    else:
        ratio = (_g(t2 ** d * x, h) * _g(b1 * t1 ** -d * x, h)
                 / (_g(b1 * b2 * t1 ** -d * x, h) * _g(b1 * t2 ** d * x, h)))
    want = pp.materialize(ZX ** -eta_pairing(k, l, N)) * ratio
    _close(chi_exchange(pp, ZX, k, l), want)


@pytest.mark.parametrize("star", [False, True])
def test_rho_plus_matches_its_gamma3_formula(star):
    zv = PPS_U.materialize(ZX)
    nome = PPS_U.nome(star)
    _close(rho_plus(PPS_U, ZX, star), _g(1 / zv, nome) / _g(zv, nome))


def _pq(z, q2, skip_origin=False):
    """(z; p, q2)_inf / (z; hbar, q2)_inf by the direct-product oracle."""
    return (qpoch2_inf(z, PPS.p, q2, skip_origin=skip_origin)
            / qpoch2_inf(z, PPS.hbar, q2, skip_origin=skip_origin))


def test_mu_vacuum_ope_matches_its_qpoch2_formula():
    pp, b1, b2, t1, t2 = PPS, PPS.t1 ** N, PPS.t2 ** N, PPS.t1, PPS.t2
    at_one = _pq(b1, b1) * _pq(1.0, b2, skip_origin=True)
    # w = (1, 1, 0): self pairs of colors 0 and 1, and the pair (0, 1)
    # with eta_00 = eta_01 = 0 and eta_11 = 2/3
    r = pp.materialize(Monomial.var("u1_1") / Monomial.var("u0_1"))
    want = (pp.materialize((MINUS * SQRT_HBAR * Monomial.var("u1_1"))
                           ** Fraction(2, 3))
            * at_one ** 2 * _pq(b1 * r / t1, b1) * _pq(t2 * r, b2))
    _close(mu_vacuum_ope((1, 1, 0), pp), want)
    # w = (2, 0, 0): two self pairs and the pairs (1, 2) and (2, 1), eta = 0
    r = pp.materialize(Monomial.var("u0_2") / Monomial.var("u0_1"))
    want = (at_one ** 2 * _pq(b1 * r, b1) * _pq(r, b2)
            * _pq(b1 / r, b1) * _pq(1 / r, b2))
    _close(mu_vacuum_ope((2, 0, 0), pp), want)


def test_one_series_evaluation_per_moduli_tuple(monkeypatch):
    """Each kernel evaluates its triple Gamma ratios with one series call per
    moduli tuple: two for mu and mu* (two nomes), one for chi and rho^+, and
    four for the vacuum OPE (two nomes times two second moduli)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _qpoch(*args, **kwargs)

    monkeypatch.setattr(scalars, "_qpoch", counted)
    cases = [(2, lambda: mu_exchange(PP, ZU, 0, 1)),
             (2, lambda: mu_exchange(PP, ZU, 2, 1)),
             (2, lambda: mu_star_exchange(PP, ZU, 0, 2)),
             (1, lambda: chi_exchange(PP, ZU, 1, 0)),
             (1, lambda: rho_plus(PP, ZU, star=True)),
             (4, lambda: mu_vacuum_ope((1, 1, 0), PPS)),
             (4, lambda: mu_vacuum_ope((2, 0, 0), PPS))]
    for want, kernel in cases:
        calls.clear()
        kernel()
        assert len(calls) == want


# ---------------------------------------------------------------------------
# The point's series tables
# ---------------------------------------------------------------------------

def test_a_point_builds_each_series_table_once(monkeypatch):
    """The fusion identity builds one coefficient table per moduli tuple at
    a new point, 3 in all; a second call and a u point extended from the
    same point build none."""
    built = []
    build = scalars._series_table

    def counted(qs):
        built.append(qs)
        return build(qs)

    monkeypatch.setattr(scalars, "_series_table", counted)
    pp0 = sample_param_point(64, N)
    pp = pp0.extended({"u": 0.83 + 0.41j})
    rll_scalar_residual(pp, ZU, 1)
    assert len(built) == len(set(built)) == 3
    rll_scalar_residual(pp, ZU, 1)
    rll_scalar_residual(pp0.extended({"u": 1.1 - 0.3j}), ZU, 0)
    assert len(built) == 3


def _hex(value) -> tuple[str, str]:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _kernel_corpus(seed):
    """A cold point maker and every kernel, at the point and u value of
    ``seed``: the nine exchange kernels of each kind, rho^+ and rho^{+*},
    the vacuum OPE factor and the fusion residuals."""
    base = sample_param_point(seed, N, framing_counts={"u": [1, 1, 0]})
    rng = np.random.default_rng(seed)
    uval = (0.55 + 0.8 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
    kernels = [lambda pp, f=f, k=k, l=l: f(pp, ZU, k, l)
               for f in (mu_exchange, mu_star_exchange, chi_exchange)
               for k in range(N) for l in range(N)]
    kernels += [lambda pp: rho_plus(pp, ZU), lambda pp: rho_plus(pp, ZU, star=True),
                lambda pp: mu_vacuum_ope((1, 1, 0), pp)]
    kernels += [lambda pp, k=k: rll_scalar_residual(pp, ZU, k) for k in range(N)]

    def cold():
        return ParamPoint(N, base.values, base.logs).extended({"u": uval})

    return cold, kernels


@pytest.mark.parametrize("seed", range(8))
def test_kernel_values_do_not_depend_on_warm_tables(seed):
    """Every kernel value is the same bits on a point whose tables it builds
    itself as on one whose tables every other kernel has built already."""
    cold, kernels = _kernel_corpus(seed)
    warm = cold()
    for kernel in kernels:
        kernel(warm)
    assert warm._series_tables
    for kernel in kernels:
        assert _hex(kernel(cold())) == _hex(kernel(warm))


#: sha256 of the ``float.hex`` pairs of every kernel value of
#: ``_kernel_corpus`` at seeds 0-7, each at a cold point.  Recorded at commit
#: 0dfc57c, whose ``_qpoch`` built one power table per lattice axis (now
#: ``qseries_oracles.qpoch_per_axis``); the one-table kernel gives the same
#: digest.
KERNEL_VALUES_SHA256 = "4e03ea164acc4934960a351bcae94d96741395f12ba4423c02f1676bb55e6ab7"


def kernel_values_digest() -> str:
    h = hashlib.sha256()
    for seed in range(8):
        cold, kernels = _kernel_corpus(seed)
        for kernel in kernels:
            h.update(" ".join(_hex(kernel(cold()))).encode() + b"\n")
    return h.hexdigest()


def test_kernel_values_match_recorded_digest():
    assert kernel_values_digest() == KERNEL_VALUES_SHA256


def test_a_point_keeps_the_cutoff_of_its_tables(monkeypatch):
    """A point evaluates at the cutoff its tables were built at, also after
    ``SERIES_CUTOFF`` is tightened; a new point builds longer tables."""
    base = sample_param_point(3, N, framing_counts={"u": [1, 1, 0]})
    pp = base.extended({"u": 0.83 + 0.41j})
    kernels = [lambda pp: mu_exchange(pp, ZU, 0, 1), lambda pp: rho_plus(pp, ZU),
               lambda pp: mu_vacuum_ope((1, 1, 0), pp)]
    first = [_hex(kernel(pp)) for kernel in kernels]
    monkeypatch.setattr(scalars, "SERIES_CUTOFF", 1e-30)
    assert [_hex(kernel(pp)) for kernel in kernels] == first
    qs = (pp.t1 ** N, pp.t2 ** N, pp.hbar)
    new = ParamPoint(N, base.values, base.logs)
    assert (scalars.series_table(qs, new)[1].shape[1]
            > scalars.series_table(qs, pp)[1].shape[1])


def _grid_cases(tmod, zmod):
    """(num, den, qs) cases of ``_qpoch``: 3- and 2-axis moduli at |t| =
    ``tmod``, arguments around |z| = ``zmod``, an empty denominator and an
    argument that leaves the leaf 0."""
    t1, t2 = tmod * cmath.exp(0.7j), tmod * cmath.exp(-1.9j)
    three, two = (t1 ** N, t2 ** N, t1 * t2), (t1 * t2, t2 ** N)
    z = zmod * cmath.exp(0.4j)
    num = [z, 0.7 * z * cmath.exp(1.1j), 1.3 * z * cmath.exp(-2.0j)]
    den = [0.8 * z * cmath.exp(-0.5j), 1.2 * z * cmath.exp(2.6j)]
    return [(num, den, three), (num, den, two), (num, (), three), (num[:1], (), two),
            ([0j, *num], den, three), (num, [0j], two)]


@pytest.mark.parametrize("tmod", [0.45, 0.7, 0.88])
@pytest.mark.parametrize("zmod", [0.3, 1.0, 6.0])
def test_qpoch_bits_match_the_per_axis_oracle(tmod, zmod):
    """One power table per call gives every bit of one table per axis."""
    pp = ParamPoint(N, PP0.values, PP0.logs)
    for num, den, qs in _grid_cases(tmod, zmod):
        assert _hex(_qpoch(pp, num, den, qs)) == _hex(qpoch_per_axis(num, den, qs))


if __name__ == "__main__":
    # Re-derive the recorded digest: PYTHONPATH=src python tests/test_scalars.py
    print(f"KERNEL_VALUES_SHA256: {kernel_values_digest()}")
