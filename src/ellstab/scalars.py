"""Closed-form scalar kernels: vacuum OPE factor, exchange scalars, fusion
scalars and their consistency identity.

All kernels are ratios of triple Gamma factors over the moduli
(t1^N, t2^N, hbar) or (t1^N, t2^N, p/p*), with rational-power prefactors
(u/v)^eta handled through the exact-exponent monomial mechanism so that both
sides of every identity share one branch choice.

A kernel hands all the arguments that share one moduli tuple to a single
series call: ``gamma3v`` takes a numerator and a denominator list of triple
Gamma arguments, ``qpoch2_ratio`` a list of double-Pochhammer arguments, and
both evaluate the whole ratio with one coefficient table in ``_qpoch``, and
one power table for the leaves of all its axes.  So mu and mu* take two
calls (one per nome), chi and rho^+ one, and the vacuum OPE factor four,
whatever its framing.

The coefficient table depends on the moduli tuple alone, and the parameter
point owns it: ``series_table`` builds it at the first call for a tuple and
keeps it on the point, with the log cutoffs it was built at, shared with
every ``extended`` point.  So the fusion identity (``rll_scalar_residual``),
whose 8 series calls run at 3 moduli tuples, builds 3 tables at a new point
and none at the u points extended from it.  Every kernel therefore takes
the point, down to ``_qpoch``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from .core import SQRT_HBAR, Monomial, ParamPoint, SingularityError
from .partitions import FramingGroup

MINUS = Monomial.var("sgn")

# tail bound at which ``_qpoch`` cuts each log series
SERIES_CUTOFF = 1e-18


def eta_pairing(k: int, l: int, n: int) -> Fraction:
    """eta_{kl} = min(k,l) (N - max(k,l)) / N for 0 <= k, l <= N-1."""
    i, j = min(k % n, l % n), max(k % n, l % n)
    return Fraction(i * (n - j), n)


def series_table(qs: tuple[complex, ...], pp: ParamPoint) -> tuple[list, np.ndarray]:
    """The table of ``_qpoch`` at the moduli ``qs``: built once per point and
    its extensions (``_series_table``), keyed by the moduli values, so every
    kernel of a point that shares a tuple reads one table.  A table is the
    same array whenever it is built, so reading a kept one changes no bit.
    It keeps the log cutoffs it was built at, so a point evaluates at its
    table's ``SERIES_CUTOFF`` even after the constant changes."""
    memo = pp._series_tables
    table = memo.get(qs)
    if table is None:
        table = memo[qs] = _series_table(qs)
    return table


def _series_table(qs: tuple[complex, ...]) -> tuple[list, np.ndarray]:
    """(log_cut, coef) of the log series at the moduli ``qs``:
    log_cut[j] = log(SERIES_CUTOFF / bound_j) for the tail bound
    bound_j = 2 prod_{i>=j} 1/(1 - |q_i|), and
    coef[j, r-1] = 1/(r prod_{i>=j} (1 - q_i^r)), enough terms for |x| = 1/2."""
    if any(abs(q) >= 1 for q in qs):
        raise SingularityError("Pochhammer moduli must lie inside the unit disc")
    bound = 2.0 / np.cumprod([1.0 - abs(q) for q in qs[::-1]])[::-1]
    log_cut = [math.log(SERIES_CUTOFF / b) for b in bound]
    n_max = _n_terms(0.5, log_cut[0])
    suffix = np.cumprod((1.0 - _powers(qs, n_max))[::-1], axis=0)[::-1]
    return log_cut, 1.0 / (np.arange(1, n_max + 1) * suffix)


def _powers(xs, n: int) -> np.ndarray:
    """Row i holds x_i^1 .. x_i^n, the same sequential products as the
    increasing Vandermonde matrix of numpy, bit for bit."""
    powers = np.empty((len(xs), n), dtype=complex)
    powers[:] = np.array(xs, dtype=complex)[:, None]
    return np.multiply.accumulate(powers, axis=1, out=powers)


def _qpoch(pp: ParamPoint, num, den, qs: tuple[complex, ...]) -> complex:
    """prod over z in ``num`` of (z; q_1, ..., q_k)_inf divided by the same
    product over ``den``, for k = len(qs) >= 1.

    Split: (x; q_j..q_k) = (x; q_j+1..q_k) (x q_j; q_j..q_k) peels the lattice
    along q_1, then q_2, ... while |x| > 1/2; a point peeled along every axis
    is one direct factor (1 - x).  Sum: the sub-octant (x; q_j..q_k) left at
    each |x| <= 1/2 is exp(-sum_r x^r / (r prod_i (1 - q_i^r))), cut at the
    first R where the tail bound 2 |x|^R prod_i 1/(1 - |q_i|) drops below the
    table's cutoff.  Both lists share one table, the point's
    (``series_table``), and one peel pass.  The leaves of every axis share
    one power table; each axis sums its leaves' logs weighted +1 (num) or -1
    (den) by its own two products, so no sum spans two axes.
    """
    log_cut, coef = series_table(qs, pp)
    direct = [(x, 1.0) for x in num] + [(x, -1.0) for x in den]
    leaves, signs, axes = [], [], []
    for j, q in enumerate(qs):
        start, peeled = len(leaves), []
        for x, sign in direct:
            while abs(x) > 0.5:
                peeled.append((x, sign))
                x *= q
            if x != 0:
                leaves.append(x)
                signs.append(sign)
        if len(leaves) > start:
            n = _n_terms(max(map(abs, leaves[start:])), log_cut[j])
            axes.append((j, start, len(leaves), n))
        direct = peeled
    powers = _powers(leaves, max((axis[3] for axis in axes), default=0))
    signs = np.array(signs)
    log = 0.0 + 0.0j
    for j, s, e, n in axes:
        log -= complex(signs[s:e] @ (powers[s:e, :n] @ coef[j, :n]))
    top = bottom = 1  # the int start of math.prod, which keeps signed zeros' bits
    for x, sign in direct:
        if sign > 0:
            top *= 1.0 - x
        else:
            bottom *= 1.0 - x
    return cmath.exp(log) * top / bottom


def _n_terms(xmax: float, log_cut: float) -> int:
    """Smallest R >= 1 with xmax^R < exp(log_cut), for 0 < xmax <= 1/2."""
    return max(1, math.ceil(log_cut / math.log(xmax)))


def gamma3v(pp: ParamPoint, num, den, a: complex, b: complex, c: complex) -> complex:
    """prod over z in ``num`` of Gamma(z; a, b, c) divided by the same product
    over ``den``, where Gamma(z; a, b, c) = (z; a,b,c)_inf (abc/z; a,b,c)_inf.

    One series evaluation for the whole ratio: callers pass every argument
    that shares the moduli (a, b, c) in one call.
    """
    if any(z == 0 for z in (*num, *den)):
        raise SingularityError("triple Gamma rejects z = 0")
    abc = a * b * c
    return _qpoch(pp, [y for z in num for y in (z, abc / z)],
                  [y for z in den for y in (z, abc / z)], (a, b, c))


def qpoch2_ratio(pp: ParamPoint, zs, q_num: complex, q_den: complex, q2: complex,
                 at_one=()) -> complex:
    """prod over z in ``zs`` of (z; q_num, q2)_inf / (z; q_den, q2)_inf, times
    the same ratio regularized at each z in ``at_one``.

    The regularization drops the common vanishing (0,0) factor of numerator
    and denominator: (z; q1, q2)_inf without its origin factor is
    (z q1; q1, q2)_inf (z q2; q2)_inf, and the (z q2; q2)_inf factor is the
    same on both sides, so it cancels as well.
    """
    num = [*zs, *(z * q_num for z in at_one)]
    den = [*zs, *(z * q_den for z in at_one)]
    return _qpoch(pp, num, (), (q_num, q2)) / _qpoch(pp, den, (), (q_den, q2))


# ---------------------------------------------------------------------------
# Vacuum OPE scalar
# ---------------------------------------------------------------------------

def _slot_pairs(g1: FramingGroup, g2: FramingGroup) -> list[tuple]:
    """The pairs of a slot (k, i) of g1 and a slot (l, j) of g2, in (k, l, i, j)
    order: the stable sort of the color-major pairs by their colors."""
    return sorted(itertools.product(g1.slots(), g2.slots()),
                  key=lambda pair: (pair[0].color, pair[1].color))


def mu_vacuum_ope(framing_w: tuple[int, ...], pp: ParamPoint,
                  prefix: str = FramingGroup.prefix) -> complex:
    """Normal-ordering scalar of the ordered product of vacuum intertwiners.

    Product over color pairs k <= l and all framing index pairs of
    ``FramingGroup(framing_w, prefix)``; the self pair evaluates the
    double-Pochhammer ratio at argument 1 with its common vanishing factor
    removed.  The arguments of all pairs are collected into one series call
    per moduli tuple (p or hbar, with t1^N or t2^N).
    """
    n = pp.n_colors
    t1, t2 = pp.t1, pp.t2
    big1, big2 = t1 ** n, t2 ** n
    hbar, p = pp.hbar, pp.p
    group = FramingGroup(framing_w, prefix)
    pref = 1.0 + 0.0j
    zs1, zs2, ones = [], [], []
    for sk, sl in _slot_pairs(group, group):
        k, l = sk.color, sl.color
        if k > l:
            continue
        uk, ul = Monomial.var(sk.u_var), Monomial.var(sl.u_var)
        pref *= pp.materialize((MINUS * SQRT_HBAR * uk) ** eta_pairing(k, l, n))
        ratio = pp.materialize(ul / uk)
        zs1.append(big1 * t1 ** (k - l) * ratio)
        (ones if sk == sl else zs2).append(t2 ** (l - k) * ratio)
    return (pref * qpoch2_ratio(pp, zs1, p, hbar, big1)
            * qpoch2_ratio(pp, zs2, p, hbar, big2, at_one=ones))


# ---------------------------------------------------------------------------
# Exchange scalars of the two transition matrices
# ---------------------------------------------------------------------------

def mu_exchange(pp: ParamPoint, z: Monomial, k: int, l: int) -> complex:
    """Type-I exchange kernel mu(z)_{kl}; reciprocal rule for k > l."""
    n = pp.n_colors
    if k % n > l % n:
        return 1.0 / mu_exchange(pp, z ** -1, l, k)
    t1, t2 = pp.t1, pp.t2
    big1, big2 = t1 ** n, t2 ** n
    zv = pp.materialize(z)
    pref = pp.materialize(z ** (-eta_pairing(k, l, n)))
    d = k - l  # <= 0 here
    num = (t2 ** (-d) * zv, big1 * t1 ** d * zv)
    den = (big1 * t2 ** (-d) * zv, big1 * big2 * t1 ** d * zv)
    return (pref * gamma3v(pp, num, den, big1, big2, pp.hbar)
            / gamma3v(pp, num, den, big1, big2, pp.p))


def mu_star_exchange(pp: ParamPoint, z: Monomial, k: int, l: int) -> complex:
    """Type-II exchange kernel mu*(z)_{kl}; reciprocal rule for k > l."""
    n = pp.n_colors
    if k % n > l % n:
        return 1.0 / mu_star_exchange(pp, z ** -1, l, k)
    t1, t2 = pp.t1, pp.t2
    big1, big2 = t1 ** n, t2 ** n
    zv = pp.materialize(z)
    pref = pp.materialize(z ** (+eta_pairing(k, l, n)))
    d = k - l
    h = pp.hbar

    def block(shift, nome):
        num = (shift * big2 * t1 ** (-d) * zv, shift * big1 * big2 * t2 ** d * zv)
        den = (shift * t1 ** (-d) * zv, shift * big2 * t2 ** d * zv)
        return gamma3v(pp, num, den, big1, big2, nome)

    return pref * block(h, h) * block(1.0, pp.nome(True))


def chi_exchange(pp: ParamPoint, z: Monomial, k: int, l: int) -> complex:
    """Exchange scalar between the two kinds of intertwiners."""
    n = pp.n_colors
    t1, t2 = pp.t1, pp.t2
    big1, big2 = t1 ** n, t2 ** n
    zv = pp.materialize(z)
    sq = pp.materialize(SQRT_HBAR)
    pref = pp.materialize(z ** (-eta_pairing(k, l, n)))
    d = (k % n) - (l % n)
    if d <= 0:
        num = (big2 * t2 ** d, t1 ** (-d))
        den = (big2 * t1 ** (-d), big1 * big2 * t2 ** d)
    else:
        num = (t2 ** d, big1 * t1 ** (-d))
        den = (big1 * big2 * t1 ** (-d), big1 * t2 ** d)
    return pref * gamma3v(pp, [sq * x * zv for x in num], [sq * x * zv for x in den],
                          big1, big2, pp.hbar)


def rho_plus(pp: ParamPoint, z: Monomial, star: bool = False) -> complex:
    """Fusion scalar rho^+ (rho^{+*} with the shifted nome)."""
    n = pp.n_colors
    big1, big2 = pp.t1 ** n, pp.t2 ** n
    zv = pp.materialize(z)
    return gamma3v(pp, (1.0 / zv,), (zv,), big1, big2, pp.nome(star))


def rho_ratio(pp: ParamPoint, z: Monomial) -> complex:
    """rho(u) = rho^{+*}(u) / rho^{+}(u)."""
    return rho_plus(pp, z, star=True) / rho_plus(pp, z, star=False)


def rll_scalar_residual(pp: ParamPoint, z: Monomial, k: int) -> float:
    """Relative residual of the scalar consistency identity

    rho^+(u)/rho^{+*}(u) = chi(h^(1/2)/u)_{kk} / chi(h^(1/2) u)_{kk}
                           * mu(u)_{kk} / mu*(u)_{kk}.
    """
    lhs = rho_plus(pp, z) / rho_plus(pp, z, star=True)
    rhs = (chi_exchange(pp, SQRT_HBAR / z, k, k) / chi_exchange(pp, SQRT_HBAR * z, k, k)
           * mu_exchange(pp, z, k, k) / mu_star_exchange(pp, z, k, k))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def _exchange_product(kernel, g1, g2, pp: ParamPoint, star: bool) -> complex:
    """prod of kernel(pp, z, k, l) over the slots (k, i) of g1 and (l, j) of
    g2, in (k, l, i, j) order, with z = u2/u1, or u1/u2 with ``star``."""
    out = 1.0 + 0.0j
    for s1, s2 in _slot_pairs(g1, g2):
        u1, u2 = Monomial.var(s1.u_var), Monomial.var(s2.u_var)
        out *= kernel(pp, u1 / u2 if star else u2 / u1, s1.color, s2.color)
    return out


def mu_exchange_scalar(g1, g2, pp: ParamPoint) -> complex:
    """The vacuum exchange scalar of two framing groups, mu(u1/u2)."""
    return _exchange_product(mu_exchange, g1, g2, pp, star=False)


def mu_star_exchange_scalar(g1, g2, pp: ParamPoint) -> complex:
    """The vacuum exchange scalar of the dual intertwiners, mu*(u1/u2)."""
    return _exchange_product(mu_star_exchange, g1, g2, pp, star=True)


def vacuum_c_constants(pp: ParamPoint) -> tuple[complex, complex]:
    """The two ladder constants (p h^{+-1}; p)_inf / (p; p)_inf of the point."""
    p, h = pp.p, pp.hbar
    base = pp.qpoch_inf(p, p)
    return (pp.qpoch_inf(p * h, p) / base, pp.qpoch_inf(p / h, p) / base)
