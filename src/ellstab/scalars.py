"""Closed-form scalar kernels: vacuum OPE factor, exchange scalars, fusion
scalars and their consistency identity.

All kernels are ratios of triple Gamma factors over the moduli
(t1^N, t2^N, hbar) or (t1^N, t2^N, p/p*), with rational-power prefactors
(u/v)^eta handled through the exact-exponent monomial mechanism so that both
sides of every identity share one branch choice.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import (HBAR, Monomial, ParamPoint, SingularityError, qpoch_inf)

SQRT_HBAR = HBAR ** Fraction(1, 2)
MINUS = Monomial.var("sgn")


def eta_pairing(k: int, l: int, n: int) -> Fraction:
    """eta_{kl} = min(k,l) (N - max(k,l)) / N for 0 <= k, l <= N-1."""
    i, j = min(k % n, l % n), max(k % n, l % n)
    return Fraction(i * (n - j), n)


def _qpoch(zs, qs: tuple[complex, ...], cutoff: float = 1e-18) -> complex:
    """prod over z in ``zs`` of (z; q_1, ..., q_k)_inf, for k = len(qs) >= 1.

    Split: (x; q_j..q_k) = (x; q_j+1..q_k) (x q_j; q_j..q_k) peels the lattice
    along q_1, then q_2, ... while |x| > 1/2; a point peeled along every axis
    is one direct factor (1 - x).  Sum: the sub-octant (x; q_j..q_k) left at
    each |x| <= 1/2 is exp(-sum_r x^r / (r prod_i (1 - q_i^r))), cut at the
    first R where the tail bound 2 |x|^R prod_i 1/(1 - |q_i|) drops below
    ``cutoff``.
    """
    if any(abs(q) >= 1 for q in qs):
        raise SingularityError("Pochhammer moduli must lie inside the unit disc")
    # bound[j] = 2 prod_{i>=j} 1/(1 - |q_i|)
    # coef[j, r-1] = 1/(r prod_{i>=j} (1 - q_i^r)), enough terms for |x| = 1/2
    bound = 2.0 / np.cumprod([1.0 - abs(q) for q in qs[::-1]])[::-1]
    n_max = _n_terms(0.5, bound[0], cutoff)
    q_pow = np.vander(np.array(qs, dtype=complex), n_max + 1, increasing=True)[:, 1:]
    suffix = np.cumprod((1.0 - q_pow)[::-1], axis=0)[::-1]
    coef = 1.0 / (np.arange(1, n_max + 1) * suffix)
    log = 0.0 + 0.0j
    direct = list(zs)
    for j, q in enumerate(qs):
        leaves, peeled = [], []
        for x in direct:
            while abs(x) > 0.5:
                peeled.append(x)
                x *= q
            if x != 0:
                leaves.append(x)
        if leaves:
            n = _n_terms(max(map(abs, leaves)), bound[j], cutoff)
            powers = np.vander(np.array(leaves, dtype=complex), n + 1, increasing=True)
            log -= complex(np.sum(powers[:, 1:] @ coef[j, :n]))
        direct = peeled
    return cmath.exp(log) * math.prod(1.0 - x for x in direct)


def _n_terms(xmax: float, bound: float, cutoff: float) -> int:
    """Smallest R >= 1 with bound * xmax^R < cutoff, for 0 < xmax <= 1/2."""
    return max(1, math.ceil(math.log(cutoff / bound) / math.log(xmax)))


def gamma3v(z: complex, a: complex, b: complex, c: complex,
            cutoff: float = 1e-18) -> complex:
    """Triple Gamma factor Gamma(z; a, b, c) = (z; a,b,c)_inf (abc/z; a,b,c)_inf."""
    if z == 0:
        raise SingularityError("triple Gamma rejects z = 0")
    return _qpoch((z, a * b * c / z), (a, b, c), cutoff)


def qpoch2_ratio(z: complex, q_num: complex, q_den: complex, q2: complex,
                 at_one: bool = False, cutoff: float = 1e-18) -> complex:
    """(z; q_num, q2)_inf / (z; q_den, q2)_inf with z = 1 regularized.

    With ``at_one`` the common vanishing (0,0) factor of numerator and
    denominator is dropped: (z; q1, q2)_inf without its origin factor is
    (z q1; q1, q2)_inf (z q2; q2)_inf.
    """
    def dpoch(q1):
        if at_one:
            return (_qpoch((z * q1,), (q1, q2), cutoff)
                    * _qpoch((z * q2,), (q2,), cutoff))
        return _qpoch((z,), (q1, q2), cutoff)

    return dpoch(q_num) / dpoch(q_den)


# ---------------------------------------------------------------------------
# Vacuum OPE scalar
# ---------------------------------------------------------------------------

def mu_vacuum_ope(framing_w: tuple[int, ...], pp: ParamPoint,
                  prefix: str = "u") -> complex:
    """Normal-ordering scalar of the ordered product of vacuum intertwiners.

    Product over color pairs k <= l and all framing index pairs; the self
    pair evaluates the double-Pochhammer ratio at argument 1 with its common
    vanishing factor removed.
    """
    n = pp.n_colors
    t1, t2 = pp.t1, pp.t2
    big1, big2 = t1 ** n, t2 ** n
    hbar, p = pp.hbar, pp.p
    out = 1.0 + 0.0j
    for k in range(n):
        for l in range(k, n):
            eta = eta_pairing(k, l, n)
            for i in range(1, framing_w[k] + 1):
                for j in range(1, framing_w[l] + 1):
                    uk = Monomial.var(f"{prefix}{k}_{i}")
                    ul = Monomial.var(f"{prefix}{l}_{j}")
                    pref = pp.materialize((MINUS * SQRT_HBAR * uk) ** eta)
                    ratio = pp.materialize(ul / uk)
                    self_pair = (k == l and i == j)
                    z1 = big1 * t1 ** (k - l) * ratio
                    z2 = t2 ** (l - k) * ratio
                    out *= pref
                    out *= qpoch2_ratio(z1, p, hbar, big1)
                    out *= qpoch2_ratio(z2, p, hbar, big2, at_one=self_pair)
    return out


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

    def block(h):
        num = (gamma3v(t2 ** (-d) * zv, big1, big2, h)
               * gamma3v(big1 * t1 ** d * zv, big1, big2, h))
        den = (gamma3v(big1 * t2 ** (-d) * zv, big1, big2, h)
               * gamma3v(big1 * big2 * t1 ** d * zv, big1, big2, h))
        return num / den

    return pref * block(pp.hbar) / block(pp.p)


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
        num = (gamma3v(shift * big2 * t1 ** (-d) * zv, big1, big2, nome)
               * gamma3v(shift * big1 * big2 * t2 ** d * zv, big1, big2, nome))
        den = (gamma3v(shift * t1 ** (-d) * zv, big1, big2, nome)
               * gamma3v(shift * big2 * t2 ** d * zv, big1, big2, nome))
        return num / den

    return pref * block(h, h) * block(1.0, pp.pstar)


def chi_exchange(pp: ParamPoint, z: Monomial, k: int, l: int) -> complex:
    """Exchange scalar between the two kinds of intertwiners."""
    n = pp.n_colors
    t1, t2 = pp.t1, pp.t2
    big1, big2 = t1 ** n, t2 ** n
    h = pp.hbar
    zv = pp.materialize(z)
    sq = pp.materialize(SQRT_HBAR)
    pref = pp.materialize(z ** (-eta_pairing(k, l, n)))
    d = (k % n) - (l % n)
    if d <= 0:
        num = (gamma3v(sq * big2 * t2 ** d * zv, big1, big2, h)
               * gamma3v(sq * t1 ** (-d) * zv, big1, big2, h))
        den = (gamma3v(sq * big2 * t1 ** (-d) * zv, big1, big2, h)
               * gamma3v(sq * big1 * big2 * t2 ** d * zv, big1, big2, h))
    else:
        num = (gamma3v(sq * t2 ** d * zv, big1, big2, h)
               * gamma3v(sq * big1 * t1 ** (-d) * zv, big1, big2, h))
        den = (gamma3v(sq * big1 * big2 * t1 ** (-d) * zv, big1, big2, h)
               * gamma3v(sq * big1 * t2 ** d * zv, big1, big2, h))
    return pref * num / den


def rho_plus(pp: ParamPoint, z: Monomial, star: bool = False) -> complex:
    """Fusion scalar rho^+ (rho^{+*} with the shifted nome)."""
    n = pp.n_colors
    big1, big2 = pp.t1 ** n, pp.t2 ** n
    zv = pp.materialize(z)
    nome = pp.pstar if star else pp.p
    return gamma3v(1.0 / zv, big1, big2, nome) / gamma3v(zv, big1, big2, nome)


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


def mu_exchange_scalar(g1, g2, pp: ParamPoint) -> complex:
    """The vacuum exchange scalar of two framing groups, mu(u1/u2)."""
    n = pp.n_colors
    out = 1.0 + 0.0j
    for k in range(n):
        for l in range(n):
            for i in range(1, g1.w[k] + 1):
                for j in range(1, g2.w[l] + 1):
                    z = (Monomial.var(f"{g2.prefix}{l}_{j}")
                         / Monomial.var(f"{g1.prefix}{k}_{i}"))
                    out *= mu_exchange(pp, z, k, l)
    return out


def mu_star_exchange_scalar(g1, g2, pp: ParamPoint) -> complex:
    """The vacuum exchange scalar of the dual intertwiners, mu*(u1/u2)."""
    n = pp.n_colors
    out = 1.0 + 0.0j
    for k in range(n):
        for l in range(n):
            for i in range(1, g1.w[k] + 1):
                for j in range(1, g2.w[l] + 1):
                    z = (Monomial.var(f"{g1.prefix}{k}_{i}")
                         / Monomial.var(f"{g2.prefix}{l}_{j}"))
                    out *= mu_star_exchange(pp, z, k, l)
    return out


def vacuum_c_constants(pp: ParamPoint) -> tuple[complex, complex]:
    """The two ladder constants (p h^{+-1}; p)_inf / (p; p)_inf."""
    p, h = pp.p, pp.hbar
    base = qpoch_inf(p, p)
    return (qpoch_inf(p * h, p) / base, qpoch_inf(p / h, p) / base)
