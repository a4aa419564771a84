"""Direct-product q-series oracles for the tests.

Plain lattice products of the double and triple Pochhammer symbols and the
triple Gamma function.  They are slow and lose digits for moduli near 1, so
the library never calls them; the tests check the series kernels of
``ellstab.scalars`` against them.  ``qpoch_mono`` is the entry point of the
vertex layer's ``qpoch_low`` for an exact monomial base, which only the tests
call with one.

``qpoch_per_axis`` is the earlier body of ``scalars._qpoch``, one power
table and one pair of products per lattice axis: the bit-for-bit oracle of
the kernel, which now builds one power table per call.
"""

import cmath
import math

import numpy as np

from ellstab.core import Monomial, ParamPoint, SingularityError
from ellstab.vertex import lower, qpoch_low


def qpoch_mono(base: Monomial, length: int | None, pp: ParamPoint,
               offset: int = 0) -> tuple[complex, int]:
    """Pochhammer (base p^offset; p)_length of an exact monomial base: the
    base lowered at the point, then ``vertex.qpoch_low``."""
    return qpoch_low(lower(base, pp), length, pp, offset)


def qpoch2_inf(z: complex, q1: complex, q2: complex,
               cutoff: float = 1e-18, skip_origin: bool = False) -> complex:
    """Double Pochhammer (z; q1, q2)_inf = prod_{m,n>=0} (1 - z q1^m q2^n).

    With ``skip_origin`` the (m,n) = (0,0) factor is omitted; this is the
    standard regularization of ratios of double Pochhammers at z = 1.

    A direct product over the truncated lattice, kept as the independent
    oracle for the series kernel behind ``scalars.qpoch2_ratio``.
    """
    if abs(q1) >= 1 or abs(q2) >= 1:
        raise SingularityError("double Pochhammer needs |q1|, |q2| < 1")
    res = 1.0 + 0.0j
    w1 = 1.0 + 0.0j
    m = 0
    while abs(z) * abs(w1) >= cutoff or m < 2:
        w = w1
        n = 0
        while abs(z) * abs(w) >= cutoff or n < 2:
            if not (skip_origin and m == 0 and n == 0):
                res *= 1.0 - z * w
            w *= q2
            n += 1
            if n > 20000:
                break
        w1 *= q1
        m += 1
        if m > 20000:
            break
    return res


def qpoch3_inf(z: complex, a: complex, b: complex, c: complex,
               cutoff: float = 1e-18) -> complex:
    """Triple Pochhammer (z; a, b, c)_inf over the full octant lattice.

    A direct product, kept as the independent oracle for the series kernel
    behind ``scalars.gamma3v``; it is slow and loses digits for moduli near 1.
    """
    for q in (a, b, c):
        if abs(q) >= 1:
            raise SingularityError("triple Pochhammer needs |a|, |b|, |c| < 1")
    res = 1.0 + 0.0j
    wa = 1.0 + 0.0j
    m1 = 0
    az = abs(z)
    while az * abs(wa) >= cutoff or m1 < 2:
        wb = wa
        m2 = 0
        while az * abs(wb) >= cutoff or m2 < 2:
            wc = wb
            m3 = 0
            while az * abs(wc) >= cutoff or m3 < 2:
                res *= 1.0 - z * wc
                wc *= c
                m3 += 1
            wb *= b
            m2 += 1
        wa *= a
        m1 += 1
        if m1 > 20000:
            break
    return res


def gamma3(z: complex, a: complex, b: complex, c: complex,
           cutoff: float = 1e-18) -> complex:
    """Triple Gamma factor Gamma(z; a,b,c) = (z;a,b,c)_inf (abc/z;a,b,c)_inf.

    Built on the direct product ``qpoch3_inf``: the test oracle for
    ``scalars.gamma3v``, which the library itself uses.
    """
    if z == 0:
        raise SingularityError("triple Gamma rejects z = 0")
    return qpoch3_inf(z, a, b, c, cutoff) * qpoch3_inf(a * b * c / z, a, b, c, cutoff)


def series_table_per_axis(qs: tuple[complex, ...], cutoff: float = 1e-18):
    """(bound, coef) of the log series at the moduli ``qs``:
    bound[j] = 2 prod_{i>=j} 1/(1 - |q_i|) and
    coef[j, r-1] = 1/(r prod_{i>=j} (1 - q_i^r)), enough terms for |x| = 1/2
    at ``cutoff``."""
    if any(abs(q) >= 1 for q in qs):
        raise SingularityError("Pochhammer moduli must lie inside the unit disc")
    bound = 2.0 / np.cumprod([1.0 - abs(q) for q in qs[::-1]])[::-1]
    n_max = _n_terms(0.5, bound[0], cutoff)
    q_pow = np.vander(np.array(qs, dtype=complex), n_max + 1, increasing=True)[:, 1:]
    suffix = np.cumprod((1.0 - q_pow)[::-1], axis=0)[::-1]
    return bound, 1.0 / (np.arange(1, n_max + 1) * suffix)


def qpoch_per_axis(num, den, qs: tuple[complex, ...], cutoff: float = 1e-18) -> complex:
    """prod over z in ``num`` of (z; q_1, ..., q_k)_inf divided by the same
    product over ``den``, by the lattice peel and log series of
    ``scalars._qpoch``, with one ``np.vander`` per lattice axis."""
    bound, coef = series_table_per_axis(qs, cutoff)
    log = 0.0 + 0.0j
    direct = [(x, 1.0) for x in num] + [(x, -1.0) for x in den]
    for j, q in enumerate(qs):
        leaves, signs, peeled = [], [], []
        for x, sign in direct:
            while abs(x) > 0.5:
                peeled.append((x, sign))
                x *= q
            if x != 0:
                leaves.append(x)
                signs.append(sign)
        if leaves:
            n = _n_terms(max(map(abs, leaves)), bound[j], cutoff)
            powers = np.vander(np.array(leaves, dtype=complex), n + 1, increasing=True)
            log -= complex(np.array(signs) @ (powers[:, 1:] @ coef[j, :n]))
        direct = peeled
    return (cmath.exp(log) * math.prod(1.0 - x for x, sign in direct if sign > 0)
            / math.prod(1.0 - x for x, sign in direct if sign < 0))


def _n_terms(xmax: float, bound: float, cutoff: float) -> int:
    """Smallest R >= 1 with bound * xmax^R < cutoff, for 0 < xmax <= 1/2."""
    return max(1, math.ceil(math.log(cutoff / bound) / math.log(xmax)))
