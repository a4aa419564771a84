"""Direct-product q-series oracles for the tests.

Plain lattice products of the double and triple Pochhammer symbols and the
triple Gamma function.  They are slow and lose digits for moduli near 1, so
the library never calls them; the tests check the series kernels of
``ellstab.scalars`` against them.  ``qpoch_mono`` is the entry point of the
vertex layer's ``qpoch_low`` for an exact monomial base, which only the tests
call with one.
"""

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
