"""Branch-safe complex arithmetic and q-series special functions.

Everything downstream is a product of Jacobi theta factors carrying half-power
prefactors, so naive complex evaluation is one branch-cut away from a sign
error.  The substrate here avoids that by carrying every quantity as a pair
(monomial, coefficient): the monomial stores exact rational exponents of named
base variables, and exponentials are taken only through a *fixed* logarithm
chosen once per variable.  Two algebraically equal products of half powers then
materialize to the identical complex number.  A formal sign variable ``sgn``
(value -1, log = i*pi) makes expressions like (-h^(1/2) u)^eta single valued.
The odd theta of a monomial m is graded by m^(-1/2); a monomial keeps that
half power in a slot once computed (``Monomial.inv_sqrt``), so a compiled
theta argument evaluated at many points pays the exact arithmetic once.

The value-level q-series primitives live here as well: truncated infinite and
finite q-Pochhammer symbols and odd theta functions for a nome p or the
shifted nome p* = p/(t1*t2).  Only the infinite Pochhammer symbol is memoised,
per parameter point (``ParamPoint.qpoch_inf``, which the thetas use).  The
direct double and triple Pochhammer products and the triple Gamma function
here are the test oracles of the series kernel in ``scalars``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

#: name of the formal sign variable (value -1, fixed log i*pi)
SIGN_VAR = "sgn"


class SingularityError(ArithmeticError):
    """A theta or Pochhammer factor vanished where a finite value is needed."""


class BudgetError(RuntimeError):
    """A symmetrization or enumeration exceeded its configured budget."""


def _as_fraction(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    raise TypeError(f"exponent must be int or Fraction, got {type(e)!r}")


class Monomial:
    """A product of named variables with exact rational exponents.

    Immutable and hashable; multiplication adds exponent vectors exactly and
    the empty monomial is the unit.
    """

    __slots__ = ("_exps", "_hash", "_inv_sqrt")

    def __init__(self, exps: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        d: dict[str, Fraction] = {}
        for name, e in items:
            e = _as_fraction(e)
            if name in d:
                e = d[name] + e
            if e:
                d[name] = e
            elif name in d:
                del d[name]
        self._exps = d
        self._hash = None
        self._inv_sqrt = None

    @staticmethod
    def _of(d: dict[str, Fraction]) -> "Monomial":
        """The monomial that owns the exponent dict ``d`` (no zero entries)."""
        m = Monomial.__new__(Monomial)
        m._exps = d
        m._hash = None
        m._inv_sqrt = None
        return m

    @classmethod
    def var(cls, name: str, exp=1) -> "Monomial":
        return cls({name: _as_fraction(exp)})

    @classmethod
    def one(cls) -> "Monomial":
        return cls()

    @property
    def exps(self) -> dict[str, Fraction]:
        return dict(self._exps)

    def get(self, name: str) -> Fraction:
        return self._exps.get(name, Fraction(0))

    def items(self):
        return sorted(self._exps.items())

    def is_one(self) -> bool:
        return not self._exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = dict(self._exps)
        for name, e in other._exps.items():
            if name not in d:
                d[name] = e
            elif s := d[name] + e:
                d[name] = s
            else:
                del d[name]
        return Monomial._of(d)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = dict(self._exps)
        for name, e in other._exps.items():
            if name not in d:
                d[name] = -e
            elif s := d[name] - e:
                d[name] = s
            else:
                del d[name]
        return Monomial._of(d)

    def __pow__(self, e) -> "Monomial":
        e = _as_fraction(e)
        return Monomial._of({} if e == 0 else {k: v * e for k, v in self._exps.items()})

    def inv_sqrt(self) -> "Monomial":
        """self^(-1/2), the grading of the odd theta of this argument.

        Computed on first use and kept in a slot: a monomial is immutable,
        and a compiled theta argument is evaluated at many points.
        """
        if self._inv_sqrt is None:
            self._inv_sqrt = self ** Fraction(-1, 2)
        return self._inv_sqrt

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._exps.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._exps:
            return "1"
        return "*".join(f"{k}^{v}" for k, v in self.items())


HBAR = Monomial({"t1": Fraction(1), "t2": Fraction(1)})
P = Monomial.var("p")
PSTAR = Monomial({"p": Fraction(1), "t1": Fraction(-1), "t2": Fraction(-1)})


@dataclass(frozen=True)
class GradedValue:
    """A monomial prefactor times a plain complex coefficient.

    Products multiply coefficients and add monomial exponents exactly;
    addition is allowed only for equal monomials (otherwise materialize
    first).
    """

    mono: Monomial
    coeff: complex

    def __mul__(self, other: "GradedValue") -> "GradedValue":
        return GradedValue(self.mono * other.mono, self.coeff * other.coeff)

    def __truediv__(self, other: "GradedValue") -> "GradedValue":
        if other.coeff == 0:
            raise SingularityError("division by a vanished graded value")
        return GradedValue(self.mono / other.mono, self.coeff / other.coeff)

    def __add__(self, other: "GradedValue") -> "GradedValue":
        if self.mono != other.mono:
            raise ValueError("graded addition requires equal monomials")
        return GradedValue(self.mono, self.coeff + other.coeff)

    def materialize(self, pp: "ParamPoint") -> complex:
        return self.coeff * pp.materialize(self.mono)


GV_ONE = GradedValue(Monomial.one(), 1.0 + 0.0j)


# ---------------------------------------------------------------------------
# q-Pochhammer symbols and theta functions
# ---------------------------------------------------------------------------

def qpoch_inf(z: complex, q: complex, min_terms: int = 20) -> complex:
    """(z; q)_inf = prod_{n>=0} (1 - z q^n), truncated adaptively (at most
    6000 factors).

    Raises for |q| >= 1 where the product does not converge.
    """
    if abs(q) >= 1:
        raise SingularityError(f"q-Pochhammer needs |q| < 1, got |q| = {abs(q)}")
    res = 1.0 + 0.0j
    zq = complex(z)
    n = 0
    while n < 6000:
        res *= 1.0 - zq
        zq *= q
        n += 1
        if n >= min_terms and abs(zq) < 1e-18:
            break
    return res


def qpoch_fin(z: complex, q: complex, d: int) -> complex:
    """Finite Pochhammer (z; q)_d for any integer d.

    Negative lengths follow the cocycle (z;q)_{m+n} = (z;q)_m (z q^m;q)_n,
    i.e. (z;q)_{-d} = 1/(z q^{-d}; q)_d.  Raises when a negative-length value
    requires dividing by a vanished factor.
    """
    if d >= 0:
        res = 1.0 + 0.0j
        zq = complex(z)
        for _ in range(d):
            res *= 1.0 - zq
            zq *= q
        return res
    den = qpoch_fin(z * q ** d, q, -d)
    if den == 0:
        raise SingularityError("(z;q)_d with negative d hit a vanishing factor")
    return 1.0 / den


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


def theta_p(z: complex, p: complex, min_terms: int = 20) -> complex:
    """Even theta block theta_p(z) = (z; p)_inf (p/z; p)_inf."""
    if z == 0:
        raise SingularityError("theta_p rejects z = 0")
    return qpoch_inf(z, p, min_terms) * qpoch_inf(p / z, p, min_terms)


def vartheta1(v: complex, tau: complex, nmax: int = 30) -> complex:
    """Jacobi theta_1 by its defining sum, truncated at |n| <= nmax."""
    s = 0.0 + 0.0j
    for n in range(-nmax, nmax + 1):
        s += (-1) ** n * cmath.exp(1j * math.pi * tau * (n - 0.5) ** 2
                                   + 2j * math.pi * v * (n - 0.5))
    return 1j * s


# ---------------------------------------------------------------------------
# Parameter points
# ---------------------------------------------------------------------------

class ParamPoint:
    """Fixed generic complex values plus fixed logarithms for base variables.

    Required variables are ``p``, ``t1``, ``t2``; the sign variable ``sgn`` is
    inserted automatically.  Further variables (framing weights, Kahler
    parameters, Chern roots) are added as needed, either at construction or
    through :meth:`extended`.  All q-Pochhammer evaluations are memoised by
    value in a table shared between a point and its extensions.
    """

    def __init__(self, n_colors: int, values: Mapping[str, complex],
                 logs: Mapping[str, complex] | None = None,
                 tol: float = 1e-8, min_terms: int = 20, seed: int | None = None):
        if n_colors < 3:
            raise ValueError("the cyclic quiver here needs at least 3 colors")
        self.n_colors = n_colors
        self.tol = tol
        self.min_terms = min_terms
        self.seed = seed
        vals = dict(values)
        vals.setdefault(SIGN_VAR, -1.0 + 0.0j)
        lgs = dict(logs) if logs is not None else {}
        for name, v in vals.items():
            if name not in lgs:
                lgs[name] = 1j * math.pi if name == SIGN_VAR else cmath.log(v)
        self.values: dict[str, complex] = {k: complex(v) for k, v in vals.items()}
        self.logs: dict[str, complex] = {k: complex(v) for k, v in lgs.items()}
        self._qpoch_memo: dict[tuple[complex, complex], complex] = {}
        if "p" in self.values and abs(self.values["p"]) >= 1:
            raise ValueError("|p| must be < 1")
        if all(k in self.values for k in ("p", "t1", "t2")):
            if abs(self.pstar) >= 1:
                raise ValueError("|p/(t1 t2)| must be < 1 for the shifted nome")

    # -- derived parameters -------------------------------------------------

    @property
    def p(self) -> complex:
        return self.values["p"]

    @property
    def t1(self) -> complex:
        return self.values["t1"]

    @property
    def t2(self) -> complex:
        return self.values["t2"]

    @property
    def hbar(self) -> complex:
        return self.t1 * self.t2

    @property
    def pstar(self) -> complex:
        return self.p / self.hbar

    def nome(self, star: bool = False) -> complex:
        return self.pstar if star else self.p

    # -- evaluation ---------------------------------------------------------

    def extended(self, values: Mapping[str, complex],
                 logs: Mapping[str, complex] | None = None) -> "ParamPoint":
        """A new point with extra variables, sharing the memo table."""
        vals = dict(self.values)
        vals.update(values)
        lgs = dict(self.logs)
        if logs:
            lgs.update(logs)
        for name, v in values.items():
            if logs is None or name not in logs:
                lgs[name] = cmath.log(v)
        pp = ParamPoint.__new__(ParamPoint)
        pp.n_colors = self.n_colors
        pp.tol = self.tol
        pp.min_terms = self.min_terms
        pp.seed = self.seed
        pp.values = {k: complex(v) for k, v in vals.items()}
        pp.logs = {k: complex(v) for k, v in lgs.items()}
        pp._qpoch_memo = self._qpoch_memo
        return pp

    def materialize(self, mono: Monomial) -> complex:
        s = 0.0 + 0.0j
        logs = self.logs
        for name, e in mono._exps.items():
            s += float(e) * logs[name]
        return cmath.exp(s)

    def log_of(self, mono: Monomial) -> complex:
        s = 0.0 + 0.0j
        for name, e in mono._exps.items():
            s += float(e) * self.logs[name]
        return s

    def qpoch_inf(self, z: complex, q: complex) -> complex:
        key = (z, q)
        memo = self._qpoch_memo
        v = memo.get(key)
        if v is None:
            v = qpoch_inf(z, q, self.min_terms)
            memo[key] = v
        return v

    def theta_p_val(self, z: complex, star: bool = False) -> complex:
        if z == 0:
            raise SingularityError("theta argument materialized to 0")
        q = self.nome(star)
        return self.qpoch_inf(z, q) * self.qpoch_inf(q / z, q)

    def theta(self, mono: Monomial, star: bool = False) -> GradedValue:
        """Odd theta of a monomial argument: coeff -theta_p(z), mono z^(-1/2)."""
        z = self.materialize(mono)
        return GradedValue(mono.inv_sqrt(), -self.theta_p_val(z, star))

    def phi(self, x: Monomial, y: Monomial, star: bool = False) -> GradedValue:
        """phi(x, y) = theta(xy) theta(hbar) / (theta(x) theta(y))."""
        num = self.theta(x * y, star) * self.theta(HBAR, star)
        den = self.theta(x, star) * self.theta(y, star)
        if den.coeff == 0:
            raise SingularityError("phi hit a theta zero in the denominator")
        return num / den


def theta_modular_residual(x_value: complex, pp: ParamPoint) -> float:
    """Conjugate-modulus check for the odd theta function.

    Compares theta(X) = -X^(-1/2) theta_p(X) against its series on the
    conjugate modulus tau = -2*pi*i/log p,

        theta(X) = -e^{-i pi/4} tau^{1/2} p^{-1/8} (p;p)_inf^{-1}
                   e^{-(log X)^2 / (2 log p)} vartheta_1(log X / log p | tau),

    and returns the relative residual (absolute residual when theta(X) is at
    the zero X = 1).
    """
    p = pp.p
    logp = cmath.log(p)
    logx = cmath.log(x_value)
    lhs = -x_value ** -0.5 * theta_p(x_value, p, pp.min_terms)
    tau = -2j * math.pi / logp
    rhs = (-cmath.exp(-1j * math.pi / 4) * cmath.sqrt(tau) * p ** -0.125
           / qpoch_inf(p, p, pp.min_terms)
           * cmath.exp(-logx ** 2 / (2 * logp))
           * vartheta1(logx / logp, tau))
    denom = max(abs(lhs), 1.0) if abs(lhs) < 1e-8 else abs(lhs)
    return abs(lhs - rhs) / denom
