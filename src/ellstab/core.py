"""Branch-safe complex arithmetic and q-series special functions.

Everything downstream is a product of Jacobi theta factors carrying half-power
prefactors, so naive complex evaluation is one branch-cut away from a sign
error.  The substrate here avoids that by carrying every quantity as a pair
(monomial, coefficient): the monomial stores exact rational exponents of named
base variables, and exponentials are taken only through a *fixed* logarithm
chosen once per variable.  Two algebraically equal products of half powers then
materialize to the identical complex number.  A formal sign variable ``sgn``
(value -1, log = i*pi) makes expressions like (-h^(1/2) u)^eta single valued.
An integral exponent is stored as an ``int``, and a ``Fraction`` only where
one is needed (a half power, an eta pairing's 1/n), so integral exponent
arithmetic stays cheap.  The odd theta of a monomial m is graded by m^(-1/2).
A monomial keeps that half power (``Monomial.inv_sqrt``) in a slot, and its
float exponent pairs (``Monomial.float_items``) and its ``repr`` (the sort
key of a compile) once asked for them, so a compiled theta argument
evaluated at many points pays the exact arithmetic and the float conversions
once, while a monomial materialized once pays for no table.

The value-level q-series primitives live here as well: truncated infinite and
finite q-Pochhammer symbols and odd theta functions for a nome p or the
shifted nome p* = p/(t1*t2).  Only infinite Pochhammer symbols are memoised
here, by value and per parameter point (``ParamPoint.qpoch_inf``), for the
thetas and for the vertex layer's Pochhammer symbols alike; the vertex layer
keeps the products of its lowered bases in its own per-point tables.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

#: name of the formal sign variable (value -1, fixed log i*pi)
SIGN_VAR = "sgn"


class SingularityError(ArithmeticError):
    """A theta or Pochhammer factor vanished where a finite value is needed."""


class BudgetError(RuntimeError):
    """A symmetrization or enumeration exceeded its configured budget."""


def _exponent(e):
    """An exact exponent: an ``int`` when integral, else a ``Fraction``."""
    if type(e) is int:
        return e
    if isinstance(e, Fraction):
        return e.numerator if e.denominator == 1 else e
    if isinstance(e, int):
        return int(e)
    raise TypeError(f"exponent must be int or Fraction, got {type(e)!r}")


def _half(e):
    """e/2 as an exponent."""
    if type(e) is int:
        return e // 2 if e % 2 == 0 else Fraction(e, 2)
    return _exponent(e / 2)


class Monomial:
    """A product of named variables with exact rational exponents.

    Immutable and hashable; multiplication adds exponent vectors exactly and
    the empty monomial is the unit.  An integral exponent is stored as an
    ``int`` and only a true fraction as a ``Fraction``: the two are equal,
    hash alike and convert to the same float and string, so the choice never
    changes a value, only what the exact arithmetic costs.
    """

    __slots__ = ("_exps", "_hash", "_inv_sqrt", "_floats", "_repr")

    def __init__(self, exps: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        d: dict[str, int | Fraction] = {}
        for name, e in items:
            e = _exponent(e)
            if name in d:
                e = _exponent(d[name] + e)
            if e:
                d[name] = e
            elif name in d:
                del d[name]
        self._exps = d
        self._hash = None
        self._inv_sqrt = None
        self._floats = None
        self._repr = None

    @staticmethod
    def _of(d: dict[str, int | Fraction]) -> "Monomial":
        """The monomial that owns the exponent dict ``d`` (normalized
        exponents, no zero entries)."""
        m = Monomial.__new__(Monomial)
        m._exps = d
        m._hash = None
        m._inv_sqrt = None
        m._floats = None
        m._repr = None
        return m

    @classmethod
    def var(cls, name: str, exp=1) -> "Monomial":
        e = exp if type(exp) is int else _exponent(exp)
        return cls._of({name: e} if e else {})

    @classmethod
    def one(cls) -> "Monomial":
        return cls._of({})

    @property
    def exps(self) -> dict[str, int | Fraction]:
        return dict(self._exps)

    def get(self, name: str) -> int | Fraction:
        return self._exps.get(name, 0)

    def power_of(self, name: str) -> int | None:
        """e if the monomial is name^e with an integer e (0 for the unit),
        else None: a monomial in any other variable is no power of ``name``."""
        d = self._exps
        if not d:
            return 0
        e = d.get(name) if len(d) == 1 else None
        return e if type(e) is int else None

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
                d[name] = s if type(s) is int else _exponent(s)
            else:
                del d[name]
        return Monomial._of(d)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = dict(self._exps)
        for name, e in other._exps.items():
            if name not in d:
                d[name] = -e
            elif s := d[name] - e:
                d[name] = s if type(s) is int else _exponent(s)
            else:
                del d[name]
        return Monomial._of(d)

    @staticmethod
    def product(factors: Iterable[tuple["Monomial", int]]) -> "Monomial":
        """prod m^k over the (m, k) pairs with integer k, summed into one
        exponent dict: the exponents and the variable order of the chained
        product ``m1 ** k1 * m2 ** k2 * ...``."""
        d: dict[str, int | Fraction] = {}
        for m, k in factors:
            for name, e in m._exps.items():
                s = d.get(name, 0) + k * e
                if type(s) is not int:
                    s = _exponent(s)
                if s:
                    d[name] = s
                elif name in d:
                    del d[name]
        return Monomial._of(d)

    def __pow__(self, e) -> "Monomial":
        e = _exponent(e)
        return Monomial._of({} if e == 0 else
                            {k: _exponent(v * e) for k, v in self._exps.items()})

    def inv_sqrt(self) -> "Monomial":
        """self^(-1/2), the grading of the odd theta of this argument.

        Computed on first use and kept in a slot: a monomial is immutable,
        and a compiled theta argument is evaluated at many points.
        """
        if self._inv_sqrt is None:
            self._inv_sqrt = Monomial._of({k: _half(-v) for k, v in self._exps.items()})
        return self._inv_sqrt

    def float_items(self) -> tuple[tuple[str, float], ...]:
        """(name, float exponent) pairs in the order of the exponent dict,
        the order in which ``ParamPoint.log_of`` sums them; computed on
        first use and kept in a slot, like ``inv_sqrt``.  A monomial that
        never asks for them is materialized from its exact exponents."""
        if self._floats is None:
            d = self._exps
            self._floats = tuple(zip(d, map(float, d.values())))
        return self._floats

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._exps.items()))
        return self._hash

    def __repr__(self) -> str:
        """name^exponent factors in name order, "1" for the unit; formed on
        first use and kept in a slot, like ``inv_sqrt``: a compile sorts its
        theta arguments by it."""
        r = self._repr
        if r is not None:
            return r
        d = self._exps
        r = self._repr = "*".join([f"{k}^{d[k]}" for k in sorted(d)]) or "1"
        return r


HBAR = Monomial({"t1": 1, "t2": 1})
SQRT_HBAR = HBAR ** Fraction(1, 2)
P = Monomial.var("p")


class GradedValue:
    """A monomial prefactor times a plain complex coefficient.

    Products multiply coefficients and add monomial exponents exactly;
    addition is allowed only for equal monomials (otherwise materialize
    first).  A value made with ``half_of`` instead of ``mono`` (the value
    of a theta, ``ParamPoint.theta``) has the prefactor half_of^(-1/2),
    taken when ``mono`` is first read: a caller that reads only the
    coefficient never takes the half power.
    """

    __slots__ = ("coeff", "_mono", "_half_of")

    def __init__(self, mono: Monomial | None, coeff: complex,
                 half_of: Monomial | None = None):
        self._mono = mono
        self._half_of = half_of
        self.coeff = coeff

    @property
    def mono(self) -> Monomial:
        if self._mono is None:
            self._mono = self._half_of.inv_sqrt()
        return self._mono

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedValue) and self.mono == other.mono
                and self.coeff == other.coeff)

    def __hash__(self) -> int:
        return hash((self.mono, self.coeff))

    def __repr__(self) -> str:
        return f"GradedValue(mono={self.mono!r}, coeff={self.coeff!r})"

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

    Required variables are ``p``, ``t1``, ``t2`` (a point without one raises
    ``ValueError``); the sign variable ``sgn`` is inserted automatically.
    Further variables (framing weights, Kahler parameters, Chern roots) are
    added as needed, either at construction or through :meth:`extended`.

    A point keeps two memos.  Infinite q-Pochhammer values
    (:meth:`qpoch_inf`) live in one table shared between a point and its
    extensions: it is keyed by the values themselves, so an extension that
    overrides a variable only adds keys.  The vertex tables
    (``vertex.vertex_table``, one per fixed point, each with the Pochhammer
    products of its bases) are not shared: they hold bases materialized
    through the point's logs, which an extension may override, so every
    extension starts with none.  A new point starts with both memos empty.
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
        self._vertex_tables: dict = {}
        v = self.values
        if not {"p", "t1", "t2"} <= v.keys():
            raise ValueError(f"a parameter point needs p, t1 and t2, got {sorted(v)}")
        if abs(v["p"]) >= 1:
            raise ValueError("|p| must be < 1")
        self._nomes = (v["p"], v["p"] / (v["t1"] * v["t2"]))
        if abs(self._nomes[1]) >= 1:
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
        """p, or the shifted nome p* with ``star``; taken from the values
        when the point was made."""
        return self._nomes[star]

    # -- evaluation ---------------------------------------------------------

    def extended(self, values: Mapping[str, complex],
                 logs: Mapping[str, complex] | None = None) -> "ParamPoint":
        """A new point with extra variables, sharing the q-Pochhammer memo
        but no vertex table."""
        vals = dict(self.values)
        vals.update(values)
        lgs = dict(self.logs)
        if logs:
            lgs.update(logs)
        for name, v in values.items():
            if logs is None or name not in logs:
                lgs[name] = cmath.log(v)
        pp = ParamPoint(self.n_colors, vals, lgs, self.tol, self.min_terms, self.seed)
        pp._qpoch_memo = self._qpoch_memo
        return pp

    def materialize(self, mono: Monomial) -> complex:
        """The value of a monomial through the fixed logs of the point."""
        return cmath.exp(self.log_of(mono))

    def log_of(self, mono: Monomial) -> complex:
        """The log of a monomial's value at the point: its exponents, the
        float pairs ``Monomial.float_items`` where the monomial keeps them,
        times the fixed logs."""
        s = 0.0 + 0.0j
        logs = self.logs
        for name, e in mono._floats or mono._exps.items():
            s += float(e) * logs[name]
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
        return GradedValue(None, -self.theta_p_val(z, star), half_of=mono)

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
