"""A 40-digit shadow of the envelope and R-matrix path, for the tests.

``MpPoint`` is a ``ParamPoint`` whose values and logs are mpmath ``mpc``
numbers of a private context at 40 significant digits (``MP``):
``log_of`` sums a monomial's exact ``Fraction`` exponents times the logs,
``materialize`` takes its exponential, ``qpoch_inf`` sums Euler's series
of (z; q)_inf, a formula of its own, to the working precision, and
``solve`` is mpmath's, since numpy's is double precision.  All else is the
library's own code, which takes its numbers and solves from the point:
``kahler_point``, the compiled envelopes and their ``LoweredSum``,
``restriction_matrix``, ``ChamberMatrices`` and the Yang-Baxter check's
triple actions, whose matrices come back as numpy object arrays of
``mpc``, and the vertex tables, series and Jackson oracle, whose finite
Pochhammer products are the library's loop (``core.qpoch_fin``, which
casts nothing).  These stay float: condition numbers
(``RestrictionMatrix.cond``; ``np.linalg.cond`` takes no object array),
the Bethe solve (numpy arrays, ``np.linalg.solve`` and ``np.abs``), the
scalar kernels, and ``vertex.normalization_factor``, which reads one
(``mu_vacuum_ope``).

``shadow(pp)`` is the point ``pp`` at 40 digits: its values, converted
exactly, their logs taken at 40 digits, and the compiled envelopes and
chamber bases of ``pp``, which hold only exact data.  The package never
imports mpmath.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

from ellstab.core import Monomial, ParamPoint, SingularityError

MP = mpmath.MPContext()
MP.dps = 40
EPS = float(MP.eps)  # the working precision, a power of 2, for float bounds


class MpPoint(ParamPoint):
    """A parameter point of ``MP.mpc`` values and logs.  Construction runs
    the float point's checks on the values rounded to complex, then keeps
    the values themselves (``MP.convert`` returns an ``mpc`` as it is) and
    takes each missing log at 40 digits."""

    def __init__(self, n_colors, values, logs=None, *rest):
        super().__init__(n_colors, values, logs, *rest)
        self.values = {name: MP.convert(v)
                       for name, v in {**self.values, **values}.items()}
        self.logs = {name: MP.convert(logs[name]) if logs and name in logs else MP.log(v)
                     for name, v in self.values.items()}
        p, t1, t2 = (self.values[name] for name in ("p", "t1", "t2"))
        self._nomes = (p, p / (t1 * t2))

    @staticmethod
    def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a^-1 b at 40 digits, for object arrays of numbers mpmath reads."""
        x = MP.inverse(MP.matrix(a.tolist())) * MP.matrix(b.tolist())
        return np.array(x.tolist(), dtype=object)

    def log_of(self, mono: Monomial):
        s = MP.mpc(0)
        for name, e in mono._exps.items():
            lg = self.logs[name]
            if type(e) is not int:
                lg, e = lg * e.numerator / e.denominator, 1
            s += lg if e == 1 else -lg if e == -1 else lg * e  # = lg * e, product spared
        return s

    def materialize(self, mono: Monomial):
        return MP.exp(self.log_of(mono))

    def qpoch_inf(self, z, q):
        """(z; q)_inf by Euler's series sum_n c_n z^n, c_n = (-1)^n
        q^(n(n-1)/2) / (q; q)_n: a formula of its own, not the library's
        product.  Its terms fall like |q|^(n^2/2), so about 30 reach the
        working precision at |q| = 0.8, where the product takes 380
        factors.  The coefficients of each q are kept in the memo under the
        key q, with bounds on their moduli; terms are summed until their
        bound falls below the working precision once each next one is at
        most half the last (|z q^n| <= (1 - |q|)/2).  So a value is right
        to the working precision times the largest term, and keeps fewer
        digits near a zero of the product."""
        memo = self._qpoch_memo
        v = memo.get((z, q))
        if v is None:
            if abs(q) >= 1:
                raise SingularityError(f"q-Pochhammer needs |q| < 1, got |q| = {abs(q)}")
            coeffs = memo.get(q)
            if coeffs is None:
                coeffs = memo[q] = [(MP.mpc(1), 1.0)]
            az, aq = float(abs(z)), float(abs(q))
            halving = math.log((1 - aq) / (2 * az)) / math.log(aq)
            v, zn = MP.mpc(0), MP.mpc(1)
            for n in itertools.count():
                if n == len(coeffs):
                    c, bound = coeffs[-1]
                    qn = q ** (n - 1)
                    coeffs.append((-c * qn / (1 - qn * q),
                                   bound * aq ** (n - 1) / (1 - aq ** n)))
                c, bound = coeffs[n]
                v += c * zn
                if n >= halving and bound * az ** n < EPS:
                    break
                zn *= z
            memo[z, q] = v
        return v


def shadow(pp: ParamPoint) -> MpPoint:
    """``pp`` at 40 digits, sharing its compiled envelopes and chamber bases."""
    sh = MpPoint(pp.n_colors, pp.values, None, pp.tol, pp.min_terms, pp.seed)
    sh._envelopes, sh._chamber_bases = pp._envelopes, pp._chamber_bases
    return sh
