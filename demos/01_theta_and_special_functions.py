"""Walkthrough: the branch-safe evaluation substrate.

Every theta argument is an exact monomial in named variables; half powers are
resolved through one fixed logarithm per variable, so algebraically equal
expressions agree to machine precision.
"""
import cmath
from fractions import Fraction

from ellstab import (HBAR, Monomial, ThetaProduct, sample_param_point,
                     theta_modular_residual)

pp = sample_param_point(seed=1, n_colors=3)
print("sampled point: p = %.4f%+.4fj  t1 = %.4f%+.4fj  t2 = %.4f%+.4fj"
      % (pp.p.real, pp.p.imag, pp.t1.real, pp.t1.imag, pp.t2.real, pp.t2.imag))

# A product of odd thetas is exact data: its arguments are monomials, and its
# grading, the half power w^(-1/2) per numerator factor theta(w), is one exact
# monomial.  Its value at a point takes each theta from its argument's value.
pp = pp.extended({"w": 0.62 + 0.35j})
w = Monomial.var("w")
th = ThetaProduct([w])
print("\ntheta(w): grading", th.mono_total(), " value", th.eval(pp, False),
      " plain theta value", pp.theta(pp.materialize(w)))

# Inversion and shift laws hold to machine precision.
lhs = ThetaProduct([w ** -1]).eval(pp, False)
print("theta(1/w) + theta(w) =", abs(lhs + th.eval(pp, False)))

p = Monomial.var("p")
lhs = ThetaProduct([p * w]).eval(pp, False)
rhs = -pp.materialize(p ** Fraction(-1, 2) * w ** -1) * th.eval(pp, False)
print("shift law residual    =", abs(lhs - rhs))

# The phi kernel theta(xy) theta(hbar) / (theta(x) theta(y)) carries exactly
# one residual half power, on hbar = t1 t2.
y = Monomial.var("y")
phi = ThetaProduct([w * y, HBAR], [w, y])
print("\nphi grading:", phi.mono_total(), " value:",
      phi.eval(pp.extended({"y": 1.05 - 0.2j}), False))

# Conjugate-modulus transformation: theta on the nome p against the series on
# tau = -2 pi i / log p.
for x in (1.0, 0.3 + 0.1j, cmath.exp(0.7j) * abs(pp.p) ** 0.5):
    print("conjugate-modulus residual at %s: %.2e"
          % (x, theta_modular_residual(x, pp)))
