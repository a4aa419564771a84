"""Walkthrough: Fock coefficients, vertex series, Bethe roots, scalar kernels."""

import numpy as np

from ellstab import (ColoredPartition, Monomial, bethe_residuals, bethe_solve,
                     exchange_pairs, exchange_residual, fixed_points,
                     jackson_term_ratio, lowering_coefficient, phi_eigenvalue,
                     raising_coefficient, rll_scalar_residual,
                     sample_param_point, vertex_series)

N = 3
pp = sample_param_point(51, N, extra_vars=["u", "zarg"])

# Cartan eigenvalues and ladder coefficients of the lowest-weight module: each
# is a product of theta ratios, exact data whose grading holds its hbar power.
lam = ColoredPartition((2, 1), 0, N)
z = Monomial.var("zarg")
print("Cartan eigenvalues on (2,1):")
for j in range(N):
    eigen = phi_eigenvalue(lam, j, z)
    print(f"  residue {j}: value {eigen.eval(pp, False):.6f}, "
          f"exact grading {eigen.mono_total()}")
for name, coeff in (("raise by (3,1)", raising_coefficient(lam, (3, 1))),
                    ("lower by (1,2)", lowering_coefficient(lam, (1, 2)))):
    print(f"{name}: {len(coeff.num)} theta ratios, value {coeff.eval(pp, False)}, "
          f"grading {coeff.mono_total()}")
# x+/x- exchange: c+(mu, A) c-(mu + A, B) = c-(mu, B) c+(mu - B, A)
mu = ColoredPartition((3, 2, 1), 0, N)
pairs = exchange_pairs(mu)
worst = max(exchange_residual(mu, a, b, pp) for a, b in pairs)
print(f"x+/x- exchange on (3,2,1), {len(pairs)} box pairs: worst residual {worst:.1e}")

# The vertex series: degree-zero law and the independent per-term oracle.
ppv = sample_param_point(41, N, framing_counts={"u": [1, 0, 0]})
basis = fixed_points((1, 1, 1), (1, 0, 0), N)
lam_fp = basis[0]
series = vertex_series(lam_fp, lam_fp, 3, ppv)
print("\nvertex series of", lam_fp.partitions(), "- envelope restriction:",
      series.envelope_at_mu)
worst = 0.0
for d, c in series.coefficients.items():
    oracle = jackson_term_ratio(lam_fp, d, ppv, series.qp_factors) * series.envelope_at_mu
    worst = max(worst, abs(c - oracle) / max(abs(c), 1e-300))
print("worst deviation from the Jackson-term oracle:", worst)

# Bethe saddle-point equations: the one-variable closed form and Newton.
z0, u, h = ppv.values["z0"], ppv.values["u0_1"], ppv.hbar
x = u * (1 - h * z0) / (1 - z0)
print("\n1-variable closed-form residual:",
      np.max(np.abs(bethe_residuals({0: [x], 1: [], 2: []}, ppv, (1, 0, 0)))))
sol = bethe_solve((1, 1, 1), (1, 0, 0), ppv, seed=5)
print("Newton on v=(1,1,1): residual", sol.residual, "converged:", sol.converged)

# The fusion/exchange scalar consistency identity across colors.
pps = sample_param_point(61, N).extended({"uu": 0.83 + 0.41j})
for k in range(N):
    print(f"scalar identity residual, color {k}:",
          rll_scalar_residual(pps, Monomial.var("uu"), k))
