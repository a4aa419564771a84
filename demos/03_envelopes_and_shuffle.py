"""Walkthrough: stable envelopes, factorization, restriction, shuffle product."""

import numpy as np

from ellstab import (Envelope, EnvelopeSpec, FramingGroup, factorization_residual,
                     make_fixed_point, random_assignment, restrict,
                     sample_param_point, shuffle_residual)

N = 3
pp = sample_param_point(11, N, framing_counts={"u": [1, 0, 0]})
rng = np.random.default_rng(0)

# An envelope compiles to theta products plus a sum over admissible trees;
# evaluation symmetrizes over same-color Chern root values.
fp = make_fixed_point([(2, 1)], FramingGroup((1, 0, 0)), N)
env = Envelope(EnvelopeSpec(fp, variant="hat"))
values = random_assignment(rng, env.x_names())
print("hat envelope of (2,1) at a random assignment:", env.eval(pp, values))

# The plain product factors through the two kernel normalizations with exact
# integer parities.
print("factorization residuals (I, II):",
      factorization_residual(fp, pp, "I", values),
      factorization_residual(fp, pp, "II", values))

# Restrictions to fixed points are triangular with nonzero diagonal.
from ellstab import fixed_points
basis = fixed_points((1, 1, 1), (1, 0, 0), N)
print("\nrestriction matrix |values| (rows: points, cols: envelopes):")
mat = np.zeros((3, 3), dtype=complex)
for b, beta in enumerate(basis):
    e = Envelope(EnvelopeSpec(beta, "plain"))
    for g, gamma in enumerate(basis):
        mat[g, b] = restrict(e, gamma, pp)
print(np.array_str(np.abs(mat), precision=3, suppress_small=True))

# The shuffle product: a concatenated envelope against the product of its
# factors with hbar-shifted Kahler arguments, at random Chern assignments.
ppab = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                 "ub": [0, 1, 0]})
fpa = make_fixed_point([(2,)], FramingGroup((1, 0, 0), "ua"), N)
fpb = make_fixed_point([(1, 1)], FramingGroup((0, 1, 0), "ub"), N)
for variant in ("plain", "hat", "tilde"):
    r = shuffle_residual(fpa, fpb, ppab, variant, n_assignments=3,
                         rng=np.random.default_rng(7))
    print(f"shuffle residual [{variant}]: {r:.3e}")
