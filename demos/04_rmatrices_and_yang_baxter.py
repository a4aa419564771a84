"""Walkthrough: transition R-matrices, their properties, Yang-Baxter."""

from ellstab import (FramingGroup, composition_residual,
                     leading_pair_factorization_residual, sample_param_point,
                     shift_invariance_residual, transition_r,
                     transpose_relation_residual, weight_block_residual,
                     ybe_residual)

N = 3
g1 = FramingGroup((1, 0, 0), "ua")
g2 = FramingGroup((1, 0, 0), "ub")
g3 = FramingGroup((1, 0, 0), "uc")
pp = sample_param_point(21, N, framing_counts={"ua": [1, 0, 0],
                                               "ub": [1, 0, 0],
                                               "uc": [1, 0, 0]})

# The one-box R-matrix block: a 2x2 transition between opposite chambers.
res = transition_r((1, 0, 0), g1, g2, pp, N)
print("basis:", [b.partitions() for b in res.basis])
print("bare transition:\n", res.bare)
print("vacuum exchange scalar:", res.scalar)
print("weight-block residual:", weight_block_residual(res.basis, res.bare))
print("composition residual:", composition_residual((1, 0, 0), g1, g2, pp, N))
print("Kahler shift invariance:",
      shift_invariance_residual((1, 0, 0), g1, g2, pp, N))

# The starred matrix: transpose of the shifted-nome transition at inverted
# Kahler arguments; both sides of the transpose relation are independent.
print("\nstar transpose relation:",
      transpose_relation_residual((1, 0, 0), g1, g2, pp, N))

# Dynamical Yang-Baxter on the triple space, with the spectator weight
# shifting the Kahler arguments blockwise.
for boxes in (1, 2):
    print(f"Yang-Baxter residual, {boxes} box(es):",
          ybe_residual((g1, g2, g3), pp, N, boxes))

# The exact statement behind the shifts: swapping the two leading factors of
# a triple chamber is the pair transition at z * hbar^(-wt(spectator)), for
# arbitrary framing colors.
g2m = FramingGroup((0, 1, 0), "ub")
ppm = sample_param_point(88, N, framing_counts={"ua": [1, 0, 0],
                                                "ub": [0, 1, 0],
                                                "uc": [1, 0, 0]})
print("\nleading-pair factorization (mixed framing colors):",
      leading_pair_factorization_residual((g1, g2m, g3), ppm, N, (1, 1, 0)))
