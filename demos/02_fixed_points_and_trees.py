"""Walkthrough: colored partitions, fixed points, the box order and trees."""

from ellstab import (ColoredPartition, FramingGroup, chern_slots, fixed_points,
                     index_degrees, lambda_trees, make_fixed_point,
                     spanning_trees, weight_identity_ok)

# The canonical box order of the staircase partition (6,5,4,1) with color 0.
fp = make_fixed_point([(6, 5, 4, 1)], FramingGroup((1, 0, 0)), 3)
print("content classes of (6,5,4,1), canonical order:")
for i, boxes in chern_slots(fp).items():
    print(f"  residue {i}:", [(b.x, b.y) for b in boxes])
print("profile v =", fp.v)

# Fixed points of a profile: tuples of colored partitions.
pts = fixed_points((1, 1, 1), (1, 0, 0), 3)
print("\nfixed points with v = (1,1,1):", [p.partitions() for p in pts])

# The integer weight identity, checked exactly.
lam = ColoredPartition((5, 3, 3, 1), 1, 4)
print("\nweight identity on (5,3,3,1) color 1, N=4:", weight_identity_ok(lam))

# Rooted trees in a partition: all four spanning trees of the 2x2 square,
# two of which pass the mirrored-L filter.
sq = ColoredPartition((2, 2), 0, 3)
print("\nspanning trees of (2,2):")
for t in spanning_trees(sq):
    print("  edges:", t.edges(), " reversed-arrow count:", t.kappa)
print("admissible after the filter:", len(lambda_trees(sq)))

# Index degrees: the Chern-root exponents of the attracting half determinant.
for rows in [(4,), (1, 1, 1, 1)]:
    fp = make_fixed_point([rows], FramingGroup((1, 0, 0)), 3)
    print(f"\nindex degrees of {rows}:",
          {(b.x, b.y): d for b, d in sorted(index_degrees(fp).items(),
                                            key=lambda kv: (kv[0].x, kv[0].y))})
