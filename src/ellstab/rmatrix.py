"""Restriction matrices, dynamical R-matrices and the Yang-Baxter check.

The R-matrix on a pair of framing groups is the transition matrix between the
stable bases of the two opposite chamber orders, times the vacuum exchange
scalar.  Everything is organized per total box-content profile; entries
conserve the per-residue weight of basis tuples, which the checks verify
rather than assume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import HBAR, Monomial, ParamPoint
from .envelopes import (Envelope, EnvelopeSpec, default_kahler, kahler_args,
                        restrict)
from .partitions import FixedPoint, FramingSlot, _enumerate_fixed_points


@dataclass
class FramingGroup:
    """One tensor factor: a framing vector with named weight variables."""

    w: tuple[int, ...]
    prefix: str

    def u_names(self) -> list[str]:
        return [f"{self.prefix}{k}_{j}" for k in range(len(self.w))
                for j in range(1, self.w[k] + 1)]


def basis_fixed_points(v, groups: list[FramingGroup], n_colors: int) -> list[FixedPoint]:
    """Fixed points of the concatenated framing, group-major slots.

    Within a group the slots are color-major, named ``{prefix}{k}_{j}``;
    the enumeration order is that of ``fixed_points``.
    """
    slots = [FramingSlot(k, f"{g.prefix}{k}_{j}", j) for g in groups
             for k in range(n_colors) for j in range(1, g.w[k] + 1)]
    return _enumerate_fixed_points(v, slots, n_colors)


@dataclass
class RestrictionMatrix:
    basis: list[FixedPoint]
    matrix: np.ndarray  # rows: restriction points gamma, cols: envelope labels beta
    cond: float


def restriction_matrix(basis: list[FixedPoint], pp: ParamPoint,
                       variant: str = "plain", star: bool = False,
                       kahler=None, tree_filter=None) -> RestrictionMatrix:
    """Matrix of envelope restrictions: M[gamma, beta] = Stab(beta)|_gamma."""
    n = len(basis)
    mat = np.zeros((n, n), dtype=complex)
    kah = kahler if kahler is not None else kahler_args(default_kahler(basis[0].n_colors))
    for b, beta in enumerate(basis):
        env = Envelope(EnvelopeSpec(beta, variant, star, kah, tree_filter))
        for g, gamma in enumerate(basis):
            mat[g, b] = restrict(env, gamma, pp)
    cond = float(np.linalg.cond(mat))
    return RestrictionMatrix(basis, mat, cond)


@dataclass
class TransitionResult:
    basis: list[FixedPoint]          # basis of the direct chamber (group1, group2)
    bare: np.ndarray                 # action matrix of the bare transition
    scalar: complex                  # vacuum exchange scalar mu(u1/u2)
    cond: tuple[float, float]
    weights: list[tuple[int, ...]]

    @property
    def full(self) -> np.ndarray:
        return self.scalar * self.bare


def _index_of(fp: FixedPoint, basis: list[FixedPoint]) -> int:
    key = (fp.partitions(), tuple(s.u_var for s, _ in fp.slots))
    for i, c in enumerate(basis):
        if (c.partitions(), tuple(s.u_var for s, _ in c.slots)) == key:
            return i
    raise KeyError(f"fixed point {key} not in basis")


def _swap_permutation(basis: list[FixedPoint], basis_bar: list[FixedPoint],
                      n_first: int) -> np.ndarray:
    """P with P[j, i] = 1 where basis_bar[j] is basis[i] with its first
    n_first slots moved to the end."""
    p = np.zeros((len(basis), len(basis)))
    for i, fp in enumerate(basis):
        swapped = FixedPoint(fp.slots[n_first:] + fp.slots[:n_first], fp.n_colors)
        p[_index_of(swapped, basis_bar), i] = 1.0
    return p


def bare_transition(v, g1: FramingGroup, g2: FramingGroup, pp: ParamPoint,
                    n_colors: int, variant: str = "plain", star: bool = False,
                    kahler=None, cond_cap: float = 1e8,
                    tree_filter=None):
    """Solve the two-chamber change of stable bases on one profile block.

    Returns (basis, matrix B) with B[beta, alpha] the coefficient of basis
    element beta in the opposite-chamber envelope of swapped alpha, i.e. the
    bare transition in the convention  M_C B = (P^T M_Cbar P).
    """
    basis = basis_fixed_points(v, [g1, g2], n_colors)
    basis_bar = basis_fixed_points(v, [g2, g1], n_colors)
    m_c = restriction_matrix(basis, pp, variant, star, kahler, tree_filter)
    m_cbar = restriction_matrix(basis_bar, pp, variant, star, kahler, tree_filter)
    p = _swap_permutation(basis, basis_bar, sum(g1.w))
    m_swapped = p.T @ m_cbar.matrix @ p
    bare = np.linalg.solve(m_c.matrix, m_swapped)
    return basis, bare, (m_c.cond, m_cbar.cond)


def weight_block_residual(basis: list[FixedPoint], mat: np.ndarray) -> float:
    """Largest entry violating per-residue weight conservation."""
    weights = [fp.weight() for fp in basis]
    worst = 0.0
    for i in range(len(basis)):
        for j in range(len(basis)):
            if weights[i] != weights[j]:
                worst = max(worst, abs(mat[i, j]))
    return worst


def transition_r(v, g1: FramingGroup, g2: FramingGroup, pp: ParamPoint,
                 n_colors: int, kahler=None, include_scalar: bool = True,
                 variant: str = "plain", star: bool = False,
                 tree_filter=None) -> TransitionResult:
    """The dynamical R-matrix block on a total profile v."""
    from .scalars import mu_exchange_scalar
    basis, bare, conds = bare_transition(v, g1, g2, pp, n_colors, variant, star,
                                         kahler, tree_filter=tree_filter)
    scalar = mu_exchange_scalar(g1, g2, pp) if include_scalar else 1.0 + 0.0j
    weights = [fp.weight() for fp in basis]
    return TransitionResult(basis, bare, scalar, conds, weights)


def inverted_kahler(n_colors: int):
    return kahler_args({i: Monomial.var(f"z{i}") ** -1 for i in range(n_colors)})


def transition_r_star(v, g1: FramingGroup, g2: FramingGroup, pp: ParamPoint,
                      n_colors: int, include_scalar: bool = True,
                      tree_filter=None) -> TransitionResult:
    """The starred R-matrix block: transpose of the shifted-nome transition at
    inverted Kahler arguments.

    The bare part is computed from envelopes at the shifted nome with the
    Kahler variables inverted; the transpose relation turns it into the
    matrix at straight Kahler arguments.
    """
    from .scalars import mu_star_exchange_scalar
    basis, bare, conds = bare_transition(v, g1, g2, pp, n_colors,
                                         variant="plain", star=True,
                                         kahler=inverted_kahler(n_colors),
                                         tree_filter=tree_filter)
    scalar = mu_star_exchange_scalar(g1, g2, pp) if include_scalar else 1.0 + 0.0j
    weights = [fp.weight() for fp in basis]
    return TransitionResult(basis, bare.T.copy(), scalar, conds, weights)


def transpose_relation_residual(v, g1, g2, pp, n_colors) -> float:
    """|| transpose of bR*(z^-1) - bR*(z) ||, both computed independently."""
    _, bare_inv, _ = bare_transition(v, g1, g2, pp, n_colors, variant="plain",
                                     star=True, kahler=inverted_kahler(n_colors))
    _, bare_straight, _ = bare_transition(v, g1, g2, pp, n_colors,
                                          variant="plain", star=True)
    scale = max(float(np.max(np.abs(bare_straight))), 1.0)
    return float(np.max(np.abs(bare_inv.T - bare_straight)) / scale)


def composition_residual(v, g1, g2, pp, n_colors, variant="plain", star=False,
                         kahler=None, tree_filter=None) -> float:
    """|| B(C -> Cbar) B(Cbar -> C) - 1 ||_max."""
    basis, b12, _ = bare_transition(v, g1, g2, pp, n_colors, variant, star,
                                    kahler, tree_filter=tree_filter)
    basis_bar, b21, _ = bare_transition(v, g2, g1, pp, n_colors, variant, star,
                                        kahler, tree_filter=tree_filter)
    p = _swap_permutation(basis, basis_bar, sum(g1.w))
    prod = (p.T @ b21 @ p) @ b12
    return float(np.max(np.abs(prod - np.eye(len(basis)))))


# ---------------------------------------------------------------------------
# Triple tensor space and the dynamical Yang-Baxter equation
# ---------------------------------------------------------------------------

@dataclass
class TripleSpace:
    """Direct sum over all profile splits of a triple of framing groups."""

    groups: tuple[FramingGroup, FramingGroup, FramingGroup]
    n_colors: int
    total_boxes: int
    basis: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        n = self.n_colors
        singles: list[list[FixedPoint]] = []
        for g in self.groups:
            pts = []
            for m in range(self.total_boxes + 1):
                for v in profiles(m, n):
                    pts.extend(basis_fixed_points(v, [g], n))
            singles.append(pts)
        for a, b, c in itertools.product(*singles):
            if a.size + b.size + c.size == self.total_boxes:
                self.basis.append((a, b, c))

    def index(self, trip) -> int:
        key = tuple((t.partitions()) for t in trip)
        for i, b in enumerate(self.basis):
            if tuple(t.partitions() for t in b) == key:
                return i
        raise KeyError(key)


def profiles(m: int, n: int):
    """All content profiles v with |v| = m."""
    if n == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in profiles(m - first, n - 1):
            yield (first,) + rest


def r_action_on_triple(space: TripleSpace, slot_pair: tuple[int, int],
                       pp: ParamPoint, kahler_shift_slot: int | None,
                       include_scalar=True, variant="plain", star=False) -> np.ndarray:
    """Matrix of R acting on two slots of the triple space.

    ``kahler_shift_slot`` names the spectator slot whose per-residue weight
    shifts the Kahler arguments z_i -> z_i hbar^{wt_i}; None leaves them
    unshifted.
    """
    n = space.n_colors
    i1, i2 = slot_pair
    g1, g2 = space.groups[i1], space.groups[i2]
    dim = len(space.basis)
    out = np.zeros((dim, dim), dtype=complex)

    cache: dict[tuple, TransitionResult] = {}
    for col, trip in enumerate(space.basis):
        a1, a2 = trip[i1], trip[i2]
        v_pair = tuple(x + y for x, y in zip(a1.v, a2.v))
        if kahler_shift_slot is None:
            shift = (0,) * n
        else:
            shift = trip[kahler_shift_slot].weight()
        key = (v_pair, shift)
        if key not in cache:
            kah = {i: Monomial.var(f"z{i}") * HBAR ** shift[i] for i in range(n)}
            cache[key] = transition_r(v_pair, g1, g2, pp, n, kahler_args(kah),
                                      include_scalar, variant, star)
        res = cache[key]
        col_idx = _index_of_pair(a1, a2, res.basis)
        for row_idx in range(len(res.basis)):
            coeff = res.full[row_idx, col_idx]
            if coeff == 0:
                continue
            b = res.basis[row_idx]
            b1, b2 = _split_pair(b, space.groups[i1], n)
            newtrip = list(trip)
            newtrip[i1] = b1
            newtrip[i2] = b2
            out[space.index(tuple(newtrip)), col] += coeff
    return out


def _split_pair(fp: FixedPoint, g1: FramingGroup, n: int):
    n1 = sum(g1.w)
    return FixedPoint(fp.slots[:n1], n), FixedPoint(fp.slots[n1:], n)


def _index_of_pair(a1: FixedPoint, a2: FixedPoint, basis: list[FixedPoint]) -> int:
    key = (a1.partitions() + a2.partitions())
    for i, b in enumerate(basis):
        if b.partitions() == key:
            return i
    raise KeyError(key)


def ybe_residual(groups: tuple[FramingGroup, FramingGroup, FramingGroup],
                 pp: ParamPoint, n_colors: int, total_boxes: int,
                 include_scalar: bool = False, variant: str = "plain",
                 star: bool = False) -> float:
    """Max-norm residual of the dynamical Yang-Baxter equation.

    R12(z h^(3)) R13(z) R23(z h^(1))  =  R23(z) R13(z h^(2)) R12(z).
    """
    space = TripleSpace(groups, n_colors, total_boxes)

    def act(pair, shift_slot):
        return r_action_on_triple(space, pair, pp, shift_slot, include_scalar,
                                  variant, star)

    lhs = act((0, 1), 2) @ act((0, 2), None) @ act((1, 2), 0)
    rhs = act((1, 2), None) @ act((0, 2), 1) @ act((0, 1), None)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def triple_restriction_matrix(trip_basis, order, pp, n_colors,
                              variant="plain"):
    """Restriction matrix of the concatenated three-factor envelopes.

    ``order`` permutes the factor positions of every triple before
    concatenation; the basis enumeration stays that of ``trip_basis``.
    """
    fps = []
    for trip in trip_basis:
        slots = ()
        for i in order:
            slots = slots + trip[i].slots
        fps.append(FixedPoint(slots, n_colors))
    return restriction_matrix(fps, pp, variant).matrix


def leading_pair_factorization_residual(groups, pp, n_colors, vtot) -> float:
    """Check that swapping the two leading factors of a triple chamber is the
    pair transition at Kahler arguments z_i hbar^(-wt_i(spectator)).

    This is the exact dynamical-shift statement behind the Yang-Baxter
    relation; it holds for arbitrary framing colors.
    """
    space = TripleSpace(tuple(groups), n_colors, sum(vtot))
    trip_basis = [t for t in space.basis
                  if tuple(a + b + c for a, b, c in
                           zip(t[0].v, t[1].v, t[2].v)) == vtot]
    if not trip_basis:
        return 0.0
    m0 = triple_restriction_matrix(trip_basis, (0, 1, 2), pp, n_colors)
    m1 = triple_restriction_matrix(trip_basis, (1, 0, 2), pp, n_colors)
    honest = np.linalg.solve(m0, m1)
    n = n_colors
    g1, g2 = groups[0], groups[1]
    dim = len(trip_basis)
    assembled = np.zeros((dim, dim), dtype=complex)
    cache = {}
    keys = [tuple(x.partitions() for x in t) for t in trip_basis]
    index = {k: i for i, k in enumerate(keys)}
    for col, trip in enumerate(trip_basis):
        a1, a2 = trip[0], trip[1]
        v_pair = tuple(x + y for x, y in zip(a1.v, a2.v))
        shift = tuple(-x for x in trip[2].weight())
        key = (v_pair, shift)
        if key not in cache:
            kah = kahler_args({i: Monomial.var(f"z{i}") * HBAR ** shift[i] for i in range(n)})
            b, bare, _ = bare_transition(v_pair, g1, g2, pp, n, kahler=kah)
            cache[key] = (b, bare)
        basis2, bare2 = cache[key]
        ci = _index_of_pair(a1, a2, basis2)
        for ri in range(len(basis2)):
            c = bare2[ri, ci]
            if c == 0:
                continue
            b1, b2 = _split_pair(basis2[ri], g1, n)
            assembled[index[tuple(x.partitions() for x in (b1, b2, trip[2]))],
                      col] += c
    scale = max(float(np.max(np.abs(honest))), 1.0)
    return float(np.max(np.abs(honest - assembled)) / scale)


def shift_invariance_residual(v, g1, g2, pp, n_colors, variant="plain",
                              star=False) -> float:
    """Deviation of R from invariance under z_i -> z_i hbar^(total weight_i)."""
    base = transition_r(v, g1, g2, pp, n_colors, include_scalar=False,
                        variant=variant, star=star)
    n = n_colors
    out = 0.0
    weights = sorted(set(base.weights))
    for wt in weights:
        idx = [i for i, w in enumerate(base.weights) if w == wt]
        kah = {i: Monomial.var(f"z{i}") * HBAR ** wt[i] for i in range(n)}
        shifted = transition_r(v, g1, g2, pp, n_colors, kahler_args(kah),
                               include_scalar=False, variant=variant, star=star)
        blk = base.bare[np.ix_(idx, idx)]
        blk2 = shifted.bare[np.ix_(idx, idx)]
        out = max(out, float(np.max(np.abs(blk - blk2)) / max(np.max(np.abs(blk)), 1.0)))
    return out
