"""Restriction matrices, dynamical R-matrices and the Yang-Baxter check.

The R-matrix on a pair of framing groups is the transition matrix between the
stable bases of the two opposite chamber orders, times the vacuum exchange
scalar.  Everything is organized per total box-content profile; entries
conserve the per-residue weight of basis tuples, which the checks verify
rather than assume.  Envelopes are always plain-normalized and built from
the L-shape-free tree set.

A Kahler argument (the dynamical shift z_i -> z_i hbar^(e_i) of the
Yang-Baxter check, or the inverted z_i -> 1/z_i of R*) is a point value
(``envelopes.kahler_point``).  The parameter point owns what its matrices
reuse: the compiled envelopes (``envelopes.compiled``), the chamber bases
(``ChamberMatrices.build``) and the restriction points
(``restriction_point``), so no caller passes a cache.  One
``ChamberMatrices`` answers every R-matrix question of a call: the
transition (R, or R* with its transposed bare part and mu*), the
composition and the transpose relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import Monomial, ParamPoint
from .envelopes import (EnvelopeSpec, ThetaTable, compiled, kahler_args,
                        kahler_point, restriction_values, shifted_kahler,
                        spectator_shift)
from .partitions import (FixedPoint, FramingGroup, _enumerate_fixed_points,
                         check_dimension_vector, kahler_var, profiles)
from .scalars import mu_exchange_scalar, mu_star_exchange_scalar


def _check_groups(groups, n_colors: int) -> None:
    """Raises ``ValueError`` unless each group's framing has one
    non-negative entry per color and no two slots of the groups share a
    framing variable (as two groups of one prefix and one color do)."""
    for g in groups:
        check_dimension_vector("framing", g.w, n_colors)
    names = [s.u_var for g in groups for s in g.slots()]
    if len(set(names)) != len(names):
        raise ValueError("framing variable names must be distinct")


def basis_fixed_points(v, groups: list[FramingGroup], n_colors: int) -> list[FixedPoint]:
    """Fixed points of the concatenated framing, group-major slots.

    Within a group the slots are those of ``FramingGroup.slots``; the
    enumeration order is that of ``fixed_points``.  Raises ``ValueError``
    unless v and each group's framing have one non-negative entry per color
    and the groups' framing variables are distinct.
    """
    _check_groups(groups, n_colors)
    return _enumerate_fixed_points([v], [s for g in groups for s in g.slots()],
                                   n_colors)


@dataclass
class RestrictionMatrix:
    basis: list[FixedPoint]
    matrix: np.ndarray  # rows: restriction points gamma, cols: envelope labels beta
    _cond: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def cond(self) -> float:
        """The condition number of ``matrix``, taken at the first read (an
        SVD that no residual needs); 1 for an empty basis."""
        if self._cond is None:
            self._cond = float(np.linalg.cond(self.matrix)) if self.basis else 1.0
        return self._cond


def restriction_point(gamma: FixedPoint, pp: ParamPoint) -> tuple[dict, dict]:
    """``restriction_values(gamma, pp)``, taken once per point.  Extensions
    keep their own: the values are taken through u, t1 and t2."""
    points = pp._restriction_points
    got = points.get(gamma)
    if got is None:
        got = points[gamma] = restriction_values(gamma, pp)
    return got


def restriction_matrix(basis: list[FixedPoint], pp: ParamPoint,
                       star: bool = False, kahler=None) -> RestrictionMatrix:
    """Matrix of envelope restrictions: M[gamma, beta] = Stab(beta)|_gamma.

    The envelopes are evaluated at ``kahler_point(pp, kahler)``.  Each
    restriction point (``restriction_point`` at ``pp``, whatever the Kahler
    argument) is looked up once per matrix and gets one ``ThetaTable``,
    which the columns share: a theta argument that several envelopes carry
    is taken once per point and permutation, and once per matrix if it has
    no Chern root.  Each column's plain envelope comes from
    ``envelopes.compiled`` at ``pp``.  The entries, of the point's number
    type, decide the array's.  An empty basis (a profile without fixed
    points) gives an empty complex matrix of condition number 1; a basis
    whose elements differ in framing slots (``FixedPoint.u_vars``) or
    profile raises ``ValueError``.
    """
    if not basis:
        return RestrictionMatrix(basis, np.zeros((0, 0), dtype=complex))
    u, v = basis[0].u_vars, basis[0].v
    if any(fp.u_vars != u or fp.v != v for fp in basis):
        raise ValueError("restriction points must share the framing slots and the profile")
    ppk = kahler_point(pp, kahler)
    points = [restriction_point(gamma, pp) for gamma in basis]
    free: dict = {}
    tables = [ThetaTable(free) for _ in basis]
    # per restriction point its row, filled column by column
    rows: list[list] = [[] for _ in basis]
    for beta in basis:
        env = compiled(EnvelopeSpec(beta, "plain", star), pp)
        for row, table, (values, logs) in zip(rows, tables, points):
            row.append(env.eval(ppk, values, logs, table))
    return RestrictionMatrix(basis, np.array(rows))


def _solve(pp: ParamPoint, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by the solve of the point's type (``ParamPoint.solve``)."""
    # np.linalg.solve is looked up here: the benchmark counts it by replacing np
    return np.linalg.solve(a, b) if pp.solve is None else pp.solve(a, b)


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


@dataclass
class ChamberMatrices:
    """The restriction matrices M_C and M_Cbar of the chamber orders
    C = (g1, g2) and Cbar = (g2, g1) on one profile, their bases and the
    swap P from the basis of C to that of Cbar: P[j, i] = 1 where
    basis_bar[j] is basis[i] with its g1 slots moved to the end (the swap
    from Cbar back to C is P.T).  Every transition, composition and
    transpose check of one profile, nome and Kahler argument is solved from
    one of these; ``at`` rebuilds the matrices on the same bases.
    ``groups`` are (g1, g2), ``star`` the nome the matrices are at and
    ``pp`` the parameter point they were built at, which holds the bases
    (made once per point and its extensions, by ``build``), the compiled
    envelopes and the restriction points."""

    groups: tuple[FramingGroup, FramingGroup]
    star: bool
    basis: list[FixedPoint]
    basis_bar: list[FixedPoint]
    p: np.ndarray
    m_c: RestrictionMatrix
    m_cbar: RestrictionMatrix
    pp: ParamPoint = field(repr=False, compare=False)

    @classmethod
    def build(cls, v, g1: FramingGroup, g2: FramingGroup, pp: ParamPoint,
              n_colors: int, star: bool = False, kahler=None) -> "ChamberMatrices":
        """The matrices on profile v.  The basis of C is enumerated; that of
        Cbar is its swap sorted by the slots' row tuples, the enumeration
        order of ``basis_fixed_points(v, [g2, g1])``, and P is that sort."""
        key = (tuple(v), g1, g2)
        bases = pp._chamber_bases.get(key)
        if bases is None:
            basis = basis_fixed_points(v, [g1, g2], n_colors)
            n1 = len(g1.slots())
            swapped = [FixedPoint(fp.slots[n1:] + fp.slots[:n1], n_colors)
                       for fp in basis]
            order = sorted(range(len(basis)), key=lambda i: swapped[i].partitions())
            bases = pp._chamber_bases[key] = (
                basis, [swapped[i] for i in order], np.eye(len(basis))[order])
        return cls((g1, g2), star, *bases, None, None, pp).at(star, kahler)

    def at(self, star: bool = False, kahler=None) -> "ChamberMatrices":
        """The matrices of the same bases at another nome or Kahler argument."""
        m_c, m_cbar = (restriction_matrix(basis, self.pp, star, kahler)
                       for basis in (self.basis, self.basis_bar))
        return ChamberMatrices(self.groups, star, self.basis, self.basis_bar, self.p,
                               m_c, m_cbar, self.pp)

    @property
    def conds(self) -> tuple[float, float]:
        return (self.m_c.cond, self.m_cbar.cond)

    def bare(self) -> np.ndarray:
        """The bare transition B with M_C B = P^T M_Cbar P."""
        return _solve(self.pp, self.m_c.matrix, self.p.T @ self.m_cbar.matrix @ self.p)

    def composition(self) -> float:
        """|| B(C -> Cbar) B(Cbar -> C) - 1 ||_max.

        The reversed order swaps the roles of M_C and M_Cbar and its swap is
        P.T.
        """
        b21 = _solve(self.pp, self.m_cbar.matrix, self.p @ self.m_c.matrix @ self.p.T)
        prod = (self.p.T @ b21 @ self.p) @ self.bare()
        return float(np.max(np.abs(prod - np.eye(len(self.basis))), initial=0.0))

    def transpose_relation(self) -> float:
        """|| transpose of bR*(z^-1) - bR*(z) ||, for starred matrices at
        ``inverted_kahler``: the bare transition of these against that of
        the starred matrices at the straight Kahler arguments."""
        bare_straight = self.at(star=True).bare()
        scale = max(float(np.max(np.abs(bare_straight), initial=0.0)), 1.0)
        return float(np.max(np.abs(self.bare().T - bare_straight), initial=0.0) / scale)

    def transition(self, include_scalar: bool = True) -> TransitionResult:
        """The transition block with its exchange scalar: mu, mu* for
        starred matrices, or 1 without ``include_scalar``.  Starred matrices
        are those at ``inverted_kahler`` and their bare part is transposed
        (the R* convention): the transpose relation turns the shifted-nome
        transition at inverted Kahler arguments into the matrix at the
        straight ones."""
        mu = mu_star_exchange_scalar if self.star else mu_exchange_scalar
        scalar = mu(*self.groups, self.pp) if include_scalar else 1.0 + 0.0j
        bare = self.bare()
        weights = [fp.weight() for fp in self.basis]
        return TransitionResult(self.basis, bare.T.copy() if self.star else bare,
                                scalar, self.conds, weights)


def bare_transition(v, g1: FramingGroup, g2: FramingGroup, pp: ParamPoint,
                    n_colors: int):
    """Solve the two-chamber change of stable bases on one profile block.

    Returns (basis, matrix B, (M_C, M_Cbar)) with B[beta, alpha] the
    coefficient of basis element beta in the opposite-chamber envelope of
    swapped alpha, i.e. the bare transition in the convention
    M_C B = (P^T M_Cbar P); the two ``RestrictionMatrix`` take their
    condition numbers only when ``.cond`` is read.
    """
    ch = ChamberMatrices.build(v, g1, g2, pp, n_colors)
    return ch.basis, ch.bare(), (ch.m_c, ch.m_cbar)


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
                 n_colors: int) -> TransitionResult:
    """The dynamical R-matrix block on a total profile v."""
    return ChamberMatrices.build(v, g1, g2, pp, n_colors).transition()


def inverted_kahler(n_colors: int):
    return kahler_args({i: Monomial.var(kahler_var(i)) ** -1 for i in range(n_colors)})


def transition_r_star(v, g1: FramingGroup, g2: FramingGroup, pp: ParamPoint,
                      n_colors: int) -> TransitionResult:
    """The starred R-matrix block: transpose of the shifted-nome transition at
    inverted Kahler arguments (``ChamberMatrices.transition``)."""
    return ChamberMatrices.build(v, g1, g2, pp, n_colors, star=True,
                                 kahler=inverted_kahler(n_colors)).transition()


def transpose_relation_residual(v, g1, g2, pp, n_colors) -> float:
    """``ChamberMatrices.transpose_relation`` of the starred matrices."""
    return ChamberMatrices.build(v, g1, g2, pp, n_colors, star=True,
                                 kahler=inverted_kahler(n_colors)).transpose_relation()


def composition_residual(v, g1, g2, pp, n_colors) -> float:
    """|| B(C -> Cbar) B(Cbar -> C) - 1 ||_max (``ChamberMatrices.composition``)."""
    return ChamberMatrices.build(v, g1, g2, pp, n_colors).composition()


def shift_invariance_residual(v, g1, g2, pp, n_colors) -> float:
    """Deviation of R from invariance under z_i -> z_i hbar^(total weight_i).

    Every Kahler shift reuses the chamber bases and their envelopes.
    """
    chambers = ChamberMatrices.build(v, g1, g2, pp, n_colors)
    base = chambers.bare()
    weights = [fp.weight() for fp in chambers.basis]
    out = 0.0
    for wt in sorted(set(weights)):
        idx = [i for i, w in enumerate(weights) if w == wt]
        shifted = chambers.at(kahler=shifted_kahler(wt)).bare()
        blk = base[np.ix_(idx, idx)]
        blk2 = shifted[np.ix_(idx, idx)]
        out = max(out, float(np.max(np.abs(blk - blk2)) / max(np.max(np.abs(blk)), 1.0)))
    return out


# ---------------------------------------------------------------------------
# Triple tensor space and the dynamical Yang-Baxter equation
# ---------------------------------------------------------------------------

def triple_basis(groups, n_colors: int, total_boxes: int) -> list[tuple]:
    """Direct sum over all profile splits of a triple of framing groups: the
    triples of single-group fixed points with ``total_boxes`` boxes in all.

    A group's fixed points are those of one ``_enumerate_fixed_points`` call
    over the ``profiles`` of 0 to ``total_boxes`` boxes, in that order.
    Raises ``ValueError`` for a negative ``total_boxes``, and unless each
    group's framing has one non-negative entry per color and the groups'
    framing variables are distinct.
    """
    if total_boxes < 0:
        raise ValueError(f"total_boxes {total_boxes} is negative")
    _check_groups(groups, n_colors)
    vs = [v for m in range(total_boxes + 1) for v in profiles(m, n_colors)]
    singles = [_enumerate_fixed_points(vs, g.slots(), n_colors) for g in groups]
    return [t for t in itertools.product(*singles)
            if sum(fp.size for fp in t) == total_boxes]


def r_action_on_triple(basis: list[tuple], groups, slot_pair: tuple[int, int],
                       pp: ParamPoint, shift_of) -> np.ndarray:
    """Matrix of the bare pair transition acting on two slots of a triple basis.

    The column of a triple ``trip`` takes the transition of its pair profile
    at the Kahler arguments z_i -> z_i hbar^(e_i), e = ``shift_of(trip)``,
    built once per (pair profile, shift) by ``ChamberMatrices.build``, which
    takes the bases and restriction points from ``pp``.  A triple and a pair
    are indexed by their slots.  Every triple the transition reaches must be
    in ``basis``.  The entries decide the array's number type.
    """
    i1, i2 = slot_pair
    g1, g2 = groups[i1], groups[i2]
    n1 = sum(g1.w)
    index = {sum((fp.slots for fp in trip), ()): i for i, trip in enumerate(basis)}
    # per triple its row, filled column by column
    rows: list[list] = [[0] * len(basis) for _ in basis]
    # per (profile, shift) the pair basis, its index and the transition
    blocks: dict[tuple, tuple] = {}
    for col, trip in enumerate(basis):
        a1, a2 = trip[i1], trip[i2]
        v_pair = tuple(x + y for x, y in zip(a1.v, a2.v))
        key = (v_pair, shift_of(trip))
        if key not in blocks:
            ch = ChamberMatrices.build(v_pair, g1, g2, pp, a1.n_colors,
                                       kahler=shifted_kahler(key[1]))
            blocks[key] = (ch.basis, {fp.slots: i for i, fp in enumerate(ch.basis)},
                           ch.bare())
        pair_basis, pair_index, bare = blocks[key]
        col_pair = pair_index[a1.slots + a2.slots]
        for row_pair, b in enumerate(pair_basis):
            coeff = bare[row_pair, col_pair]
            if coeff == 0:
                continue
            parts = [fp.slots for fp in trip]
            parts[i1], parts[i2] = b.slots[:n1], b.slots[n1:]
            rows[index[sum(parts, ())]][col] += coeff
    return np.array(rows)


def ybe_residual(groups: tuple[FramingGroup, FramingGroup, FramingGroup],
                 pp: ParamPoint, n_colors: int, total_boxes: int) -> float:
    """Max-norm residual of the dynamical Yang-Baxter equation.

    R12(z h^(3)) R13(z) R23(z h^(1))  =  R23(z) R13(z h^(2)) R12(z).

    The six pair transitions take their chamber bases and restriction
    points from ``pp``, so each is enumerated or restricted once.  Raises
    ``ValueError`` for a negative ``total_boxes`` (``triple_basis``).
    """
    basis = triple_basis(groups, n_colors, total_boxes)
    unshifted = (0,) * n_colors

    def act(pair, shift_slot):
        def shift_of(trip):
            return unshifted if shift_slot is None else trip[shift_slot].weight()
        return r_action_on_triple(basis, groups, pair, pp, shift_of)

    lhs = act((0, 1), 2) @ act((0, 2), None) @ act((1, 2), 0)
    rhs = act((1, 2), None) @ act((0, 2), 1) @ act((0, 1), None)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def triple_restriction_matrix(trip_basis, order, pp, n_colors):
    """Restriction matrix of the concatenated three-factor envelopes.

    ``order`` permutes the factor positions of every triple before
    concatenation; the basis enumeration stays that of ``trip_basis``.
    """
    fps = [FixedPoint(sum((trip[i].slots for i in order), ()), n_colors)
           for trip in trip_basis]
    return restriction_matrix(fps, pp).matrix


def leading_pair_factorization_residual(groups, pp, n_colors, vtot) -> float:
    """Check that swapping the two leading factors of a triple chamber is the
    pair transition at Kahler arguments z_i hbar^(w_i - v_i + v_{i+1}), with
    w the framing and v the profile of the trailing spectator
    (``envelopes.spectator_shift``, the first-factor shift of the shuffle
    formula).

    This is the exact dynamical-shift statement behind the Yang-Baxter
    relation; it holds for arbitrary framing colors.  Raises ``ValueError``
    unless ``vtot`` has one non-negative entry per color.
    """
    check_dimension_vector("profile", vtot, n_colors)
    vtot = tuple(vtot)
    trip_basis = [t for t in triple_basis(groups, n_colors, sum(vtot))
                  if tuple(a + b + c for a, b, c in
                           zip(t[0].v, t[1].v, t[2].v)) == vtot]
    if not trip_basis:
        return 0.0
    m0 = triple_restriction_matrix(trip_basis, (0, 1, 2), pp, n_colors)
    m1 = triple_restriction_matrix(trip_basis, (1, 0, 2), pp, n_colors)
    honest = _solve(pp, m0, m1)
    assembled = r_action_on_triple(trip_basis, groups, (0, 1), pp,
                                   lambda trip: spectator_shift(groups[2].w, trip[2].v))
    scale = max(float(np.max(np.abs(honest))), 1.0)
    return float(np.max(np.abs(honest - assembled)) / scale)
