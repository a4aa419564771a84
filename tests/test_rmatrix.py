"""Transition matrices, R-matrix properties, Yang-Baxter."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ellstab.core import HBAR, Monomial, ParamPoint, SingularityError
from ellstab.envelopes import (Envelope, EnvelopeSpec, LoweredSum,
                               ThetaTable, _cancel, _tally, compiled, default_kahler,
                               kahler_args, kahler_point, restriction_values,
                               s_factor_product, shifted_kahler, theta_id,
                               tree_weights)
from ellstab.partitions import (box_slot_vars, fixed_points, index_degrees,
                                make_fixed_point)
from ellstab import envelopes, rmatrix
from ellstab.rmatrix import (ChamberMatrices, FramingGroup, bare_transition,
                             basis_fixed_points, composition_residual,
                             inverted_kahler,
                             leading_pair_factorization_residual, profiles,
                             restriction_matrix, shift_invariance_residual,
                             transition_r, transition_r_star,
                             transpose_relation_residual, triple_basis,
                             weight_block_residual, ybe_residual)
from ellstab.sampling import sample_param_point
from reference_sum import ReferenceSum, trace_thetas

N = 3
G1 = FramingGroup((1, 0, 0), "ua")
G2 = FramingGroup((1, 0, 0), "ub")
G3 = FramingGroup((1, 0, 0), "uc")
PP = sample_param_point(21, N, framing_counts={"ua": [1, 0, 0],
                                               "ub": [1, 0, 0],
                                               "uc": [1, 0, 0]})


def test_one_box_basis_is_two_dimensional():
    basis = basis_fixed_points((1, 0, 0), [G1, G2], N)
    assert [b.partitions() for b in basis] == [((), (1,)), ((1,), ())]


def test_single_group_basis_is_fixed_points_with_its_names():
    for prefix in ("u", "g"):
        g = FramingGroup((1, 1, 0), prefix)
        for m in range(4):
            for v in profiles(m, N):
                assert basis_fixed_points(v, [g], N) == [
                    make_fixed_point(fp.partitions(), g, N)
                    for fp in fixed_points(v, g.w, N)]
    assert basis_fixed_points((1, 0, 0), [FramingGroup((1, 1, 0))], N) == \
        fixed_points((1, 0, 0), (1, 1, 0), N)


def test_trivial_profile_gives_identity():
    basis, bare, _ = bare_transition((0, 0, 0), G1, G2, PP, N)
    assert bare.shape == (1, 1)
    assert abs(bare[0, 0] - 1) < 1e-12


def test_composition_and_weight_blocks():
    for total in (1, 2):
        for v in profiles(total, N):
            if not basis_fixed_points(v, [G1, G2], N):
                continue
            assert composition_residual(v, G1, G2, PP, N) < 1e-8
            basis, bare, matrices = bare_transition(v, G1, G2, PP, N)
            assert weight_block_residual(basis, bare) < 1e-10
            assert all(m.cond < 1e8 for m in matrices)


#: framings of the two groups: colors (0,0) and (0,1), and a two-slot first
#: group, whose swap is not its own inverse
PAIRS = [((1, 0, 0), (1, 0, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (1, 0, 0))]


def _pair(w1, w2):
    g1, g2 = FramingGroup(w1, "ua"), FramingGroup(w2, "ub")
    pp = sample_param_point(21, N, framing_counts={"ua": list(w1),
                                                   "ub": list(w2)})
    return g1, g2, pp


def _bases_only(monkeypatch):
    """Make ``ChamberMatrices.build`` skip its restriction matrices, for the
    tests of its bases and swap."""
    monkeypatch.setattr(rmatrix, "restriction_matrix",
                        lambda basis, pp, star=False, kahler=None: None)


@pytest.mark.parametrize("w1,w2", PAIRS)
def test_reversed_swap_is_the_transpose(monkeypatch, w1, w2):
    _bases_only(monkeypatch)
    g1, g2, pp = _pair(w1, w2)
    for m in range(4):
        for v in profiles(m, N):
            forward = ChamberMatrices.build(v, g1, g2, pp, N)
            if not forward.basis:
                continue
            backward = ChamberMatrices.build(v, g2, g1, pp, N)
            assert backward.basis == forward.basis_bar
            assert backward.basis_bar == forward.basis
            assert (backward.p == forward.p.T).all()


#: the framings of ``PAIRS`` and pairs with a two-slot group in either place
BASIS_PAIRS = PAIRS + [((1, 0, 0), (1, 1, 0)), ((2, 0, 0), (1, 0, 0)),
                       ((0, 1, 0), (2, 0, 0)), ((1, 1, 0), (2, 0, 0))]


@pytest.mark.parametrize("w1,w2", BASIS_PAIRS)
def test_opposite_chamber_basis_is_the_enumerated_one(monkeypatch, w1, w2):
    """The Cbar basis, the swap of the C basis, is ``basis_fixed_points`` of
    the reversed groups element for element and in order, and P maps each
    fixed point to its swap."""
    _bases_only(monkeypatch)
    g1, g2, pp = _pair(w1, w2)
    n1 = len(g1.slots())
    for m in range(5):
        for v in profiles(m, N):
            ch = ChamberMatrices.build(v, g1, g2, pp, N)
            assert ch.basis == basis_fixed_points(v, [g1, g2], N)
            assert ch.basis_bar == basis_fixed_points(v, [g2, g1], N)
            swap = np.zeros((len(ch.basis), len(ch.basis)))
            for (j, b), (i, a) in itertools.product(enumerate(ch.basis_bar),
                                                    enumerate(ch.basis)):
                swap[j, i] = b.slots == a.slots[n1:] + a.slots[:n1]
            assert ch.p.shape == swap.shape and (ch.p == swap).all()
            assert (ch.p.sum(axis=0) == 1).all() and (ch.p.sum(axis=1) == 1).all()


@pytest.mark.parametrize("w1,w2", PAIRS)
def test_composition_equals_the_two_transitions(w1, w2):
    """One pair of restriction matrices gives, bit for bit, the residual of
    the two independently solved transitions."""
    g1, g2, pp = _pair(w1, w2)
    for m in (1, 2):
        for v in profiles(m, N):
            if not basis_fixed_points(v, [g1, g2], N):
                continue
            basis, b12, _ = bare_transition(v, g1, g2, pp, N)
            basis_bar, b21, _ = bare_transition(v, g2, g1, pp, N)
            p = ChamberMatrices.build(v, g1, g2, pp, N).p
            prod = (p.T @ b21 @ p) @ b12
            expected = float(np.max(np.abs(prod - np.eye(len(basis)))))
            assert composition_residual(v, g1, g2, pp, N) == expected


def test_scale_invariance():
    _, bare, _ = bare_transition((1, 0, 0), G1, G2, PP, N)
    a = 1.3 - 0.4j
    values = dict(PP.values)
    values["ua0_1"] *= a
    values["ub0_1"] *= a
    pp2 = ParamPoint(N, values, tol=PP.tol)
    _, bare2, _ = bare_transition((1, 0, 0), G1, G2, pp2, N)
    assert np.max(np.abs(bare - bare2)) < 1e-10


def test_full_r_includes_exchange_scalar():
    res = transition_r((1, 0, 0), G1, G2, PP, N)
    assert np.max(np.abs(res.full - res.scalar * res.bare)) == 0.0
    assert res.scalar != 1.0


def test_ybe_one_box_several_seeds():
    for seed in range(3):
        pp = sample_param_point(seed + 31, N,
                                framing_counts={"ua": [1, 0, 0],
                                                "ub": [1, 0, 0],
                                                "uc": [1, 0, 0]})
        assert ybe_residual((G1, G2, G3), pp, N, 1) < 1e-7


def test_ybe_two_boxes():
    assert ybe_residual((G1, G2, G3), PP, N, 2) < 1e-6


def test_ybe_empty_space():
    assert ybe_residual((G1, G2, G3), PP, N, 0) < 1e-14


def test_shift_invariance_assumption_holds():
    for v in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
        r = shift_invariance_residual(v, G1, G2, PP, N)
        assert r < 1e-10


def test_leading_pair_factorization_mixed_colors():
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(88, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0],
                                                   "uc": [1, 0, 0]})
    r = leading_pair_factorization_residual((G1, g2, G3), pp, N, (1, 1, 0))
    assert r < 1e-10


PP31 = sample_param_point(31, N, framing_counts={"ua": [1, 0, 0],
                                                 "ub": [1, 0, 0],
                                                 "uc": [1, 0, 0]})


@pytest.mark.parametrize("vtot", [(1, 1, 1), (3, 0, 0)])
def test_leading_pair_factorization_three_color_zero_framings(vtot):
    assert leading_pair_factorization_residual((G1, G2, G3), PP31, N, vtot) < 1e-12


@pytest.mark.parametrize("vtot", [(2, 0, 0), (2, 1, 0), (2, 0, 1)])
def test_leading_pair_factorization_spectator_shift(vtot):
    """Profiles where the spectator's shuffle shift w_i - v_i + v_{i+1}
    differs from -wt(spectator), which gives residuals of 0.39 at (2,1,0),
    0.49 at (2,0,1) and 2.3 at (2,0,0)."""
    assert leading_pair_factorization_residual((G1, G2, G3), PP31, N, vtot) < 1e-12


def test_leading_pair_factorization_mixed_color_sweep():
    """Every profile of one to three boxes with a color-1 middle framing."""
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(88, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0],
                                                   "uc": [1, 0, 0]})
    for total in (1, 2, 3):
        for vtot in profiles(total, N):
            r = leading_pair_factorization_residual((G1, g2, G3), pp, N, vtot)
            assert r < 1e-12, vtot


def test_mixed_framing_ybe_deviation_is_reported_not_asserted():
    """The blockwise pair assembly of the triple-space relation holds exactly
    for equal framing colors; for mixed framing colors the trailing-pair
    transition mixes the spectator slot and the pure-block equation deviates
    at 2 boxes: a row of ``test_known_defects.py``.
    """
    g2 = FramingGroup((0, 1, 0), "ub")
    pp = sample_param_point(88, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0],
                                                   "uc": [1, 0, 0]})
    r1 = ybe_residual((G1, g2, G3), pp, N, 1)
    assert r1 < 1e-7  # one box: exact even for mixed framing colors


def test_star_transition_transpose_relation():
    assert transpose_relation_residual((1, 0, 0), G1, G2, PP, N) < 1e-8
    res = transition_r_star((1, 0, 0), G1, G2, PP, N)
    assert weight_block_residual(res.basis, res.bare) < 1e-10


def test_star_ybe_one_box():
    # with the inverted Kahler arguments the starred transitions satisfy the
    # same composition law
    assert ChamberMatrices.build((1, 0, 0), G1, G2, PP, N, star=True,
                                 kahler=inverted_kahler(N)).composition() < 1e-8


def test_restriction_matrix_budget_guard():
    from ellstab.core import BudgetError
    big = basis_fixed_points((2, 1, 1), [G1], N)
    with pytest.raises(BudgetError):
        fps = basis_fixed_points((6, 5, 5), [G1], N)
        restriction_matrix(fps, PP)


@pytest.mark.parametrize("v,w2", [((0, 1, 0), (1, 0, 0)), ((2, 0, 0), (0, 1, 0))])
def test_empty_profile_block(v, w2):
    """A profile without fixed points gives empty matrices and zero residuals."""
    g2 = FramingGroup(w2, "ub")
    assert basis_fixed_points(v, [G1, g2], N) == []
    rm = restriction_matrix([], PP)
    assert rm.matrix.shape == (0, 0) and rm.cond == 1.0
    basis, bare, _ = bare_transition(v, G1, g2, PP, N)
    assert basis == [] and bare.shape == (0, 0)
    assert composition_residual(v, G1, g2, PP, N) == 0.0
    assert shift_invariance_residual(v, G1, g2, PP, N) == 0.0
    assert transpose_relation_residual(v, G1, g2, PP, N) == 0.0


def _count_conds(monkeypatch) -> list:
    """The calls of ``np.linalg.cond``."""
    calls = []
    cond = np.linalg.cond

    def counted(*args, **kwargs):
        calls.append(1)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return calls


def test_residuals_take_no_condition_number(monkeypatch):
    """No bare transition, composition or Yang-Baxter residual reads a
    condition number, so none is taken."""
    calls = _count_conds(monkeypatch)
    basis, bare, _ = bare_transition((1, 1, 0), G1, G2, _fresh(PP), N)
    assert weight_block_residual(basis, bare) < 1e-10
    assert composition_residual((1, 1, 0), G1, G2, _fresh(PP), N) < 1e-8
    assert ybe_residual((G1, G2, G3), _fresh(PP), N, 2) < 1e-6
    assert calls == []


def test_condition_number_is_taken_at_its_first_read(monkeypatch):
    """``RestrictionMatrix.cond`` is the SVD condition number of the matrix,
    bit for bit, taken once; an empty basis gives 1 without an SVD."""
    rm = restriction_matrix(basis_fixed_points((1, 1, 0), [G1, G2], N), PP)
    want = float(np.linalg.cond(rm.matrix))
    calls = _count_conds(monkeypatch)
    assert rm.cond.hex() == want.hex() and len(calls) == 1
    assert rm.cond.hex() == want.hex() and len(calls) == 1
    assert restriction_matrix([], PP).cond == 1.0 and len(calls) == 1


@pytest.mark.parametrize("framings", [
    ((1, 0, 0), (1, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 0, 0), (0, 1, 0)),
    ((1, 1, 0), (2, 0, 0), (0, 0, 1))])
def test_triple_basis_is_the_profile_by_profile_enumeration(framings):
    """The triple basis is that of the single-group bases enumerated profile
    by profile: colors (0,0,0) and (0,0,1), and two-slot groups."""
    groups = tuple(FramingGroup(w, p) for w, p in zip(framings, ("ua", "ub", "uc")))
    for total in range(1, 5 if max(map(sum, framings)) == 1 else 4):
        singles = [[fp for m in range(total + 1) for v in profiles(m, N)
                    for fp in basis_fixed_points(v, [g], N)] for g in groups]
        assert triple_basis(groups, N, total) == [
            t for t in itertools.product(*singles)
            if sum(fp.size for fp in t) == total]


def test_triple_basis_rejects_a_framing_that_is_not_one_count_per_color():
    with pytest.raises(ValueError, match="framing"):
        triple_basis((G1, G2, FramingGroup((1, 0), "uc")), N, 1)


def test_triple_basis_rejects_a_negative_total():
    with pytest.raises(ValueError, match="total_boxes -1 is negative"):
        triple_basis((G1, G2, G3), N, -1)


@pytest.mark.parametrize("vtot, match", [
    ((1, 0), r"profile \(1, 0\) has 2 entries for 3 colors"),
    ((2, -1, 0), r"profile \(2, -1, 0\) has a negative entry")])
def test_leading_pair_factorization_rejects_a_profile_that_is_not_one_count_per_color(
        vtot, match):
    """A total profile of the wrong length, or with a negative entry, has
    no triple and once gave a residual of 0.0 that checked nothing."""
    with pytest.raises(ValueError, match=match):
        leading_pair_factorization_residual((G1, G2, G3), PP31, N, vtot)


def test_leading_pair_factorization_reads_a_profile_given_as_a_list():
    assert (leading_pair_factorization_residual((G1, G2, G3), PP31, N, [2, 1, 0])
            == leading_pair_factorization_residual((G1, G2, G3), PP31, N, (2, 1, 0)))


def test_groups_that_share_a_framing_variable_are_rejected():
    """Two groups of one prefix share the variable of a color they both
    frame; every R-matrix builder rejects them before enumerating a basis
    (without the check the pair gave a 1x1 matrix on one variable, and the
    triple a singular solve)."""
    pp = sample_param_point(1, N, framing_counts={"u": [1, 1, 0]})
    g, g2 = FramingGroup((1, 0, 0)), FramingGroup((1, 1, 0))
    for v in ((0, 1, 0), (1, 0, 0), (1, 1, 0)):
        with pytest.raises(ValueError, match="must be distinct"):
            ChamberMatrices.build(v, g2, g, pp, N)
        with pytest.raises(ValueError, match="must be distinct"):
            transition_r(v, g2, g, pp, N)
    with pytest.raises(ValueError, match="must be distinct"):
        ybe_residual((g, g, g), pp, N, 1)
    with pytest.raises(ValueError, match="must be distinct"):
        leading_pair_factorization_residual((G1, g, g), pp, N, (1, 0, 0))


# ---------------------------------------------------------------------------
# basis-wide theta tables of restriction_matrix
# ---------------------------------------------------------------------------

def _unit_pair(colors):
    g1 = FramingGroup(tuple(int(i == colors[0]) for i in range(N)), "ua")
    g2 = FramingGroup(tuple(int(i == colors[1]) for i in range(N)), "ub")
    return g1, g2


def _fresh(pp):
    """The same point with an empty q-Pochhammer memo."""
    return ParamPoint(pp.n_colors, pp.values, pp.logs, tol=pp.tol,
                      min_terms=pp.min_terms, seed=pp.seed)


def _entrywise(basis, pp, star, kahler):
    """M[gamma, beta] from one independently compiled envelope per column,
    each evaluated on its own at the Kahler point, without a theta table."""
    pp = _fresh(pp)
    ppk = kahler_point(pp, kahler)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for b, beta in enumerate(basis):
        env = Envelope(EnvelopeSpec(beta, "plain", star))
        for g, gamma in enumerate(basis):
            mat[g, b] = env.eval(ppk, *restriction_values(gamma, pp))
    return mat


def _outcome(build):
    """The matrix bytes, or the exception a build raised."""
    try:
        return build().tobytes()
    except SingularityError as exc:
        return repr(exc)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("colors", [(0, 0), (0, 1)])
@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("inverted", [False, True])
def test_restriction_matrix_is_bitwise_entrywise(seed, colors, star, inverted):
    """The shared theta tables leave every entry bit for bit as one envelope
    evaluated alone gives it: every 1-3-box profile with two framings."""
    g1, g2 = _unit_pair(colors)
    pp = sample_param_point(seed, N, framing_counts={"ua": list(g1.w),
                                                     "ub": list(g2.w)})
    kahler = inverted_kahler(N) if inverted else None
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = basis_fixed_points(v, [g1, g2], N)
            if not basis:
                continue
            got = _outcome(lambda: restriction_matrix(basis, _fresh(pp), star,
                                                      kahler).matrix)
            want = _outcome(lambda: _entrywise(basis, pp, star, kahler))
            assert got == want, (v, [fp.partitions() for fp in basis])


def test_theta_table_keeps_variable_orders_apart():
    """Two columns of this basis carry the Chern-root-free argument
    z0 hbar z2 with its exponents in different orders; the two orders
    materialize to different last bits, so a table keyed by monomial
    equality would move an entry."""
    g1, g2 = _unit_pair((0, 0))
    pp = sample_param_point(1, N, framing_counts={"ua": [1, 0, 0],
                                                  "ub": [1, 0, 0]})
    basis = basis_fixed_points((2, 0, 1), [g1, g2], N)
    lowered = [LoweredSum(env._terms, env.x_names())
               for env in (Envelope(EnvelopeSpec(fp, "plain")) for fp in basis)]
    reordered = [(m, m2) for m in lowered[0].args for m2 in lowered[1].args
                 if m == m2 and list(m._exps) != list(m2._exps)]
    assert len(reordered) == 1
    m, m2 = reordered[0]
    assert pp.theta(pp.materialize(m)) != pp.theta(pp.materialize(m2))
    got = restriction_matrix(basis, _fresh(pp)).matrix
    assert got.tobytes() == _entrywise(basis, pp, False, None).tobytes()


@pytest.mark.parametrize("colors,v", [((0, 0), (1, 1, 1)), ((0, 0), (2, 0, 1)),
                                      ((0, 1), (1, 1, 1))])
def test_theta_table_takes_each_theta_once(monkeypatch, colors, v):
    """``ParamPoint.theta`` runs once per distinct argument (by its ordered
    exponents) and assignment of the Chern roots it holds, fewer times than
    the columns ask for a theta."""
    g1, g2 = _unit_pair(colors)
    pp = sample_param_point(3, N, framing_counts={"ua": list(g1.w),
                                                  "ub": list(g2.w)})
    basis = basis_fixed_points(v, [g1, g2], N)
    roots = Envelope(EnvelopeSpec(basis[0], "plain")).x_names()
    calls = Counter()

    def counted(pp, mono, star, z):
        held = [x for x in roots if x in mono._exps]
        calls[(tuple(mono._exps.items()),
               tuple(pp.values[x] for x in roots) if held else None)] += 1

    trace_thetas(monkeypatch, counted)
    restriction_matrix(basis, pp)
    assert calls and max(calls.values()) == 1
    asked = 0
    for fp in basis:
        env = Envelope(EnvelopeSpec(fp, "plain"))
        perms = math.prod(math.factorial(len(env.nvars[i])) for i in range(N))
        asked += len(basis) * perms * len(LoweredSum(env._terms, env.x_names()).args)
    assert sum(calls.values()) < asked


@pytest.mark.parametrize("colors,v", [((0, 0), (1, 1, 1)), ((0, 0), (2, 0, 1)),
                                      ((0, 1), (1, 1, 1)), ((0, 0), (2, 1, 1))])
def test_a_matrix_takes_one_theta_per_id_and_permutation(monkeypatch, colors, v):
    """Across the envelopes of one restriction matrix, ``ParamPoint.theta``
    runs once per ``theta_id`` and permutation of the Chern roots per
    restriction point, or once per matrix for an argument without a root;
    an id names one tuple of exponent items in dict order, and the two
    orders of one monomial get two ids."""
    g1, g2 = _unit_pair(colors)
    pp = sample_param_point(3, N, framing_counts={"ua": list(g1.w),
                                                  "ub": list(g2.w)})
    basis = basis_fixed_points(v, [g1, g2], N)
    roots = set(Envelope(EnvelopeSpec(basis[0], "plain")).x_names())
    calls = Counter()
    term = Envelope._term
    at: list = [None, None]

    def term_at(self, pp, thetas, k):
        at[:] = thetas, k
        return term(self, pp, thetas, k)

    def counted(pp, mono, star, z):
        table, k = at
        key = theta_id(mono)
        calls[(id(table), k, key) if not roots.isdisjoint(mono._exps) else key] += 1

    fresh = _fresh(pp)
    with monkeypatch.context() as patch:
        patch.setattr(Envelope, "_term", term_at)
        trace_thetas(patch, counted)
        got = restriction_matrix(basis, fresh).matrix
    assert calls and max(calls.values()) == 1
    assert got.tobytes() == _entrywise(basis, pp, False, None).tobytes()
    ids: dict = {}
    items = {k: its for its, k in envelopes._THETA_IDS.items()}
    for fp in basis:
        for m in compiled(EnvelopeSpec(fp, "plain"), fresh)._lowered.args:
            assert items[theta_id(m)] == m.float_items()
            ids.setdefault(m.float_items(), set()).add(theta_id(m))
    assert all(len(k) == 1 for k in ids.values())
    assert len(set().union(*ids.values())) == len(ids)
    a, b = Monomial._of({"t1": 1, "t2": -1}), Monomial._of({"t2": -1, "t1": 1})
    assert a == b and theta_id(a) != theta_id(b)
    assert theta_id(Monomial._of({"t1": 1, "t2": -1})) == theta_id(a)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("colors", [(0, 0), (0, 1)])
@pytest.mark.parametrize("star", [False, True])
def test_restriction_matrix_matches_the_reference_evaluation(seed, colors, star,
                                                            monkeypatch):
    """Every restriction matrix of the 1-3-box profiles of two unit
    framings, plain and starred, at the plain and the inverted Kahler
    argument, gives the bits or the exception message of the reference
    evaluation (every theta first, ``ReferenceSum``)."""
    g1, g2 = _unit_pair(colors)
    pp = sample_param_point(seed, N, framing_counts={"ua": list(g1.w),
                                                     "ub": list(g2.w)})
    for kahler in (None, inverted_kahler(N)):
        for v, basis in _profile_bases(colors):
            got = _outcome(lambda: restriction_matrix(basis, _fresh(pp), star,
                                                      kahler).matrix)
            with monkeypatch.context() as patch:
                patch.setattr(envelopes, "LoweredSum", ReferenceSum)
                want = _outcome(lambda: restriction_matrix(basis, _fresh(pp), star,
                                                           kahler).matrix)
            assert got == want, (v, kahler)


def test_a_vanishing_term_takes_none_of_its_numerator_thetas(monkeypatch):
    """In a restriction matrix, a term with a numerator argument of value
    exactly 1.0 takes none of its numerator thetas: no evaluation takes the
    theta of an argument that only such terms' numerators hold, and there
    are such arguments.  The matrix keeps its bits."""
    g1, g2 = _unit_pair((0, 0))
    pp = sample_param_point(1, N, framing_counts={"ua": list(g1.w),
                                                  "ub": list(g2.w)})
    basis = basis_fixed_points((1, 1, 1), [g1, g2], N)
    want = _entrywise(basis, pp, False, None)
    lowered_eval = LoweredSum.eval
    taken: list = []
    skipped = 0

    def checked(self, pp, star, thetas, perm=0):
        nonlocal skipped
        taken.clear()
        value = lowered_eval(self, pp, star, thetas, perm)
        args = self.args
        vanishing = [any(pp.materialize(args[k]) == 1.0 for k in num)
                     for _, num, *_ in self.terms]
        held = {args[k] for (_, num, den, *_), v in zip(self.terms, vanishing)
                for k in (den if v else num + den)}
        only = {args[k] for (_, num, *_), v in zip(self.terms, vanishing) if v
                for k in num} - held
        assert only.isdisjoint(taken)
        skipped += len(only)
        return value

    trace_thetas(monkeypatch, lambda pp, m, star, z: taken.append(m))
    monkeypatch.setattr(LoweredSum, "eval", checked)
    got = restriction_matrix(basis, _fresh(pp)).matrix
    assert skipped
    assert got.tobytes() == want.tobytes()


def test_theta_table_splits_by_its_own_chern_roots():
    """A table shares an argument across permutations only if it holds none
    of the Chern roots of the envelope's lowered sum."""
    g1, g2 = _unit_pair((0, 0))
    pp = sample_param_point(2, N, framing_counts={"ua": [1, 0, 0],
                                                  "ub": [1, 0, 0]})
    basis = basis_fixed_points((2, 0, 1), [g1, g2], N)
    env = Envelope(EnvelopeSpec(basis[0], "plain"))
    values, logs = restriction_values(basis[1], pp)
    table = ThetaTable()
    want = env.eval(pp, values, logs)
    assert env.eval(pp, values, logs, table) == want
    roots = set(values)
    items = {k: its for its, k in envelopes._THETA_IDS.items()}
    assert table.free and all(roots.isdisjoint(dict(items[key])) for key in table.free)
    bound = [key for k in range(len(table._bound)) for key in table.perm(k)[1]]
    assert bound and all(not roots.isdisjoint(dict(items[key])) for key in bound)


# ---------------------------------------------------------------------------
# Kahler arguments as point values
# ---------------------------------------------------------------------------

def _compile_time_kahler(fp, star, kahler):
    """The plain envelope of ``fp`` with the Kahler argument compiled into
    its terms, the way envelopes took it before it became a point value: the
    S-product times the phi factors of ``tree_weights(fp, kahler)``, per tree
    tuple, through ``_cancel``.  Its ``LoweredSum`` is made at its first
    evaluation."""
    env = Envelope(EnvelopeSpec(fp, "plain", star))
    sprod = s_factor_product(fp, "plain")
    boxes = fp.boxes()
    terms = []
    for tw in tree_weights(fp, dict(kahler), boxes, box_slot_vars(fp),
                           index_degrees(fp, boxes)):
        num, den = list(sprod.num), list(sprod.den)
        for xm, ym in tw.phi_args:
            num += [xm * ym, HBAR]
            den += [xm, ym]
        terms.append(_cancel(_tally(num, den), sprod.sign + tw.kappa))
    env._terms = terms
    return env


def _compile_time_matrix(basis, pp, star, kahler):
    """The restriction matrix of ``_compile_time_kahler`` envelopes at the
    plain point, entry by entry."""
    pp = _fresh(pp)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for b, beta in enumerate(basis):
        env = _compile_time_kahler(beta, star, kahler)
        for g, gamma in enumerate(basis):
            mat[g, b] = env.eval(pp, *restriction_values(gamma, pp))
    return mat


def _profile_bases(colors):
    """(profile, basis) of every 1-3-box profile of two unit framings."""
    g1, g2 = _unit_pair(colors)
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = basis_fixed_points(v, [g1, g2], N)
            if basis:
                yield v, basis


def test_compile_time_oracle_assembles_the_plain_compile():
    """At the plain Kahler argument the oracle's terms are the compile's."""
    for _, basis in _profile_bases((0, 1)):
        for fp in basis:
            want = Envelope(EnvelopeSpec(fp, "plain"))._terms
            got = _compile_time_kahler(fp, False, default_kahler(N))._terms
            assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("colors", [(0, 0), (0, 1)])
@pytest.mark.parametrize("star", [False, True])
def test_inverted_kahler_point_is_bitwise_the_compiled_argument(seed, colors, star):
    """z_i -> 1/z_i as a point value (negated logs, exact) gives the matrix
    of the argument compiled into the terms bit for bit: every 1-3-box
    profile with two framings."""
    g1, g2 = _unit_pair(colors)
    pp = sample_param_point(seed, N, framing_counts={"ua": list(g1.w),
                                                     "ub": list(g2.w)})
    kahler = inverted_kahler(N)
    for v, basis in _profile_bases(colors):
        got = _outcome(lambda: restriction_matrix(basis, _fresh(pp), star,
                                                  kahler).matrix)
        want = _outcome(lambda: _compile_time_matrix(basis, pp, star, kahler))
        assert got == want, v


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("colors", [(0, 0), (0, 1)])
@pytest.mark.parametrize("shift", [(1, -1, 2), (0, 2, -1), (-2, 1, 1)])
def test_hbar_shifted_kahler_point_matches_the_compiled_argument(seed, colors, shift):
    """z_i -> z_i hbar^(s_i) as a point value sums the same logs in another
    order, so an entry may move in its last bits: within 1e-13 of the
    largest entry of the matrix compiled with the argument."""
    g1, g2 = _unit_pair(colors)
    pp = sample_param_point(seed, N, framing_counts={"ua": list(g1.w),
                                                     "ub": list(g2.w)})
    kahler = shifted_kahler(shift)
    for v, basis in _profile_bases(colors):
        want = _compile_time_matrix(basis, pp, False, kahler)
        got = restriction_matrix(basis, _fresh(pp), False, kahler).matrix
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, v


def test_kahler_point_takes_the_value_and_log_of_each_argument():
    kahler = {i: Monomial.var(f"z{i}") ** -1 * HBAR for i in range(N)}
    ppk = kahler_point(PP, kahler)
    assert kahler_point(PP, None) is PP
    for i, m in kahler.items():
        assert ppk.logs[f"z{i}"] == PP.log_of(m)
        assert ppk.values[f"z{i}"] == PP.materialize(m)
    assert kahler_point(PP, kahler_args(kahler)).logs == ppk.logs


def _count_compiles(monkeypatch) -> Counter:
    """Counts of ``Envelope.__init__`` calls by (fixed point, star)."""
    calls = Counter()
    init = Envelope.__init__

    def counted(self, spec):
        calls[spec.fp, spec.star] += 1
        init(self, spec)

    monkeypatch.setattr(Envelope, "__init__", counted)
    return calls


def test_ybe_compiles_each_envelope_once(monkeypatch):
    """The six pair transitions of a 2-box check compile each fixed point of
    each slot pair's two chamber bases once (the slot pair is in the
    framing names of the fixed point)."""
    calls = _count_compiles(monkeypatch)
    ybe_residual((G1, G2, G3), _fresh(PP), N, 2)
    assert calls and max(calls.values()) == 1
    want = set()
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ga, gb = (G1, G2, G3)[a], (G1, G2, G3)[b]
        for total in range(3):
            for v in profiles(total, N):
                for order in ([ga, gb], [gb, ga]):
                    want |= {(fp, False) for fp in basis_fixed_points(v, order, N)}
    assert set(calls) == want


def _count_calls(monkeypatch, name: str, key) -> Counter:
    """Counts of the calls of ``rmatrix.<name>``, by ``key(*args)``."""
    calls = Counter()
    original = getattr(rmatrix, name)

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(rmatrix, name, counted)
    return calls


def test_ybe_enumerates_each_chamber_basis_and_restricts_each_point_once(monkeypatch):
    """The six pair transitions of a 2-box check take their chamber bases and
    restriction points from the point: one ``basis_fixed_points`` call per
    (profile, groups) chamber, whose opposite basis is its swap, and each
    fixed point of the two bases restricted once there.  The triple basis
    enumerates none."""
    groups = (G1, G2, G3)
    pp = _fresh(PP)
    restricted = _count_calls(monkeypatch, "restriction_values",
                              lambda gamma, point, *args: (gamma, point))
    enumerated = _count_calls(monkeypatch, "basis_fixed_points",
                              lambda v, gs, n: (v, tuple(gs)))
    ybe_residual(groups, pp, N, 2)
    monkeypatch.undo()
    chambers = {(tuple(x + y for x, y in zip(t[a].v, t[b].v)), (a, b))
                for a, b in ((0, 1), (0, 2), (1, 2))
                for t in triple_basis(groups, N, 2)}
    assert enumerated == Counter({(v, (groups[a], groups[b])): 1
                                  for v, (a, b) in chambers})
    points = {fp for v, (a, b) in chambers for order in ((a, b), (b, a))
              for fp in basis_fixed_points(v, [groups[i] for i in order], N)}
    assert restricted == Counter({(fp, pp): 1 for fp in points})


def test_restriction_points_belong_to_the_point():
    """``restriction_point`` takes the values once per point; an extension,
    which may override u, t1 or t2, starts with none but shares the chamber
    bases."""
    pp = _fresh(PP)
    gamma = basis_fixed_points((1, 1, 0), [G1, G2], N)[0]
    got = rmatrix.restriction_point(gamma, pp)
    assert rmatrix.restriction_point(gamma, pp) is got
    assert got == restriction_values(gamma, pp)
    ext = pp.extended({"ub0_1": 0.7 - 0.2j})
    assert ext._restriction_points == {}
    assert ext._chamber_bases is pp._chamber_bases
    assert rmatrix.restriction_point(gamma, ext) != got


def test_chamber_bases_built_at_a_point_serve_its_kahler_points(monkeypatch):
    """A ``ChamberMatrices.build`` at ``kahler_point(pp, k)`` reuses the bases
    and swap that a build at ``pp`` made from one enumeration."""
    pp = _fresh(PP)
    enumerated = _count_calls(monkeypatch, "basis_fixed_points",
                              lambda v, gs, n: (v, tuple(gs)))
    first = ChamberMatrices.build((1, 1, 0), G1, G2, pp, N)
    assert enumerated == Counter({((1, 1, 0), (G1, G2)): 1})
    again = ChamberMatrices.build((1, 1, 0), G1, G2,
                                  kahler_point(pp, shifted_kahler((1, 0, 0))), N,
                                  star=True)
    assert enumerated == Counter({((1, 1, 0), (G1, G2)): 1})
    assert again.basis is first.basis and again.basis_bar is first.basis_bar
    assert again.p is first.p


def test_chamber_bases_built_for_groups_serve_equal_groups(monkeypatch):
    """A framing group is its own key: bases built for (g1, g2) serve equal
    groups made afresh, with ``w`` as a tuple or a list."""
    pp = _fresh(PP)
    enumerated = _count_calls(monkeypatch, "basis_fixed_points",
                              lambda v, gs, n: (v, tuple(gs)))
    first = ChamberMatrices.build((1, 1, 0), G1, G2, pp, N)
    again = ChamberMatrices.build((1, 1, 0), FramingGroup(G1.w, G1.prefix),
                                  FramingGroup(list(G2.w), G2.prefix), pp, N)
    assert enumerated == Counter({((1, 1, 0), (G1, G2)): 1})
    assert again.basis is first.basis and again.p is first.p
    assert again.bare().tobytes() == first.bare().tobytes()


@pytest.mark.parametrize("v", [(2, 0, 0), (1, 1, 0), (1, 0, 1)])
def test_shift_and_transpose_checks_compile_each_envelope_once(monkeypatch, v):
    """Every Kahler shift of ``shift_invariance_residual`` and both sides of
    ``transpose_relation_residual`` reuse the compiled envelopes of the two
    chamber bases."""
    calls = _count_compiles(monkeypatch)
    bases = basis_fixed_points(v, [G1, G2], N) + basis_fixed_points(v, [G2, G1], N)
    shift_invariance_residual(v, G1, G2, _fresh(PP), N)
    assert calls == Counter({(fp, False): 1 for fp in bases})
    calls.clear()
    transpose_relation_residual(v, G1, G2, _fresh(PP), N)
    assert calls == Counter({(fp, True): 1 for fp in bases})


def test_restriction_matrix_extends_the_point_once_per_restriction_point(monkeypatch):
    """The columns share the extended point of each restriction point; a
    Kahler argument adds one extension for the whole matrix."""
    g1, g2 = _unit_pair((0, 0))
    pp = sample_param_point(5, N, framing_counts={"ua": [1, 0, 0],
                                                  "ub": [1, 0, 0]})
    basis = basis_fixed_points((1, 1, 1), [g1, g2], N)
    calls = []
    extended = ParamPoint.extended

    def counted(self, *args, **kwargs):
        calls.append(1)
        return extended(self, *args, **kwargs)

    monkeypatch.setattr(ParamPoint, "extended", counted)
    restriction_matrix(basis, pp)
    assert len(calls) == len(basis) > 1
    calls.clear()
    restriction_matrix(basis, pp, False, inverted_kahler(N))
    assert len(calls) == len(basis) + 1


def test_chamber_matrices_take_each_restriction_point_once(monkeypatch):
    """``ChamberMatrices.at`` reuses the restriction points of both bases:
    one ``restriction_values`` call per point over the build and every nome
    and Kahler argument, and each matrix bit for bit that of a fresh
    ``restriction_matrix``."""
    g1, g2 = _unit_pair((0, 1))
    pp = sample_param_point(6, N, framing_counts={"ua": list(g1.w),
                                                  "ub": list(g2.w)})
    calls = Counter()
    values = rmatrix.restriction_values

    def counted(gamma, point, *args, **kwargs):
        calls[gamma, point] += 1
        return values(gamma, point, *args, **kwargs)

    monkeypatch.setattr(rmatrix, "restriction_values", counted)
    args = [(False, None), (False, shifted_kahler((1, 0, -1))), (True, None),
            (True, inverted_kahler(N))]
    chambers = ChamberMatrices.build((1, 1, 1), g1, g2, pp, N)
    built = [chambers] + [chambers.at(star, kahler) for star, kahler in args[1:]]
    bases = chambers.basis + chambers.basis_bar
    assert len(chambers.basis) > 1
    assert calls == Counter({(fp, pp): 1 for fp in bases})
    monkeypatch.undo()
    for got, (star, kahler) in zip(built, args):
        for mat, basis in ((got.m_c, chambers.basis), (got.m_cbar, chambers.basis_bar)):
            want = restriction_matrix(basis, pp, star, kahler)
            assert mat.matrix.tobytes() == want.matrix.tobytes(), (star, kahler)


@pytest.mark.parametrize("w", [(1, 0), (1, 0, 0, 0), (1, -1, 0)])
def test_basis_fixed_points_reject_a_framing_that_is_not_one_count_per_color(w):
    with pytest.raises(ValueError, match="framing"):
        basis_fixed_points((1, 0, 0), [G1, FramingGroup(w, "ub")], N)


def test_ybe_rejects_a_negative_box_count():
    with pytest.raises(ValueError, match="negative"):
        ybe_residual((G1, G2, G3), PP, N, -1)
