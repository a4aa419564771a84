"""Stable envelopes: closed forms, factorization, restriction, shuffle."""

import cmath
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ellstab.core import (HBAR, BudgetError, Monomial, ParamPoint,
                         SingularityError, theta_p)
from ellstab import envelopes
from ellstab.envelopes import (ANNULUS_MODULUS, SYM_BUDGET, Envelope, EnvelopeSpec,
                               LoweredSum, VARIANTS, ThetaProduct, _cross_prefactor,
                               compiled, concat_fixed_points, factorization_residual,
                               kahler_point, restrict, restriction_values,
                               s_factor_product, shuffle_residual,
                               theta_surely_nonzero, tree_weights, default_kahler)
from ellstab.partitions import (FixedPoint, FramingGroup, box_slot_vars,
                                chern_slots, chern_var, fixed_points,
                                index_degrees, make_fixed_point,
                                partitions_of, partitions_upto)
from ellstab.rmatrix import (RestrictionMatrix, basis_fixed_points,
                             inverted_kahler, profiles, restriction_matrix)
from ellstab.sampling import random_assignment, sample_param_point
from ellstab.vertex import vertex_series
from reference_sum import ReferenceSum, trace_thetas

N = 3
PP = sample_param_point(11, N, framing_counts={"u": [1, 0, 0]})
RNG = np.random.default_rng(5)


def test_empty_envelope_is_one():
    fp = make_fixed_point([()], FramingGroup((1, 0, 0)), N)
    env = Envelope(EnvelopeSpec(fp, "plain"))
    assert env.eval(PP, {}) == 1.0


def test_single_box_closed_form():
    fp = make_fixed_point([(1,)], FramingGroup((1, 0, 0)), N)
    d = list(index_degrees(fp).values())[0]
    env = Envelope(EnvelopeSpec(fp, "plain"))
    vals = random_assignment(RNG, env.x_names())
    got = env.eval(PP, vals)
    ppx = PP.extended(vals)
    x, u, z0 = Monomial.var("x0_1"), Monomial.var("u0_1"), Monomial.var("z0")
    want = _graded_product(ThetaProduct([x / u * z0 * HBAR ** d, HBAR],
                                        [z0 * HBAR ** d]), ppx, False)
    assert abs(got - want) < 1e-12 * abs(want)


def test_row_of_two_tree_weight_hand_expansion():
    fp = make_fixed_point([(2,)], FramingGroup((1, 0, 0)), N)
    boxes = fp.boxes()
    degrees = index_degrees(fp, boxes)
    d = {(b.x, b.y): v for b, v in degrees.items()}
    weights = tree_weights(fp, default_kahler(N), boxes, box_slot_vars(fp), degrees)
    assert len(weights) == 1
    tw = weights[0]
    assert tw.kappa == 0
    env = Envelope(EnvelopeSpec(fp, "plain"))
    vals = random_assignment(RNG, env.x_names())
    ppx = PP.extended(vals)
    got = 1.0 + 0.0j
    for xm, ym in tw.phi_args:
        got *= ppx.phi(xm, ym)
    x1, x2, u = (Monomial.var("x0_1"), Monomial.var(f"x{N-1}_1"),
                 Monomial.var("u0_1"))
    z0, zl = Monomial.var("z0"), Monomial.var(f"z{N-1}")
    t1 = Monomial.var("t1")
    root_arg = z0 * zl * HBAR ** (d[(1, 1)] + d[(1, 2)])
    edge_arg = zl * HBAR ** d[(1, 2)]
    want = ppx.phi(x1 / u, root_arg) * ppx.phi(t1 * x2 / x1, edge_arg)
    assert abs(got - want) < 1e-12 * abs(want)


def test_symmetry_under_transposition():
    fp = make_fixed_point([(4,)], FramingGroup((1, 0, 0)), N)  # two color-0 Chern roots
    env = Envelope(EnvelopeSpec(fp, "hat"))
    vals = random_assignment(RNG, env.x_names())
    v1 = env.eval(PP, vals)
    swapped = dict(vals)
    swapped["x0_1"], swapped["x0_2"] = vals["x0_2"], vals["x0_1"]
    v2 = env.eval(PP, swapped)
    assert abs(v1 - v2) < 1e-10 * abs(v1)


def test_normalized_variants_have_integer_chern_exponents():
    # half powers survive only on t1/t2; Chern roots and framing weights
    # appear with integer exponents (exact bookkeeping, no floats involved)
    for rows in [(1,), (2, 1), (3, 1)]:
        fp = make_fixed_point([rows], FramingGroup((1, 0, 0)), N)
        for variant in ("hat", "tilde"):
            mono = s_factor_product(fp, variant).mono_total()
            for name, e in mono.exps.items():
                if name not in ("t1", "t2"):
                    assert e.denominator == 1, (rows, variant, name, e)


def test_factorization_through_kernels():
    for w, rows_list in [((1, 0, 0), [[(1,)], [(2,)], [(2, 1)], [(1, 1, 1)]]),
                         ((1, 1, 0), [[(1,), (2,)], [(), (2, 1)]])]:
        pp = sample_param_point(12, N, framing_counts={"u": list(w)})
        for rows in rows_list:
            fp = make_fixed_point(rows, FramingGroup(w), N)
            env = Envelope(EnvelopeSpec(fp, "plain"))
            vals = random_assignment(RNG, env.x_names())
            assert factorization_residual(fp, pp, "I", vals) < 1e-10
            assert factorization_residual(fp, pp, "II", vals) < 1e-10


def _arguments(prod, names):
    """Numerator and denominator theta arguments, variables renamed."""
    def rename(monos):
        return Counter(Monomial({names.get(k, k): e for k, e in m.exps.items()})
                       for m in monos)
    return rename(prod.num), rename(prod.den)


def test_concatenated_s_product_factors_through_the_cross_prefactor():
    """S(fpa ++ fpb) is S(fpa) S(fpb) times the shuffle cross factor, as
    multisets of theta arguments, with the signs adding.  Every product is
    read in the concatenated point's roots, which the cross factor and the
    whole product already speak: each factor's boxes are renamed to their
    boxes there, which keeps the first factor's names and shifts the
    second's x_(i,j) to x_(i, v'_i + j), the renaming of
    ``shuffle_residual``.  Four boxes in the first slot give it a
    same-residue (gauge) pair of its own at N = 3."""
    for n in (3, 4):
        wa = tuple(int(i == 0) for i in range(n))
        for ra, rb, color in itertools.product(partitions_upto(4),
                                               partitions_upto(3), range(n)):
            wb = tuple(int(i == color) for i in range(n))
            fpa = make_fixed_point([ra], FramingGroup(wa, "ua"), n)
            fpb = make_fixed_point([rb], FramingGroup(wb, "ub"), n)
            big = concat_fixed_points(fpa, fpb)
            xa, xb, xbig = box_slot_vars(fpa), box_slot_vars(fpb), box_slot_vars(big)
            boxes_a, boxes_big = fpa.boxes(), big.boxes()
            to_a = {xa[b]: xbig[c] for b, c in zip(boxes_a, boxes_big)}
            to_b = {xb[b]: xbig[c]
                    for b, c in zip(fpb.boxes(), boxes_big[len(boxes_a):])}
            assert all(own == there for own, there in to_a.items())
            assert to_b == {chern_var(i, j): chern_var(i, fpa.v[i] + j)
                            for i in range(n) for j in range(1, fpb.v[i] + 1)}
            for variant in ("plain", "hat", "tilde"):
                whole = s_factor_product(big, variant)
                sa = s_factor_product(fpa, variant)
                sb = s_factor_product(fpb, variant)
                cross = _cross_prefactor(fpa, fpb, variant)
                num_a, den_a = _arguments(sa, to_a)
                num_b, den_b = _arguments(sb, to_b)
                num_c, den_c = _arguments(cross, {})
                case = (n, ra, rb, color, variant)
                assert _arguments(whole, {}) == (num_a + num_b + num_c,
                                                 den_a + den_b + den_c), case
                assert whole.sign == sa.sign + sb.sign + cross.sign, case


def test_restriction_diagonal_nonzero_and_triangular():
    fps = fixed_points((1, 1, 1), (1, 0, 0), N)
    mat = np.zeros((3, 3), dtype=complex)
    for b, beta in enumerate(fps):
        env = Envelope(EnvelopeSpec(beta, "plain"))
        for g, gamma in enumerate(fps):
            mat[g, b] = restrict(env, gamma, PP)
    for i in range(3):
        assert abs(mat[i, i]) > 1e-6
    # support: an envelope vanishes at dominance-smaller restriction points
    # (basis order is dominance-ascending: (1,1,1), (2,1), (3))
    assert mat[0, 1] == 0 and mat[0, 2] == 0 and mat[1, 2] == 0
    assert all(abs(mat[g, b]) > 1e-8 for g in range(3) for b in range(g + 1))


def test_quasi_periodicity_exact_law():
    rng = np.random.default_rng(9)
    for rows in [(1,), (1, 1), (2,), (2, 1), (3,), (1, 1, 1)]:
        fp = make_fixed_point([rows], FramingGroup((1, 0, 0)), N)
        env = Envelope(EnvelopeSpec(fp, "hat"))
        qp = env.qp_unit_factors()
        # the Kahler part of every unit factor is exactly z_color^(-1)
        for name, mono in qp.items():
            color = int(name[1:].split("_")[0])
            assert mono.get(f"z{color}") == Fraction(-1)
            assert all(v.startswith(("z", "t")) for v in mono.exps)
        base = restrict(env, fp, PP, framed=False)
        shifts, pred = {}, 1.0 + 0.0j
        for i, boxes in chern_slots(fp).items():
            for j in range(1, len(boxes) + 1):
                s = int(rng.integers(-2, 3))
                shifts[f"x{i}_{j}"] = s
                pred *= PP.materialize(qp[f"x{i}_{j}"]) ** s
        shifted = restrict(env, fp, PP, p_shifts=shifts, framed=False)
        assert abs(shifted - pred * base) < 1e-10 * max(abs(shifted), abs(base))


def test_framed_restriction_separates_framings():
    pp = sample_param_point(14, N, framing_counts={"u": [2, 0, 0]})
    fp = make_fixed_point([(1,), (1,)], FramingGroup((2, 0, 0)), N)
    env = Envelope(EnvelopeSpec(fp, "plain"))
    val = restrict(env, fp, pp, framed=True)
    assert abs(val) > 1e-8
    values, _ = restriction_values(fp, pp, framed=True)
    assert abs(values["x0_1"] - values["x0_2"]) > 1e-6


def test_shuffle_trivial_second_factor():
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [1, 0, 0]})
    fpa = make_fixed_point([(2, 2)], FramingGroup((1, 0, 0), "ua"), N)
    fpb = make_fixed_point([()], FramingGroup((1, 0, 0), "ub"), N)
    r = shuffle_residual(fpa, fpb, pp, "hat", n_assignments=2,
                         rng=np.random.default_rng(3))
    assert r < 1e-10


def test_shuffle_one_box_each_all_variants():
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [1, 0, 0]})
    fpa = make_fixed_point([(1,)], FramingGroup((1, 0, 0), "ua"), N)
    fpb = make_fixed_point([(1,)], FramingGroup((1, 0, 0), "ub"), N)
    for variant in ("plain", "hat", "tilde"):
        r = shuffle_residual(fpa, fpb, pp, variant, n_assignments=3,
                             rng=np.random.default_rng(4))
        assert r < 1e-8, variant


@pytest.mark.parametrize("count", [0, -1])
def test_shuffle_rejects_a_check_of_no_assignment(count):
    """A residual over no assignment would pass having checked nothing."""
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [1, 0, 0]})
    fpa = make_fixed_point([(1,)], FramingGroup((1, 0, 0), "ua"), N)
    fpb = make_fixed_point([(1,)], FramingGroup((1, 0, 0), "ub"), N)
    with pytest.raises(ValueError, match="n_assignments"):
        shuffle_residual(fpa, fpb, pp, n_assignments=count)


def test_shuffle_at_shifted_nome():
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0]})
    fpa = make_fixed_point([(2, 1)], FramingGroup((1, 0, 0), "ua"), N)
    fpb = make_fixed_point([(1,)], FramingGroup((0, 1, 0), "ub"), N)
    r = shuffle_residual(fpa, fpb, pp, "tilde", star=True, n_assignments=2,
                         rng=np.random.default_rng(5))
    assert r < 1e-8


def _count_compiles(monkeypatch) -> Counter:
    """Counts of ``Envelope.__init__`` calls by spec."""
    calls = Counter()
    init = Envelope.__init__

    def counted(self, spec):
        calls[spec] += 1
        init(self, spec)

    monkeypatch.setattr(Envelope, "__init__", counted)
    return calls


def test_a_point_family_shares_one_compiled_envelope(monkeypatch):
    """``compiled`` returns one envelope per spec for a point, its extensions
    and its Kahler points; a fresh copy of the point compiles again."""
    calls = _count_compiles(monkeypatch)
    pp = ParamPoint(PP.n_colors, PP.values, PP.logs, min_terms=PP.min_terms)
    spec = EnvelopeSpec(make_fixed_point([(2, 1)], FramingGroup((1, 0, 0)), N), "hat")
    env = compiled(spec, pp)
    assert compiled(spec, pp) is env
    assert compiled(spec, pp.extended({"y": 2.0})) is env
    assert compiled(spec, kahler_point(pp, inverted_kahler(N))) is env
    assert calls == Counter({spec: 1})
    copy = ParamPoint(pp.n_colors, pp.values, pp.logs, min_terms=pp.min_terms)
    assert compiled(spec, copy) is not env
    assert calls == Counter({spec: 2})


def test_shuffle_checks_at_one_point_compile_a_shared_factor_once(monkeypatch):
    """Two shuffle checks at one point whose first factor is the same compile
    it once, and every other envelope once."""
    calls = _count_compiles(monkeypatch)
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0]})
    fpa = make_fixed_point([(1,)], FramingGroup((1, 0, 0), "ua"), N)
    seconds = [make_fixed_point([rows], FramingGroup((0, 1, 0), "ub"), N)
               for rows in ((1,), (2,))]
    for fpb in seconds:
        shuffle_residual(fpa, fpb, pp, "hat", n_assignments=1)
    want = [fpa] + seconds + [concat_fixed_points(fpa, fpb) for fpb in seconds]
    assert calls == Counter({EnvelopeSpec(fp, "hat"): 1 for fp in want})


def test_symmetrization_budget_guard(monkeypatch):
    """Three slots of at most 5 boxes, 5! 5! 3! = 86400 permutations: the
    envelope fails on its budget before it enumerates a tree."""
    fp = make_fixed_point([(3, 2), (3, 2), (2, 1)], FramingGroup((3, 0, 0)), N)
    assert max(lam.size for _, lam in fp.slots) <= 14

    def forbidden(*args):
        raise AssertionError("tree weights built past the symmetrization budget")

    monkeypatch.setattr(envelopes, "tree_weights", forbidden)
    with pytest.raises(BudgetError, match="86400 permutations"):
        Envelope(EnvelopeSpec(fp, "hat"))
    assert SYM_BUDGET < 86400


def test_restriction_requires_same_class():
    fp1 = make_fixed_point([(1,)], FramingGroup((1, 0, 0)), N)
    fp2 = make_fixed_point([(2,)], FramingGroup((1, 0, 0)), N)
    env = Envelope(EnvelopeSpec(fp1, "plain"))
    with pytest.raises(ValueError):
        restrict(env, fp2, PP)


def test_restriction_requires_the_same_framing_slots():
    """A fixed point of the same (v, w) on the framing slots of another
    prefix is no restriction point: ``restrict``, ``restriction_matrix``
    and ``vertex_series`` raise for it, and accept the point itself."""
    fpa = make_fixed_point([(2,)], FramingGroup((1, 0, 0)), N)
    fpb = make_fixed_point([(2,)], FramingGroup((1, 0, 0), "ua"), N)
    assert (fpa.v, fpa.w) == (fpb.v, fpb.w)
    pp = sample_param_point(1, N, framing_counts={"u": [1, 0, 0], "ua": [1, 0, 0]})
    env = compiled(EnvelopeSpec(fpa, "plain"), pp)
    assert np.isfinite(restrict(env, fpa, pp))
    with pytest.raises(ValueError, match="framing slots"):
        restrict(env, fpb, pp)
    with pytest.raises(ValueError, match="framing slots"):
        restriction_matrix([fpa, fpb], pp)
    with pytest.raises(ValueError, match="framing slots"):
        vertex_series(fpa, fpb, 2, pp)


def _graded_product(prod, pp, star):
    """A theta product multiplied out factor by factor as graded values, the
    formula the lowered evaluation replaces: each theta value carries its
    grading m^(-1/2) as an exact monomial, multiplied up alongside."""
    coeff, mono = (-1.0) ** (prod.sign % 2), Monomial.one()
    for m in prod.num:
        coeff *= pp.theta(pp.materialize(m), star)
        mono *= m ** Fraction(-1, 2)
    for m in prod.den:
        coeff /= pp.theta(pp.materialize(m), star)
        mono *= m ** Fraction(1, 2)
    return coeff * pp.materialize(mono)


def _reference_eval(env, pp, values):
    """Symmetrization with one extended point per permutation of the roots."""
    names = env.nvars
    total = 0.0 + 0.0j
    for combo in itertools.product(*[itertools.permutations(range(len(names[i])))
                                     for i in range(env.fp.n_colors)]):
        vperm = dict(values)
        for i, perm in enumerate(combo):
            for j, pj in enumerate(perm):
                vperm[names[i][j]] = values[names[i][pj]]
        ppx = pp.extended(vperm)
        for term in env._terms:
            total += _graded_product(term, ppx, env.spec.star)
    return total


@pytest.mark.parametrize("w", [(1, 0, 0), (1, 1, 0), (2, 0, 0)])
def test_lowered_eval_matches_graded_products(w):
    """Every fixed point of at most three boxes, every variant, both nomes."""
    pp = sample_param_point(15, N, framing_counts={"u": list(w)})
    rng = np.random.default_rng(6)
    for total in range(4):
        for v in profiles(total, N):
            for fp in fixed_points(v, w, N):
                for variant, star in itertools.product(("plain", "hat", "tilde"),
                                                       (False, True)):
                    env = Envelope(EnvelopeSpec(fp, variant, star))
                    values = random_assignment(rng, env.x_names())
                    got = env.eval(pp, values)
                    want = _reference_eval(env, pp, values)
                    case = (fp.partitions(), variant, star)
                    assert abs(got - want) <= 1e-14 * abs(want), case


@pytest.mark.parametrize("w", [(1, 0, 0), (1, 1, 0), (2, 0, 0)])
def test_no_term_pairs_a_theta_with_its_inverse(w):
    """No compiled term up to three boxes has a numerator m with 1/m in its
    denominator, so ``_cancel`` only needs to cancel equal arguments."""
    for total in range(4):
        for v in profiles(total, N):
            for fp in fixed_points(v, w, N):
                for variant in ("plain", "hat", "tilde"):
                    for term in Envelope(EnvelopeSpec(fp, variant))._terms:
                        den = set(term.den)
                        assert not [m for m in term.num if m ** -1 in den], \
                            (fp.partitions(), variant)


def test_denominator_theta_zero_raises():
    """Equal roots of one color put a gauge denominator theta at its zero."""
    fp = make_fixed_point([(1,), (1,)], FramingGroup((2, 0, 0)), N)
    pp = sample_param_point(14, N, framing_counts={"u": [2, 0, 0]})
    env = Envelope(EnvelopeSpec(fp, "plain"))
    x = 0.8 + 0.3j
    with pytest.raises(SingularityError):
        env.eval(pp, {"x0_1": x, "x0_2": x})
    with pytest.raises(SingularityError):
        ThetaProduct([], [Monomial.var("w")]).eval(PP.extended({"w": 1.0}), False)


def test_eval_does_no_monomial_arithmetic(monkeypatch):
    fp = make_fixed_point([(2, 1), (1,)], FramingGroup((1, 1, 0)), N)
    pp = sample_param_point(16, N, framing_counts={"u": [1, 1, 0]})
    env = Envelope(EnvelopeSpec(fp, "hat"))
    values = random_assignment(RNG, env.x_names())
    want = env.eval(pp, values)

    def forbidden(*args):
        raise AssertionError("Monomial arithmetic inside Envelope.eval")

    monkeypatch.setattr(Monomial, "__mul__", forbidden)
    monkeypatch.setattr(Monomial, "__truediv__", forbidden)
    assert env.eval(pp, values) == want


def _chained_prefactor(prod):
    """prod num^(-1/2) den^(1/2), one graded factor at a time."""
    total = Monomial.one()
    for m in prod.num:
        total = total * m ** Fraction(-1, 2)
    for m in prod.den:
        total = total / m ** Fraction(-1, 2)
    return total


@pytest.mark.parametrize("w", [(1, 0, 0), (1, 1, 0), (2, 0, 0)])
def test_mono_total_is_the_chained_half_power_product(w):
    """Same exponents in the same variable order, so the same float."""
    pp = sample_param_point(17, N, framing_counts={"u": list(w)})
    rng = np.random.default_rng(7)
    for total in range(4):
        for v in profiles(total, N):
            for fp in fixed_points(v, w, N):
                for variant in ("plain", "hat", "tilde"):
                    env = Envelope(EnvelopeSpec(fp, variant))
                    ppx = pp.extended(random_assignment(rng, env.x_names()))
                    for prod in [s_factor_product(fp, variant)] + env._terms:
                        got, want = prod.mono_total(), _chained_prefactor(prod)
                        case = (fp.partitions(), variant)
                        assert list(got._exps.items()) == list(want._exps.items()), case
                        assert ppx.materialize(got) == ppx.materialize(want), case


def test_mono_total_float_pairs_are_its_exact_exponents_as_floats():
    """The float pairs a prefactor is handed are ``float()`` of its exact
    exponents, bit for bit and in their dict order, on every term of both
    compile corpora and on each S-product."""
    for spec in itertools.chain(_compile_corpus(), _pair_compile_corpus()):
        for prod in [s_factor_product(spec.fp, spec.variant)] + Envelope(spec)._terms:
            pref = prod.mono_total()
            want = [(name, float(e).hex()) for name, e in pref._exps.items()]
            assert [(name, e.hex()) for name, e in pref.float_items()] == want


def _chained_qp_unit_factors(env: Envelope) -> dict[str, Monomial]:
    """The quasi-periodicity factors as a chain of Monomial powers and
    products, name by name and term by term, each the first term's: the
    reference for ``Envelope.qp_unit_factors``."""
    out = {}
    for name in env.x_names():
        factor = None
        for term in env._terms:
            m_tot = Monomial.one()
            for m in term.num:
                k = m.get(name)
                if k:
                    m_tot = m_tot * m ** (-k)
            for m in term.den:
                k = m.get(name)
                if k:
                    m_tot = m_tot * m ** k
            if factor is None:
                factor = m_tot
            assert factor == m_tot
        out[name] = factor
    return out


@pytest.mark.parametrize("w", [(1, 0, 0), (1, 1, 0), (2, 0, 0)])
def test_qp_unit_factors_is_the_chained_product(w):
    """One pass per term gives the exponents, the variable order and the
    slot order of the chained product, for every hat envelope of 1-4 boxes."""
    for total in range(1, 5):
        for v in profiles(total, N):
            for fp in fixed_points(v, w, N):
                env = Envelope(EnvelopeSpec(fp, "hat"))
                got, want = env.qp_unit_factors(), _chained_qp_unit_factors(env)
                assert list(got) == list(want), fp.partitions()
                for name in want:
                    assert list(got[name]._exps.items()) == \
                        list(want[name]._exps.items()), (fp.partitions(), name)


def test_plain_qp_unit_factors_retain_chern_roots():
    fp = make_fixed_point([(2, 1)], FramingGroup((1, 0, 0)), N)
    with pytest.raises(ValueError, match="retains Chern roots"):
        Envelope(EnvelopeSpec(fp, "plain")).qp_unit_factors()


def test_qp_unit_factors_reject_terms_that_disagree():
    """The square (2, 2) has two admissible trees, so its envelope has two
    terms.  A copy of the second whose first denominator argument with a
    Chern root carries an extra Kahler factor z0 gives that root another
    quasi-periodicity factor in that term alone."""
    fp = make_fixed_point([(2, 2)], FramingGroup((1, 0, 0)), N)
    env = Envelope(EnvelopeSpec(fp, "hat"))
    assert len(env._terms) == 2
    env.qp_unit_factors()
    second = env._terms[1]
    m = next(m for m in second.den if not set(env.x_names()).isdisjoint(m._exps))
    skewed = m * Monomial.var("z0")
    env._terms[1] = ThetaProduct(list(second.num),
                                 [skewed if a is m else a for a in second.den],
                                 second.sign)
    with pytest.raises(ValueError, match="not uniform across tree terms"):
        env.qp_unit_factors()


def test_envelope_lowers_at_its_first_evaluation():
    fp = make_fixed_point([(2, 1), (1,)], FramingGroup((1, 1, 0)), N)
    pp = sample_param_point(16, N, framing_counts={"u": [1, 1, 0]})
    lazy = Envelope(EnvelopeSpec(fp, "hat"))
    lazy.qp_unit_factors()
    assert lazy._lowered is None
    eager = Envelope(EnvelopeSpec(fp, "hat"))
    eager._lowered = LoweredSum(eager._terms, eager.x_names())
    values = random_assignment(np.random.default_rng(8), lazy.x_names())
    assert lazy.eval(pp, values) == eager.eval(pp, values)
    assert lazy._lowered is not None


#: sha256 digests of the compiled terms of ``_compile_corpus``: the ``repr``
#: of every ``_terms`` list, and the exponent items of every factor in dict
#: order (the order ``materialize`` sums them).  Recorded when the Kahler
#: argument left the compile, from this corpus of plain-Kahler compiles, on
#: which the parent commit gave the same two digests.
COMPILED_TERMS_SHA256 = {
    "repr": "421194f84b64a79fb5dbc3e12c4b2a473c3217c2a6ddb4a39696a1d1d7591b52",
    "items": "cf99136dd204535afd81e0e7ec47580aebd0442b04c17eb435347d620f7934c6",
}

#: the same two digests over ``_pair_compile_corpus``, the compiles of the
#: R-matrix checks.  Recorded before the compile path was rewritten to skip
#: the spanning-tree enumeration of tree-shaped partitions and to build each
#: theta argument in one pass, so the rewrite is pinned to the old terms.
PAIR_COMPILED_TERMS_SHA256 = {
    "repr": "703e33c3234a128805921385bbba40022f9b71bbd1537967861d321322424bb5",
    "items": "7dfe1f3c59c045328d8bbb69eee9030dfba7db44b452921d386519e4f5f30a81",
}


def _compile_corpus():
    """Every fixed point of at most 4 boxes at w = (1,1,0) and (2,0,0), each
    variant."""
    for w in ((1, 1, 0), (2, 0, 0)):
        for total in range(5):
            for v in profiles(total, N):
                for fp in fixed_points(v, w, N):
                    for variant in ("plain", "hat", "tilde"):
                        yield EnvelopeSpec(fp, variant, False)


def _pair_groups(colors):
    """The framing groups ``ua``/``ub`` of one framing slot each, of the
    given colors."""
    return tuple(FramingGroup(tuple(int(i == c) for i in range(N)), prefix)
                 for c, prefix in zip(colors, ("ua", "ub")))


def _pair_compile_corpus():
    """Every basis element of the two chamber orders of framing groups
    ``ua``/``ub`` of colors (0,0) and (0,1), 1 to 4 boxes, each variant,
    both nomes."""
    for colors in ((0, 0), (0, 1)):
        g1, g2 = _pair_groups(colors)
        for total in range(1, 5):
            for v in profiles(total, N):
                for groups in ([g1, g2], [g2, g1]):
                    for fp in basis_fixed_points(v, groups, N):
                        for variant, star in itertools.product(
                                ("plain", "hat", "tilde"), (False, True)):
                            yield EnvelopeSpec(fp, variant, star)


def compiled_terms_digests(specs) -> tuple[dict[str, str], int]:
    """The ``repr`` and exponent-items sha256 digests of the compiled terms
    of ``specs``, and how many specs there were."""
    by_repr, by_items = hashlib.sha256(), hashlib.sha256()
    count = 0
    for spec in specs:
        terms = Envelope(spec)._terms
        by_repr.update(repr(terms).encode())
        by_items.update(repr([([list(m._exps.items()) for m in t.num],
                               [list(m._exps.items()) for m in t.den], t.sign)
                              for t in terms]).encode())
        count += 1
    return {"repr": by_repr.hexdigest(), "items": by_items.hexdigest()}, count


#: (sha256, monomials) of ``qp_unit_factors_digest`` over the hat and tilde
#: specs of ``_compile_corpus`` and then ``_pair_compile_corpus``: the
#: exponent items, in dict order, of every quasi-periodicity factor.
#: Recorded before the compile path was reworked, so the rework is pinned
#: to the factors the vertex series and its oracle materialize.
QP_UNIT_FACTORS_SHA256 = (
    "ed2e39a6348ec75495ceba0db90e279c33d51fe2666a6ed6cdc4cc72ed9b2d82", 2440)


def qp_unit_factors_digest(specs) -> tuple[str, int]:
    """(sha256 of the exponent items of every ``qp_unit_factors`` monomial
    of the hat and tilde ``specs``, in slot order and dict order, how many
    monomials there were)."""
    h = hashlib.sha256()
    count = 0
    for spec in specs:
        if spec.variant == "plain":
            continue
        for name, m in Envelope(spec).qp_unit_factors().items():
            h.update(f"{name} {list(m._exps.items())}\n".encode())
            count += 1
    return h.hexdigest(), count


def test_compiled_terms_match_recorded_digest():
    """The compile keeps every term's factors, their order and each factor's
    exponent order."""
    assert compiled_terms_digests(_compile_corpus()) == (COMPILED_TERMS_SHA256, 228)


def test_pair_compiled_terms_match_recorded_digest():
    """The same on the compiles of the R-matrix checks, at both nomes."""
    assert compiled_terms_digests(_pair_compile_corpus()) == \
        (PAIR_COMPILED_TERMS_SHA256, 888)


def test_qp_unit_factors_match_recorded_digest():
    """Every quasi-periodicity factor of both corpora keeps its exponents
    and their dict order."""
    specs = itertools.chain(_compile_corpus(), _pair_compile_corpus())
    assert qp_unit_factors_digest(specs) == QP_UNIT_FACTORS_SHA256


def test_compile_sort_keys_are_the_generic_repr():
    """Every theta argument of every compiled term of both corpora has the
    ``repr`` that ``Monomial.__repr__`` forms from its exponents, so a
    builder that hands an argument its sort key cannot reorder factors
    unnoticed.  A framing prefix that sorts before t2 takes the sorted
    ``repr`` in place of a handed one."""
    before_t2 = [EnvelopeSpec(fp, variant)
                 for total in range(1, 4) for v in profiles(total, N)
                 for fp in basis_fixed_points(v, [FramingGroup((1, 1, 0), "a")], N)
                 for variant in VARIANTS]
    for spec in itertools.chain(_compile_corpus(), _pair_compile_corpus(), before_t2):
        for term in Envelope(spec)._terms:
            for m in term.num + term.den:
                assert repr(m) == repr(Monomial._of(dict(m._exps))), (spec, m._exps)


def test_compile_takes_the_geometry_once(monkeypatch):
    """One compile enumerates the boxes, Chern slots, quiver pairs and index
    degrees of its fixed point once each."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FixedPoint, "boxes", counted("boxes", FixedPoint.boxes))
    for name in ("chern_slots", "box_slot_vars", "quiver_pairs", "index_degrees"):
        monkeypatch.setattr(envelopes, name, counted(name, getattr(envelopes, name)))
    fp = make_fixed_point([(2, 1), (1,)], FramingGroup((2, 0, 0)), N)
    Envelope(EnvelopeSpec(fp, "hat"))
    assert calls == dict.fromkeys(("boxes", "chern_slots", "box_slot_vars",
                                   "quiver_pairs", "index_degrees"), 1)


def _restrictions(w):
    """Every (lambda, mu) pair of a fixed-point basis of 1-3 boxes at
    framing ``w``, hat envelopes restricted at the unframed weights, the
    restriction of ``vertex_series``."""
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = fixed_points(v, w, N)
            for lam, mu in itertools.product(basis, basis):
                yield EnvelopeSpec(lam, "hat"), mu


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except SingularityError as exc:
        return f"SingularityError: {exc}"


@pytest.mark.parametrize("w", [(1, 1, 0), (2, 0, 0)])
def test_restrict_decides_a_theta_pole_before_lowering(w, monkeypatch):
    """A restriction whose first term has a zero theta in its denominator
    raises the message of the reference evaluation (every theta first,
    ``ReferenceSum``), takes no theta but those of first-term denominator
    arguments outside the annulus of ``theta_surely_nonzero``, keys no other
    argument and leaves the sum unlowered; some such poles take no theta at
    all.  Any other restriction gives the reference's bits and takes each
    theta at most once per distinct argument (by its ordered exponents)
    and, if it holds a Chern root, permutation of the roots (equal root
    values do not make two permutations one); one whose every term
    vanishes takes none."""
    pp = sample_param_point(1, N, framing_counts={"u": list(w)})
    calls = Counter()
    taken: list[tuple[Monomial, bool]] = []
    keyed: list[Monomial] = []
    term, float_items = Envelope._term, Monomial.float_items
    roots: set[str] = set()
    perm = [0]

    def counted(pp, m, star, z):
        held = not roots.isdisjoint(m._exps)
        calls[(tuple(m._exps.items()), perm[0] if held else None)] += 1
        taken.append((m, theta_surely_nonzero(z, abs(pp.nome(star)))))

    def term_at(self, pp, thetas, k):
        perm[0] = k
        return term(self, pp, thetas, k)

    def keys(self):
        keyed.append(self)
        return float_items(self)

    early = regular = unseen = 0
    for spec, mu in _restrictions(w):
        ref = Envelope(spec)
        ref._lowered = ReferenceSum(ref._terms, ref.x_names())
        want = _outcome(restrict, ref, mu, pp, framed=False)
        env = Envelope(spec)
        roots = set(env.x_names())
        calls.clear()
        taken.clear()
        keyed.clear()
        with monkeypatch.context() as patch:
            trace_thetas(patch, counted)
            patch.setattr(Envelope, "_term", term_at)
            patch.setattr(Monomial, "float_items", keys)
            got = _outcome(restrict, env, mu, pp, framed=False)
        assert repr(got) == repr(want)
        if env._lowered.terms is None:
            early += 1
            assert got.startswith("SingularityError: theta pole in denominator at ")
            first_den = set(env._terms[0].den)
            assert sum(calls.values()) <= len(first_den)
            assert all(m in first_den and not inside for m, inside in taken)
            assert all(m in first_den for m in keyed)
            unseen += not taken
        elif not isinstance(got, str):
            regular += 1
            # a restriction whose every term vanishes takes no theta
            assert all(c == 1 for c in calls.values()) and (calls or got == 0)
    assert early and regular and unseen


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("w", [(1, 1, 0), (2, 0, 0)])
def test_restrictions_match_the_reference_evaluation(w, seed, monkeypatch):
    """Every unframed restriction of a 1-3-box hat envelope gives the bits
    or the exception message of the reference evaluation."""
    pp = sample_param_point(seed, N, framing_counts={"u": list(w)})
    poles = 0
    for spec, mu in _restrictions(w):
        got = _outcome(restrict, Envelope(spec), mu, pp, framed=False)
        with monkeypatch.context() as patch:
            patch.setattr(envelopes, "LoweredSum", ReferenceSum)
            want = _outcome(restrict, Envelope(spec), mu, pp, framed=False)
        assert repr(got) == repr(want), (spec.fp.partitions(), mu.partitions())
        poles += isinstance(got, str)
    assert poles


@pytest.mark.parametrize("w", [(1, 1, 0), (2, 0, 0)])
def test_a_lowered_sum_decides_every_pole_from_values(w, monkeypatch):
    """Once lowered (by a first restriction at a generic assignment), a
    hat envelope restricted at every fixed point of its basis gives the
    bits or the message of the reference evaluation, materializes each
    theta argument at most once per evaluation, and takes no theta of a
    denominator argument in the annulus of ``theta_surely_nonzero`` on the
    way to a pole."""
    pp = sample_param_point(1, N, framing_counts={"u": list(w)})
    theta, materialize, lowered_eval = (ParamPoint.theta, ParamPoint.materialize,
                                        LoweredSum.eval)
    seen: list = []
    taken: list = []

    def counted_materialize(self, m):
        seen.append(id(m))
        return materialize(self, m)

    def counted_theta(self, z, star=False):
        taken.append(theta_surely_nonzero(z, abs(self.nome(star))))
        return theta(self, z, star)

    def checked(self, pp, star, thetas, perm=0):
        seen.clear()
        taken.clear()
        try:
            return lowered_eval(self, pp, star, thetas, perm)
        except SingularityError:
            assert not any(taken)
            raise
        finally:
            ids = {id(m) for m in self.args}
            assert max(Counter(i for i in seen if i in ids).values(), default=1) == 1

    poles = 0
    for spec, mu in _restrictions(w):
        ref = Envelope(spec)
        ref._lowered = ReferenceSum(ref._terms, ref.x_names())
        want = _outcome(restrict, ref, mu, pp, framed=False)
        env = Envelope(spec)
        env.eval(pp, random_assignment(np.random.default_rng(3), env.x_names()))
        with monkeypatch.context() as patch:
            patch.setattr(ParamPoint, "materialize", counted_materialize)
            patch.setattr(ParamPoint, "theta", counted_theta)
            patch.setattr(LoweredSum, "eval", checked)
            got = _outcome(restrict, env, mu, pp, framed=False)
        assert repr(got) == repr(want)
        poles += isinstance(got, str)
    assert poles


def _ulps_inside(r: float, toward: float, abs_q: float) -> float:
    """The first double from ``r`` toward ``toward``, at most 64 steps on,
    that as a value on the positive real axis lies in the annulus at
    ``abs_q``."""
    for _ in range(64):
        if theta_surely_nonzero(complex(r, 0.0), abs_q):
            return r
        r = math.nextafter(r, toward)
    raise AssertionError(f"no annulus within 64 ulps at |q| = {abs_q}")


@pytest.mark.parametrize("abs_q", [0.01, 0.12, 0.5, 0.8, 0.89])
def test_theta_zero_and_annulus_facts(abs_q):
    """The two facts the zero-first evaluation rests on: the theta of
    exactly 1.0 is 0, and the theta of a value in the annulus of
    ``theta_surely_nonzero`` is never 0: 1 +- 1 ulp, values within a few
    ulps of both edges, values with the real part 1 +- 1 ulp, and random
    values, at nomes of several phases.  A real part of exactly 1.0 is left
    out of the annulus: a subnormal imaginary part can round the theta to
    0."""
    rng = np.random.default_rng(7)
    m = ANNULUS_MODULUS
    lo, hi = abs_q / m, m / abs_q
    for phase in (0.0, 1.3, math.pi, 4.4):
        q = abs_q * cmath.exp(1j * phase)
        pp = ParamPoint(N, {"p": q, "t1": 0.99, "t2": 0.99})
        for one in (1.0, complex(1.0, -0.0)):
            assert theta_p(one, pp.p, pp.min_terms) == 0
        zs = [complex(math.nextafter(1.0, 2.0)), complex(math.nextafter(1.0, 0.0)),
              complex(math.nextafter(1.0, 0.0), 1e-300), complex(math.nextafter(1.0, 2.0), -5e-324)]
        for edge, toward in ((lo, math.inf), (hi, 0.0)):
            r = _ulps_inside(edge, toward, abs_q)
            for _ in range(3):
                zs += [r * cmath.exp(1j * a) for a in rng.uniform(0, 2 * math.pi, 4)]
                r = math.nextafter(r, toward)
        zs += [math.exp(rng.uniform(math.log(lo), math.log(hi))) * cmath.exp(1j * a)
               for a in rng.uniform(0, 2 * math.pi, 200)]
        for z in zs:
            if theta_surely_nonzero(z, abs_q):
                assert theta_p(z, pp.p, pp.min_terms) != 0, (q, z)
            else:
                # only values rounded onto an edge by the phase fall out
                assert not lo * 1.000001 < abs(z) < hi / 1.000001 or z.real == 1.0, (q, z)
        assert not theta_surely_nonzero(complex(1.0, 5e-324), abs_q)
    for big in (m, 0.95):
        assert not any(theta_surely_nonzero(z, big) for z in (1j, complex(math.nextafter(1.0, 0.0)), 1.05))


#: (sha256, lines) of ``_theta_path_lines``: the thetas of every restriction
#: matrix, shuffle check and S-product factorization, down to the last bit.
#: Recorded before the evaluations without a ``ThetaTable`` were routed
#: through one, so that change is pinned to the old values.
THETA_PATH_SHA256 = (
    "4b23417fa32d9ce1b8ce9839e701fdbfac37216222872c8fe6364e09f3169e4b", 678)


def _theta_path_lines():
    """One line per evaluation: the bytes of every ``restriction_matrix`` of
    both chamber orders of the groups of colors (0,0) and (0,1), 1-3 boxes,
    plain and starred at ``inverted_kahler``, at the points of seeds 1 and
    2; the ``repr`` of ``shuffle_residual`` of every split of at most two
    boxes a factor at the same colors, each variant and nome; and that of
    ``factorization_residual`` of every fixed point of at most 3 boxes at
    w = (1,0,0), both kernels.  An exception stands as its ``repr``."""
    def outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SingularityError as exc:
            return exc

    for colors in ((0, 0), (0, 1)):
        groups = _pair_groups(colors)
        for seed in (1, 2):
            pp = sample_param_point(seed, N, framing_counts={g.prefix: list(g.w)
                                                             for g in groups})
            for total in (1, 2, 3):
                for v in profiles(total, N):
                    for order in (groups, groups[::-1]):
                        basis = basis_fixed_points(v, list(order), N)
                        for star, kahler in ((False, None), (True, inverted_kahler(N))):
                            got = outcome(restriction_matrix, basis, pp, star, kahler)
                            head = f"{colors} {seed} {v} {order[0].prefix} {star}"
                            yield f"{head} {got.matrix.tobytes().hex()}" \
                                if isinstance(got, RestrictionMatrix) else f"{head} {got!r}"
            rng = np.random.default_rng(seed)
            for s1, s2 in itertools.product(range(3), repeat=2):
                for rows1, rows2 in itertools.product(partitions_of(s1), partitions_of(s2)):
                    if s1 + s2 == 0:
                        continue
                    fpa, fpb = (make_fixed_point([rows], g, N)
                                for rows, g in zip((rows1, rows2), groups))
                    for variant, star in itertools.product(VARIANTS, (False, True)):
                        got = outcome(shuffle_residual, fpa, fpb, pp, variant, star,
                                      n_assignments=2, rng=rng)
                        yield f"{colors} {seed} {rows1} {rows2} {variant} {star} {got!r}"
    w = (1, 0, 0)
    pp = sample_param_point(1, N, framing_counts={"u": list(w)})
    rng = np.random.default_rng(1)
    for total in range(4):
        for v in profiles(total, N):
            for fp in fixed_points(v, w, N):
                values = random_assignment(rng, list(box_slot_vars(fp).values()))
                for which in ("I", "II"):
                    got = outcome(factorization_residual, fp, pp, which, values)
                    yield f"{fp.slots} {which} {got!r}"


def theta_path_digest() -> tuple[str, int]:
    """(sha256 of ``_theta_path_lines``, how many lines)."""
    h = hashlib.sha256()
    count = 0
    for line in _theta_path_lines():
        h.update(line.encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def test_theta_paths_match_recorded_digest():
    """Restriction matrices, shuffle checks and the S-product factorization
    keep every bit of their thetas."""
    assert theta_path_digest() == THETA_PATH_SHA256


if __name__ == "__main__":
    # Re-derive the recorded digests: PYTHONPATH=src python tests/test_envelopes.py
    for name, corpus in (("COMPILED_TERMS_SHA256", _compile_corpus),
                         ("PAIR_COMPILED_TERMS_SHA256", _pair_compile_corpus)):
        digests, count = compiled_terms_digests(corpus())
        print(f"{name} ({count} compiles): {digests}")
    both = itertools.chain(_compile_corpus(), _pair_compile_corpus())
    print(f"QP_UNIT_FACTORS_SHA256: {qp_unit_factors_digest(both)}")
    print(f"THETA_PATH_SHA256: {theta_path_digest()}")
