"""Stable envelopes: closed forms, factorization, restriction, shuffle."""

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ellstab.core import (HBAR, BudgetError, GradedValue, Monomial,
                         ParamPoint, SingularityError)
from ellstab import envelopes
from ellstab.envelopes import (SYM_BUDGET, Envelope, EnvelopeSpec, LoweredSum,
                               ThetaProduct, _cross_prefactor,
                               concat_fixed_points, factorization_residual,
                               restrict, restriction_values, s_factor_product,
                               shuffle_residual, tree_weights, default_kahler)
from ellstab.partitions import (FixedPoint, FramingGroup, box_slot_vars,
                                chern_slots, fixed_points, index_degrees,
                                make_fixed_point, partitions_upto)
from ellstab.rmatrix import basis_fixed_points, profiles
from ellstab.sampling import random_assignment, sample_param_point

N = 3
PP = sample_param_point(11, N, framing_counts={"u": [1, 0, 0]})
RNG = np.random.default_rng(5)


def test_empty_envelope_is_one():
    fp = make_fixed_point([()], (1, 0, 0), N)
    env = Envelope(EnvelopeSpec(fp, "plain"))
    assert env.eval(PP, {}) == 1.0


def test_single_box_closed_form():
    fp = make_fixed_point([(1,)], (1, 0, 0), N)
    d = list(index_degrees(fp).values())[0]
    env = Envelope(EnvelopeSpec(fp, "plain"))
    vals = random_assignment(RNG, env.x_names())
    got = env.eval(PP, vals)
    ppx = PP.extended(vals)
    x, u, z0 = Monomial.var("x0_1"), Monomial.var("u0_1"), Monomial.var("z0")
    want = (ppx.theta(x / u * z0 * HBAR ** d) * ppx.theta(HBAR)
            / ppx.theta(z0 * HBAR ** d)).materialize(ppx)
    assert abs(got - want) < 1e-12 * abs(want)


def test_row_of_two_tree_weight_hand_expansion():
    fp = make_fixed_point([(2,)], (1, 0, 0), N)
    d = {(b.x, b.y): v for b, v in index_degrees(fp).items()}
    weights = tree_weights(fp, default_kahler(N))
    assert len(weights) == 1
    tw = weights[0]
    assert tw.kappa == 0
    env = Envelope(EnvelopeSpec(fp, "plain"))
    vals = random_assignment(RNG, env.x_names())
    ppx = PP.extended(vals)
    got = 1.0 + 0.0j
    for xm, ym in tw.phi_args:
        got *= ppx.phi(xm, ym).materialize(ppx)
    x1, x2, u = (Monomial.var("x0_1"), Monomial.var(f"x{N-1}_1"),
                 Monomial.var("u0_1"))
    z0, zl = Monomial.var("z0"), Monomial.var(f"z{N-1}")
    t1 = Monomial.var("t1")
    root_arg = z0 * zl * HBAR ** (d[(1, 1)] + d[(1, 2)])
    edge_arg = zl * HBAR ** d[(1, 2)]
    want = (ppx.phi(x1 / u, root_arg)
            * ppx.phi(t1 * x2 / x1, edge_arg)).materialize(ppx)
    assert abs(got - want) < 1e-12 * abs(want)


def test_symmetry_under_transposition():
    fp = make_fixed_point([(4,)], (1, 0, 0), N)  # two color-0 Chern roots
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
        fp = make_fixed_point([rows], (1, 0, 0), N)
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
            fp = make_fixed_point(rows, w, N)
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
    multisets of theta arguments, with the signs adding.  Four boxes in the
    first slot give it a same-residue (gauge) pair of its own at N = 3."""
    for n in (3, 4):
        wa = tuple(int(i == 0) for i in range(n))
        for ra, rb, color in itertools.product(partitions_upto(4),
                                               partitions_upto(3), range(n)):
            wb = tuple(int(i == color) for i in range(n))
            fpa = make_fixed_point([ra], wa, n, prefix="ua")
            fpb = make_fixed_point([rb], wb, n, prefix="ub")
            big = concat_fixed_points(fpa, fpb)
            xa, xb, xbig = box_slot_vars(fpa), box_slot_vars(fpb), box_slot_vars(big)
            own = ([f"A_{xa[b]}" for b in fpa.boxes()]
                   + [f"B_{xb[b]}" for b in fpb.boxes()])
            to_big = {xbig[c]: name for c, name in zip(big.boxes(), own)}
            to_a = {v: f"A_{v}" for v in xa.values()}
            to_b = {v: f"B_{v}" for v in xb.values()}
            for variant in ("plain", "hat", "tilde"):
                whole = s_factor_product(big, variant)
                sa = s_factor_product(fpa, variant)
                sb = s_factor_product(fpb, variant)
                cross = _cross_prefactor(fpa, fpb, variant)
                num_a, den_a = _arguments(sa, to_a)
                num_b, den_b = _arguments(sb, to_b)
                num_c, den_c = _arguments(cross, {})
                case = (n, ra, rb, color, variant)
                assert _arguments(whole, to_big) == (num_a + num_b + num_c,
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
        fp = make_fixed_point([rows], (1, 0, 0), N)
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
    fp = make_fixed_point([(1,), (1,)], (2, 0, 0), N)
    env = Envelope(EnvelopeSpec(fp, "plain"))
    val = restrict(env, fp, pp, framed=True)
    assert abs(val) > 1e-8
    values, _ = restriction_values(fp, pp, framed=True)
    assert abs(values["x0_1"] - values["x0_2"]) > 1e-6


def test_shuffle_trivial_second_factor():
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [1, 0, 0]})
    fpa = make_fixed_point([(2, 2)], (1, 0, 0), N, prefix="ua")
    fpb = make_fixed_point([()], (1, 0, 0), N, prefix="ub")
    r = shuffle_residual(fpa, fpb, pp, "hat", n_assignments=2,
                         rng=np.random.default_rng(3))
    assert r < 1e-10


def test_shuffle_one_box_each_all_variants():
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [1, 0, 0]})
    fpa = make_fixed_point([(1,)], (1, 0, 0), N, prefix="ua")
    fpb = make_fixed_point([(1,)], (1, 0, 0), N, prefix="ub")
    for variant in ("plain", "hat", "tilde"):
        r = shuffle_residual(fpa, fpb, pp, variant, n_assignments=3,
                             rng=np.random.default_rng(4))
        assert r < 1e-8, variant


def test_shuffle_at_shifted_nome():
    pp = sample_param_point(13, N, framing_counts={"ua": [1, 0, 0],
                                                   "ub": [0, 1, 0]})
    fpa = make_fixed_point([(2, 1)], (1, 0, 0), N, prefix="ua")
    fpb = make_fixed_point([(1,)], (0, 1, 0), N, prefix="ub")
    r = shuffle_residual(fpa, fpb, pp, "tilde", star=True, n_assignments=2,
                         rng=np.random.default_rng(5))
    assert r < 1e-8


def test_symmetrization_budget_guard(monkeypatch):
    """Three slots of at most 5 boxes, 5! 5! 3! = 86400 permutations: the
    envelope fails on its budget before it enumerates a tree."""
    fp = make_fixed_point([(3, 2), (3, 2), (2, 1)], (3, 0, 0), N)
    assert max(lam.size for _, lam in fp.slots) <= 14

    def forbidden(*args):
        raise AssertionError("tree weights built past the symmetrization budget")

    monkeypatch.setattr(envelopes, "tree_weights", forbidden)
    with pytest.raises(BudgetError, match="86400 permutations"):
        Envelope(EnvelopeSpec(fp, "hat"))
    assert SYM_BUDGET < 86400


def test_restriction_requires_same_class():
    fp1 = make_fixed_point([(1,)], (1, 0, 0), N)
    fp2 = make_fixed_point([(2,)], (1, 0, 0), N)
    env = Envelope(EnvelopeSpec(fp1, "plain"))
    with pytest.raises(ValueError):
        restrict(env, fp2, PP)


def _graded_product(prod, pp, star):
    """A theta product multiplied out factor by factor as graded values, the
    formula the lowered evaluation replaces."""
    gv = GradedValue(Monomial.one(), (-1.0) ** (prod.sign % 2))
    for m in prod.num:
        gv = gv * pp.theta(m, star)
    for m in prod.den:
        gv = gv / pp.theta(m, star)
    return gv.materialize(pp)


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
    fp = make_fixed_point([(1,), (1,)], (2, 0, 0), N)
    pp = sample_param_point(14, N, framing_counts={"u": [2, 0, 0]})
    env = Envelope(EnvelopeSpec(fp, "plain"))
    x = 0.8 + 0.3j
    with pytest.raises(SingularityError):
        env.eval(pp, {"x0_1": x, "x0_2": x})
    with pytest.raises(SingularityError):
        ThetaProduct([], [Monomial.var("w")]).eval(PP.extended({"w": 1.0}), False)


def test_eval_does_no_monomial_arithmetic(monkeypatch):
    fp = make_fixed_point([(2, 1), (1,)], (1, 1, 0), N)
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
    fp = make_fixed_point([(2, 1)], (1, 0, 0), N)
    with pytest.raises(ValueError, match="retains Chern roots"):
        Envelope(EnvelopeSpec(fp, "plain")).qp_unit_factors()


def test_envelope_lowers_at_its_first_evaluation():
    fp = make_fixed_point([(2, 1), (1,)], (1, 1, 0), N)
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


def _pair_compile_corpus():
    """Every basis element of the two chamber orders of framing groups
    ``ua``/``ub`` of colors (0,0) and (0,1), 1 to 4 boxes, each variant,
    both nomes."""
    for colors in ((0, 0), (0, 1)):
        g1, g2 = (FramingGroup(tuple(int(i == c) for i in range(N)), prefix)
                  for c, prefix in zip(colors, ("ua", "ub")))
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


def test_compiled_terms_match_recorded_digest():
    """The compile keeps every term's factors, their order and each factor's
    exponent order."""
    assert compiled_terms_digests(_compile_corpus()) == (COMPILED_TERMS_SHA256, 228)


def test_pair_compiled_terms_match_recorded_digest():
    """The same on the compiles of the R-matrix checks, at both nomes."""
    assert compiled_terms_digests(_pair_compile_corpus()) == \
        (PAIR_COMPILED_TERMS_SHA256, 888)


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
    fp = make_fixed_point([(2, 1), (1,)], (2, 0, 0), N)
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
    raises the message of the evaluation without the early check and leaves
    the envelope unlowered; any other gives that evaluation's bits and takes
    each theta of each permutation once."""
    pp = sample_param_point(1, N, framing_counts={"u": list(w)})
    calls = Counter()
    theta = ParamPoint.theta

    def counted(self, m, star=False):
        calls[0] += 1
        return theta(self, m, star)

    early = regular = 0
    for spec, mu in _restrictions(w):
        ref = Envelope(spec)
        # lowered in advance, the evaluation makes no early check
        ref._lowered = LoweredSum(ref._terms, ref.x_names())
        want = _outcome(restrict, ref, mu, pp, framed=False)
        env = Envelope(spec)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ParamPoint, "theta", counted)
            got = _outcome(restrict, env, mu, pp, framed=False)
        assert got == want
        if env._lowered is None:
            early += 1
            assert got.startswith("SingularityError: theta pole in denominator at ")
            assert calls[0] <= len(env._terms[0].den)
        elif not isinstance(got, str):
            regular += 1
            perms = math.prod(map(math.factorial, map(len, env.nvars.values())))
            assert calls[0] == perms * len(env._lowered.args)
    assert early and regular


if __name__ == "__main__":
    # Re-derive the recorded digests: PYTHONPATH=src python tests/test_envelopes.py
    for name, corpus in (("COMPILED_TERMS_SHA256", _compile_corpus),
                         ("PAIR_COMPILED_TERMS_SHA256", _pair_compile_corpus)):
        digests, count = compiled_terms_digests(corpus())
        print(f"{name} ({count} compiles): {digests}")
