"""Vertex series, Jackson oracle, normalization and Bethe equations."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from ellstab import vertex
from ellstab.core import (HBAR, P, SQRT_HBAR, Monomial, ParamPoint,
                          SingularityError)
from ellstab.envelopes import Envelope, EnvelopeSpec, compiled, restrict
from ellstab.partitions import FramingGroup, fixed_points, make_fixed_point
from ellstab.rmatrix import basis_fixed_points, profiles
from ellstab.sampling import sample_param_point
from ellstab.scalars import mu_vacuum_ope
from ellstab.vertex import (TRIAL_MARGIN, BetheSystem,
                            _degree_vectors, _factor_bases, bethe_residuals,
                            bethe_solve, jackson_term_ratio,
                            normalization_factor, qpoch_fin_mono, vertex_series)
from qseries_oracles import qpoch_mono

N = 3
W = (1, 0, 0)
PP = sample_param_point(41, N, framing_counts={"u": list(W)})


def test_degree_vectors_cover_the_simplex():
    vecs = list(_degree_vectors(3, 2))
    assert len(vecs) == len(set(vecs)) == 10
    assert all(sum(v) <= 2 for v in vecs)
    assert list(_degree_vectors(0, 3)) == [()]


def _direct_qpoch(z, length, skip=None):
    """(z; p)_length as a plain product, leaving out factor ``skip``;
    ``length=None`` is a 200-factor truncation of the infinite product."""
    p = PP.p
    if length is not None and length < 0:
        return 1.0 / _direct_qpoch(z * p ** length, -length)
    return np.prod([1.0 - z * p ** n
                    for n in range(200 if length is None else length)
                    if n != skip])


def test_qpoch_mono_generic_base_is_the_direct_product():
    base = Monomial.var("t1") * Monomial.var("u0_1") ** -1
    z = PP.materialize(base)
    for offset in (0, 2):
        for length in (-3, -2, -1, 0, 1, 2, 3, None):
            val, zeros = qpoch_mono(base, length, PP, offset)
            want = _direct_qpoch(z * PP.p ** offset, length)
            assert zeros == 0
            assert abs(val - want) < 1e-14 * abs(want)


def test_qpoch_mono_counts_and_skips_the_vanishing_factor():
    base = Monomial.var("p", -2)  # factor n = 2 is 1 - p^0
    for length, zeros in ((0, 0), (2, 0), (3, 1), (5, 1), (None, 1)):
        val, got = qpoch_mono(base, length, PP)
        want = _direct_qpoch(PP.p ** -2, length, skip=2)
        assert got == zeros
        assert abs(val - want) < 1e-14 * abs(want)
    # the reciprocal product counts the vanishing factor with sign -1
    val, got = qpoch_mono(base, -2, PP, offset=4)
    assert got == -1
    assert abs(val - 1 / (1 - PP.p)) < 1e-15
    assert qpoch_mono(base, None, PP, offset=3)[1] == 0


def test_qpoch_mono_cocycle():
    """(b; p)_(m+n) = (b; p)_m (b p^m; p)_n for all integers m, n."""
    for base in (Monomial.var("t2") * Monomial.var("z1"), Monomial.var("p", -2)):
        for m in range(-3, 4):
            for n in range(-3, 4):
                v_mn, z_mn = qpoch_mono(base, m + n, PP)
                v_m, z_m = qpoch_mono(base, m, PP)
                v_n, z_n = qpoch_mono(base, n, PP, offset=m)
                assert z_mn == z_m + z_n
                assert abs(v_mn - v_m * v_n) < 1e-13 * abs(v_mn)


def _fresh_point():
    return ParamPoint(PP.n_colors, PP.values, PP.logs, min_terms=PP.min_terms)


def test_qpoch_mono_memo_repeats_bitwise():
    """Infinite products go through the point's one value memo."""
    pp = _fresh_point()
    assert pp._qpoch_memo == {}
    base = Monomial.var("t1") * Monomial.var("u0_1") ** -1
    for offset in (0, 2):
        first = qpoch_mono(base, None, pp, offset)
        size = len(pp._qpoch_memo)
        assert qpoch_mono(base, None, pp, offset) == first
        assert len(pp._qpoch_memo) == size
    assert len(pp._qpoch_memo) == 2
    # finite products are not memoised
    qpoch_mono(base, 3, pp)
    assert len(pp._qpoch_memo) == 2


def test_qpoch_mono_memo_is_shared_with_extensions_only():
    pp = _fresh_point()
    ext = pp.extended({"w": 0.3 + 0.4j})
    assert ext._qpoch_memo is pp._qpoch_memo
    first = qpoch_mono(Monomial.var("w"), None, ext)
    assert len(pp._qpoch_memo) == 1
    assert _fresh_point()._qpoch_memo == {}
    assert qpoch_mono(Monomial.var("w"), None, ext.extended({"y": 2.0})) == first


def test_qpoch_mono_memo_hit_counts_the_structural_zero():
    pp = _fresh_point()
    base = Monomial.var("p", -2)  # factor n = 2 is 1 - p^0
    first = qpoch_mono(base, None, pp)
    assert first[1] == 1
    # past the vanishing factor the product is (p; p)_inf, from the memo
    assert list(pp._qpoch_memo) == [(pp.p, pp.p)]
    assert qpoch_mono(base, None, pp) == first
    assert len(pp._qpoch_memo) == 1
    # the same base past its zero (offset 3) is another product with no zero
    assert qpoch_mono(base, None, pp, offset=3)[1] == 0
    assert qpoch_mono(base, None, pp)[1] == 1


def test_normalization_of_empty_cycle_is_vacuum_scalar():
    fp = make_fixed_point([()], FramingGroup(W), N)
    val = normalization_factor(fp, PP)
    assert abs(val - mu_vacuum_ope(W, PP)) < 1e-12 * abs(val)


def test_normalization_single_box_hand_expansion():
    from ellstab.core import qpoch_inf
    fp = make_fixed_point([(1,)], FramingGroup(W), N)
    val = normalization_factor(fp, PP)
    p, h = PP.p, PP.hbar
    u = PP.values["u0_1"]
    phi = 1.0  # unframed weight of the (1,1) box
    want = mu_vacuum_ope(W, PP) * phi \
        * qpoch_inf(p * u / phi, p) / qpoch_inf(h * u / phi, p)
    assert abs(val - want) < 1e-12 * abs(want)


def test_normalization_reads_the_framing_prefix_of_the_slots():
    """One group's prefix, whatever it is, names the framing weights of the
    vacuum scalar; slots of two groups have no one prefix."""
    ppa = sample_param_point(41, N, framing_counts={"ua": list(W)})
    assert normalization_factor(make_fixed_point([(2, 1)], FramingGroup(W, "ua"), N), ppa) \
        == normalization_factor(make_fixed_point([(2, 1)], FramingGroup(W), N), PP)
    groups = [FramingGroup(W, "ua"), FramingGroup(W, "ub")]
    pp = sample_param_point(41, N, framing_counts={g.prefix: list(W)
                                                   for g in groups})
    for fp in basis_fixed_points((1, 0, 0), groups, N):
        with pytest.raises(ValueError, match="one framing name prefix"):
            normalization_factor(fp, pp)


def test_normalization_depends_only_on_cycle():
    fp = make_fixed_point([(2, 1)], FramingGroup(W), N)
    v1 = normalization_factor(fp, PP)
    v2 = normalization_factor(fp, PP)
    assert v1 == v2


def test_normalization_drops_vanishing_factors_without_balancing():
    """At w=(1,0,0), seed 1, the fixed points (1,1) and (2,1) each have one
    structurally vanishing arrow denominator and no vanishing numerator:
    ``normalization_factor`` drops it alone, with nothing on the other
    side to pair it with."""
    pp = sample_param_point(1, N, framing_counts={"u": list(W)})
    for rows in ((1, 1), (2, 1)):
        mu = make_fixed_point([rows], FramingGroup(W), N)
        table = vertex.vertex_table(mu, pp)
        # (numerator, denominator) zero counts of each factor kind, the
        # kind by the prefactor exponents (ka, kb) of its rows
        kinds = {(1, 0): "framing", (-1, 0): "arrow", (1, 1): "gauge"}
        dropped = {kind: tuple(sum(vertex.qpoch_low(row[side], None, pp)[1]
                                   for row in table.factors
                                   if kinds[row[2], row[3]] == kind)
                               for side in (-3, -2))
                   for kind in kinds.values()}
        assert dropped == {"framing": (0, 0), "arrow": (0, 1),
                           "gauge": (0, 0)}, rows
        value = normalization_factor(mu, pp)
        assert value != 0 and np.isfinite(value), rows


def test_degree_zero_law_and_oracle():
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = fixed_points(v, W, N)
            for lam in basis:
                for mu in basis:
                    try:
                        series = vertex_series(lam, mu, 3, PP)
                    except SingularityError:
                        continue
                    d0 = tuple([0] * total)
                    assert series.coefficients[d0] == series.envelope_at_mu
                    scale = max(abs(c) for c in series.coefficients.values())
                    for d, c in series.coefficients.items():
                        oracle = jackson_term_ratio(mu, d, PP, series.qp_factors) \
                            * series.envelope_at_mu
                        assert abs(c - oracle) <= 1e-8 * max(abs(c), abs(oracle),
                                                             1e-10 * scale)


@pytest.mark.parametrize("w", [(1, 0, 0), (1, 1, 0), (2, 0, 0)])
def test_quasi_periodicity_factor_is_z_inverse_times_an_hbar_power(w):
    """Every slot's multiplier times its z_k is hbar^e for an integer e, so
    the vertex prefactor's Kahler part is exactly z_k."""
    for total in range(1, 4):
        for v in profiles(total, N):
            for lam in fixed_points(v, w, N):
                qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
                for name, factor in qp.items():
                    k = int(name[1:name.index("_")])
                    e = factor.get("t1")
                    assert type(e) is int
                    assert factor * Monomial.var(f"z{k}") == HBAR ** e, \
                        (lam.partitions(), name, factor)


def test_off_diagonal_divergent_pairs_raise():
    basis = fixed_points((1, 1, 1), W, N)
    lam = next(b for b in basis if b.partitions() == ((2, 1),))
    mu = next(b for b in basis if b.partitions() == ((3,),))
    with pytest.raises(SingularityError):
        vertex_series(lam, mu, 2, PP)


def test_bethe_one_variable_closed_form():
    z0 = PP.values["z0"]
    u = PP.values["u0_1"]
    h = PP.hbar
    x = u * (1 - h * z0) / (1 - z0)
    res = bethe_residuals({0: [x], 1: [], 2: []}, PP, W)
    assert np.max(np.abs(res)) < 1e-12


def test_bethe_rejects_roots_of_unknown_colors_and_vectors_of_the_wrong_length():
    """Roots of a color outside 0..N-1 are not dropped, and a framing or
    profile of the wrong length is not read as another: each raises, in
    ``bethe_solve`` too."""
    x = PP.values["u0_1"]
    with pytest.raises(ValueError, match=r"colors \[5\] outside 0..2"):
        bethe_residuals({0: [x], 5: [2.0]}, PP, W)
    with pytest.raises(ValueError, match="framing"):
        bethe_residuals({0: [x]}, PP, (1, 0))
    with pytest.raises(ValueError, match="framing"):
        BetheSystem((1, 0, 0), (1, 0, 0, 0), PP)
    with pytest.raises(ValueError, match="profile"):
        BetheSystem((1, 0, 0, 1), W, PP)
    with pytest.raises(ValueError, match="framing"):
        bethe_solve((1, 0, 0), (1, 0), PP)


def test_bethe_trivial_profile():
    sol = bethe_solve((0, 0, 0), W, PP)
    assert sol.converged and sol.residual == 0.0


def test_bethe_newton_converges_and_matches_closed_form():
    sol = bethe_solve((1, 0, 0), W, PP, seed=5)
    assert sol.converged and sol.residual < 1e-10
    z0, u, h = PP.values["z0"], PP.values["u0_1"], PP.hbar
    x = u * (1 - h * z0) / (1 - z0)
    assert abs(sol.roots[0][0] - x) < 1e-8 * abs(x)
    sol = bethe_solve((1, 1, 1), W, PP, seed=5)
    assert sol.converged and sol.residual < 1e-10


def test_negative_degree_cap_is_rejected():
    fp = make_fixed_point([(1,)], FramingGroup(W), N)
    with pytest.raises(ValueError, match="degree cap -1"):
        vertex_series(fp, fp, -1, PP)


# ---------------------------------------------------------------------------
# Monomial-path references: every base built and lowered at each use
# ---------------------------------------------------------------------------

def _reference_series(lam, mu, degree_cap, pp):
    """The series with each factor's Pochhammer taken of its monomial."""
    n = mu.n_colors
    env = Envelope(EnvelopeSpec(lam, "hat"))
    stab0 = restrict(env, mu, pp, framed=False)
    boxes, framing, arrow, gauge = _factor_bases(mu)
    v, w = mu.v, mu.w
    p, h = pp.p, pp.hbar
    qp = env.qp_unit_factors()
    pref = []
    for box, _, name in boxes:
        k = box.content % n
        base = h ** w[k] * p ** (2 - 2 * v[k] + v[(k + 1) % n] - 2 * w[k])
        pref.append(base / pp.materialize(qp[name]))
    pinv_h = P / HBAR
    ratios = ([(base, pinv_h * base, ia, None) for ia, base in framing]
              + [(base, pinv_h * base, ib, ia) for ia, ib, base in arrow]
              + [(P * base, HBAR * base, ia, ib) for ia, ib, base in gauge])
    coeffs = {}
    for d in _degree_vectors(len(boxes), degree_cap):
        term, zeros = 1.0 + 0.0j, 0
        for da, pr in zip(d, pref):
            term *= pr ** (-da)
        for num, den, i, j in ratios:
            s = d[i] if j is None else d[i] - d[j]
            vn, zn = qpoch_mono(num, s, pp)
            vd, zd = qpoch_mono(den, s, pp)
            term *= vn / vd
            zeros += zn - zd
        if zeros < 0:
            raise SingularityError("structural pole")
        coeffs[d] = 0.0 + 0.0j if zeros > 0 else term * stab0
    return stab0, coeffs


def _reference_term_ratio(mu, degrees, pp, qp):
    """The Jackson oracle with each infinite product taken of its monomial."""
    boxes, framing, arrow, gauge = _factor_bases(mu)
    p = pp.p
    pinv_h = P / HBAR
    out = [1.0 + 0.0j, 0]

    def times(base, offset):
        v, z = qpoch_mono(base, None, pp, offset)
        out[0] *= v
        out[1] += z

    def divide(base, offset):
        v, z = qpoch_mono(base, None, pp, offset)
        out[0] /= v
        out[1] -= z

    def ratio(c, a, b, s):
        out[0] *= c
        times(a, s)
        divide(a, 0)
        divide(b, s)
        times(b, 0)

    for (_, _, name), da in zip(boxes, degrees):
        out[0] *= pp.materialize(qp[name]) ** da
    for ia, base in framing:
        ratio(p ** degrees[ia], P / base, HBAR / base, -degrees[ia])
    for ia, ib, base in arrow:
        ratio(p ** (-degrees[ia]), pinv_h * base, base, degrees[ib] - degrees[ia])
    for ia, ib, base in gauge:
        ratio(p ** (degrees[ia] + degrees[ib]), HBAR * base, P * base,
              degrees[ia] - degrees[ib])
    if out[1] < 0:
        raise SingularityError("structural pole")
    return 0.0 + 0.0j if out[1] > 0 else out[0]


def _reference_normalization(mu, pp):
    out = mu_vacuum_ope(mu.w, pp)
    boxes, framing, arrow, gauge = _factor_bases(mu)
    sqh = pp.materialize(SQRT_HBAR)
    pinv_h = P / HBAR

    def ratio(num, den):
        return qpoch_mono(num, None, pp)[0] / qpoch_mono(den, None, pp)[0]

    for ia, base in framing:
        out *= pp.materialize(boxes[ia][1])
        out *= ratio(P / base, HBAR / base)
    for ia, ib, base in arrow:
        out /= pp.materialize(boxes[ia][1])
        out *= ratio(pinv_h * base, base)
    for ia, ib, base in gauge:
        out *= pp.materialize(boxes[ia][1] * boxes[ib][1]) / sqh
        out *= ratio(HBAR * base, P * base)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularityError:
        return "SingularityError"


@pytest.mark.parametrize("w", [(1, 1, 0), (2, 0, 0), (1, 0, 0)])
def test_table_path_is_bitwise_the_monomial_path(w):
    """Series, oracle and normalization read the lowered bases of one table
    per fixed point and give the bits of the path that lowers each monomial
    where it is used.  At w = (1,0,0), the framing of criterion 8, most
    off-diagonal pairs have a structural pole: 8 pairs have a series."""
    pp = sample_param_point(23, N, framing_counts={"u": list(w)})
    pairs = 0
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = fixed_points(v, w, N)
            for mu in basis:
                assert normalization_factor(mu, pp) == _reference_normalization(mu, pp)
                for lam in basis:
                    got = _outcome(vertex_series, lam, mu, 3, pp)
                    want = _outcome(_reference_series, lam, mu, 3, pp)
                    if want == "SingularityError":
                        assert got == want
                        continue
                    pairs += 1
                    assert (got.envelope_at_mu, got.coefficients) == want
                    qp = got.qp_factors
                    for d in got.coefficients:
                        assert (_outcome(jackson_term_ratio, mu, d, pp, qp)
                                == _outcome(_reference_term_ratio, mu, d, pp, qp))
    assert pairs > (5 if w == (1, 0, 0) else 10)


def _per_factor_series(lam, mu, degree_cap, pp):
    """``vertex_series`` reading its products from the table factor by
    factor: two ``VertexTable.qpoch`` reads per series factor and degree
    vector, and each quasi-period multiplier materialized where it is
    used."""
    n = mu.n_colors
    env = compiled(EnvelopeSpec(lam, "hat"), pp)
    stab0 = restrict(env, mu, pp, framed=False)
    table = vertex.vertex_table(mu, pp)
    v, w = mu.v, mu.w
    p, h = pp.p, pp.hbar
    qp = env.qp_unit_factors()
    pref = []
    for box, _, name in table.boxes:
        k = box.content % n
        base = h ** w[k] * p ** (2 - 2 * v[k] + v[(k + 1) % n] - 2 * w[k])
        pref.append(base / pp.materialize(qp[name]))
    coeffs = {}
    for d in _degree_vectors(len(table.boxes), degree_cap):
        term, zeros = 1.0 + 0.0j, 0
        for da, pr in zip(d, pref):
            term *= pr ** (-da)
        for num, den, i, j, _ in table.series:
            s = d[i] if j is None else d[i] - d[j]
            vn, zn = table.qpoch(num, s, pp)
            vd, zd = table.qpoch(den, s, pp)
            term *= vn / vd
            zeros += zn - zd
        coeffs[d] = vertex._net(term * stab0, zeros,
                                "vertex coefficient has a structural pole")
    return stab0, coeffs, qp


def _per_factor_term_ratio(mu, degrees, pp, qp):
    """``jackson_term_ratio`` reading its four infinite products per factor
    from ``VertexTable.qpoch``."""
    table = vertex.vertex_table(mu, pp)
    p = pp.p
    value, zeros = 1.0 + 0.0j, 0

    def step(a, b, s):
        v1, z1 = table.qpoch(a, None, pp, s)
        v2, z2 = table.qpoch(a, None, pp)
        v3, z3 = table.qpoch(b, None, pp, s)
        v4, z4 = table.qpoch(b, None, pp)
        return value * v1 / v2 / v3 * v4, z1 - z2 - z3 + z4

    for (_, _, name), da in zip(table.boxes, degrees):
        value *= pp.materialize(qp[name]) ** da
    for ia, ib, ka, kb, sa, sb, a, b, _ in table.factors:
        value *= p ** (ka * degrees[ia] + kb * degrees[ib])
        value, z = step(a, b, sa * degrees[ia] + sb * degrees[ib])
        zeros += z
    return vertex._net(value, zeros, "net structural pole in a Pochhammer ratio")


def _hex(outcome):
    """A complex value by the ``float.hex`` of its parts, any other outcome
    by its ``repr``."""
    if isinstance(outcome, complex):
        return outcome.real.hex(), outcome.imag.hex()
    return repr(outcome)


def _row_and_factor_paths(w, seed, path, monkeypatch):
    """Per (lambda, mu) pair of the 1-3-box profiles at framing ``w`` and
    the point of ``seed``: the series' restriction and coefficients and the
    oracle at every degree vector of cap 3, by ``_hex``, through the
    library (``path`` "rows") or the per-factor reference; and per fixed
    point the ``qpoch_fin_mono`` calls of its table."""
    pp = sample_param_point(seed, N, framing_counts={"u": list(w)})
    taken = Counter()

    def counted(base, s, pp):
        taken[tables[id(pp)]] += 1
        return qpoch_fin_mono(base, s, pp)

    tables: dict = {}
    lines = []
    with monkeypatch.context() as patch:
        patch.setattr(vertex, "qpoch_fin_mono", counted)
        for total in (1, 2, 3):
            for v in profiles(total, N):
                basis = fixed_points(v, w, N)
                for mu in basis:
                    for lam in basis:
                        # one fresh point per pair: a table and its count per mu
                        fresh = ParamPoint(N, pp.values, pp.logs, pp.tol, pp.min_terms, seed)
                        tables[id(fresh)] = (v, mu)
                        try:
                            if path == "rows":
                                got = vertex_series(lam, mu, 3, fresh)
                                stab0, coeffs, qp = (got.envelope_at_mu, got.coefficients,
                                                     got.qp_factors)
                            else:
                                stab0, coeffs, qp = _per_factor_series(lam, mu, 3, fresh)
                        except SingularityError as exc:
                            lines.append(repr(exc))
                            continue
                        lines.append((_hex(stab0), [(d, _hex(c)) for d, c in coeffs.items()]))
                        oracle = jackson_term_ratio if path == "rows" else _per_factor_term_ratio
                        for d in coeffs:
                            try:
                                lines.append(_hex(oracle(mu, d, fresh, qp)))
                            except SingularityError as exc:
                                lines.append(repr(exc))
    return lines, taken


@pytest.mark.parametrize("w", [(1, 1, 0), (2, 0, 0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_are_bitwise_the_per_factor_table_reads(w, seed, monkeypatch):
    """The series and the oracle, reading their products by shift from the
    table's rows, agree by ``float.hex`` with the reads of
    ``VertexTable.qpoch`` factor by factor, and every table takes as many
    finite products through ``qpoch_fin_mono`` as it does for them."""
    got, got_taken = _row_and_factor_paths(w, seed, "rows", monkeypatch)
    want, want_taken = _row_and_factor_paths(w, seed, "factors", monkeypatch)
    assert got == want
    assert got_taken == want_taken and sum(got_taken.values()) > 0
    assert any(not isinstance(line, str) for line in got)


#: sha256 of ``_vertex_path_lines``, recorded before a ``VertexTable`` kept
#: its Pochhammer products and before a restriction was checked for a theta
#: pole ahead of the lowering, so both are pinned to the old bits
VERTEX_PATH_SHA256 = (
    "85d34ac56e7bd07cd8f32ab99c53edf82c69d190df51309eb2d2c5ba870ae932", 5120)


def _vertex_path_lines():
    """One line per ``vertex_series`` and per ``jackson_term_ratio`` call:
    every (lambda, mu) pair of the 1-3-box profiles at w = (1,1,0) and
    (2,0,0), at the points of seeds 1 and 2 (one point per framing and
    seed), degree cap 3 and the oracle at every degree vector of the cap;
    the ``repr`` of the restriction and the coefficients, of the oracle
    value, or of the exception raised."""
    def outcome(fn, *args):
        try:
            return fn(*args)
        except SingularityError as exc:
            return exc

    for w in ((1, 1, 0), (2, 0, 0)):
        for seed in (1, 2):
            pp = sample_param_point(seed, N, framing_counts={"u": list(w)})
            for total in (1, 2, 3):
                for v in profiles(total, N):
                    basis = fixed_points(v, w, N)
                    for a, lam in enumerate(basis):
                        qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
                        for b, mu in enumerate(basis):
                            head = f"{w} {seed} {v} {a}->{b}"
                            got = outcome(vertex_series, lam, mu, 3, pp)
                            if isinstance(got, vertex.VertexSeries):
                                got = (got.envelope_at_mu, got.coefficients)
                            yield f"{head} {got!r}"
                            for d in _degree_vectors(total, 3):
                                ratio = outcome(jackson_term_ratio, mu, d, pp, qp)
                                yield f"{head} {d} {ratio!r}"


def vertex_path_digest() -> tuple[str, int]:
    """(sha256 of ``_vertex_path_lines``, how many lines)."""
    h = hashlib.sha256()
    count = 0
    for line in _vertex_path_lines():
        h.update(line.encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def test_vertex_path_matches_recorded_digest():
    """Every series coefficient, restriction and oracle value of the corpus,
    and every exception, bit for bit as recorded."""
    assert vertex_path_digest() == VERTEX_PATH_SHA256


def test_a_table_takes_each_finite_product_once(monkeypatch):
    """A series-plus-oracle pass over every lambda takes each distinct
    finite product (base, length) of a table once, through
    ``qpoch_fin_mono``; a series that has a value takes all of them."""
    taken = Counter()

    def counted(base, s, pp):
        taken[base, s] += 1
        return qpoch_fin_mono(base, s, pp)

    monkeypatch.setattr(vertex, "qpoch_fin_mono", counted)
    checked = 0
    for w in ((1, 1, 0), (2, 0, 0)):
        pp = sample_param_point(1, N, framing_counts={"u": list(w)})
        for v in ((2, 1, 0), (1, 1, 1), (2, 0, 0)):
            basis = fixed_points(v, w, N)
            for mu in basis:
                taken.clear()
                reached = False
                for lam in basis:
                    try:
                        series = vertex_series(lam, mu, 3, pp)
                    except SingularityError:
                        continue
                    reached = True
                    for d in series.coefficients:
                        jackson_term_ratio(mu, d, pp, series.qp_factors)
                table = vertex.vertex_table(mu, pp)
                want = {(base, d[i] if j is None else d[i] - d[j])
                        for d in _degree_vectors(mu.size, 3)
                        for num, den, i, j, _ in table.series for base in (num, den)}
                assert set(taken.values()) <= {1}
                if reached:
                    assert set(taken) == want
                    checked += 1
    assert checked > 5


def _step_factors(mu, d, a):
    """The integrand factors of ``mu`` that hold box ``a``, one triple
    (k, m, m') each: under x_a -> p x_a at the degrees ``d`` the factor
    changes by p^k (1 - m)/(1 - m'), with x_b = phi_b p^(d_b) and m, m'
    exact monomials."""
    boxes, framing, arrow, gauge = _factor_bases(mu)
    x = [phi * P ** db for (_, phi, _), db in zip(boxes, d)]
    t1, t2 = Monomial.var("t1"), Monomial.var("t2")
    out = []
    for ia, base in framing:
        if ia == a:
            u = boxes[a][1] / base
            out.append((1, u / x[a], HBAR * u / (P * x[a])))
    for ia, ib, _ in arrow:
        if ia == a:
            out.append((-1, x[ib] / (t1 * x[a]), t2 * x[ib] / (P * x[a])))
        if ib == a:
            out.append((0, t2 * x[a] / x[ia], P * x[a] / (t1 * x[ia])))
    for ia, ib, _ in gauge:
        if ia == a:
            out.append((1, P * x[a] / x[ib], HBAR * x[a] / x[ib]))
        if ib == a:
            out.append((1, HBAR * x[ia] / (P * x[a]), x[ia] / x[a]))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_oracle_one_step_identity(seed):
    """J(d + e_a) / J(d) of the Jackson oracle is the envelope's
    quasi-periodicity factor of box a times one closed ratio per integrand
    factor that holds a (``_step_factors``): every fixed point of 1-3 boxes
    at three framings, every |d| <= 3 and box a.  A step is skipped at a
    structural zero or pole: where a factor's monomial is exactly 1, where
    either oracle value raises, or where J(d) = 0."""
    checked = skipped = 0
    for w in ((1, 0, 0), (1, 1, 0), (2, 0, 0)):
        pp = sample_param_point(seed, N, framing_counts={"u": list(w)})
        for total in (1, 2, 3):
            for v in profiles(total, N):
                for mu in fixed_points(v, w, N):
                    qp = Envelope(EnvelopeSpec(mu, "hat")).qp_unit_factors()
                    names = [name for _, _, name in _factor_bases(mu)[0]]
                    for d in _degree_vectors(mu.size, 3):
                        for a, name in enumerate(names):
                            factors = _step_factors(mu, d, a)
                            step = d[:a] + (d[a] + 1,) + d[a + 1:]
                            try:
                                before = jackson_term_ratio(mu, d, pp, qp)
                                after = jackson_term_ratio(mu, step, pp, qp)
                            except SingularityError:
                                before = 0
                            if before == 0 or any(Monomial.one() in (m, m2)
                                                  for _, m, m2 in factors):
                                skipped += 1
                                continue
                            want = pp.materialize(qp[name])
                            for k, m, m2 in factors:
                                want *= (pp.p ** k * (1 - pp.materialize(m))
                                         / (1 - pp.materialize(m2)))
                            got = after / before
                            assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)), \
                                (w, mu.partitions(), d, a)
                            checked += 1
    assert checked > 500 and skipped > 1000


@pytest.mark.parametrize("degrees", [(1, 1), ()])
def test_oracle_rejects_a_degree_vector_of_another_length(degrees):
    """A 1-box fixed point takes one degree; the message names both counts."""
    mu = fixed_points((1, 0, 0), W, N)[0]
    qp = Envelope(EnvelopeSpec(mu, "hat")).qp_unit_factors()
    with pytest.raises(ValueError, match=f"{len(degrees)} degrees .* box count 1"):
        jackson_term_ratio(mu, degrees, PP, qp)


def test_a_point_builds_each_table_once(monkeypatch):
    calls = []

    def counted(mu):
        calls.append(mu)
        return _factor_bases(mu)

    monkeypatch.setattr(vertex, "_factor_bases", counted)
    w = (1, 1, 0)
    pp = sample_param_point(29, N, framing_counts={"u": list(w)})
    basis = fixed_points((1, 1, 0), w, N)
    for _ in range(2):
        for mu in basis:
            normalization_factor(mu, pp)
            for lam in basis:
                try:
                    series = vertex_series(lam, mu, 2, pp)
                except SingularityError:
                    continue
                for d in series.coefficients:
                    jackson_term_ratio(mu, d, pp, series.qp_factors)
    assert sorted(map(basis.index, calls)) == list(range(len(basis)))
    # a new point, or an extension, builds its own
    fresh = ParamPoint(pp.n_colors, pp.values, pp.logs, min_terms=pp.min_terms)
    normalization_factor(basis[0], fresh)
    normalization_factor(basis[0], pp.extended({"y": 2.0}))
    assert len(calls) == len(basis) + 2


def test_an_extension_that_overrides_u_does_not_see_the_table():
    w = (1, 1, 0)
    pp = sample_param_point(31, N, framing_counts={"u": list(w)})
    mu = fixed_points((1, 1, 0), w, N)[0]
    before = normalization_factor(mu, pp)
    assert mu in pp._vertex_tables
    u = 0.7 - 0.2j
    ext = pp.extended({"u0_1": u})
    assert ext._vertex_tables == {}
    assert ext._qpoch_memo is pp._qpoch_memo
    values = dict(pp.values, u0_1=u)
    logs = {k: c for k, c in pp.logs.items() if k != "u0_1"}
    new = ParamPoint(pp.n_colors, values, logs, min_terms=pp.min_terms)
    got = normalization_factor(mu, ext)
    assert got == normalization_factor(mu, new) != before
    assert normalization_factor(mu, pp) == before


def _reference_bethe_residuals(xvals, pp, w):
    """The saddle-point residuals straight from their formula."""
    n = pp.n_colors
    t1, t2, h = pp.t1, pp.t2, pp.hbar
    out = []
    for k in range(n):
        vk = len(xvals.get(k, []))
        for i in range(vk):
            x = xvals[k][i]
            lhs = 1.0 + 0.0j
            for j in range(1, w[k] + 1):
                u = pp.values[f"u{k}_{j}"]
                lhs *= (1 - u / x) / (1 - h * u / x)
            for xl in xvals.get((k + 1) % n, []):
                lhs *= (1 - xl / (t1 * x)) / (1 - t2 * xl / x)
            for xm in xvals.get((k - 1) % n, []):
                lhs *= (1 - t2 * x / xm) / (1 - x / (t1 * xm))
            for nn, xn in enumerate(xvals[k]):
                if nn != i:
                    lhs *= (1 - h * xn / x) / (1 - xn / (h * x))
            out.append(lhs - pp.values[f"z{k}"] * h ** (vk - 1))
    return np.array(out, dtype=complex)


@pytest.mark.parametrize("v, w", [((1, 1, 1), (1, 1, 0)), ((2, 1, 1), (2, 0, 0)),
                                  ((2, 2, 2), (1, 1, 0)), ((1, 0, 2), (1, 0, 1))])
def test_bethe_system_is_bitwise_the_residual_formula(v, w):
    pp = sample_param_point(37, N, framing_counts={"u": list(w)})
    system = BetheSystem(v, w, pp)
    rng = np.random.default_rng(3)
    for _ in range(20):
        vec = rng.standard_normal(sum(v)) + 1j * rng.standard_normal(sum(v))
        xvals, pos = {}, 0
        for k in range(N):
            xvals[k] = list(vec[pos:pos + v[k]])
            pos += v[k]
        got = system(vec)
        assert got.tobytes() == bethe_residuals(xvals, pp, w).tobytes()
        assert got.tobytes() == _reference_bethe_residuals(xvals, pp, w).tobytes()
        # Python complex roots take the same operations
        plain = {k: [complex(x) for x in xs] for k, xs in xvals.items()}
        assert (bethe_residuals(plain, pp, w).tobytes()
                == _reference_bethe_residuals(plain, pp, w).tobytes())


#: (iterations, roots) of bethe_solve at three solver seeds, recorded before
#: the system was compiled once per solve (v = (2,2,2): before the Jacobian
#: recomputed only the factors a moved root enters)
BETHE_PINNED = {
    ((1, 1, 1), (1, 1, 0), 7): [
        (24, "{0: [(1.1743971989918636-0.12426943176575453j)], 1: [(-0.5933522971116449+0.02902360661732855j)], 2: [(-0.25862936959189453+1.250485987418822j)]}"),
        (30, "{0: [(1.1743971989917654-0.12426943176583045j)], 1: [(-0.5933522971116474+0.02902360661732295j)], 2: [(-0.25862936959174887+1.2504859874187018j)]}"),
        (71, "{0: [(-4.108038786168702-0.8209529677142785j)], 1: [(-0.6010986775748305-0.05376628172149361j)], 2: [(1.8124341724675714-6.0359596624930205j)]}"),
    ],
    ((2, 1, 1), (2, 0, 0), 11): [
        (19, "{0: [(-0.5100125588158523-0.8112656477468166j), (-2.579247403632249-1.5506754260439697j)], 1: [(-0.6427910958903029-0.9930355498825615j)], 2: [(-1.4528728870579195-0.7828311957015505j)]}"),
        (120, "{0: [(-0.47877248277324563-0.818454408601127j), (-1.4943173897979039-2.631881965651325j)], 1: [(-1.165353283412474-0.2874533638685204j)], 2: [(0.34519093158910535-1.6325156350474856j)]}"),
        (155, "{0: [(-0.2581393564565789-2.125790013635525j), (0.28842072183798606+0.5483852847219783j)], 1: [(-0.6993483427054874+0.3411506415687075j)], 2: [(-0.6352056341355299+0.46178614305601634j)]}"),
    ],
    ((2, 2, 2), (1, 1, 0), 7): [
        (56, "{0: [(-0.39220973142891663+1.4075961062324325j), (6.629781898952587+3.163466674181596j)], 1: [(3.7170484736141867-3.6580476945941207j), (3.7170484736141765-3.6580476945941087j)], 2: [(-2.9573618329952134-1.5849761916543919j), (-2.9573618329952134-1.584976191654394j)]}"),
        (50, "{0: [(29.18247209927265-51.4655781744466j), (-0.3801229620578763+1.1138908407984116j)], 1: [(-0.521726413185378+0.5442059286052562j), (1.0427781314419897+0.5672642052253248j)], 2: [(70.57647732884485+51.95512831913607j), (0.07911734378604052+0.7754355133094952j)]}"),
        (75, "{0: [(-0.17573044510134023+1.465099535608019j), (-2.3992020036290667-0.04459029901544606j)], 1: [(-1.3376879327538422-1.4523820142408146j), (1.2283716242450167+0.18322206066296037j)], 2: [(-1.2661772801586448+0.7439655208052945j), (1.094911189064145-2.607829458974959j)]}"),
    ],
    ((2, 2, 2), (2, 0, 0), 11): [
        (168, "{0: [(1.7447397324974507+0.2427668666477798j), (-0.6107346349617231-0.7400355101970709j)], 1: [(0.394359797743446-1.9599472065473535j), (-0.051315305122964415-0.3970026220899616j)], 2: [(0.1731468815131313-1.647378029864308j), (-0.16789622142664465-0.3576619821887423j)]}"),
        (30, "{0: [(-0.5604014157527982-0.785703006882689j), (0.9242519956202706-1.1600917562797144j)], 1: [(-0.11226625246738088-1.1343012116030982j), (0.6602243681369261+0.6978032721473186j)], 2: [(0.07482929461637308-1.137348329724073j), (0.7817262070353015+0.443109766289213j)]}"),
        (66, "{0: [(0.3816170499690314+0.47087805722631726j), (-3.45904808069274+0.12528707495315483j)], 1: [(0.4256878676360265+0.21766065131686027j), (-2.046849183787534+1.9929770260256774j)], 2: [(0.25608719147218806-1.5713771324288923j), (0.2560871914721866-1.571377132428892j)]}"),
    ],
}


@pytest.mark.parametrize("case", sorted(BETHE_PINNED))
def test_bethe_solve_matches_pinned_roots(case):
    v, w, point_seed = case
    pp = sample_param_point(point_seed, N, framing_counts={"u": list(w)})
    for seed, want in enumerate(BETHE_PINNED[case]):
        sol = bethe_solve(v, w, pp, seed=seed)
        roots = {k: [complex(x) for x in xs] for k, xs in sol.roots.items()}
        assert sol.converged
        assert (sol.iterations, repr(roots)) == want


def test_bethe_solve_evaluates_no_point_twice(monkeypatch):
    """No path of a pinned solve evaluates a factor twice at one root
    vector: the accepted trial's factors are the next Jacobian's table and
    its residuals the next iteration's, and a column recomputes only the
    factors that read its moved root.  The solve takes fewer factor values
    than the 326 full evaluations of 8 factors each that it made before."""
    case = ((1, 1, 1), (1, 1, 0), 7)
    v, w, point_seed = case
    pp = sample_param_point(point_seed, N, framing_counts={"u": list(w)})
    size = sum(v)
    taken = []
    factors = vertex._factors

    def counted(values, quads):
        roots = np.array(values[:size], dtype=complex).tobytes()
        taken.extend((roots, quad) for quad in quads)
        return factors(values, quads)

    monkeypatch.setattr(vertex, "_factors", counted)
    sol = bethe_solve(v, w, pp, seed=0)
    roots = {k: [complex(x) for x in xs] for k, xs in sol.roots.items()}
    assert (sol.iterations, repr(roots)) == BETHE_PINNED[case][0]
    assert len(taken) == len(set(taken)) < 326 * 8


def _reference_jacobian(v, w, pp, x):
    """The central-difference loop that ``bethe_solve`` ran per iteration,
    one column per pair of residual vectors of the formula."""
    n = pp.n_colors

    def fun(vec):
        xvals, pos = {}, 0
        for k in range(n):
            xvals[k] = list(vec[pos:pos + v[k]])
            pos += v[k]
        return _reference_bethe_residuals(xvals, pp, w)

    size = len(x)
    jac = np.zeros((size, size), dtype=complex)
    hstep = 1e-7
    for j in range(size):
        dx = np.zeros(size, dtype=complex)
        dx[j] = hstep * max(1.0, abs(x[j]))
        jac[:, j] = (fun(x + dx) - fun(x - dx)) / (2 * dx[j])
    return jac


def _bethe_cases():
    """(v, w, number of colors): the pinned profiles at both framings, one
    four-color profile, whose rows of color k hold no root of color k + 2,
    and the residual test's profile (1, 0, 2), whose rows have a neighbour
    color that holds no root."""
    return ([(v, w, N) for v in ((1, 1, 1), (2, 1, 1), (2, 2, 2))
             for w in ((1, 1, 0), (2, 0, 0))]
            + [((2, 1, 1, 1), (1, 0, 1, 0), 4), ((1, 0, 2), (1, 0, 1), N)])


def _bethe_points(size, rng):
    """Random root vectors, two with +-0.0 parts and two with a root at
    +-0.0 +-0.0j (x + 0j is not x at a -0.0 part)."""
    def draw():
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    for _ in range(4):
        yield draw()
    for _ in range(2):
        vec = draw()
        signs = rng.choice([-0.0, 0.0], size=(2, size))
        vec.real[::2] = signs[0, ::2]
        vec.imag[1::2] = signs[1, 1::2]
        yield vec
    for _ in range(2):
        vec = draw()
        vec[rng.integers(size)] = complex(*rng.choice([-0.0, 0.0], size=2))
        yield vec


@pytest.mark.parametrize("v, w, n", _bethe_cases())
def test_bethe_jacobian_is_bitwise_the_central_difference_loop(v, w, n):
    pp = sample_param_point(29, n, framing_counts={"u": list(w)})
    system = BetheSystem(v, w, pp)
    rng = np.random.default_rng(5)
    for x in _bethe_points(sum(v), rng):
        with np.errstate(all="ignore"):
            want = _reference_jacobian(v, w, pp, x)
            at = system.point(x)
            assert system.jacobian(at).tobytes() == want.tobytes()
            # the table of an accepted trial serves the Jacobian as well
            got, _ = system.trial(x, np.inf, 0)
            if got is not None:
                assert system.jacobian(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("v, w, n", _bethe_cases())
def test_bethe_trial_is_the_max_modulus_test(v, w, n):
    """A trial accepts exactly when ``np.max(np.abs(residuals)) < r``, with
    the residual vector in row order, from any first row and at bars on
    each side of every modulus (half ``TRIAL_MARGIN`` off it too, where the
    scalar ``abs`` cannot decide) and at NaN and inf, also where a root sits
    at h u (a pole of its framing factor, hit up to rounding) or at 0 (NaN
    residuals)."""
    pp = sample_param_point(29, n, framing_counts={"u": list(w)})
    system = BetheSystem(v, w, pp)
    size = sum(v)
    rng = np.random.default_rng(6)
    points = list(_bethe_points(size, rng))
    hu = pp.hbar * pp.values[FramingGroup(w).slots()[0].u_var]
    for root in (hu, 0.0):
        vec = points[0].copy()
        vec[0] = root
        points.append(vec)
    with np.errstate(all="ignore"):
        for x in points:
            want = system(x)
            mods = np.abs(want)
            bars = [b for m in mods for b in (m, np.nextafter(m, np.inf), 2 * m,
                                              m * (1 - TRIAL_MARGIN / 2),
                                              m * (1 + TRIAL_MARGIN / 2))]
            for r in bars + [np.nan, np.inf]:
                accepted = np.max(np.abs(want)) < r
                for first in range(size):
                    got, row = system.trial(x, r, first)
                    assert (got is not None) == accepted
                    if accepted:
                        assert row == first
                        assert got.residuals.tobytes() == want.tobytes()
                    else:
                        assert not np.abs(want[row]) < r


if __name__ == "__main__":
    # Re-derive the recorded digest: PYTHONPATH=src python tests/test_vertex.py
    print(f"VERTEX_PATH_SHA256: {vertex_path_digest()}")
