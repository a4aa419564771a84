"""Vertex series, Jackson oracle, normalization and Bethe equations."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from ellstab import vertex
from ellstab.core import (HBAR, P, SQRT_HBAR, Monomial, ParamPoint,
                          SingularityError)
from ellstab.envelopes import Envelope, EnvelopeSpec, restrict
from ellstab.partitions import FramingGroup, fixed_points, make_fixed_point
from ellstab.rmatrix import basis_fixed_points, profiles
from ellstab.sampling import sample_param_point
from ellstab.scalars import mu_vacuum_ope
from ellstab.vertex import (BetheSolution, BetheSystem, _degree_vectors,
                            _factor_bases, bethe_residuals, bethe_solve,
                            jackson_term_ratio, jordan_bethe_residuals,
                            normalization_factor, qpoch_fin_mono,
                            vertex_series)
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
    fp = make_fixed_point([()], W, N)
    val = normalization_factor(fp, PP)
    assert abs(val - mu_vacuum_ope(W, PP)) < 1e-12 * abs(val)


def test_normalization_single_box_hand_expansion():
    from ellstab.core import qpoch_inf
    fp = make_fixed_point([(1,)], W, N)
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
    assert normalization_factor(make_fixed_point([(2, 1)], W, N, "ua"), ppa) \
        == normalization_factor(make_fixed_point([(2, 1)], W, N), PP)
    groups = [FramingGroup(W, "ua"), FramingGroup(W, "ub")]
    pp = sample_param_point(41, N, framing_counts={g.prefix: list(W)
                                                   for g in groups})
    for fp in basis_fixed_points((1, 0, 0), groups, N):
        with pytest.raises(ValueError, match="one framing name prefix"):
            normalization_factor(fp, pp)


def test_normalization_depends_only_on_cycle():
    fp = make_fixed_point([(2, 1)], W, N)
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
        mu = make_fixed_point([rows], W, N)
        table = vertex.vertex_table(mu, pp)
        # (numerator, denominator) zero counts of each factor kind
        dropped = {kind: tuple(sum(vertex.qpoch_low(row[side], None, pp)[1]
                                   for row in getattr(table, kind))
                               for side in (-2, -1))
                   for kind in ("framing", "arrow", "gauge")}
        assert dropped == {"framing": (0, 0), "arrow": (0, 1),
                           "gauge": (0, 0)}, rows
        value = normalization_factor(mu, pp)
        assert value != 0 and np.isfinite(value), rows


def test_degree_zero_law_and_oracle():
    for total in (1, 2, 3):
        for v in profiles(total, N):
            basis = fixed_points(v, W, N)
            for lam in basis:
                env = Envelope(EnvelopeSpec(lam, "hat"))
                qp = env.qp_unit_factors()
                for mu in basis:
                    try:
                        series = vertex_series(lam, mu, 3, PP)
                    except SingularityError:
                        continue
                    d0 = tuple([0] * total)
                    assert series.coefficients[d0] == series.envelope_at_mu
                    scale = max(abs(c) for c in series.coefficients.values())
                    for d, c in series.coefficients.items():
                        oracle = jackson_term_ratio(mu, d, PP, qp) \
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


def test_jordan_variant_contract():
    uvals = [PP.values["u0_1"]]
    z = PP.values["z0"]
    h = PP.hbar
    u = uvals[0]
    x = u * (1 - h * z) / (1 - z)
    res = jordan_bethe_residuals([x], uvals, z, PP)
    assert res.shape == (1,)
    assert np.max(np.abs(res)) < 1e-12
    assert jordan_bethe_residuals([], uvals, z, PP).shape == (0,)


def test_negative_degree_cap_is_rejected():
    fp = make_fixed_point([(1,)], W, N)
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


@pytest.mark.parametrize("w", [(1, 1, 0), (2, 0, 0)])
def test_table_path_is_bitwise_the_monomial_path(w):
    """Series, oracle and normalization read the lowered bases of one table
    per fixed point and give the bits of the path that lowers each monomial
    where it is used."""
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
                    qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
                    for d in got.coefficients:
                        assert (_outcome(jackson_term_ratio, mu, d, pp, qp)
                                == _outcome(_reference_term_ratio, mu, d, pp, qp))
    assert pairs > 10


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
                    qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
                    try:
                        series = vertex_series(lam, mu, 3, pp)
                    except SingularityError:
                        continue
                    reached = True
                    for d in series.coefficients:
                        jackson_term_ratio(mu, d, pp, qp)
                table = vertex.vertex_table(mu, pp)
                want = {(base, d[i] if j is None else d[i] - d[j])
                        for d in _degree_vectors(mu.size, 3)
                        for num, den, i, j in table.series for base in (num, den)}
                assert set(taken.values()) <= {1}
                if reached:
                    assert set(taken) == want
                    checked += 1
    assert checked > 5


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
                qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
                try:
                    series = vertex_series(lam, mu, 2, pp)
                except SingularityError:
                    continue
                for d in series.coefficients:
                    jackson_term_ratio(mu, d, pp, qp)
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
#: the system was compiled once per solve
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


if __name__ == "__main__":
    # Re-derive the recorded digest: PYTHONPATH=src python tests/test_vertex.py
    print(f"VERTEX_PATH_SHA256: {vertex_path_digest()}")
