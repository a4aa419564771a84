"""Vertex-function series, their Jackson-sum oracle, and Bethe equations.

The series counts quasimap degrees per box of the fixed point that labels the
integration cycle: each coefficient is a product of finite Pochhammer ratios
(framing, arrow and gauge factors) against a per-box power of the Kahler
parameters, times the hat-normalized envelope restricted to that fixed point.
An independent per-term oracle recomputes every coefficient directly from the
expectation-value integrand at the shifted points x = phi p^d, using only the
quasi-periodicity multipliers for the envelope factor.

Every factor base is built as an exact monomial so that the structural
coincidences of restriction points (arrow ratios landing exactly on 1) give
exact zeros in the finite products and exactly matched vanishing factors in
the infinite ones.  A base is used *lowered*: its value at the point and its
exponent when it is a pure power of p (``LoweredBase``), and the zero
bookkeeping of ``qpoch_low`` needs nothing else.  Its values come from
``core.qpoch_fin`` and the point's memoised ``ParamPoint.qpoch_inf``, so the
infinite products that recur across the degree vectors of one pair and
across the pairs at one point are computed once per point.  The series and
the oracle turn a net zero count into a zero, the value or a structural
pole in one place (``_net``).

The factor bases of a fixed point, lowered, form its ``VertexTable``.  A
parameter point builds the table of a fixed point once, at the first series,
oracle or normalization that asks for it (``vertex_table``), and every later
call at that point reads it.  The table also keeps every Pochhammer product
taken of its bases, keyed by value as (lowered base, length, offset)
(``VertexTable.qpoch``): a product that recurs across the degree vectors of
a series, its oracle terms and the normalization is taken once per table.
The series and the oracle read those products by index: per factor a row
by shift, filled from that memo at its first read, holds the series'
finite ratio, or the oracle's shifted infinite products next to the
factor's unshifted ones; the envelope's quasi-period multipliers are
materialized once per table.
The Bethe equations of a profile are compiled the same way, once per
``bethe_solve``, into a ``BetheSystem``: each row a product of factors
(1 - A/B) / (1 - C/D) over one list of root values, evaluated in one place
(``_factors``).  A Newton step takes only the values its decisions read:
the Jacobian recomputes per column the factors that the moved root enters,
on the current point's factors and prefix products, and a line-search trial
stops at its first row over the bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import mul
from typing import NamedTuple

import numpy as np

from .core import (HBAR, P, SQRT_HBAR, Monomial, ParamPoint, SingularityError,
                   qpoch_fin)
from .envelopes import EnvelopeSpec, compiled, restrict, restriction_values
from .partitions import (FixedPoint, FramingGroup, box_slot_vars, chern_var,
                         check_dimension_vector, fixed_points, kahler_var,
                         phi_weight, profiles, quiver_pairs)
from .scalars import mu_vacuum_ope


class LoweredBase(NamedTuple):
    """A monomial Pochhammer base at one point: its value, and e when the
    base is p^e with an integer e (None for any other base)."""

    value: complex
    p_exp: int | None


def lower(base: Monomial, pp: ParamPoint) -> LoweredBase:
    """``base`` lowered at ``pp``."""
    return LoweredBase(pp.materialize(base), base.power_of("p"))


def qpoch_low(base: LoweredBase, length: int | None, pp: ParamPoint,
              offset: int = 0) -> tuple[complex, int]:
    """Pochhammer (base p^offset; p)_length of a lowered base.

    Returns (product over the non-vanishing factors, zero count).  Factor n
    is 1 - base p^(offset+n); it vanishes identically exactly when base is
    p^e with e + offset + n = 0, and each such factor adds 1 to the count.
    ``length=None`` is the infinite product; a negative length is the
    reciprocal (base p^(offset+length); p)_(-length), so its vanishing
    factors count -1 and ratios of such symbols cancel exactly.  The values
    are ``core.qpoch_fin`` and the point's memoised ``ParamPoint.qpoch_inf``
    of z = base p^offset; past a vanishing factor n = skip the factors are
    1 - p^k, k >= 1, so the product is (z; p)_skip times (p; p)_inf, or
    (p; p)_(length-skip-1) for a finite length.
    """
    if length is not None and length < 0:
        val, zeros = qpoch_low(base, -length, pp, offset + length)
        return 1.0 / val, -zeros
    p = pp.p
    value, e = base
    z = value * p ** offset
    skip = -1 if e is None else -(e + offset)
    if skip < 0 or (length is not None and skip >= length):
        return (pp.qpoch_inf(z, p) if length is None
                else qpoch_fin(z, p, length)), 0
    rest = (pp.qpoch_inf(p, p) if length is None
            else qpoch_fin(p, p, length - skip - 1))
    return qpoch_fin(z, p, skip) * rest, 1


def qpoch_fin_mono(base: LoweredBase, s: int, pp: ParamPoint) -> tuple[complex, int]:
    """Finite Pochhammer (base; p)_s of a lowered base (see ``qpoch_low``).

    ``VertexTable.qpoch`` calls this once per distinct finite product per
    table, so that the benchmark's tracer (``perfbench/bench_trace.py``)
    counts the distinct finite products a series takes as
    ``vertex.qpoch_fin_calls``.
    """
    return qpoch_low(base, s, pp)


def _net(value: complex, zeros: int, pole: str) -> complex:
    """A product with its net zero count: 0 for a net zero, the value for
    none, and a ``SingularityError`` saying ``pole`` for a net pole."""
    if zeros > 0:
        return 0.0 + 0.0j
    if zeros < 0:
        raise SingularityError(pole)
    return value


def _factor_bases(mu: FixedPoint):
    """The monomial bases and degree assignments of all integrand factors.

    Returns (boxes, framing, arrow, gauge) over the quiver pairs of ``mu``
    in the canonical box order: boxes are (box, unframed weight phi, Chern
    root name); framing entries are (box_index, base = phi/u); arrow entries
    (a_index, b_index, t2 phi_b/phi_a); gauge entries (a_index, b_index,
    phi_a/phi_b).
    """
    names = box_slot_vars(mu)
    phi = {box: phi_weight(mu, box, framed=False) for box in names}
    boxes = [(box, phi[box], name) for box, name in names.items()]
    index = {box: i for i, box in enumerate(names)}
    pairs = quiver_pairs(mu, list(names))
    t2 = Monomial.var("t2")
    framing = [(index[b], phi[b] / Monomial.var(mu.slots[rank][0].u_var))
               for rank, b in pairs.framing]
    arrow = [(index[a], index[b], t2 * phi[b] / phi[a]) for a, b in pairs.arrow]
    gauge = [(index[a], index[b], phi[a] / phi[b]) for a, b in pairs.gauge]
    return boxes, framing, arrow, gauge


class VertexTable:
    """The integrand factors of one fixed point, lowered at one point.

    ``boxes`` is the canonical box list of ``_factor_bases``.  ``factors``
    holds one row (a, b, ka, kb, sa, sb, A, B, row) per integrand factor, in
    the order of ``_factor_bases`` (framing, arrow, gauge): at the shifted
    points x = phi p^d the factor is p^(ka d_a + kb d_b) (A p^s; p)_inf /
    (B p^s; p)_inf with s = sa d_a + sb d_b, of the boxes a and b (b = a
    for framing), the form in which the oracle and ``normalization_factor``
    take it.  (ka, kb) is (1, 0) for framing, (-1, 0) for arrow and (1, 1)
    for gauge factors, (sa, sb) (-1, 0), (-1, 1) and (1, -1).  ``series``
    holds per factor the (numerator, denominator, i, j, row) of the series'
    finite ratio, of length d[i], or d[i] - d[j] when j is set.

    ``qpoch`` takes the Pochhammer products of these bases, each once per
    table: the series, the oracle and ``normalization_factor`` read them
    from it.  The series and the oracle read them by shift, from a row
    (a dict by shift) per factor whose entry a reader's first miss fills
    through ``qpoch``, so a product is still taken once per table.  A
    series factor's row[s] is the (vn / vd, zn - zd) of its finite ratio at
    length s (``ratio``); a factor's row[s] is ((A p^s; p)_inf, (A; p)_inf,
    (B p^s; p)_inf, (B; p)_inf, the net zero count of the four products)
    (``shifted``).  A row refers to neither the table nor the point, so a
    table is freed with its point.  ``qp_value`` keeps the values of the
    envelope's quasi-period multipliers.
    """

    __slots__ = ("boxes", "factors", "series", "_products", "_qp_values")

    def __init__(self, mu: FixedPoint, pp: ParamPoint):
        self._products: dict[tuple[LoweredBase, int | None, int],
                             tuple[complex, int]] = {}
        boxes, framing, arrow, gauge = _factor_bases(mu)
        pinv_h = P / HBAR
        self.boxes = boxes
        arrow_rows = [(ia, ib, -1, 0, -1, 1, lower(pinv_h * base, pp), lower(base, pp), {})
                      for ia, ib, base in arrow]
        gauge_rows = [(ia, ib, 1, 1, 1, -1, lower(HBAR * base, pp), lower(P * base, pp), {})
                      for ia, ib, base in gauge]
        self.factors = ([(ia, ia, 1, 0, -1, 0, lower(P / base, pp), lower(HBAR / base, pp), {})
                         for ia, base in framing] + arrow_rows + gauge_rows)
        # an arrow or gauge ratio of the series is (B; p)_s / (A; p)_s, s
        # the factor's shift
        self.series = ([(lower(base, pp), lower(pinv_h * base, pp), ia, None, {})
                        for ia, base in framing]
                       + [(b, a, ib, ia, {}) for ia, ib, *_, a, b, _ in arrow_rows]
                       + [(b, a, ia, ib, {}) for ia, ib, *_, a, b, _ in gauge_rows])
        self._qp_values: dict[tuple, complex] = {}

    def ratio(self, row: dict, num: LoweredBase, den: LoweredBase, s: int,
              pp: ParamPoint) -> tuple[complex, int]:
        """Entry s of a series factor's row, written at its first read:
        (vn / vd, zn - zd) of its finite ratio at length s."""
        vn, zn = self.qpoch(num, s, pp)
        vd, zd = self.qpoch(den, s, pp)
        got = row[s] = (vn / vd, zn - zd)
        return got

    def shifted(self, row: dict, a: LoweredBase, b: LoweredBase, s: int,
                pp: ParamPoint) -> tuple[complex, complex, complex, complex, int]:
        """Entry s of a factor's row, written at its first read: (A p^s;
        p)_inf, (A; p)_inf, (B p^s; p)_inf and (B; p)_inf, and the net zero
        count of the ratio (A p^s; p)_inf / (A; p)_inf / (B p^s; p)_inf *
        (B; p)_inf."""
        v1, z1 = self.qpoch(a, None, pp, s)
        v2, z2 = self.qpoch(a, None, pp)
        v3, z3 = self.qpoch(b, None, pp, s)
        v4, z4 = self.qpoch(b, None, pp)
        got = row[s] = (v1, v2, v3, v4, z1 - z2 - z3 + z4)
        return got

    def qp_value(self, m: Monomial, pp: ParamPoint) -> complex:
        """``pp.materialize(m)`` of a quasi-period multiplier m, taken once
        per table.  It is kept under m's float exponent pairs in dict order
        (``Monomial.float_items``), which decide the value's bits, so no
        monomial of other exponents or of another exponent order reads
        it."""
        key = m.float_items()
        got = self._qp_values.get(key)
        if got is None:
            got = self._qp_values[key] = pp.materialize(m)
        return got

    def qpoch(self, base: LoweredBase, length: int | None, pp: ParamPoint,
              offset: int = 0) -> tuple[complex, int]:
        """``qpoch_low(base, length, pp, offset)`` for a base of this table
        at its point ``pp``, taken at the first call per (base, length,
        offset); a finite product through ``qpoch_fin_mono``."""
        key = (base, length, offset)
        got = self._products.get(key)
        if got is None:
            got = self._products[key] = (
                qpoch_low(base, length, pp, offset) if length is None or offset
                else qpoch_fin_mono(base, length, pp))
        return got


def vertex_table(mu: FixedPoint, pp: ParamPoint) -> VertexTable:
    """The table of ``mu`` at ``pp``, built at the first call per point."""
    tables = pp._vertex_tables
    table = tables.get(mu)
    if table is None:
        table = tables[mu] = VertexTable(mu, pp)
    return table


def normalization_factor(mu: FixedPoint, pp: ParamPoint) -> complex:
    """Restriction of the cycle integrand without the envelope factor.

    The vacuum OPE scalar times the framing, arrow and gauge infinite-product
    factors at the canonical weights.  Every structurally vanishing factor
    is dropped, in a numerator or a denominator, without balancing the two
    sides: at w=(1,0,0) the fixed points (1,1) and (2,1) each drop one arrow
    denominator and no numerator.
    """
    prefixes = {slot.prefix for slot, _ in mu.slots}
    if len(prefixes) > 1:
        raise ValueError("normalization needs one framing name prefix")
    out = mu_vacuum_ope(mu.w, pp, *prefixes)  # the default prefix without slots
    table = vertex_table(mu, pp)
    boxes = table.boxes
    sqh = pp.materialize(SQRT_HBAR)
    for ia, ib, ka, kb, _, _, a, b, _ in table.factors:
        if kb:  # gauge: x_a x_b / sqrt(hbar)
            out *= pp.materialize(boxes[ia][1] * boxes[ib][1]) / sqh
        elif ka > 0:  # framing: x_a
            out *= pp.materialize(boxes[ia][1])
        else:  # arrow: 1 / x_a
            out /= pp.materialize(boxes[ia][1])
        out *= table.qpoch(a, None, pp)[0] / table.qpoch(b, None, pp)[0]
    return out


@dataclass
class VertexSeries:
    lam: FixedPoint
    mu: FixedPoint
    degree_cap: int
    envelope_at_mu: complex
    coefficients: dict[tuple[int, ...], complex]
    qp_factors: dict[str, Monomial]  # of lam's envelope, for the oracle


def _degree_vectors(n_boxes: int, cap: int):
    """The degree vectors of n_boxes entries of total at most ``cap``, by
    total."""
    for total in range(cap + 1):
        yield from profiles(total, n_boxes)


def vertex_series(lam: FixedPoint, mu: FixedPoint, degree_cap: int,
                  pp: ParamPoint) -> VertexSeries:
    """The degree-truncated vertex series paired between two fixed points.

    The per-box prefactor base is h^{w_k} p^{2-2v_k+v_{k+1}-2w_k} divided by
    the exact quasi-periodicity multiplier of the envelope at that slot; its
    Kahler part is always z_k, and the residual hbar power vanishes for
    single-box profiles.
    """
    if degree_cap < 0:
        raise ValueError(f"degree cap {degree_cap} is negative")
    n = mu.n_colors
    env = compiled(EnvelopeSpec(lam, "hat"), pp)
    stab0 = restrict(env, mu, pp, framed=False)
    table = vertex_table(mu, pp)
    v, w = mu.v, mu.w
    p, h = pp.p, pp.hbar
    qp = env.qp_unit_factors()
    pref: list[complex] = []
    for box, _, name in table.boxes:
        k = box.content % n
        base = h ** w[k] * p ** (2 - 2 * v[k] + v[(k + 1) % n] - 2 * w[k])
        pref.append(base / table.qp_value(qp[name], pp))
    coeffs: dict[tuple[int, ...], complex] = {}
    fill = table.ratio
    for d in _degree_vectors(len(table.boxes), degree_cap):
        term = 1.0 + 0.0j
        zeros = 0
        for da, pr in zip(d, pref):
            term *= pr ** (-da)
        for num, den, i, j, row in table.series:
            s = d[i] if j is None else d[i] - d[j]
            ratio, z = row.get(s) or fill(row, num, den, s, pp)
            term *= ratio
            zeros += z
        coeffs[d] = _net(term * stab0, zeros,
                         "vertex coefficient has a structural pole")
    return VertexSeries(lam, mu, degree_cap, stab0, coeffs, qp)


def jackson_term_ratio(mu: FixedPoint, degrees: tuple[int, ...],
                       pp: ParamPoint, qp_factors: dict[str, Monomial]) -> complex:
    """Independent oracle for coefficient(d)/coefficient(0).

    Evaluates the integrand factors at the shifted points x_a = phi_a p^(d_a)
    through infinite-product ratios (matched structural zeros dropped) and
    multiplies the exact quasi-periodicity multipliers of the envelope
    factor.  A factor (A; p)_inf / (B; p)_inf shifted by s multiplies the
    value by (A p^s; p)_inf / (A; p)_inf / (B p^s; p)_inf * (B; p)_inf, in
    that order, read from the factors' rows (``VertexTable.factors``).
    """
    table = vertex_table(mu, pp)
    if len(degrees) != len(table.boxes):
        raise ValueError(f"{len(degrees)} degrees for a fixed point of box "
                         f"count {len(table.boxes)}")
    p = pp.p
    fill = table.shifted

    value, zeros = 1.0 + 0.0j, 0
    for (box, _, name), da in zip(table.boxes, degrees):
        value *= table.qp_value(qp_factors[name], pp) ** da
    for ia, ib, ka, kb, sa, sb, a, b, row in table.factors:
        da, db = degrees[ia], degrees[ib]
        value *= p ** (ka * da + kb * db)  # the x_a^ka x_b^kb prefactor
        s = sa * da + sb * db
        v1, v2, v3, v4, z = row.get(s) or fill(row, a, b, s, pp)
        value = value * v1 / v2 / v3 * v4
        zeros += z
    return _net(value, zeros, "net structural pole in a Pochhammer ratio")


def oracle_residual(series: VertexSeries, pp: ParamPoint) -> float:
    """Criterion 8's residual of one series: the degree-zero law, then each
    coefficient against its Jackson oracle, with the series' own
    quasi-periodicity factors."""
    base = series.envelope_at_mu
    scale = max(abs(c) for c in series.coefficients.values())
    worst = (abs(series.coefficients[(0,) * series.mu.size] - base)
             / max(abs(base), 1e-300))
    for d, c in series.coefficients.items():
        oracle = jackson_term_ratio(series.mu, d, pp, series.qp_factors) * base
        worst = max(worst, abs(c - oracle)
                    / max(abs(c), abs(oracle), 1e-12 * scale, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------

def _factors(values: list, quads: list[tuple[int, int, int, int]]) -> list:
    """The Bethe factors ``quads`` at one root vector, whose value list
    (``BetheSystem.values``) is ``values``: factor (a, b, c, d) is
    (1 - values[a]/values[b]) / (1 - values[c]/values[d])."""
    return [(1 - values[a] / values[b]) / (1 - values[c] / values[d])
            for a, b, c, d in quads]


#: a bound on |abs(x) - np.abs(x)| / np.abs(x) for a complex scalar x: the
#: largest seen on 10^6 random values (normal parts scaled by e^U,
#: U uniform on (-30, 30); numpy 2.4) is 3.1e-16, below 2^-51
TRIAL_MARGIN = 2.0 ** -50


class BethePoint(NamedTuple):
    """A ``BetheSystem`` at the roots ``roots``: their value list, per row
    its factor values and the products of its first i factors (i = 0 to
    all of them, from 1.0 + 0.0j in the row's order), and the residuals in
    row order."""

    roots: np.ndarray
    values: list
    factors: list
    prefix: list[list]
    residuals: np.ndarray


class BetheSystem:
    """The saddle-point equations of one profile at one point, compiled.

    Unknowns are the roots x_(k,i), color-major in the order of
    ``bethe_residuals``; row a is the equation of root a.  Every factor of
    every kind is (1 - A/B) / (1 - C/D) over the value list of a root vector
    (``values``: the roots, then t1, t2 and h times each root, then the
    framing values u and h u), and ``_factors`` alone evaluates it.  A row
    keeps its factors as the positions (A, B, C, D) in that list, framing
    first, then colors k+1, k-1 and k, and its right-hand side
    z_k h^(v_k - 1); its left side is the product of its factors from
    1.0 + 0.0j in that order.  These are the operations, in the same order,
    of the formula of ``bethe_residuals``, so the two agree bit for bit
    whatever the scalar type of the roots.

    Each evaluation does only the work its caller reads: ``trial`` stops at
    the first row whose residual is not below a bar, and ``point`` (and
    calling the system) is the trial without a bar, which evaluates every
    row; ``jacobian`` takes the factors of a point as its table and
    recomputes per column only the factors that read the moved root.  Raises ``ValueError`` unless v and w have
    one non-negative entry per color.
    """

    def __init__(self, v: tuple[int, ...], w: tuple[int, ...], pp: ParamPoint):
        n = pp.n_colors
        check_dimension_vector("profile", v, n)
        check_dimension_vector("framing", w, n)
        h = pp.hbar
        self.scales = (pp.t1, pp.t2, h)
        size = self.size = sum(v)
        t1x, t2x, hx = size, 2 * size, 3 * size
        start = [sum(v[:k]) for k in range(n)]
        color = [list(range(start[k], start[k] + v[k])) for k in range(n)]
        framing = FramingGroup(w).slots()
        self.constants: list[complex] = []
        self.rows: list[tuple[list[tuple[int, int, int, int]], complex]] = []
        for k in range(n):
            if not v[k]:
                continue
            us = []
            for u in (pp.values[s.u_var] for s in framing if s.color == k):
                us.append(4 * size + len(self.constants))
                self.constants += [u, h * u]
            rhs = pp.values[kahler_var(k)] * h ** (v[k] - 1)
            for a in color[k]:
                self.rows.append((
                    [(c, a, c + 1, a) for c in us]
                    + [(b, t1x + a, t2x + b, a) for b in color[(k + 1) % n]]
                    + [(t2x + a, b, a, t1x + b) for b in color[(k - 1) % n]]
                    + [(hx + b, a, b, hx + a) for b in color[k] if b != a],
                    rhs))
        # Per root j: ``reads[j]``, (row, positions of its factors that read
        # j) for each row that holds one, and ``moved[j]``, their quads in order.
        self.moved: list[list[tuple[int, int, int, int]]] = []
        self.reads: list[list[tuple[int, list[int]]]] = []
        for j in range(size):
            mine = {j, t1x + j, t2x + j, hx + j}
            moved, reads = [], []
            for a, (quads, _) in enumerate(self.rows):
                if pos := [i for i, quad in enumerate(quads) if mine.intersection(quad)]:
                    moved += [quads[i] for i in pos]
                    reads.append((a, pos))
            self.moved.append(moved)
            self.reads.append(reads)

    def values(self, xs: list) -> list:
        """The value list of the roots ``xs``."""
        t1, t2, h = self.scales
        return (xs + [t1 * x for x in xs] + [t2 * x for x in xs]
                + [h * x for x in xs] + self.constants)

    def point(self, vec) -> BethePoint:
        """The system at the roots ``vec``, every row."""
        return self.trial(vec, None, 0)[0]

    def __call__(self, vec) -> np.ndarray:
        return self.point(vec).residuals

    def trial(self, vec, r: float | None,
              first: int) -> tuple[BethePoint | None, int]:
        """(the point at the roots ``vec``, ``first``) when every residual
        there has a modulus below r (or r is None), else (None, the row
        found that has not).

        Rows are tried from ``first`` on, cyclically, and the first row over
        the bar ends the trial, so the decision is that of
        ``np.max(np.abs(fun(vec))) < r``: NaN and inf are not below r, and
        each modulus is numpy's.  The ``abs`` of a scalar differs from it
        in the last bits, by less than ``TRIAL_MARGIN`` of it, and costs a
        tenth of the ufunc call: it decides alone outside the band
        r (1 -+ ``TRIAL_MARGIN``), and ``np.abs`` only inside.
        """
        values = self.values(list(vec))
        size = self.size
        factors, prefix = [None] * size, [None] * size
        residuals = [None] * size
        if r is not None:
            lo, hi = r * (1 - TRIAL_MARGIN), r * (1 + TRIAL_MARGIN)
        for a in chain(range(first, size), range(first)):
            quads, rhs = self.rows[a]
            factors[a] = fs = _factors(values, quads)
            prefix[a] = pre = list(accumulate(fs, mul, initial=1.0 + 0.0j))
            residuals[a] = res = pre[-1] - rhs
            if r is not None:
                mod = abs(res)  # NaN fails both comparisons, like np.abs's
                if not (mod < lo or mod < hi and np.abs(res) < r):
                    return None, a
        return BethePoint(vec, values, factors, prefix,
                          np.array(residuals, dtype=complex)), first

    def jacobian(self, at: BethePoint) -> np.ndarray:
        """The central difference of the residuals at the point ``at``, of
        roots x: column j is (F(x + dx) - F(x - dx)) / (2 dx_j), dx being
        dx_j = 1e-7 max(1, |x_j|) at entry j and 0 elsewhere, with the bits
        of that numpy expression.

        Off entry j, x + dx holds x_k + 0j, which is x_k but for the sign of
        a zero part.  That sign reaches at most the sign of a zero part of a
        quotient q, or a divisor that numpy's division by zero reads only by
        its modulus, and every factor takes its quotients as 1 - q, which
        drops it; so the factors of ``at`` serve both sides.
        """
        x = at.roots
        steps = np.array([1e-7 * max(1.0, abs(xj)) for xj in x], dtype=complex)
        return (self._columns(at, x + steps)
                - self._columns(at, x - steps)) / (2 * steps)

    def _columns(self, at: BethePoint, moved: np.ndarray) -> np.ndarray:
        """The residuals at ``at`` with root j moved to ``moved[j]``, as
        column j: a row that reads root j multiplies its factors from the
        first that does, those recomputed, onto ``at``'s product of the
        factors before it; the other rows keep ``at``'s residuals."""
        t1, t2, h = self.scales
        size = self.size
        residuals = at.residuals.tolist()
        factors, prefix, rows = at.factors, at.prefix, self.rows
        columns = []
        for j, xj in enumerate(moved):
            values = at.values.copy()
            values[j], values[size + j] = xj, t1 * xj
            values[2 * size + j], values[3 * size + j] = t2 * xj, h * xj
            fresh = iter(_factors(values, self.moved[j])).__next__
            column = residuals.copy()
            for a, pos in self.reads[j]:
                i0 = pos[0]
                fs = factors[a][i0:]
                for i in pos:
                    fs[i - i0] = fresh()
                column[a] = reduce(mul, fs, prefix[a][i0]) - rows[a][1]
            columns.append(column)
        return np.array(columns, dtype=complex).T


def bethe_residuals(xvals: dict[int, list[complex]], pp: ParamPoint,
                    w: tuple[int, ...]) -> np.ndarray:
    """Residuals of the saddle-point equations, one per unknown root.

    The equation of root x of color k is

        prod_u (1 - u/x)/(1 - h u/x)
          * prod_(x' of color k+1) (1 - x'/(t1 x))/(1 - t2 x'/x)
          * prod_(x' of color k-1) (1 - t2 x/x')/(1 - x/(t1 x'))
          * prod_(x' != x of color k) (1 - h x'/x)/(1 - x'/(h x))
          = z_k h^(v_k - 1),

    u over the framing values of color k; the residual is the left side
    minus the right.  ``xvals`` maps a color to its roots; a color outside
    0..N-1, or a framing w without one entry per color, raises
    ``ValueError``.
    """
    n = pp.n_colors
    if unknown := sorted(set(xvals) - set(range(n))):
        raise ValueError(f"roots of colors {unknown} outside 0..{n - 1}")
    v = tuple(len(xvals.get(k, [])) for k in range(n))
    return BetheSystem(v, w, pp)([x for k in range(n) for x in xvals.get(k, [])])


@dataclass
class BetheSolution:
    roots: dict[int, list[complex]]
    residual: float
    iterations: int
    converged: bool


#: Newton restarts, iterations per start, and the residual that converges
BETHE_RESTARTS, BETHE_ITERATIONS, BETHE_TOL = 12, 80, 1e-12


def bethe_solve(v: tuple[int, ...], w: tuple[int, ...], pp: ParamPoint,
                seed: int = 0) -> BetheSolution:
    """Damped Newton on the saddle-point system from randomized starts.

    Starting points sit near the canonical weights of a fixed point of the
    same profile, jittered multiplicatively.  The system is compiled once
    (``BetheSystem``).  The Jacobian is a central difference of it, taken
    from the factors of the current point: a column recomputes only the
    factors that read its moved root.  A line-search trial stops at its
    first row over the current residual, starting with the row that ended
    the last rejected trial.  The point a trial accepts, factors and
    residuals, is the next iteration's: no point is evaluated twice.
    """
    n = pp.n_colors
    rng = np.random.default_rng(seed)
    anchors = fixed_points(v, w, n)
    slots = [(k, i) for k in range(n) for i in range(v[k])]
    size = len(slots)
    if size == 0:
        return BetheSolution({k: [] for k in range(n)}, 0.0, 0, True)

    def unpack(vec):
        xv: dict[int, list[complex]] = {k: [] for k in range(n)}
        for (k, _), val in zip(slots, vec):
            xv[k].append(val)
        return xv

    fun = BetheSystem(v, w, pp)

    best = None
    total_it = 0
    first = 0  # the row that failed the last trial, tried first in the next
    for attempt in range(BETHE_RESTARTS):
        if anchors:
            anchor = anchors[attempt % len(anchors)]
            vals, _ = restriction_values(anchor, pp, framed=False)
            x0 = []
            for k, i in slots:
                base = vals[chern_var(k, i + 1)]
                jit = 1.0 + 0.35 * (rng.standard_normal() + 1j * rng.standard_normal())
                x0.append(base * jit)
            x0 = np.array(x0, dtype=complex)
        else:
            x0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        at = fun.point(x0)
        for it in range(BETHE_ITERATIONS):
            total_it += 1
            r = float(np.max(np.abs(at.residuals)))
            if r < BETHE_TOL:
                return BetheSolution(unpack(at.roots), r, total_it, True)
            try:
                step = np.linalg.solve(fun.jacobian(at), at.residuals)
            except np.linalg.LinAlgError:
                break
            alpha = 1.0
            for _ in range(25):
                got, first = fun.trial(at.roots - alpha * step, r, first)
                if got is not None:
                    at = got
                    break
                alpha /= 2
            else:
                break
        r = float(np.max(np.abs(at.residuals)))
        if best is None or r < best.residual:
            best = BetheSolution(unpack(at.roots), r, total_it, r < BETHE_TOL)
    return best
