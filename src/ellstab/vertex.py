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
across the pairs at one point are computed once per point.  The oracle takes
each factor's ratio of four infinite products through one step
(``_ratio_step``), and the series and the oracle turn a net zero count into
a zero, the value or a structural pole in one place (``_net``).

The factor bases of a fixed point, lowered, form its ``VertexTable``.  A
parameter point builds the table of a fixed point once, at the first series,
oracle or normalization that asks for it (``vertex_table``), and every later
call at that point reads it.  The table also keeps every Pochhammer product
taken of its bases, keyed by value as (lowered base, length, offset)
(``VertexTable.qpoch``): a product that recurs across the degree vectors of
a series, its oracle terms and the normalization is taken once per table.
The Bethe equations of a profile are compiled the same way, once per
``bethe_solve``, into a ``BetheSystem`` that its Newton iterations evaluate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (HBAR, P, SQRT_HBAR, Monomial, ParamPoint, SingularityError,
                   qpoch_fin)
from .envelopes import Envelope, EnvelopeSpec, restrict, restriction_values
from .partitions import (FixedPoint, FramingGroup, box_slot_vars, chern_var,
                         fixed_points, kahler_var, phi_weight, quiver_pairs)
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


def _ratio_step(value: complex, a: LoweredBase, b: LoweredBase, s: int,
                table: VertexTable, pp: ParamPoint) -> tuple[complex, int]:
    """``value`` times the infinite-product ratio of one integrand factor
    shifted by s, (a p^s; p)_inf / (a; p)_inf / (b p^s; p)_inf * (b; p)_inf,
    with its net zero count (see ``qpoch_low``), each product read from
    ``table``, the table at ``pp`` that holds a and b."""
    v1, z1 = table.qpoch(a, None, pp, s)
    v2, z2 = table.qpoch(a, None, pp)
    v3, z3 = table.qpoch(b, None, pp, s)
    v4, z4 = table.qpoch(b, None, pp)
    return value * v1 / v2 / v3 * v4, z1 - z2 - z3 + z4


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

    ``boxes`` is the canonical box list of ``_factor_bases``.  Each of
    ``framing`` (a, A, B), ``arrow`` (a, b, A, B) and ``gauge`` (a, b, A, B)
    holds per factor the box indices and the two bases of its infinite
    ratio (A; p)_inf / (B; p)_inf, the form in which the oracle and
    ``normalization_factor`` take it.  ``series`` holds per factor the
    (numerator, denominator, i, j) of the series' finite ratio, of length
    d[i], or d[i] - d[j] when j is set.

    ``qpoch`` takes the Pochhammer products of these bases, each once per
    table: the series, the oracle and ``normalization_factor`` read them
    from it.
    """

    __slots__ = ("boxes", "framing", "arrow", "gauge", "series", "_products")

    def __init__(self, mu: FixedPoint, pp: ParamPoint):
        self._products: dict[tuple[LoweredBase, int | None, int],
                             tuple[complex, int]] = {}
        boxes, framing, arrow, gauge = _factor_bases(mu)
        pinv_h = P / HBAR
        self.boxes = boxes
        self.framing = [(ia, lower(P / base, pp), lower(HBAR / base, pp))
                        for ia, base in framing]
        self.arrow = [(ia, ib, lower(pinv_h * base, pp), lower(base, pp))
                      for ia, ib, base in arrow]
        self.gauge = [(ia, ib, lower(HBAR * base, pp), lower(P * base, pp))
                      for ia, ib, base in gauge]
        self.series = ([(lower(base, pp), lower(pinv_h * base, pp), ia, None)
                        for ia, base in framing]
                       + [(b, a, ib, ia) for ia, ib, a, b in self.arrow]
                       + [(b, a, ia, ib) for ia, ib, a, b in self.gauge])

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

    def ratio(num: LoweredBase, den: LoweredBase) -> complex:
        return table.qpoch(num, None, pp)[0] / table.qpoch(den, None, pp)[0]

    for ia, a, b in table.framing:
        out *= pp.materialize(boxes[ia][1])
        out *= ratio(a, b)
    for ia, ib, a, b in table.arrow:
        out /= pp.materialize(boxes[ia][1])
        out *= ratio(a, b)
    for ia, ib, a, b in table.gauge:
        out *= pp.materialize(boxes[ia][1] * boxes[ib][1]) / sqh
        out *= ratio(a, b)
    return out


@dataclass
class VertexSeries:
    lam: FixedPoint
    mu: FixedPoint
    degree_cap: int
    envelope_at_mu: complex
    coefficients: dict[tuple[int, ...], complex]


def _degree_vectors(n_boxes: int, cap: int):
    if n_boxes == 0:
        yield ()
        return
    for total in range(cap + 1):
        for cuts in itertools.combinations(range(total + n_boxes - 1), n_boxes - 1):
            vec = []
            prev = -1
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(total + n_boxes - 2 - prev if n_boxes > 1 else total)
            yield tuple(vec)


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
    env = Envelope(EnvelopeSpec(lam, "hat"))
    stab0 = restrict(env, mu, pp, framed=False)
    table = vertex_table(mu, pp)
    v, w = mu.v, mu.w
    p, h = pp.p, pp.hbar
    qp = env.qp_unit_factors()
    pref: list[complex] = []
    for box, _, name in table.boxes:
        k = box.content % n
        base = h ** w[k] * p ** (2 - 2 * v[k] + v[(k + 1) % n] - 2 * w[k])
        pref.append(base / pp.materialize(qp[name]))
    coeffs: dict[tuple[int, ...], complex] = {}
    qpoch = table.qpoch
    for d in _degree_vectors(len(table.boxes), degree_cap):
        term = 1.0 + 0.0j
        zeros = 0
        for da, pr in zip(d, pref):
            term *= pr ** (-da)
        for num, den, i, j in table.series:
            s = d[i] if j is None else d[i] - d[j]
            vn, zn = qpoch(num, s, pp)
            vd, zd = qpoch(den, s, pp)
            term *= vn / vd
            zeros += zn - zd
        coeffs[d] = _net(term * stab0, zeros,
                         "vertex coefficient has a structural pole")
    return VertexSeries(lam, mu, degree_cap, stab0, coeffs)


def jackson_term_ratio(mu: FixedPoint, degrees: tuple[int, ...],
                       pp: ParamPoint, qp_factors: dict[str, Monomial]) -> complex:
    """Independent oracle for coefficient(d)/coefficient(0).

    Evaluates the integrand factors at the shifted points x_a = phi_a p^(d_a)
    through infinite-product ratios (matched structural zeros dropped) and
    multiplies the exact quasi-periodicity multipliers of the envelope
    factor.
    """
    table = vertex_table(mu, pp)
    if len(degrees) != len(table.boxes):
        raise ValueError(f"{len(degrees)} degrees for a fixed point of box "
                         f"count {len(table.boxes)}")
    p = pp.p

    value, zeros = 1.0 + 0.0j, 0
    for (box, _, name), da in zip(table.boxes, degrees):
        value *= pp.materialize(qp_factors[name]) ** da
    for ia, a, b in table.framing:
        da = degrees[ia]
        value *= p ** da  # the x_a prefactor of the framing factor
        value, z = _ratio_step(value, a, b, -da, table, pp)
        zeros += z
    for ia, ib, a, b in table.arrow:
        value *= p ** (-degrees[ia])  # the x_a^{-1} prefactor
        value, z = _ratio_step(value, a, b, degrees[ib] - degrees[ia],
                                table, pp)
        zeros += z
    for ia, ib, a, b in table.gauge:
        value *= p ** (degrees[ia] + degrees[ib])  # the x_a x_b prefactor
        value, z = _ratio_step(value, a, b, degrees[ia] - degrees[ib],
                                table, pp)
        zeros += z
    return _net(value, zeros, "net structural pole in a Pochhammer ratio")


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------

class BetheSystem:
    """The saddle-point equations of one profile at one point, compiled.

    Unknowns are the roots x_(k,i), color-major in the order of
    ``bethe_residuals``.  Per root the system keeps the framing values u and
    h u of its color, the right-hand side z_k h^(v_k - 1) and the positions
    of its neighbours on colors k+1 and k-1 and of the other roots of color
    k.  Calling it on a root vector returns the residuals with the same
    operations, in the same order, as the formula of ``bethe_residuals``,
    so they agree bit for bit whatever the scalar type of the roots.
    """

    def __init__(self, v: tuple[int, ...], w: tuple[int, ...], pp: ParamPoint):
        n = pp.n_colors
        self.t1, self.t2, self.h = pp.t1, pp.t2, pp.hbar
        h = self.h
        start = [sum(v[:k]) for k in range(n)]
        color = [list(range(start[k], start[k] + v[k])) for k in range(n)]
        framing = FramingGroup(w).slots()
        self.rows = []
        for k in range(n):
            if not v[k]:
                continue
            us = [(u, h * u) for u in (pp.values[s.u_var] for s in framing
                                       if s.color == k)]
            rhs = pp.values[kahler_var(k)] * h ** (v[k] - 1)
            for a in color[k]:
                self.rows.append((us, color[(k + 1) % n], color[(k - 1) % n],
                                  [b for b in color[k] if b != a], rhs))

    def __call__(self, vec) -> np.ndarray:
        t1, t2, h = self.t1, self.t2, self.h
        xs = list(vec)
        t1x = [t1 * x for x in xs]
        t2x = [t2 * x for x in xs]
        hx = [h * x for x in xs]
        out = []
        for a, (us, nxt, prv, same, rhs) in enumerate(self.rows):
            x = xs[a]
            lhs = 1.0 + 0.0j
            for u, hu in us:
                lhs *= (1 - u / x) / (1 - hu / x)
            for b in nxt:
                lhs *= (1 - xs[b] / t1x[a]) / (1 - t2x[b] / x)
            for b in prv:
                lhs *= (1 - t2x[a] / xs[b]) / (1 - x / t1x[b])
            for b in same:
                lhs *= (1 - hx[b] / x) / (1 - xs[b] / hx[a])
            out.append(lhs - rhs)
        return np.array(out, dtype=complex)


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
    minus the right.  ``xvals`` maps a color to its roots.
    """
    n = pp.n_colors
    v = tuple(len(xvals.get(k, [])) for k in range(n))
    return BetheSystem(v, w, pp)([x for k in range(n) for x in xvals.get(k, [])])


def jordan_bethe_residuals(xvals: list[complex], uvals: list[complex],
                           z: complex, pp: ParamPoint) -> np.ndarray:
    """Saddle-point residuals of the single-vertex (Jordan) quiver variant."""
    t1, t2, h = pp.t1, pp.t2, pp.hbar
    out = []
    for a, x in enumerate(xvals):
        lhs = 1.0 + 0.0j
        for u in uvals:
            lhs *= (1 - u / x) / (1 - h * u / x)
        for b, y in enumerate(xvals):
            if b == a:
                continue
            lhs *= ((x - y / h) * (x - t1 * y) * (x - t2 * y)
                    / ((x - h * y) * (x - y / t1) * (x - y / t2)))
        out.append(lhs - z)
    return np.array(out, dtype=complex)


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
    (``BetheSystem``); the Jacobian is a central difference of it.
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
        x = x0
        for it in range(BETHE_ITERATIONS):
            total_it += 1
            f = fun(x)
            r = float(np.max(np.abs(f)))
            if r < BETHE_TOL:
                return BetheSolution(unpack(x), r, total_it, True)
            jac = np.zeros((size, size), dtype=complex)
            hstep = 1e-7
            for j in range(size):
                dx = np.zeros(size, dtype=complex)
                dx[j] = hstep * max(1.0, abs(x[j]))
                jac[:, j] = (fun(x + dx) - fun(x - dx)) / (2 * dx[j])
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
            alpha = 1.0
            for _ in range(25):
                xn = x - alpha * step
                if np.max(np.abs(fun(xn))) < r:
                    x = xn
                    break
                alpha /= 2
            else:
                break
        f = fun(x)
        r = float(np.max(np.abs(f)))
        if best is None or r < best.residual:
            best = BetheSolution(unpack(x), r, total_it, r < BETHE_TOL)
    return best
