"""Vertex-function series, their Jackson-sum oracle, and Bethe equations.

The series counts quasimap degrees per box of the fixed point that labels the
integration cycle: each coefficient is a product of finite Pochhammer ratios
(framing, arrow and gauge factors) against a per-box power of the Kahler
parameters, times the hat-normalized envelope restricted to that fixed point.
An independent per-term oracle recomputes every coefficient directly from the
expectation-value integrand at the shifted points x = phi p^d, using only the
quasi-periodicity multipliers for the envelope factor.

Every factor base is carried as an exact monomial so that the structural
coincidences of restriction points (arrow ratios landing exactly on 1) give
exact zeros in the finite products and exactly matched vanishing factors in
the infinite ones.  That zero bookkeeping is all ``qpoch_mono`` adds: its
values come from ``core.qpoch_fin`` and the point's memoised
``ParamPoint.qpoch_inf``, so the infinite products that recur across the
degree vectors of one pair and across the pairs at one point are computed
once per point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (HBAR, P, SQRT_HBAR, Monomial, ParamPoint, SingularityError,
                   qpoch_fin)
from .envelopes import (Envelope, EnvelopeSpec, chern_slots, restrict,
                        restriction_values)
from .partitions import Box, FixedPoint, fixed_points, quiver_pairs
from .scalars import mu_vacuum_ope


def qpoch_mono(base: Monomial, length: int | None, pp: ParamPoint,
               offset: int = 0) -> tuple[complex, int]:
    """Pochhammer (base p^offset; p)_length of an exact monomial base.

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
        val, zeros = qpoch_mono(base, -length, pp, offset + length)
        return 1.0 / val, -zeros
    p = pp.p
    z = pp.materialize(base) * p ** offset
    e = base.power_of("p")
    skip = -1 if e is None else -(e + offset)
    if skip < 0 or (length is not None and skip >= length):
        return (pp.qpoch_inf(z, p) if length is None
                else qpoch_fin(z, p, length)), 0
    rest = (pp.qpoch_inf(p, p) if length is None
            else qpoch_fin(p, p, length - skip - 1))
    return qpoch_fin(z, p, skip) * rest, 1


def qpoch_fin_mono(base: Monomial, s: int, pp: ParamPoint) -> tuple[complex, int]:
    """Finite Pochhammer (base; p)_s of an exact monomial base (see qpoch_mono)."""
    return qpoch_mono(base, s, pp)


class _RatioAccumulator:
    """Product of infinite-Pochhammer pieces with exact zero bookkeeping."""

    def __init__(self, pp: ParamPoint):
        self.pp = pp
        self.value = 1.0 + 0.0j
        self.zeros = 0

    def times(self, base: Monomial, offset: int = 0):
        v, z = qpoch_mono(base, None, self.pp, offset)
        self.value *= v
        self.zeros += z

    def divide(self, base: Monomial, offset: int = 0):
        v, z = qpoch_mono(base, None, self.pp, offset)
        self.value /= v
        self.zeros -= z

    def times_scalar(self, c: complex):
        self.value *= c

    def result(self) -> complex:
        if self.zeros > 0:
            return 0.0 + 0.0j
        if self.zeros < 0:
            raise SingularityError("net structural pole in a Pochhammer ratio")
        return self.value


def _mu_monomials(mu: FixedPoint):
    """Canonical box list with slot names and exact unframed weight monomials."""
    n = mu.n_colors
    out: list[tuple[Box, Monomial, str]] = []
    slots = chern_slots(mu)
    for i in range(n):
        for j, box in enumerate(slots[i], start=1):
            mono = Monomial({"t1": 1 - box.y, "t2": 1 - box.x})
            out.append((box, mono, f"x{i}_{j}"))
    return out


def _factor_bases(mu: FixedPoint):
    """The monomial bases and degree assignments of all integrand factors.

    Returns (boxes, framing, arrow, gauge) over the quiver pairs of ``mu``
    in the canonical box order: framing entries are (box_index, base =
    phi/u); arrow entries (a_index, b_index, t2 phi_b/phi_a); gauge entries
    (a_index, b_index, phi_a/phi_b).
    """
    boxes = _mu_monomials(mu)
    index = {box: i for i, (box, _, _) in enumerate(boxes)}
    phi = {box: mono for box, mono, _ in boxes}
    pairs = quiver_pairs(mu, list(index))
    t2 = Monomial.var("t2")
    framing = [(index[b], phi[b] / Monomial.var(mu.slots[rank][0].u_var))
               for rank, b in pairs.framing]
    arrow = [(index[a], index[b], t2 * phi[b] / phi[a]) for a, b in pairs.arrow]
    gauge = [(index[a], index[b], phi[a] / phi[b]) for a, b in pairs.gauge]
    return boxes, framing, arrow, gauge


def normalization_factor(mu: FixedPoint, pp: ParamPoint) -> complex:
    """Restriction of the cycle integrand without the envelope factor.

    The vacuum OPE scalar times the framing, arrow and gauge infinite-product
    factors at the canonical weights; identically vanishing arrow factors in
    numerator and denominator positions are dropped pairwise (they cancel in
    every ratio this normalization enters).
    """
    prefix = mu.slots[0][0].u_var.rstrip("0123456789_")
    for slot, _ in mu.slots:
        if slot.u_var.rstrip("0123456789_") != prefix:
            raise ValueError("normalization needs one framing name prefix")
    out = mu_vacuum_ope(mu.w, pp, prefix=prefix)
    boxes, framing, arrow, gauge = _factor_bases(mu)
    sqh = pp.materialize(SQRT_HBAR)
    pinv_h = P / HBAR

    def ratio(num: Monomial, den: Monomial) -> complex:
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


@dataclass
class VertexSeries:
    lam: FixedPoint
    mu: FixedPoint
    degree_cap: int
    envelope_at_mu: complex
    coefficients: dict[tuple[int, ...], complex]

    def total(self) -> complex:
        return sum(self.coefficients.values())


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
    n = mu.n_colors
    env = Envelope(EnvelopeSpec(lam, "hat"))
    stab0 = restrict(env, mu, pp, framed=False)
    boxes, framing, arrow, gauge = _factor_bases(mu)
    v, w = mu.v, mu.w
    p, h = pp.p, pp.hbar
    qp = env.qp_unit_factors()
    pref: list[complex] = []
    for box, _, name in boxes:
        k = box.content % n
        base = h ** w[k] * p ** (2 - 2 * v[k] + v[(k + 1) % n] - 2 * w[k])
        pref.append(base / pp.materialize(qp[name]))
    pinv_h = P / HBAR
    # (numerator base, denominator base, i, j): the ratio of Pochhammer
    # symbols of length d[i], or d[i] - d[j] when j is set
    ratios = ([(base, pinv_h * base, ia, None) for ia, base in framing]
              + [(base, pinv_h * base, ib, ia) for ia, ib, base in arrow]
              + [(P * base, HBAR * base, ia, ib) for ia, ib, base in gauge])
    coeffs: dict[tuple[int, ...], complex] = {}
    for d in _degree_vectors(len(boxes), degree_cap):
        term = 1.0 + 0.0j
        zeros = 0
        for da, pr in zip(d, pref):
            term *= pr ** (-da)
        for num, den, i, j in ratios:
            s = d[i] if j is None else d[i] - d[j]
            vn, zn = qpoch_fin_mono(num, s, pp)
            vd, zd = qpoch_fin_mono(den, s, pp)
            term *= vn / vd
            zeros += zn - zd
        if zeros > 0:
            coeffs[d] = 0.0 + 0.0j
        elif zeros < 0:
            raise SingularityError("vertex coefficient has a structural pole")
        else:
            coeffs[d] = term * stab0
    return VertexSeries(lam, mu, degree_cap, stab0, coeffs)


def jackson_term_ratio(mu: FixedPoint, degrees: tuple[int, ...],
                       pp: ParamPoint, qp_factors: dict[str, Monomial]) -> complex:
    """Independent oracle for coefficient(d)/coefficient(0).

    Evaluates the integrand factors at the shifted points x_a = phi_a p^(d_a)
    through infinite-product ratios (matched structural zeros dropped) and
    multiplies the exact quasi-periodicity multipliers of the envelope
    factor.
    """
    boxes, framing, arrow, gauge = _factor_bases(mu)
    p = pp.p
    pinv_h = P / HBAR

    acc = _RatioAccumulator(pp)
    for (box, _, name), da in zip(boxes, degrees):
        acc.times_scalar(pp.materialize(qp_factors[name]) ** da)
    for ia, base in framing:
        da = degrees[ia]
        acc.times_scalar(p ** da)  # the x_a prefactor of the framing factor
        acc.times(P / base, -da)
        acc.divide(P / base, 0)
        acc.divide(HBAR / base, -da)
        acc.times(HBAR / base, 0)
    for ia, ib, base in arrow:
        s = degrees[ib] - degrees[ia]
        acc.times_scalar(p ** (-degrees[ia]))  # the x_a^{-1} prefactor
        acc.times(pinv_h * base, s)
        acc.divide(pinv_h * base, 0)
        acc.divide(base, s)
        acc.times(base, 0)
    for ia, ib, base in gauge:
        s = degrees[ia] - degrees[ib]
        acc.times_scalar(p ** (degrees[ia] + degrees[ib]))  # the x_a x_b prefactor
        acc.times(HBAR * base, s)
        acc.divide(HBAR * base, 0)
        acc.divide(P * base, s)
        acc.times(P * base, 0)
    return acc.result()


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------

def bethe_residuals(xvals: dict[int, list[complex]], pp: ParamPoint,
                    w: tuple[int, ...]) -> np.ndarray:
    """Residuals of the saddle-point equations, one per unknown root."""
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
                if nn == i:
                    continue
                lhs *= (1 - h * xn / x) / (1 - xn / (h * x))
            out.append(lhs - pp.values[f"z{k}"] * h ** (vk - 1))
    return np.array(out, dtype=complex)


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
    same profile, jittered multiplicatively.
    """
    n = pp.n_colors
    rng = np.random.default_rng(seed)
    anchors = fixed_points(v, w, n, u_names=None)
    slots = [(k, i) for k in range(n) for i in range(v[k])]
    size = len(slots)
    if size == 0:
        return BetheSolution({k: [] for k in range(n)}, 0.0, 0, True)

    def unpack(vec):
        xv: dict[int, list[complex]] = {k: [] for k in range(n)}
        for (k, _), val in zip(slots, vec):
            xv[k].append(val)
        return xv

    def fun(vec):
        return bethe_residuals(unpack(vec), pp, w)

    best = None
    total_it = 0
    for attempt in range(BETHE_RESTARTS):
        if anchors:
            anchor = anchors[attempt % len(anchors)]
            vals, _ = restriction_values(anchor, pp, framed=False)
            x0 = []
            for k, i in slots:
                base = vals[f"x{k}_{i + 1}"]
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
