"""Elliptic stable envelopes: building blocks, symmetrization, restriction.

An envelope attached to a fixed point is the per-color symmetrization of a
product of theta factors (the chamber-ordered S-product in its plain, hatted
or tilde normalization) times a sum of tree weights, one admissible rooted
tree per framing slot.  A compile takes the boxes, Chern slots, quiver pairs
and index degrees of the fixed point once, and sorts the factors of every
term in ``repr`` order, keying each distinct factor once.  The compiled
structure keeps every theta argument as an exact monomial, and is lowered
once, at its first evaluation (``LoweredSum``): the distinct theta arguments
of all terms, and per term a sign, index lists into them and the exact
prefactor monomial.  An envelope that is only asked for exact data, such as
its quasi-periodicity factors, is never lowered.  Evaluation assigns complex
values to the Chern-root variables of one extended parameter point,
overwrites them per permutation of the roots, takes each distinct theta once
per permutation through fixed logarithms (reading only its coefficient, so
no half power is formed) and combines the terms by index in floating point;
exact monomial arithmetic stays at compile time.  The envelopes of one basis
restricted to one point share a ``ThetaTable``: a theta argument that
several columns of a restriction matrix carry is taken once per permutation,
and once per matrix if it has no Chern root.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import HBAR, BudgetError, Monomial, ParamPoint, SingularityError
from .partitions import (Box, FixedPoint, QuiverPairs, box_slot_vars,
                         chern_slots, index_degrees, lambda_trees, phi_weight,
                         quiver_pairs, rho_less)
from .sampling import random_assignment

VARIANTS = ("plain", "hat", "tilde")

#: most permutations of the Chern roots an envelope may be symmetrized over
SYM_BUDGET = 40320


def default_kahler(n_colors: int) -> dict[int, Monomial]:
    return {i: Monomial.var(f"z{i}") for i in range(n_colors)}


@dataclass(frozen=True)
class EnvelopeSpec:
    """What to build: fixed point, normalization variant, nome, Kahler args."""

    fp: FixedPoint
    variant: str = "hat"
    star: bool = False
    kahler: tuple[tuple[int, Monomial], ...] | None = None

    def kahler_map(self) -> dict[int, Monomial]:
        if self.kahler is None:
            return default_kahler(self.fp.n_colors)
        return dict(self.kahler)


def kahler_args(mapping: dict[int, Monomial]) -> tuple[tuple[int, Monomial], ...]:
    return tuple(sorted(mapping.items()))


@dataclass
class ThetaProduct:
    """Product of odd theta factors with an overall sign, all graded."""

    num: list[Monomial] = field(default_factory=list)
    den: list[Monomial] = field(default_factory=list)
    sign: int = 0

    def mul_ratio(self, num: Monomial, den: Monomial):
        """theta(num) / theta(den) with a minus sign."""
        self.num.append(num)
        self.den.append(den)
        self.sign += 1

    def eval(self, pp: ParamPoint, star: bool) -> complex:
        """The value at a point: the one-term case of ``LoweredSum.eval``."""
        return LoweredSum([self]).eval(pp, star)

    def mono_total(self) -> Monomial:
        """The exact prefactor: prod num^(-1/2) den^(1/2).

        The half power is taken once, of prod num / den: the result has the
        exponents and the variable order of the chained product of half
        powers, so it materializes to the same float.
        """
        return Monomial.product([(m, 1) for m in self.num]
                                + [(m, -1) for m in self.den]).inv_sqrt()


class LoweredSum:
    """A sum of theta products lowered once for repeated evaluation.

    It keeps the distinct theta arguments of all its terms in ``args`` and,
    per term, the sign as +-1.0, index lists into ``args`` of the numerator
    and the denominator, and the exact prefactor
    (``ThetaProduct.mono_total``).  ``eval`` takes each distinct theta once
    and multiplies each term out in its own factor order, so the value is bit
    for bit that of multiplying graded values factor by factor, with no exact
    monomial arithmetic at evaluation time.  Every argument and prefactor
    keeps its float exponents (``Monomial.float_items``).
    """

    def __init__(self, products: list[ThetaProduct]):
        index: dict[Monomial, int] = {}
        self.terms = [((-1.0) ** (prod.sign % 2),
                       [index.setdefault(m, len(index)) for m in prod.num],
                       [index.setdefault(m, len(index)) for m in prod.den],
                       prod.mono_total())
                      for prod in products]
        self.args = list(index)
        for m in self.args + [pref for *_, pref in self.terms]:
            m.float_items()
        self._keyed: tuple[frozenset, list] | None = None

    def _table_keys(self, chern_roots: frozenset) -> list[tuple[Monomial, tuple, bool]]:
        """Per argument: the argument, its ``ThetaTable`` key (the ordered
        exponent items) and whether it is free of ``chern_roots``.  Built at
        the first evaluation with a table, and again for a table of another
        root set."""
        if self._keyed is None or self._keyed[0] != chern_roots:
            self._keyed = chern_roots, [(m, tuple(m._exps.items()),
                                         chern_roots.isdisjoint(m._exps))
                                        for m in self.args]
        return self._keyed[1]

    def eval(self, pp: ParamPoint, star: bool, thetas: ThetaTable | None = None,
             perm: int = 0) -> complex:
        """The value at a point.  With ``thetas``, the table of the point's
        Chern-root assignment, and ``perm``, the index of the permutation of
        the roots the point carries, a theta is read from the table or taken
        and written to it."""
        theta = pp.theta
        if thetas is None:
            th = [theta(m, star).coeff for m in self.args]
        else:
            free, bound = thetas.perm(perm)
            th = []
            for m, key, is_free in self._table_keys(thetas.chern_roots):
                known = free if is_free else bound
                c = known.get(key)
                if c is None:
                    c = known[key] = theta(m, star).coeff
                th.append(c)
        total = 0.0 + 0.0j
        for sign, num, den, pref in self.terms:
            c = sign
            for k in num:
                c = c * th[k]
            for k in den:
                if th[k] == 0:
                    raise SingularityError(f"theta pole in denominator at {self.args[k]}")
                c = c / th[k]
            total += c * pp.materialize(pref)
        return total


class ThetaTable:
    """Theta values shared by the envelopes of one basis at one restriction
    point.

    ``restriction_matrix`` makes one table per restriction point (one
    assignment of the Chern roots) and passes it to every column's
    ``Envelope.eval``; the envelopes of a basis share their Chern roots and
    so enumerate the same permutations of them.  An argument is keyed by its
    ordered exponent items, not by monomial equality: equal monomials whose
    exponents run in another order materialize to different last bits, so
    they are kept apart.  An argument with a Chern root is taken once per
    permutation of the roots; a Chern-root-free one once for all the tables
    that share ``free`` (the points of one matrix, at one parameter point
    and nome).  Each column still multiplies out its own terms in its own
    order, so every value is bit for bit that of evaluating the envelope
    alone.  A table lives as long as the matrix it serves.

    ``chern_roots`` names the Chern roots the point assigns; an argument
    free of them is shared through ``free``.
    """

    def __init__(self, chern_roots: Iterable[str], free: dict | None = None):
        self.chern_roots = frozenset(chern_roots)
        self.free: dict[tuple, complex] = {} if free is None else free
        self._bound: list[dict[tuple, complex]] = []

    def perm(self, k: int) -> tuple[dict, dict]:
        """The (Chern-root-free, Chern-root) value dicts of permutation k."""
        while len(self._bound) <= k:
            self._bound.append({})
        return self.free, self._bound[k]


def _u_mono(fp: FixedPoint, rank: int) -> Monomial:
    slot, _ = fp.slots[rank]
    return Monomial.var(slot.u_var)


def _rho_le_root(fp: FixedPoint, box: Box, rank: int) -> bool:
    """rho_box <= rho of the (1,1) anchor of the given framing slot."""
    anchor = fp.root_anchor(rank)
    if box.owner == anchor.owner and (box.x, box.y) == (1, 1):
        return True
    return not rho_less(anchor, 0, box)


def _x_monos(xvar: dict[Box, str]) -> dict[Box, Monomial]:
    return {b: Monomial.var(name) for b, name in xvar.items()}


def _s_product(fp: FixedPoint, variant: str, pairs: QuiverPairs,
               x: dict[Box, Monomial]) -> ThetaProduct:
    """The S-product factors of some quiver pairs of a fixed point.

    Plain: theta(t1 x_a/x_b) per arrow pair with rho_a + 1 < rho_b, else
    theta(t2 x_b/x_a); theta(x_a/u) per framing pair at or below the slot's
    root, else theta(hbar u/x_a); 1/(theta(x_a/x_b) theta(hbar x_a/x_b)) per
    gauge pair with rho_a < rho_b.  Hat and tilde divide each arrow factor
    by its partner (the other argument above), keep only the framing factors
    above the root (hat) or at or below it (tilde), each divided by its
    partner, and turn one gauge denominator into the numerator theta(x_b/x_a)
    (hat) or theta(hbar x_b/x_a) (tilde).  ``x`` maps each box to its root.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    t1, t2 = Monomial.var("t1"), Monomial.var("t2")
    plain = variant == "plain"
    prod = ThetaProduct()
    for a, b in pairs.arrow:
        below = rho_less(a, 1, b)
        m = t1 * x[a] / x[b] if below else t2 * x[b] / x[a]
        if plain:
            prod.num.append(m)
        else:
            prod.mul_ratio(m, t2 * x[b] / x[a] if below else t1 * x[a] / x[b])
    for rank, a in pairs.framing:
        le = _rho_le_root(fp, a, rank)
        u = _u_mono(fp, rank)
        if plain:
            prod.num.append(x[a] / u if le else HBAR * u / x[a])
        elif le and variant == "tilde":
            prod.mul_ratio(x[a] / u, HBAR * u / x[a])
        elif not le and variant == "hat":
            prod.mul_ratio(HBAR * u / x[a], x[a] / u)
    for a, b in pairs.gauge:
        if not rho_less(a, 0, b):
            continue
        if plain:
            ratio = x[a] / x[b]
            prod.den += [ratio, HBAR * ratio]
        elif variant == "hat":
            prod.num.append(x[b] / x[a])
            prod.den.append(HBAR * x[a] / x[b])
        else:
            prod.num.append(HBAR * x[b] / x[a])
            prod.den.append(x[a] / x[b])
    return prod


def s_factor_product(fp: FixedPoint, variant: str) -> ThetaProduct:
    """The unsymmetrized S-product of the requested normalization."""
    return _s_product(fp, variant, quiver_pairs(fp), _x_monos(box_slot_vars(fp)))


def normalization_kernel(fp: FixedPoint, which: str) -> ThetaProduct:
    """The K-factor relating the plain S-product to its hat/tilde form."""
    x = _x_monos(box_slot_vars(fp))
    t1, t2 = Monomial.var("t1"), Monomial.var("t2")
    pairs = quiver_pairs(fp)
    prod = ThetaProduct()
    for a, b in pairs.arrow:
        prod.num.append(t2 * x[b] / x[a] if rho_less(a, 1, b) else t1 * x[a] / x[b])
    for rank, a in pairs.framing:
        u = _u_mono(fp, rank)
        prod.num.append(x[a] / u if which == "I" else HBAR * u / x[a])
    for a, b in pairs.gauge:
        prod.den.append(x[a] / x[b] if which == "I" else HBAR * x[a] / x[b])
    return prod


def normalization_parity(fp: FixedPoint, which: str) -> int:
    """Parity exponent in S = (-1)^eps K S-normalized."""
    pairs = quiver_pairs(fp)
    flipped = sum(1 for rank, a in pairs.framing
                  if _rho_le_root(fp, a, rank) == (which == "II"))
    return (len(pairs.arrow) + flipped) % 2


@dataclass
class TreeTupleWeight:
    """Compiled data of one admissible tree choice: sign and phi arguments."""

    kappa: int
    phi_args: list[tuple[Monomial, Monomial]]


def tree_weights(fp: FixedPoint, kahler: dict[int, Monomial],
                 boxes: list[Box] | None = None,
                 x: dict[Box, Monomial] | None = None,
                 degrees: dict[Box, int] | None = None) -> list[TreeTupleWeight]:
    """All tree-tuple weights of a fixed point, compiled to phi arguments.

    ``boxes`` is ``fp.boxes()``, ``x`` maps each box to its Chern root and
    ``degrees`` is ``index_degrees(fp)``; each is computed if not given.  The
    phi arguments of one tree of one slot are built once and shared by every
    tuple that holds the tree.
    """
    n = fp.n_colors
    if boxes is None:
        boxes = fp.boxes()
    if x is None:
        x = _x_monos(box_slot_vars(fp))
    if degrees is None:
        degrees = index_degrees(fp, boxes)
    # per (slot rank, cell): the Chern root of its box, its restriction
    # weight, its Kahler argument and hbar to its index degree
    cell = {(b.owner, b.x, b.y): (x[b], phi_weight(fp, b),
                                  kahler[b.content % n], HBAR ** degrees[b])
            for b in boxes}

    def subtree_mono(rank, tree, root) -> Monomial:
        acc = Monomial.one()
        for cx, cy in tree.subtree[root]:
            _, _, kah, hdeg = cell[(rank, cx, cy)]
            acc = acc * kah * hdeg
        return acc

    def slot_phi_args(rank, tree) -> list[tuple[Monomial, Monomial]]:
        u = _u_mono(fp, rank)
        phi_args = [(cell[(rank, 1, 1)][0] / u, subtree_mono(rank, tree, (1, 1)))]
        for par_cell, child_cell in tree.edges():
            x_par, w_par, _, _ = cell[(rank,) + par_cell]
            x_child, w_child, _, _ = cell[(rank,) + child_cell]
            arg = x_child * w_par / (x_par * w_child)
            phi_args.append((arg, subtree_mono(rank, tree, child_cell)))
        return phi_args

    per_slot: list[list] = []
    for rank, (slot, lam) in enumerate(fp.slots):
        if lam.size == 0:
            continue
        choices = lambda_trees(lam)
        if not choices:
            raise ValueError(f"no admissible tree for partition {lam.rows}")
        per_slot.append([(t.kappa, slot_phi_args(rank, t)) for t in choices])

    return [TreeTupleWeight(sum(kappa for kappa, _ in combo),
                            [arg for _, args in combo for arg in args])
            for combo in itertools.product(*per_slot)]


def _cancel(num: list[Monomial], den: list[Monomial], sign: int) -> ThetaProduct:
    """Cancel matching theta arguments between numerator and denominator.

    Identical factors cancel exactly (theta(m)/theta(m) = 1), which makes the
    removable zero-over-zero combinations at restriction points evaluable.
    No compiled envelope term has a numerator m against a denominator 1/m.
    Equal arguments are counted together and kept as their first occurrence;
    the factors left are sorted by ``repr``.
    """
    cn, cd = Counter(num), Counter(den)
    return ThetaProduct(_left_sorted(cn, cd), _left_sorted(cd, cn), sign)


def _left_sorted(counts: Counter, other: Counter) -> list[Monomial]:
    """The arguments of ``counts`` that ``other`` does not cancel, each as
    often as it is left, sorted by ``repr``: each distinct argument is keyed
    once."""
    left = {m: c - other.get(m, 0) for m, c in counts.items()}
    return [m for m in sorted([m for m, c in left.items() if c > 0], key=repr)
            for _ in range(left[m])]


class Envelope:
    """A compiled stable envelope, one ``ThetaProduct`` term per admissible
    tree tuple, lowered into a ``LoweredSum`` at its first evaluation;
    evaluate on Chern-root value assignments."""

    def __init__(self, spec: EnvelopeSpec):
        self.spec = spec
        fp = spec.fp
        self.fp = fp
        boxes = fp.boxes()
        self.slots = chern_slots(fp, boxes)
        self.nvars = {i: [f"x{i}_{j}" for j in range(1, len(bs) + 1)]
                      for i, bs in self.slots.items()}
        size = math.prod(math.factorial(len(names)) for names in self.nvars.values())
        if size > SYM_BUDGET:
            raise BudgetError(f"symmetrization over {size} permutations exceeds budget")
        x = _x_monos(box_slot_vars(fp, self.slots))
        pairs = quiver_pairs(fp, boxes)
        sprod = _s_product(fp, spec.variant, pairs, x)
        degrees = index_degrees(fp, boxes, pairs)
        self._terms: list[ThetaProduct] = []
        for tw in tree_weights(fp, spec.kahler_map(), boxes, x, degrees):
            num, den = list(sprod.num), list(sprod.den)
            for xm, ym in tw.phi_args:
                num += [xm * ym, HBAR]
                den += [xm, ym]
            self._terms.append(_cancel(num, den, sprod.sign + tw.kappa))
        self._lowered: LoweredSum | None = None
        # per color, the permutations of its roots as positions in x_names()
        pos = {name: k for k, name in enumerate(self.x_names())}
        self._perms = [list(itertools.permutations([pos[name] for name in self.nvars[i]]))
                       for i in range(fp.n_colors)]

    def x_names(self) -> list[str]:
        return [name for i in range(self.fp.n_colors) for name in self.nvars[i]]

    def qp_unit_factors(self) -> dict[str, Monomial]:
        """Exact multiplier of the envelope under x_a -> p x_a, per slot.

        Derived from the theta shift law applied to the compiled factors: a
        numerator argument m contributes m^(-k) (k the slot exponent in m), a
        denominator argument m^(+k); for the ratio-normalized variants every
        p-power and sign cancels pairwise and the result is an x-independent
        monomial in the Kahler variables and hbar (the Kahler part is the
        z^(-1) of the quasi-periodicity law, the hbar part its correction).
        Raises if the factor differs between compiled terms or retains Chern
        variables.
        """
        names = self.x_names()
        per_term = []
        for term in self._terms:
            parts: dict[str, list[tuple[Monomial, int]]] = {name: [] for name in names}
            for m, sign in itertools.chain(((m, -1) for m in term.num),
                                           ((m, 1) for m in term.den)):
                for name, k in m._exps.items():
                    if name in parts:
                        parts[name].append((m, sign * k))
            per_term.append({name: Monomial.product(parts[name]) for name in names})
        out: dict[str, Monomial] = {}
        for name in names:
            factor = per_term[0][name]
            if any(t[name] != factor for t in per_term[1:]):
                raise ValueError("quasi-periodicity factor is not uniform "
                                 "across tree terms")
            if any(v.startswith("x") for v in factor.exps):
                raise ValueError("quasi-periodicity factor retains Chern roots; "
                                 "only ratio-normalized variants have one")
            out[name] = factor
        return out

    def _term(self, pp: ParamPoint, thetas: ThetaTable | None = None,
              perm: int = 0) -> complex:
        """The unsymmetrized envelope at the point's Chern-root values.

        The first call lowers the terms: an envelope compiled only for its
        exact data (``qp_unit_factors``) never pays for the lowering.
        ``thetas`` and ``perm`` are passed on to ``LoweredSum.eval``.
        """
        if self._lowered is None:
            self._lowered = LoweredSum(self._terms)
        return self._lowered.eval(pp, self.spec.star, thetas, perm)

    def eval(self, pp: ParamPoint, values: dict[str, complex],
             logs: dict[str, complex] | None = None,
             thetas: ThetaTable | None = None) -> complex:
        """Symmetrized value at an assignment of the Chern-root variables.

        One extended point carries the assignment; each permutation of the
        roots overwrites its Chern-root values and logs in place.  With
        ``thetas``, the table of this assignment, a theta that another
        envelope already took there is read from the table.
        """
        if logs is None:
            logs = {k: cmath.log(v) for k, v in values.items()}
        ppx = pp.extended(values, logs)
        vals, lgs = ppx.values, ppx.logs
        names = self.x_names()
        vals0 = [vals[name] for name in names]
        logs0 = [lgs[name] for name in names]
        per_color = [self.nvars[i] for i in range(self.fp.n_colors)]
        total = 0.0 + 0.0j
        for k, combo in enumerate(itertools.product(*self._perms)):
            for dests, perm in zip(per_color, combo):
                for name, src in zip(dests, perm):
                    vals[name] = vals0[src]
                    lgs[name] = logs0[src]
            total += self._term(ppx, thetas, k)
        return total


def restriction_values(fp_rester: FixedPoint, pp: ParamPoint,
                       p_shifts: dict[str, int] | None = None,
                       framed: bool = True):
    """Chern-root values (and logs) of the canonical assignment of a fixed point.

    ``p_shifts`` multiplies the slot value by p^d for quasi-periodicity checks,
    keyed by variable name.  With ``framed`` the tautological weight carries
    the framing coordinate u of the slot (needed to separate equal boxes of
    distinct framing slots); without it the bare t1^(1-y) t2^(1-x) weight is
    used, the convention of the vertex-function normalization.
    """
    values: dict[str, complex] = {}
    logs: dict[str, complex] = {}
    for i, boxes in chern_slots(fp_rester).items():
        for j, box in enumerate(boxes, start=1):
            name = f"x{i}_{j}"
            mono = phi_weight(fp_rester, box)
            if not framed:
                slot, _ = fp_rester.slots[box.owner]
                mono = mono / Monomial.var(slot.u_var)
            if p_shifts and name in p_shifts and p_shifts[name]:
                mono = mono * Monomial.var("p") ** p_shifts[name]
            values[name] = pp.materialize(mono)
            logs[name] = pp.log_of(mono)
    return values, logs


def restrict(env: Envelope, mu: FixedPoint, pp: ParamPoint,
             p_shifts: dict[str, int] | None = None,
             framed: bool = True) -> complex:
    """Evaluate an envelope at the canonical Chern assignment of mu."""
    if mu.v != env.fp.v or mu.w != env.fp.w:
        raise ValueError("restriction point must share the (v, w) class")
    values, logs = restriction_values(mu, pp, p_shifts, framed)
    return env.eval(pp, values, logs)


# ---------------------------------------------------------------------------
# Factorization of the plain S-product through the K kernels
# ---------------------------------------------------------------------------

def factorization_residual(fp: FixedPoint, pp: ParamPoint, which: str,
                           values: dict[str, complex]) -> float:
    """Pointwise check of S = (-1)^eps K S_normalized at one assignment."""
    logs = {k: cmath.log(v) for k, v in values.items()}
    ppx = pp.extended(values, logs)
    plain = s_factor_product(fp, "plain").eval(ppx, False)
    variant = "hat" if which == "I" else "tilde"
    normalized = s_factor_product(fp, variant).eval(ppx, False)
    kernel = normalization_kernel(fp, which).eval(ppx, False)
    eps = normalization_parity(fp, which)
    rhs = (-1.0) ** eps * kernel * normalized
    return abs(plain - rhs) / max(abs(plain), abs(rhs))


# ---------------------------------------------------------------------------
# Shuffle product
# ---------------------------------------------------------------------------

def concat_fixed_points(fpa: FixedPoint, fpb: FixedPoint) -> FixedPoint:
    if fpa.n_colors != fpb.n_colors:
        raise ValueError("color counts differ")
    names = [s.u_var for s, _ in fpa.slots] + [s.u_var for s, _ in fpb.slots]
    if len(set(names)) != len(names):
        raise ValueError("framing variable names must be distinct")
    return FixedPoint(fpa.slots + fpb.slots, fpa.n_colors)


def shuffle_kahler_shifts(n: int, va, wa, vb, wb):
    """Kahler arguments of the two factors inside the shuffle formula.

    First factor: z_i * hbar^(w''_i - v''_i + v''_{i+1}); second factor:
    z_i * hbar^(v'_i - v'_{i-1}).
    """
    za = {i: Monomial.var(f"z{i}") * HBAR ** (wb[i] - vb[i] + vb[(i + 1) % n])
          for i in range(n)}
    zb = {i: Monomial.var(f"z{i}") * HBAR ** (va[i] - va[(i - 1) % n])
          for i in range(n)}
    return za, zb


def _cross_prefactor(fpa: FixedPoint, fpb: FixedPoint, variant: str) -> ThetaProduct:
    """The S-product factors of the concatenated fixed point whose pair joins
    a slot or box of ``fpa`` to one of ``fpb``, in the variables ``A_x..``
    of ``fpa`` and ``B_x..`` of ``fpb``."""
    big = concat_fixed_points(fpa, fpb)
    xa, xb = box_slot_vars(fpa), box_slot_vars(fpb)
    names = ([f"A_{xa[b]}" for b in fpa.boxes()]
             + [f"B_{xb[b]}" for b in fpb.boxes()])
    x = {b: Monomial.var(name) for b, name in zip(big.boxes(), names)}
    ka = len(fpa.slots)
    pairs = quiver_pairs(big)
    cross = QuiverPairs(
        [(r, b) for r, b in pairs.framing if (r < ka) != (b.owner < ka)],
        [(a, b) for a, b in pairs.arrow if (a.owner < ka) != (b.owner < ka)],
        [(a, b) for a, b in pairs.gauge if (a.owner < ka) != (b.owner < ka)])
    return _s_product(big, variant, cross, x)


def shuffle_residual(fpa: FixedPoint, fpb: FixedPoint, pp: ParamPoint,
                     variant: str = "hat", star: bool = False,
                     n_assignments: int = 5, rng=None) -> float:
    """Max relative deviation between a concatenated envelope and its shuffle
    product over random Chern-root assignments."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = fpa.n_colors
    big = concat_fixed_points(fpa, fpb)
    env_big = Envelope(EnvelopeSpec(big, variant, star))
    za, zb = shuffle_kahler_shifts(n, fpa.v, fpa.w, fpb.v, fpb.w)
    env_a = Envelope(EnvelopeSpec(fpa, variant, star, kahler_args(za)))
    env_b = Envelope(EnvelopeSpec(fpb, variant, star, kahler_args(zb)))
    pref = LoweredSum([_cross_prefactor(fpa, fpb, variant)])

    slots_big, slots_a = chern_slots(big), chern_slots(fpa)
    picks_per_color = [list(itertools.combinations(range(len(slots_big[i])),
                                                   len(slots_a[i])))
                       for i in range(n)]
    worst = 0.0
    for _ in range(n_assignments):
        values = random_assignment(rng, env_big.x_names())
        logs = {k: cmath.log(v) for k, v in values.items()}
        lhs = env_big.eval(pp, values, logs)

        rhs = 0.0 + 0.0j
        for picks in itertools.product(*picks_per_color):
            # values and logs of the roots of each factor, renumbered per
            # color, and under the A_/B_ names of the cross factor
            split = {"A": ({}, {}), "B": ({}, {})}
            cross_vals, cross_logs = {}, {}
            for i in range(n):
                count = {"A": 0, "B": 0}
                for idx in range(len(slots_big[i])):
                    side = "A" if idx in picks[i] else "B"
                    count[side] += 1
                    src, dst = f"x{i}_{idx + 1}", f"x{i}_{count[side]}"
                    split[side][0][dst] = cross_vals[f"{side}_{dst}"] = values[src]
                    split[side][1][dst] = cross_logs[f"{side}_{dst}"] = logs[src]
            (va, la), (vb, lb) = split["A"], split["B"]
            ppx = pp.extended(cross_vals, cross_logs)
            pf = pref.eval(ppx, star)
            rhs += pf * env_a.eval(pp, va, la) * env_b.eval(pp, vb, lb)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst
