"""Elliptic stable envelopes: building blocks, symmetrization, restriction.

An envelope attached to a fixed point is the per-color symmetrization of a
product of theta factors (the chamber-ordered S-product in its plain, hatted
or tilde normalization) times a sum of tree weights, one admissible rooted
tree per framing slot.  A compile takes the boxes, Chern slots, quiver pairs
and index degrees of the fixed point once, builds each theta argument as one
exponent dict, counts the S-product's arguments once for all its terms, and
sorts the factors of every term in ``repr`` order, each argument's ``repr``
formed once.  The compiled structure keeps every theta argument as an exact
monomial, and is lowered once, at its first evaluation (``LoweredSum``): the
distinct theta arguments of all terms, and per term a sign, index lists into
them and the exact prefactor monomial.  An envelope that is only asked for
exact data, such as its quasi-periodicity factors, is never lowered, nor
does it list the permutations of its roots.  Evaluation assigns complex
values to the Chern-root variables of one extended parameter point,
overwrites them per permutation of the roots, takes each distinct theta once
per permutation through fixed logarithms (reading only its coefficient, so
no half power is formed) and combines the terms by index in floating point;
exact monomial arithmetic stays at compile time.  The envelopes of one basis
restricted to one point share a ``ThetaTable``: a theta argument that
several columns of a restriction matrix carry is taken once per permutation,
and once per matrix if it has none of the Chern roots its lowered sum is made
with, and the first column's extended point serves the others.

A Kahler argument is a point value, not part of what is compiled.  Every
envelope is compiled with the plain Kahler variables z_i; the argument
z_i -> k_i (a monomial per color, such as z_i hbar^s or 1/z_i) is applied by
evaluating at ``kahler_point(pp, k)``, where z_i takes the value and the log
of k_i.  So one compiled envelope serves every Kahler argument of a call.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import HBAR, BudgetError, Monomial, ParamPoint, SingularityError
from .partitions import (Box, FixedPoint, LambdaTree, QuiverPairs,
                         box_slot_vars, chern_slots, chern_var, index_degrees,
                         kahler_var, lambda_trees, phi_weight, quiver_pairs,
                         rho_less)
from .sampling import random_assignment

VARIANTS = ("plain", "hat", "tilde")

#: most permutations of the Chern roots an envelope may be symmetrized over
SYM_BUDGET = 40320


def default_kahler(n_colors: int) -> dict[int, Monomial]:
    return {i: Monomial.var(kahler_var(i)) for i in range(n_colors)}


@dataclass(frozen=True)
class EnvelopeSpec:
    """What to build: fixed point, normalization variant and nome.

    No Kahler argument: the compile always uses the plain z_i, and a Kahler
    argument is applied at evaluation, through ``kahler_point``.
    """

    fp: FixedPoint
    variant: str = "hat"
    star: bool = False


def kahler_args(mapping: dict[int, Monomial]) -> tuple[tuple[int, Monomial], ...]:
    return tuple(sorted(mapping.items()))


def shifted_kahler(shift) -> tuple[tuple[int, Monomial], ...]:
    """The Kahler argument z_i -> z_i hbar^(shift_i), one color per entry,
    as ``kahler_args`` pairs."""
    return kahler_args({i: Monomial.var(kahler_var(i)) * HBAR ** s
                        for i, s in enumerate(shift)})


def kahler_point(pp: ParamPoint, kahler) -> ParamPoint:
    """The point at which an envelope takes the Kahler argument ``kahler``.

    ``kahler`` maps each color i to a monomial k_i (a mapping, or the pairs
    of ``kahler_args``); the point is ``pp`` extended with
    log z_i = ``pp.log_of(k_i)`` and z_i its exponential, the value
    ``pp.materialize(k_i)``.  ``None`` is the plain argument, ``pp`` itself.
    This is the one way a Kahler argument is applied.
    """
    if kahler is None:
        return pp
    logs = {kahler_var(i): pp.log_of(m) for i, m in dict(kahler).items()}
    return pp.extended({name: cmath.exp(lg) for name, lg in logs.items()}, logs)


@dataclass
class ThetaProduct:
    """Product of odd theta factors with an overall sign, all graded."""

    num: list[Monomial] = field(default_factory=list)
    den: list[Monomial] = field(default_factory=list)
    sign: int = 0

    def eval(self, pp: ParamPoint, star: bool) -> complex:
        """The value at a point: the one-term case of ``LoweredSum.eval``."""
        return LoweredSum([self], ()).eval(pp, star)

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
    keeps its float exponents (``Monomial.float_items``).  ``chern_roots``
    are the Chern roots the products are in (``Envelope.x_names``; none for
    a product evaluated alone).  At its first evaluation with a table the sum
    keys each argument once: its ``ThetaTable`` key (the ordered exponent
    items) and whether it is free of the roots, and so shared through the
    table's ``free`` dict.

    ``Envelope._term`` takes the denominator thetas of the first term before
    it builds the sum, so that a structural theta pole raises without a
    lowering (``_first_den_thetas``).  It takes each as the monomial
    ``args`` keeps for it, the first equal one of that term, and hands the
    values to the first ``eval`` as ``known``, which takes none of them
    again.
    """

    def __init__(self, products: list[ThetaProduct], chern_roots: Iterable[str]):
        index: dict[Monomial, int] = {}
        self.terms = [((-1.0) ** (prod.sign % 2),
                       [index.setdefault(m, len(index)) for m in prod.num],
                       [index.setdefault(m, len(index)) for m in prod.den],
                       prod.mono_total())
                      for prod in products]
        self.args = list(index)
        for m in self.args + [pref for *_, pref in self.terms]:
            m.float_items()
        self._roots = frozenset(chern_roots)
        self._keys: list[tuple[Monomial, tuple, bool]] | None = None

    def eval(self, pp: ParamPoint, star: bool, thetas: ThetaTable | None = None,
             perm: int = 0, known: dict[int, complex] | None = None) -> complex:
        """The value at a point.  With ``thetas``, the table of the point's
        Chern-root assignment, and ``perm``, the index of the permutation of
        the roots the point carries, a theta is read from the table or taken
        and written to it.  ``known``, given only without a table, maps the
        index in ``args`` of a theta already taken at ``pp`` to its
        coefficient."""
        theta = pp.theta
        if known:
            th = [known[k] if k in known else theta(m, star).coeff
                  for k, m in enumerate(self.args)]
        elif thetas is None:
            th = [theta(m, star).coeff for m in self.args]
        else:
            free, bound = thetas.perm(perm)
            if self._keys is None:
                self._keys = [(m, tuple(m._exps.items()), self._roots.isdisjoint(m._exps))
                              for m in self.args]
            th = []
            for m, key, is_free in self._keys:
                memo = free if is_free else bound
                c = memo.get(key)
                if c is None:
                    c = memo[key] = theta(m, star).coeff
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


def _first_den_thetas(term: ThetaProduct, pp: ParamPoint, star: bool) -> list[complex]:
    """The theta coefficients of the denominator of ``term``, the first term
    of a ``LoweredSum``, in order, as ``LoweredSum.eval`` takes them: each
    argument as the first equal monomial of the term's numerator and
    denominator, whose exponent order rounds its value.  Raises the
    ``SingularityError`` of ``LoweredSum.eval`` at the first zero."""
    first: dict[Monomial, Monomial] = {}
    for m in itertools.chain(term.num, term.den):
        first.setdefault(m, m)
    out = []
    for m in term.den:
        m = first[m]
        c = pp.theta(m, star).coeff
        if c == 0:
            raise SingularityError(f"theta pole in denominator at {m}")
        out.append(c)
    return out


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

    Each ``LoweredSum`` tells its Chern-root-free arguments from the others
    by the roots of its envelope.  ``point`` is the extended parameter point
    of the assignment, made by the first ``Envelope.eval`` with the table
    and reused by the others.
    """

    def __init__(self, free: dict | None = None):
        self.free: dict[tuple, complex] = {} if free is None else free
        self._bound: list[dict[tuple, complex]] = []
        self.point: ParamPoint | None = None

    def perm(self, k: int) -> tuple[dict, dict]:
        """The (Chern-root-free, Chern-root) value dicts of permutation k."""
        while len(self._bound) <= k:
            self._bound.append({})
        return self.free, self._bound[k]


def _rho_le_root(box: Box, rank: int) -> bool:
    """rho_box <= rho of the (1,1) anchor of the given framing slot: the
    earlier slot decides, else (content, -hook) against the anchor's
    (color, 0), which only the anchor itself ties."""
    if box.owner != rank:
        return box.owner < rank
    # the anchor's color is the box's, so its content is the box's color
    return ((box.x, box.y) == (1, 1)
            or (box.content, -box.hook) < (box.owner_color, 0))


def _ratio(a: str, b: str) -> Monomial:
    """a / b of two distinct variables."""
    return Monomial._of({a: 1, b: -1})


def _t_ratio(t: str, a: str, b: str) -> Monomial:
    """t a / b, t one of t1, t2: the exponents and their order of the
    chained ``t * a / b``."""
    return Monomial._of({t: 1, a: 1, b: -1})


def _hbar_ratio(a: str, b: str) -> Monomial:
    """hbar a / b, in the order of the chained ``HBAR * a / b``."""
    return Monomial._of({"t1": 1, "t2": 1, a: 1, b: -1})


def _s_product(fp: FixedPoint, variant: str, pairs: QuiverPairs,
               x: dict[Box, str]) -> ThetaProduct:
    """The S-product factors of some quiver pairs of a fixed point.

    Plain: theta(t1 x_a/x_b) per arrow pair with rho_a + 1 < rho_b, else
    theta(t2 x_b/x_a); theta(x_a/u) per framing pair at or below the slot's
    root, else theta(hbar u/x_a); 1/(theta(x_a/x_b) theta(hbar x_a/x_b)) per
    gauge pair with rho_a < rho_b.  Hat and tilde divide each arrow factor
    by its partner (the other argument above), keep only the framing factors
    above the root (hat) or at or below it (tilde), each divided by its
    partner, and turn one gauge denominator into the numerator theta(x_b/x_a)
    (hat) or theta(hbar x_b/x_a) (tilde).  ``x`` maps each box to the name
    of its root.  Each argument is one exponent dict, in the variable order
    of its chained product.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    plain = variant == "plain"
    prod = ThetaProduct()
    num, den = prod.num, prod.den
    for a, b in pairs.arrow:
        xa, xb = x[a], x[b]
        below = rho_less(a, 1, b)
        num.append(_t_ratio("t1", xa, xb) if below else _t_ratio("t2", xb, xa))
        if not plain:
            den.append(_t_ratio("t2", xb, xa) if below else _t_ratio("t1", xa, xb))
    for rank, a in pairs.framing:
        le = _rho_le_root(a, rank)
        if plain:
            u = fp.slots[rank][0].u_var
            num.append(_ratio(x[a], u) if le else _hbar_ratio(u, x[a]))
        elif le and variant == "tilde":
            u = fp.slots[rank][0].u_var
            num.append(_ratio(x[a], u))
            den.append(_hbar_ratio(u, x[a]))
        elif not le and variant == "hat":
            u = fp.slots[rank][0].u_var
            num.append(_hbar_ratio(u, x[a]))
            den.append(_ratio(x[a], u))
    # each arrow and framing ratio so far carries a minus sign
    prod.sign = len(den)
    for a, b in pairs.gauge:
        if not rho_less(a, 0, b):
            continue
        xa, xb = x[a], x[b]
        if plain:
            den += [_ratio(xa, xb), _hbar_ratio(xa, xb)]
        elif variant == "hat":
            num.append(_ratio(xb, xa))
            den.append(_hbar_ratio(xa, xb))
        else:
            num.append(_hbar_ratio(xb, xa))
            den.append(_ratio(xa, xb))
    return prod


def s_factor_product(fp: FixedPoint, variant: str) -> ThetaProduct:
    """The unsymmetrized S-product of the requested normalization."""
    return _s_product(fp, variant, quiver_pairs(fp), box_slot_vars(fp))


def normalization_kernel(fp: FixedPoint, which: str) -> ThetaProduct:
    """The K-factor relating the plain S-product to its hat/tilde form."""
    x = box_slot_vars(fp)
    pairs = quiver_pairs(fp)
    prod = ThetaProduct()
    for a, b in pairs.arrow:
        prod.num.append(_t_ratio("t2", x[b], x[a]) if rho_less(a, 1, b)
                        else _t_ratio("t1", x[a], x[b]))
    for rank, a in pairs.framing:
        u = fp.slots[rank][0].u_var
        prod.num.append(_ratio(x[a], u) if which == "I" else _hbar_ratio(u, x[a]))
    for a, b in pairs.gauge:
        prod.den.append(_ratio(x[a], x[b]) if which == "I"
                        else _hbar_ratio(x[a], x[b]))
    return prod


def normalization_parity(fp: FixedPoint, which: str) -> int:
    """Parity exponent in S = (-1)^eps K S-normalized."""
    pairs = quiver_pairs(fp)
    flipped = sum(1 for rank, a in pairs.framing
                  if _rho_le_root(a, rank) == (which == "II"))
    return (len(pairs.arrow) + flipped) % 2


@dataclass
class TreeTupleWeight:
    """Compiled data of one admissible tree choice: sign and phi arguments."""

    kappa: int
    phi_args: list[tuple[Monomial, Monomial]]


def _edge_arg(x_child: str, w_par: Monomial, x_par: str,
              w_child: Monomial) -> Monomial:
    """x_child w_par / (x_par w_child) for Chern roots x_child != x_par that
    neither weight carries, and weights with integer exponents: one exponent
    dict, in the variable order of that chained product."""
    d = {x_child: 1}
    d.update(w_par._exps)
    d[x_par] = -1
    for name, e in w_child._exps.items():
        if s := d.get(name, 0) - e:
            d[name] = s
        else:
            del d[name]
    return Monomial._of(d)


def _tree_phi_args(cell: dict, tree: LambdaTree,
                   root_arg: Monomial) -> list[tuple[Monomial, Monomial]]:
    """The phi arguments of one tree of a slot whose cells are ``cell``
    (see ``tree_weights``): x_root/u against the Kahler-and-hbar product over
    the whole tree, then per edge x_child phi_par / (x_par phi_child) against
    the product over the child's subtree."""
    subtree = tree.subtree
    phi_args = [(root_arg,
                 Monomial.product([f for c in subtree[1, 1] for f in cell[c][2]]))]
    for par, child in tree.edges():
        x_par, w_par, _ = cell[par]
        x_child, w_child, _ = cell[child]
        phi_args.append((_edge_arg(x_child, w_par, x_par, w_child),
                         Monomial.product([f for c in subtree[child] for f in cell[c][2]])))
    return phi_args


def tree_weights(fp: FixedPoint, kahler: dict[int, Monomial],
                 boxes: list[Box] | None = None,
                 xvar: dict[Box, str] | None = None,
                 degrees: dict[Box, int] | None = None) -> list[TreeTupleWeight]:
    """All tree-tuple weights of a fixed point, compiled to phi arguments.

    ``kahler`` maps every color to its Kahler argument (``default_kahler``
    for the plain z_i).  ``boxes`` is ``fp.boxes()``, ``xvar`` is
    ``box_slot_vars(fp)`` and ``degrees`` is ``index_degrees(fp)``; each is
    computed if not given.  The phi arguments of one tree of one slot are
    built once and shared by every tuple that holds the tree.  Each argument
    is built as one exponent dict, with the exponents and the variable order
    of its chained product.
    """
    n = fp.n_colors
    if boxes is None:
        boxes = fp.boxes()
    if xvar is None:
        xvar = box_slot_vars(fp)
    if degrees is None:
        degrees = index_degrees(fp, boxes)
    # per slot, per cell: the Chern root of its box, its restriction weight,
    # and its Kahler argument and hbar to its index degree, the factors of a
    # subtree product (hbar^0 left out: it changes no exponent)
    kah = [(kahler[i], 1) for i in range(n)]
    cells: list[dict] = [{} for _ in fp.slots]
    for b in boxes:
        k, d = kah[b.content % n], degrees[b]
        cells[b.owner][b.x, b.y] = (xvar[b], phi_weight(fp, b),
                                    (k, (HBAR, d)) if d else (k,))
    per_slot: list[list] = []
    for (slot, lam), cell in zip(fp.slots, cells):
        if not cell:
            continue
        choices = lambda_trees(lam)
        if not choices:
            raise ValueError(f"no admissible tree for partition {lam.rows}")
        root_arg = _ratio(cell[1, 1][0], slot.u_var)
        per_slot.append([(t.kappa, _tree_phi_args(cell, t, root_arg)) for t in choices])

    return [TreeTupleWeight(sum(kappa for kappa, _ in combo),
                            [arg for _, args in combo for arg in args])
            for combo in itertools.product(*per_slot)]


def _tally(args: Iterable[Monomial], into: tuple[dict, dict] | None = None
           ) -> tuple[dict[str, Monomial], dict[str, int]]:
    """Theta arguments counted by ``repr``, which names an argument up to
    the order of its exponent dict: (the first occurrence of each, how often
    each occurs).  ``into``, if given, is a tally of earlier arguments that
    a copy of is extended."""
    first, count = ({}, {}) if into is None else (dict(into[0]), dict(into[1]))
    for m in args:
        key = repr(m)
        if key in count:
            count[key] += 1
        else:
            count[key] = 1
            first[key] = m
    return first, count


def _cancel(tn: tuple[dict, dict], td: tuple[dict, dict], sign: int) -> ThetaProduct:
    """Cancel matching theta arguments between the numerator and
    denominator tallies ``tn`` and ``td`` (see ``_tally``).

    Identical factors cancel exactly (theta(m)/theta(m) = 1), which makes the
    removable zero-over-zero combinations at restriction points evaluable.
    No compiled envelope term has a numerator m against a denominator 1/m.
    Equal arguments are counted together and kept as their first occurrence;
    the factors left are sorted by ``repr``.
    """
    return ThetaProduct(_left_sorted(tn, td[1]), _left_sorted(td, tn[1]), sign)


def _left_sorted(tally: tuple[dict, dict], other: dict[str, int]) -> list[Monomial]:
    """The arguments of ``tally`` that the counts ``other`` do not cancel,
    each as often as it is left, in ``repr`` order."""
    first, count = tally
    left = []
    for key in sorted(count):
        c = count[key] - other.get(key, 0)
        if c == 1:
            left.append(first[key])
        elif c > 1:
            left += [first[key]] * c
    return left


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
        xvar = box_slot_vars(fp, self.slots)
        self.nvars = {i: [xvar[b] for b in bs] for i, bs in self.slots.items()}
        size = math.prod(map(math.factorial, map(len, self.nvars.values())))
        if size > SYM_BUDGET:
            raise BudgetError(f"symmetrization over {size} permutations exceeds budget")
        pairs = quiver_pairs(fp, boxes)
        sprod = _s_product(fp, spec.variant, pairs, xvar)
        degrees = index_degrees(fp, boxes, pairs)
        # the S-product's arguments, counted once for every tree term
        s_num, s_den = _tally(sprod.num), _tally(sprod.den)
        self._terms: list[ThetaProduct] = []
        for tw in tree_weights(fp, default_kahler(fp.n_colors), boxes, xvar, degrees):
            phi_num, phi_den = [], []
            for xm, ym in tw.phi_args:
                phi_num += (xm * ym, HBAR)
                phi_den += (xm, ym)
            self._terms.append(_cancel(_tally(phi_num, s_num), _tally(phi_den, s_den),
                                       sprod.sign + tw.kappa))
        self._lowered: LoweredSum | None = None
        self._perms: list[list[tuple[int, ...]]] | None = None

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

        A first call without a table (``restrict``) takes the denominator
        thetas of the first term before it lowers anything, and raises the
        ``SingularityError`` of ``LoweredSum.eval`` at the first that is
        zero: a restriction to a structural theta pole, which ``eval``
        would meet in that term first, costs neither the lowering nor the
        other thetas.  Otherwise the evaluation reads those thetas and does
        not take them again.
        """
        known = None
        if self._lowered is None:
            if thetas is None:
                known = _first_den_thetas(self._terms[0], pp, self.spec.star)
            self._lowered = LoweredSum(self._terms, self.x_names())
            if known is not None:
                known = dict(zip(self._lowered.terms[0][2], known))
        return self._lowered.eval(pp, self.spec.star, thetas, perm, known)

    def eval(self, pp: ParamPoint, values: dict[str, complex],
             logs: dict[str, complex] | None = None,
             thetas: ThetaTable | None = None) -> complex:
        """Symmetrized value at an assignment of the Chern-root variables.

        One extended point carries the assignment; each permutation of the
        roots overwrites its Chern-root values and logs in place.  With
        ``thetas``, the table of this assignment at ``pp``, a theta that
        another envelope already took there is read from the table, and so
        is the extended point: the first envelope evaluated with the table
        makes it.  The base values come from ``values`` and ``logs``, since
        the previous envelope leaves the point at its last permutation.
        """
        if logs is None:
            logs = {k: cmath.log(v) for k, v in values.items()}
        ppx = None if thetas is None else thetas.point
        if ppx is None:
            ppx = pp.extended(values, logs)
            if thetas is not None:
                thetas.point = ppx
        vals, lgs = ppx.values, ppx.logs
        names = self.x_names()
        if self._perms is None:
            # per color, the permutations of its roots as positions in names
            pos = {name: k for k, name in enumerate(names)}
            self._perms = [list(itertools.permutations([pos[name] for name in self.nvars[i]]))
                           for i in range(self.fp.n_colors)]
        vals0 = [complex(values[name]) for name in names]
        logs0 = [complex(logs[name]) for name in names]
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
    keyed by variable name.  ``framed`` is that of ``phi_weight``: with it
    the weight carries the framing coordinate u of the slot.
    """
    values: dict[str, complex] = {}
    logs: dict[str, complex] = {}
    for i, boxes in chern_slots(fp_rester).items():
        for j, box in enumerate(boxes, start=1):
            name = chern_var(i, j)
            mono = phi_weight(fp_rester, box, framed)
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
    return (shifted_kahler([wb[i] - vb[i] + vb[(i + 1) % n] for i in range(n)]),
            shifted_kahler([va[i] - va[(i - 1) % n] for i in range(n)]))


def _cross_prefactor(fpa: FixedPoint, fpb: FixedPoint, variant: str) -> ThetaProduct:
    """The S-product factors of the concatenated fixed point whose pair joins
    a slot or box of ``fpa`` to one of ``fpb``, in the variables ``A_x..``
    of ``fpa`` and ``B_x..`` of ``fpb``."""
    big = concat_fixed_points(fpa, fpb)
    xa, xb = box_slot_vars(fpa), box_slot_vars(fpb)
    names = ([f"A_{xa[b]}" for b in fpa.boxes()]
             + [f"B_{xb[b]}" for b in fpb.boxes()])
    x = dict(zip(big.boxes(), names))
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
    product over random Chern-root assignments.

    The two factors are evaluated at their Kahler arguments
    (``shuffle_kahler_shifts``) as two shifted points.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = fpa.n_colors
    big = concat_fixed_points(fpa, fpb)
    env_big = Envelope(EnvelopeSpec(big, variant, star))
    za, zb = shuffle_kahler_shifts(n, fpa.v, fpa.w, fpb.v, fpb.w)
    env_a = Envelope(EnvelopeSpec(fpa, variant, star))
    env_b = Envelope(EnvelopeSpec(fpb, variant, star))
    pp_a, pp_b = kahler_point(pp, za), kahler_point(pp, zb)
    pref = LoweredSum([_cross_prefactor(fpa, fpb, variant)], ())

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
                    src, dst = chern_var(i, idx + 1), chern_var(i, count[side])
                    split[side][0][dst] = cross_vals[f"{side}_{dst}"] = values[src]
                    split[side][1][dst] = cross_logs[f"{side}_{dst}"] = logs[src]
            (va, la), (vb, lb) = split["A"], split["B"]
            ppx = pp.extended(cross_vals, cross_logs)
            pf = pref.eval(ppx, star)
            rhs += pf * env_a.eval(pp_a, va, la) * env_b.eval(pp_b, vb, lb)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst
