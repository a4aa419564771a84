"""Elliptic stable envelopes: building blocks, symmetrization, restriction.

An envelope attached to a fixed point is the per-color symmetrization of a
product of theta factors (the chamber-ordered S-product in its plain, hatted
or tilde normalization) times a sum of tree weights, one admissible rooted
tree per framing slot.  A compile takes the boxes, Chern slots, quiver pairs
and index degrees of the fixed point once and builds each theta argument as
one exponent dict; the S-product's ratios and the trees' edge arguments are
handed their ``repr`` (the sort key) as they are built, without sorting
their variables.  A tree is read as a walk (``LambdaTree.walk``); the one
tree of a hook, the partition of most slots, is walked along its first row
and column (``hook_walk``) without enumerating or rooting a choice of
edges.  The S-product's arguments are counted once for all terms,
in one tally by ``repr`` (numerator less denominator) that the last term
extends in place, and one sort per term orders the factors left on both
sides in ``repr`` order.  The compiled structure keeps every theta argument
as an exact monomial, and is lowered once (``LoweredSum``), at the first
evaluation that finds no structural theta pole: the distinct theta arguments
of all terms (told apart by ``repr``, as in the tallies), their integer
table ids (``theta_id``), per term a sign and index lists into them, and the
exact prefactor monomials with their float exponents.  An envelope that
is only asked for exact data, such as its quasi-periodicity factors, is
never lowered, nor does it list the permutations of its roots.  Evaluation
assigns values to the Chern-root variables of one extended parameter point,
overwrites them per permutation of the roots (by the envelope's one plan of
value moves, listed at its first evaluation), and decides the structural
zeros and poles from the arguments' values before any q-series: a value of
exactly 1.0 is a zero of its theta, and one in a fixed annulus around the
unit circle provably is none (``theta_surely_nonzero``).  So an envelope whose first evaluation
meets a pole in its first term's denominator raises before any other theta
is taken, a later pole takes no theta of a value in the annulus either,
and a term with a unit numerator argument takes none of its numerator
thetas.  Each argument is materialized at most once per evaluation, and
its theta is taken from that value (``ParamPoint.theta``, which forms no
half power: each term's grading is its one exact prefactor); the terms are
combined by index in the point's number type (complex floats, unless a
subclass of ``ParamPoint`` names another: every value, log and exponential
is taken through the point), and exact monomial arithmetic stays at
compile time.

Every theta is read through a ``ThetaTable``, the one path from an argument
to its value: a theta with a Chern root is taken once per permutation, one
without once per table.  The envelopes of one basis restricted to one point
share a table, and the tables of one restriction matrix share their
Chern-root-free thetas.  A lone restriction, a lone theta product and the
cross factor of each term of the shuffle product, whose arguments change
with every term, each evaluate through a fresh table.

A Kahler argument is a point value, not part of what is compiled.  Every
envelope is compiled with the plain Kahler variables z_i; the argument
z_i -> k_i (a monomial per color, such as z_i hbar^s or 1/z_i) is applied by
evaluating at ``kahler_point(pp, k)``, where z_i takes the value and the log
of k_i.  So one compiled envelope serves every Kahler argument at a point.

A parameter point owns its compiled envelopes: ``compiled(spec, pp)``, the
one place that builds an ``Envelope``, compiles a spec at its first call for
``pp`` or any extension of it (``kahler_point`` included) and returns that
object after.  An envelope and its ``LoweredSum`` hold only exact data, the
same at every point, so sharing one changes no bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import (HBAR, BudgetError, Monomial, ParamPoint, SingularityError,
                   _exponent, _half, exponent_product)
from .partitions import (Box, FixedPoint, QuiverPairs, box_slot_vars,
                         chern_slots, chern_var, hook_walk, index_degrees,
                         kahler_var, lambda_trees, phi_weight, quiver_pairs,
                         rho_less, weight_exponents)
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
    log z_i = ``pp.log_of(k_i)`` and z_i = ``pp.materialize(k_i)``, its
    exponential.  ``None`` is the plain argument, ``pp`` itself.  This is
    the one way a Kahler argument is applied.
    """
    if kahler is None:
        return pp
    kahler = dict(kahler)
    return pp.extended({kahler_var(i): pp.materialize(m) for i, m in kahler.items()},
                       {kahler_var(i): pp.log_of(m) for i, m in kahler.items()})


@dataclass
class ThetaProduct:
    """A product of odd theta factors with an overall sign, each factor
    theta(m) graded by m^(-1/2): the package's one graded theta product, for
    the envelope terms and the Fock coefficients alike.  It holds exact data
    only: ``mono_total`` is its exact grading and ``eval`` its value at a
    point, taken by ``LoweredSum.eval``."""

    num: list[Monomial] = field(default_factory=list)
    den: list[Monomial] = field(default_factory=list)
    sign: int = 0

    def eval(self, pp: ParamPoint, star: bool) -> complex:
        """The value at a point: the one-term case of ``LoweredSum.eval``,
        through a table of its own."""
        return LoweredSum([self], ()).eval(pp, star, ThetaTable())

    def mono_total(self) -> Monomial:
        """The exact prefactor: prod num^(-1/2) den^(1/2).

        The half power is taken once, of the exponents of prod num / den
        (one ``exponent_product`` pass): the result has the exponents and
        the variable order of the chained product of half powers, so it
        materializes to the same float.  It keeps the exact halves as its
        exponents and is handed its float pairs (``Monomial.float_items``)
        from the summed exponents: -v/2 of an integer v is
        ``float(Fraction(-v, 2))``, with no ``Fraction`` formed.
        """
        d = exponent_product([(m._exps, 1) for m in self.num]
                             + [(m._exps, -1) for m in self.den])
        pref = Monomial._of({name: _half(-v) for name, v in d.items()})
        pref._floats = tuple((name, -v / 2 if type(v) is int else float(_half(-v)))
                             for name, v in d.items())
        return pref


#: the id (``theta_id``) of each theta argument's exponent pairs in dict order
_THETA_IDS: dict[tuple[tuple[str, float], ...], int] = {}


def theta_id(m: Monomial) -> int:
    """The ``ThetaTable`` key of the theta argument ``m``: a small integer
    per distinct tuple of exponent pairs in dict order
    (``Monomial.float_items``), the same in every table, numbered in the
    order of their first call.  The ids live as long as the process,
    since every sum that can share a table must agree on them, but they
    hold no value: finding an id or assigning a new one is one dict read,
    so a later ``LoweredSum`` keys its arguments no faster than the first."""
    items = m.float_items()
    k = _THETA_IDS.get(items)
    if k is None:
        k = _THETA_IDS[items] = len(_THETA_IDS)
    return k


class ThetaTable:
    """The theta values of one assignment of the Chern roots: the one way a
    ``LoweredSum`` takes a theta.

    An argument is keyed by its id (``theta_id``), assigned once when a sum
    is lowered, so a read hashes an int.  The id names the exponents in
    dict order, not the monomial up to equality: equal monomials whose
    exponents run in another order materialize to different last bits and
    get two ids.  One with a Chern root is taken once
    per permutation of the roots (``perm``), one without once for all the
    tables that share ``free``.  ``point`` is the extended parameter point
    of the assignment, made by the first ``Envelope.eval`` with the table.
    ``restriction_matrix`` hands one table per restriction point to every
    column (the envelopes of a basis share their Chern roots), and the
    tables of one matrix share ``free``.  ``Envelope.eval`` without a table
    (``restrict``), ``ThetaProduct.eval`` and each cross factor of
    ``shuffle_residual`` take a fresh one.  Each sum multiplies out its own
    terms in its own order, so sharing a table changes no bit.
    """

    def __init__(self, free: dict | None = None):
        self.free: dict[int, complex] = {} if free is None else free
        self._bound: list[dict[int, complex]] = []
        self.point: ParamPoint | None = None

    def perm(self, k: int) -> tuple[dict, dict]:
        """The (Chern-root-free, Chern-root) value dicts of permutation k."""
        while len(self._bound) <= k:
            self._bound.append({})
        return self.free, self._bound[k]


#: the modulus m < 1 of the annulus |q|/m < |z| < m/|q| in which a theta
#: argument of value z is provably no zero unless z = 1 (``LoweredSum``)
ANNULUS_MODULUS = 0.9


def theta_surely_nonzero(z: complex, abs_q: float) -> bool:
    """Whether the theta of the value ``z`` at a nome of modulus ``abs_q``
    is provably not 0 without its q-series: ``z`` lies in the annulus
    |q|/m < |z| < m/|q| of ``ANNULUS_MODULUS`` m and its real part is not
    1.0 (see ``LoweredSum``).  The annulus is empty for |q| >= m."""
    az = abs(z)
    m = ANNULUS_MODULUS
    return abs_q < m * az and az * abs_q < m and z.real != 1.0


class LoweredSum:
    """A sum of theta products lowered once for repeated evaluation.

    Evaluation decides the structural zeros and poles from each argument's
    value before any q-series.  A value of exactly 1.0 is a zero: the
    series' first factor is 1 - 1.0.  A value z whose real part is not 1.0,
    in the annulus |q|/m < |z| < m/|q| (``theta_surely_nonzero``, q the nome
    the theta is taken at, m = ``ANNULUS_MODULUS``), is provably none: the
    first factor 1 - z has a real part of modulus at least 2^-53 (the
    distance from 1.0 to the nearest double below it; the difference is
    exact near 1 and at least 1/2 elsewhere); the others are 1 - z q^n with
    |z q^n| < m |q|^(n-1) < m^n for n >= 1 and 1 - (q/z) q^n with
    |(q/z) q^n| < m^(n+1) for n >= 0, since the annulus is empty unless
    |q| < m.  So the product has modulus at least 2^-53 (m; m)_inf^2, above
    1e-28 for m = 0.9: far from any underflow, and the relative rounding of
    a few thousand complex products cannot bring it to 0.

    The first evaluation walks the first term's distinct denominator
    arguments in order and raises at the first zero, the pole the term loop
    would meet first; it runs the q-series there only for an argument
    outside that annulus, so a structural pole costs no other theta and
    leaves the sum unlowered.  The first point past it lowers the sum:
    ``args`` are the distinct theta arguments of all terms, each as its
    first occurrence (whose exponent order rounds its value); ``terms`` hold
    per term the sign as +-1.0, index lists into ``args`` and the exact
    prefactor (``ThetaProduct.mono_total``, handed its float pairs);
    ``_keys`` give per argument its ``ThetaTable`` key (``theta_id``) and
    whether it is free of ``chern_roots`` (``Envelope.x_names``, none for a
    lone product).  Reading ``args`` lowers the sum too.

    Every evaluation materializes each argument at most once, when a
    decision first needs its value.  The term loop decides each term's
    denominator arguments first, in order, by the same rule: a table theta
    of 0 or a value of exactly 1.0 is a pole, a value in the annulus is
    none and its theta waits until the term is multiplied out, and any
    other value takes its theta now.  It raises at the first pole, so every
    pole raises where and how it would if every theta were taken first.  A
    term with a numerator argument of value 1.0, or with a zero theta
    already in the table, then takes none of its numerator thetas and skips
    its prefactor.  Skipping it changes no bit: its product is +-0, and
    adding +-0 leaves a total unchanged that never holds -0.0 (the total
    starts at +0.0, and a sum is -0.0 only if both addends are).  Every
    other term is multiplied out in its own factor order, its theta values
    times its prefactor's value, with no exact monomial arithmetic once
    lowered.  Every q-series theta goes through ``ParamPoint.theta``, from
    the value the decision took.
    """

    def __init__(self, products: list[ThetaProduct], chern_roots: Iterable[str]):
        self._products = products
        self._roots = frozenset(chern_roots)
        # the first term's distinct denominator arguments (by ``repr``, which
        # names a monomial up to its exponent order), each as its first
        # occurrence in the numerator and then the denominator, so the pole
        # exit reads the values the term loop would
        first = products[0]
        occurrence: dict[str, Monomial] = {}
        for m in first.den:
            occurrence.setdefault(m._repr or repr(m), m)
        for m in reversed(first.num):
            if (key := m._repr or repr(m)) in occurrence:
                occurrence[key] = m
        self._first_den = list(occurrence.values())
        self.terms: list | None = None
        self._args: list[Monomial] = []
        self._keys: list[tuple[int, bool]] = []

    @property
    def args(self) -> list[Monomial]:
        if self.terms is None:
            self._lower()
        return self._args

    def _lower(self) -> None:
        """Index every term's arguments, key them and lower the prefactors."""
        # arguments by ``repr``, which names a monomial up to the order of
        # its exponent dict
        index: dict[str, int] = {}
        args: list[Monomial] = []

        def at(m: Monomial) -> int:
            key = m._repr or repr(m)
            k = index.get(key)
            if k is None:
                k = index[key] = len(args)
                args.append(m)
            return k

        terms = [((-1.0) ** (prod.sign % 2), [at(m) for m in prod.num],
                  [at(m) for m in prod.den], prod.mono_total())
                 for prod in self._products]
        self._args = args
        roots = self._roots
        self._keys = [(theta_id(m), roots.isdisjoint(m._exps)) for m in args]
        self.terms = terms

    def _pole_exit(self, pp: ParamPoint, star: bool, free: dict,
                   bound: dict) -> dict[str, complex]:
        """Raise at the first zero theta of the first term's denominator,
        decided from each argument's value; a theta is taken, through the
        table dicts ``free`` and ``bound``, only for a value outside the
        annulus.  Returns the values it materialized, by ``repr``."""
        abs_q = abs(pp.nome(star))
        values = {}
        for m in self._first_den:
            z = values[m._repr] = pp.materialize(m)
            if z != 1.0:
                if theta_surely_nonzero(z, abs_q):
                    continue
                memo = free if self._roots.isdisjoint(m._exps) else bound
                key = theta_id(m)
                c = memo.get(key)
                if c is None:
                    c = memo[key] = pp.theta(z, star)
                if c != 0:
                    continue
            raise SingularityError(f"theta pole in denominator at {m}")
        return values

    def eval(self, pp: ParamPoint, star: bool, thetas: ThetaTable,
             perm: int = 0) -> complex:
        """The value at a point.  ``thetas`` is the table of the point's
        Chern-root assignment and ``perm`` the index of the permutation of
        the roots the point carries: a theta is read from the table, or
        taken and written to it."""
        free, bound = thetas.perm(perm)
        # per argument its value (the pole exit's at the first evaluation),
        # None until a decision materializes it
        if self.terms is None:
            first = self._pole_exit(pp, star, free, bound)
            self._lower()
            zs = [first.get(m._repr) for m in self._args]
        else:
            zs = [None] * len(self._args)
        theta, materialize = pp.theta, pp.materialize
        abs_q = abs(pp.nome(star))
        args, keys = self._args, self._keys
        # per argument its theta if the table has it, 0.0 for a numerator
        # argument of value 1.0, None until it is taken
        th = [(free if is_free else bound).get(key) for key, is_free in keys]
        total = 0.0 + 0.0j
        for sign, num, den, pref in self.terms:
            for k in den:
                c = th[k]
                if c is None:
                    z = zs[k]
                    if z is None:
                        z = zs[k] = materialize(args[k])
                    if z != 1.0:
                        if theta_surely_nonzero(z, abs_q):
                            continue
                        key, is_free = keys[k]
                        c = th[k] = (free if is_free else bound)[key] = theta(z, star)
                        if c != 0:
                            continue
                elif c != 0:
                    continue
                raise SingularityError(f"theta pole in denominator at {args[k]}")
            for k in num:
                c = th[k]
                if c is None:
                    z = zs[k]
                    if z is None:
                        z = zs[k] = materialize(args[k])
                    if z == 1.0:
                        th[k] = 0.0
                        break
                elif c == 0:
                    break
            else:
                c = sign
                for k in num:
                    t = th[k]
                    if t is None:
                        key, is_free = keys[k]
                        t = th[k] = (free if is_free else bound)[key] = theta(zs[k], star)
                    c = c * t
                for k in den:
                    t = th[k]
                    if t is None:
                        key, is_free = keys[k]
                        t = th[k] = (free if is_free else bound)[key] = theta(zs[k], star)
                    c = c / t
                total += c * materialize(pref)
        return total


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
    """a / b of two distinct variables, handed its ``repr``."""
    return Monomial._of({a: 1, b: -1},
                        f"{a}^1*{b}^-1" if a < b else f"{b}^-1*{a}^1")


def _t_ratio(t: str, a: str, b: str) -> Monomial:
    """t a / b, t one of t1, t2, for Chern roots a and b (whose names sort
    after t1 and t2): the exponents and their order of the chained
    ``t * a / b``, handed its ``repr``."""
    return Monomial._of({t: 1, a: 1, b: -1},
                        f"{t}^1*{a}^1*{b}^-1" if a < b else f"{t}^1*{b}^-1*{a}^1")


def _hbar_ratio(a: str, b: str) -> Monomial:
    """hbar a / b, in the order of the chained ``HBAR * a / b``, handed its
    ``repr`` when t1 and t2 sort first (a framing variable may sort
    before them)."""
    d = {"t1": 1, "t2": 1, a: 1, b: -1}
    if "t2" < a and "t2" < b:
        return Monomial._of(d, f"t1^1*t2^1*{a}^1*{b}^-1" if a < b
                            else f"t1^1*t2^1*{b}^-1*{a}^1")
    return Monomial._of(d)


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


def _edge_arg(x_child: str, w_par: dict[str, int], x_par: str,
              w_child: dict[str, int]) -> Monomial:
    """x_child w_par / (x_par w_child) for Chern roots x_child != x_par that
    neither weight carries, and weights given by their integer exponent
    dicts: one exponent dict, in the variable order of that chained product.
    The weights of two cells of one slot differ by powers of t1 and t2
    alone, which sort before every Chern root, so such an argument is
    handed its ``repr``."""
    d = {x_child: 1}
    d.update(w_par)
    d[x_par] = -1
    for name, e in w_child.items():
        if s := d.get(name, 0) - e:
            d[name] = s
        else:
            del d[name]
    t1, t2 = d.get("t1"), d.get("t2")
    if len(d) != 2 + (t1 is not None) + (t2 is not None):
        return Monomial._of(d)
    return Monomial._of(d, (f"t1^{t1}*" if t1 else "") + (f"t2^{t2}*" if t2 else "")
                        + (f"{x_child}^1*{x_par}^-1" if x_child < x_par
                           else f"{x_par}^-1*{x_child}^1"))


def _tree_phi_args(cell: dict, walk: tuple,
                   root_arg: Monomial) -> list[tuple[Monomial, Monomial]]:
    """The phi arguments of one tree of a slot whose cells are ``cell``
    (see ``tree_weights``), read along its ``LambdaTree.walk``: x_root/u
    against the Kahler-and-hbar product over the whole tree, then per edge
    x_child phi_par / (x_par phi_child) against the product over the
    child's subtree."""
    cells, edges = walk

    def subtree_product(subtree):
        return Monomial._of(exponent_product([f for c in subtree for f in cell[c][2]]))

    phi_args = [(root_arg, subtree_product(cells))]
    for par, child, subtree in edges:
        x_par, w_par, _ = cell[par]
        x_child, w_child, _ = cell[child]
        phi_args.append((_edge_arg(x_child, w_par, x_par, w_child),
                         subtree_product(subtree)))
    return phi_args


def tree_weights(fp: FixedPoint, kahler: dict[int, Monomial] | None, boxes: list[Box],
                 xvar: dict[Box, str], degrees: dict[Box, int]) -> list[TreeTupleWeight]:
    """All tree-tuple weights of a fixed point, compiled to phi arguments.

    ``kahler`` maps every color to its Kahler argument, or is ``None`` for
    the plain z_i (``default_kahler``), which a compile takes without making
    a monomial of them.  ``boxes`` is ``fp.boxes()``, ``xvar`` is
    ``box_slot_vars(fp)`` and ``degrees`` is ``index_degrees(fp)``.  A
    slot's trees are read as walks: a hook's one tree from ``hook_walk``,
    any other partition's trees from ``lambda_trees``.  The
    phi arguments of one tree of one slot are built once and shared by every
    tuple that holds the tree.  Each argument is built as one exponent dict,
    with the exponents and the variable order of its chained product.
    """
    n = fp.n_colors
    # per color that holds a box, the exponents of its Kahler argument
    kah = {} if kahler is None else {i: m._exps for i, m in kahler.items()}
    hbar = HBAR._exps
    # per slot, per cell: the Chern root of its box, the exponents of its
    # restriction weight without the framing coordinate (the two cells of
    # an edge share it, so it would only enter an edge argument to leave
    # it), and those of its Kahler argument and of hbar to its index
    # degree, the factors of a subtree product (hbar^0 left out: it changes
    # no exponent)
    cells: list[dict] = [{} for _ in fp.slots]
    for b in boxes:
        color, d = b.content % n, degrees[b]
        k = kah.get(color)
        if k is None:
            k = kah[color] = {kahler_var(color): 1}
        cells[b.owner][b.x, b.y] = (xvar[b], weight_exponents(fp, b, False),
                                    ((k, 1), (hbar, d)) if d else ((k, 1),))
    per_slot: list[list] = []
    for (slot, lam), cell in zip(fp.slots, cells):
        if not cell:
            continue
        walk = hook_walk(lam)
        if walk is None:
            choices = lambda_trees(lam)
            if not choices:
                raise ValueError(f"no admissible tree for partition {lam.rows}")
            walks = [(t.kappa, t.walk()) for t in choices]
        else:
            walks = [(0, walk)]
        root_arg = _ratio(cell[1, 1][0], slot.u_var)
        per_slot.append([(kappa, _tree_phi_args(cell, walk, root_arg))
                         for kappa, walk in walks])

    return [TreeTupleWeight(sum(kappa for kappa, _ in combo),
                            [arg for _, args in combo for arg in args])
            for combo in itertools.product(*per_slot)]


def _tally(num: Iterable[Monomial], den: Iterable[Monomial],
           into: tuple[dict, dict, dict] | None = None
           ) -> tuple[dict[str, Monomial], dict[str, Monomial], dict[str, int]]:
    """Numerator and denominator theta arguments counted by ``repr``, which
    names an argument up to the order of its exponent dict: (the first
    numerator occurrence of each, the first denominator occurrence of each,
    how often each occurs in the numerator less the denominator).  ``into``,
    if given, is a tally of earlier arguments that is extended in place."""
    first_num, first_den, count = ({}, {}, {}) if into is None else into
    for args, first, step in ((num, first_num, 1), (den, first_den, -1)):
        for m in args:
            key = m._repr or repr(m)
            count[key] = count.get(key, 0) + step
            first.setdefault(key, m)
    return first_num, first_den, count


def _cancel(tally: tuple[dict, dict, dict], sign: int) -> ThetaProduct:
    """The theta product of a tally (see ``_tally``) once matching
    numerator and denominator arguments cancel.

    Identical factors cancel exactly (theta(m)/theta(m) = 1), which makes the
    removable zero-over-zero combinations at restriction points evaluable.
    No compiled envelope term has a numerator m against a denominator 1/m.
    Equal arguments are counted together and kept as their first occurrence
    on the side they are left on; one sort of the distinct arguments by
    ``repr`` orders both sides.
    """
    first_num, first_den, count = tally
    num: list[Monomial] = []
    den: list[Monomial] = []
    for key in sorted(count):
        c = count[key]
        if c == 1:
            num.append(first_num[key])
        elif c == -1:
            den.append(first_den[key])
        elif c > 0:
            num += [first_num[key]] * c
        elif c < 0:
            den += [first_den[key]] * -c
    return ThetaProduct(num, den, sign)


def _qp_factors(term: ThetaProduct, names: list[str]) -> dict[str, dict]:
    """Per Chern root x of ``names``, the exponent dict of prod m^(-k) over
    the numerator arguments m of ``term`` and prod m^(+k) over the
    denominator arguments, k the exponent of x in m.  One pass over the
    arguments adds each m^(+-k) into the dict of every root it holds, by
    the sums of ``exponent_product`` (as ``Monomial.__mul__`` does, without
    a list of pairs per root), so each dict has the exponents and variable
    order of the chained product of those pairs."""
    factors: dict[str, dict] = {name: {} for name in names}
    held = factors.get
    for args, sign in ((term.num, -1), (term.den, 1)):
        for m in args:
            exps = m._exps
            for name, k in exps.items():
                if (d := held(name)) is None:
                    continue
                k *= sign
                for var, e in exps.items():
                    # a sum of 0 is that of a variable the dict holds
                    if s := d.get(var, 0) + k * e:
                        d[var] = s if type(s) is int else _exponent(s)
                    else:
                        del d[var]
    return factors


class Envelope:
    """A compiled stable envelope, one ``ThetaProduct`` term per admissible
    tree tuple, lowered into a ``LoweredSum`` at its first evaluation;
    evaluate on Chern-root value assignments.

    The compile takes the geometry of the fixed point once, tallies the
    S-product's arguments once (``_tally``) and per tree tuple adds the phi
    arguments of ``tree_weights`` to that tally, a copy of it for every term
    but the last, before ``_cancel`` leaves each term its sorted factors.
    """

    def __init__(self, spec: EnvelopeSpec):
        self.spec = spec
        fp = spec.fp
        self.fp = fp
        boxes = fp.boxes()
        slots = chern_slots(fp, boxes)
        xvar = box_slot_vars(fp, slots)
        self.nvars = {i: [xvar[b] for b in bs] for i, bs in slots.items()}
        size = math.prod(map(math.factorial, map(len, self.nvars.values())))
        if size > SYM_BUDGET:
            raise BudgetError(f"symmetrization over {size} permutations exceeds budget")
        pairs = quiver_pairs(fp, boxes)
        sprod = _s_product(fp, spec.variant, pairs, xvar)
        degrees = index_degrees(fp, boxes, pairs)
        # the S-product's arguments, counted once for every tree term; the
        # last term extends that tally in place, the others a copy
        s_tally = _tally(sprod.num, sprod.den)
        weights = tree_weights(fp, None, boxes, xvar, degrees)
        self._terms: list[ThetaProduct] = []
        last = len(weights) - 1
        for k, tw in enumerate(weights):
            phi_num, phi_den = [], []
            for xm, ym in tw.phi_args:
                phi_num += (xm * ym, HBAR)
                phi_den += (xm, ym)
            tally = s_tally if k == last else tuple(map(dict, s_tally))
            self._terms.append(_cancel(_tally(phi_num, phi_den, tally),
                                       sprod.sign + tw.kappa))
        self._lowered: LoweredSum | None = None
        self._plan: tuple[list[str], list[list[tuple[str, int]]]] | None = None

    def x_names(self) -> list[str]:
        return [name for i in range(self.fp.n_colors) for name in self.nvars[i]]

    def _permutation_plan(self) -> tuple[list[str], list[list[tuple[str, int]]]]:
        """(``x_names``, per permutation of the roots within each color the
        moves (name, source) that write it): root ``name`` takes the value
        at position ``source`` of ``x_names``.  Permutation k, in the order
        of ``itertools.product`` over the colors' ``itertools.permutations``,
        is the one a ``ThetaTable`` keeps as ``perm(k)``."""
        names: list[str] = []
        perms = []
        for i in range(self.fp.n_colors):
            start = len(names)
            names += self.nvars[i]
            perms.append(itertools.permutations(range(start, len(names))))
        return names, [list(zip(names, itertools.chain.from_iterable(combo)))
                       for combo in itertools.product(*perms)]

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
        first, *rest = [_qp_factors(term, names) for term in self._terms]
        out: dict[str, Monomial] = {}
        for name, d in first.items():
            for other in rest:
                if other[name] != d:
                    raise ValueError("quasi-periodicity factor is not uniform "
                                     "across tree terms")
            if not d.keys().isdisjoint(names):
                raise ValueError("quasi-periodicity factor retains Chern roots; "
                                 "only ratio-normalized variants have one")
            out[name] = Monomial._of(d)
        return out

    def _term(self, pp: ParamPoint, thetas: ThetaTable, perm: int) -> complex:
        """The unsymmetrized envelope at the point's Chern-root values, its
        thetas read through ``thetas`` at permutation ``perm``.  The first
        call makes the ``LoweredSum``, so an envelope compiled only for its
        exact data (``qp_unit_factors``) is never lowered."""
        if self._lowered is None:
            self._lowered = LoweredSum(self._terms, self.x_names())
        return self._lowered.eval(pp, self.spec.star, thetas, perm)

    def eval(self, pp: ParamPoint, values: dict[str, complex],
             logs: dict[str, complex] | None = None,
             thetas: ThetaTable | None = None) -> complex:
        """Symmetrized value at an assignment of the Chern-root variables.

        One extended point carries the assignment; each permutation of the
        roots overwrites its Chern-root values and logs in place.
        ``thetas`` is the table of this assignment at ``pp`` (a fresh one if
        none is given), from which the envelope reads the thetas and the
        extended point that another envelope already made.  The base values
        come from ``values`` and ``logs``, since the previous envelope
        leaves the point at its last permutation.  ``logs`` may be left out
        only when the table has no point yet: the point made then takes
        the logs of the values, before any permutation.
        """
        if thetas is None:
            thetas = ThetaTable()
        ppx = thetas.point
        if ppx is None:
            ppx = thetas.point = pp.extended(values, logs)
            logs = ppx.logs
        vals, lgs = ppx.values, ppx.logs
        if self._plan is None:
            self._plan = self._permutation_plan()
        names, moves = self._plan
        vals0 = [values[name] for name in names]
        logs0 = [logs[name] for name in names]
        total = 0.0 + 0.0j
        for k, perm in enumerate(moves):
            for name, src in perm:
                vals[name] = vals0[src]
                lgs[name] = logs0[src]
            total += self._term(ppx, thetas, k)
        return total


def compiled(spec: EnvelopeSpec, pp: ParamPoint) -> Envelope:
    """The envelope of ``spec``, compiled once per ``pp`` and its extensions."""
    env = pp._envelopes.get(spec)
    if env is None:
        env = pp._envelopes[spec] = Envelope(spec)
    return env


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
    for box, name in box_slot_vars(fp_rester).items():
        mono = phi_weight(fp_rester, box, framed)
        if p_shifts and name in p_shifts and p_shifts[name]:
            mono = mono * Monomial.var("p") ** p_shifts[name]
        values[name] = pp.materialize(mono)
        logs[name] = pp.log_of(mono)
    return values, logs


def restrict(env: Envelope, mu: FixedPoint, pp: ParamPoint,
             p_shifts: dict[str, int] | None = None,
             framed: bool = True) -> complex:
    """Evaluate an envelope at the canonical Chern assignment of mu.  Raises
    ``ValueError`` unless mu has the envelope's framing slots (by
    ``FixedPoint.u_vars``) and profile."""
    # the envelope's profile is its count of Chern roots per color
    if mu.u_vars != env.fp.u_vars or mu.v != tuple(map(len, env.nvars.values())):
        raise ValueError("restriction point must share the framing slots and the profile")
    values, logs = restriction_values(mu, pp, p_shifts, framed)
    return env.eval(pp, values, logs)


# ---------------------------------------------------------------------------
# Factorization of the plain S-product through the K kernels
# ---------------------------------------------------------------------------

def factorization_residual(fp: FixedPoint, pp: ParamPoint, which: str,
                           values: dict[str, complex]) -> float:
    """Pointwise check of S = (-1)^eps K S_normalized at one assignment."""
    ppx = pp.extended(values)
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
    names = fpa.u_vars + fpb.u_vars
    if len(set(names)) != len(names):
        raise ValueError("framing variable names must be distinct")
    return FixedPoint(fpa.slots + fpb.slots, fpa.n_colors)


def spectator_shift(w, v) -> tuple[int, ...]:
    """The Kahler shift w_i - v_i + v_{i+1} that a trailing factor of
    framing ``w`` and profile ``v`` puts on the factors before it: the
    first-factor shift of the shuffle formula, and the spectator's of the
    leading-pair factorization."""
    n = len(v)
    return tuple(w[i] - v[i] + v[(i + 1) % n] for i in range(n))


def shuffle_kahler_shifts(n: int, va, vb, wb):
    """Kahler arguments of the two factors inside the shuffle formula.

    First factor: z_i * hbar^(w''_i - v''_i + v''_{i+1})
    (``spectator_shift``); second factor: z_i * hbar^(v'_i - v'_{i-1}).
    """
    return (shifted_kahler(spectator_shift(wb, vb)),
            shifted_kahler([va[i] - va[(i - 1) % n] for i in range(n)]))


def _cross_prefactor(fpa: FixedPoint, fpb: FixedPoint, variant: str) -> ThetaProduct:
    """The S-product factors of the concatenated fixed point whose pair joins
    a slot or box of ``fpa`` to one of ``fpb``, in the concatenated point's
    Chern roots (``box_slot_vars``).  The canonical order puts a slot's
    boxes before the next slot's, so per color i the roots of ``fpa`` keep
    their names and the j-th root of ``fpb`` is x_(i, v'_i + j)."""
    big = concat_fixed_points(fpa, fpb)
    ka = len(fpa.slots)
    pairs = quiver_pairs(big)
    cross = QuiverPairs(
        [(r, b) for r, b in pairs.framing if (r < ka) != (b.owner < ka)],
        [(a, b) for a, b in pairs.arrow if (a.owner < ka) != (b.owner < ka)],
        [(a, b) for a, b in pairs.gauge if (a.owner < ka) != (b.owner < ka)])
    return _s_product(big, variant, cross, box_slot_vars(big))


def shuffle_residual(fpa: FixedPoint, fpb: FixedPoint, pp: ParamPoint,
                     variant: str = "hat", star: bool = False,
                     n_assignments: int = 5, rng=None) -> float:
    """Max relative deviation between a concatenated envelope and its shuffle
    product over random Chern-root assignments.

    The two factors are evaluated at their Kahler arguments
    (``shuffle_kahler_shifts``) as two shifted points.  Raises
    ``ValueError`` for fewer than one assignment.
    """
    if n_assignments < 1:
        raise ValueError(f"n_assignments {n_assignments} is below 1")
    if rng is None:
        rng = np.random.default_rng(0)
    n = fpa.n_colors
    big = concat_fixed_points(fpa, fpb)
    env_big, env_a, env_b = (compiled(EnvelopeSpec(fp, variant, star), pp)
                             for fp in (big, fpa, fpb))
    za, zb = shuffle_kahler_shifts(n, fpa.v, fpb.v, fpb.w)
    pp_a, pp_b = kahler_point(pp, za), kahler_point(pp, zb)
    pref = LoweredSum([_cross_prefactor(fpa, fpb, variant)], ())

    v_big, v_a, v_b = big.v, fpa.v, fpb.v
    picks_per_color = [list(itertools.combinations(range(v_big[i]), v_a[i]))
                       for i in range(n)]
    # the first factor's roots keep their names at the concatenated point
    # (``_cross_prefactor``); the second's, there and in its own envelope
    names_a = env_a.x_names()
    names_b = [(chern_var(i, v_a[i] + j), chern_var(i, j))
               for i in range(n) for j in range(1, v_b[i] + 1)]
    worst = 0.0
    for _ in range(n_assignments):
        values = random_assignment(rng, env_big.x_names())
        lhs = env_big.eval(pp, values)

        rhs = 0.0 + 0.0j
        for picks in itertools.product(*picks_per_color):
            # per color, the picked roots and then the others, written into
            # the concatenated point's names in turn
            cross = {}
            for i, picked in enumerate(picks):
                rest = tuple(k for k in range(v_big[i]) if k not in picked)
                for j, k in enumerate(picked + rest, start=1):
                    cross[chern_var(i, j)] = values[chern_var(i, k + 1)]
            va = {name: cross[name] for name in names_a}
            vb = {own: cross[name] for name, own in names_b}
            pf = pref.eval(pp.extended(cross), star, ThetaTable())
            rhs += pf * env_a.eval(pp_a, va) * env_b.eval(pp_b, vb)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst
