"""The reference evaluation of a sum of theta products: every theta first,
then the term loop.

``ReferenceSum`` takes the constructor and ``eval`` arguments of
``envelopes.LoweredSum`` and evaluates the way ``LoweredSum`` did before it
decided structural zeros and poles from the argument values: it indexes and
keys every argument of every term and lowers every prefactor when it is
made; ``eval`` takes the theta of every argument (read from the
``ThetaTable`` by its ``theta_id`` or taken through ``ParamPoint.theta``
from its value and written to it),
then multiplies out every term in its own factor order and raises at the
first zero denominator theta of the first term that has one.  A test that
sets ``envelopes.LoweredSum`` to it evaluates every envelope, restriction
and theta product this way.

``trace_thetas`` tells a test which argument each theta is taken for, which
``ParamPoint.theta``, handed only the argument's value, does not see.
"""

from __future__ import annotations

from ellstab.core import ParamPoint, SingularityError
from ellstab.envelopes import theta_id


class ReferenceSum:
    def __init__(self, products, chern_roots):
        index = {}
        self.terms = [((-1.0) ** (prod.sign % 2),
                       [index.setdefault(m, len(index)) for m in prod.num],
                       [index.setdefault(m, len(index)) for m in prod.den],
                       prod.mono_total())
                      for prod in products]
        self.args = list(index)
        roots = frozenset(chern_roots)
        self.keys = [(theta_id(m), roots.isdisjoint(m._exps)) for m in self.args]

    def eval(self, pp, star, thetas, perm=0):
        free, bound = thetas.perm(perm)
        th = []
        for m, (key, is_free) in zip(self.args, self.keys):
            memo = free if is_free else bound
            c = memo.get(key)
            if c is None:
                c = memo[key] = pp.theta(pp.materialize(m), star)
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


def trace_thetas(patch, on_theta):
    """Patch (through ``patch``, a pytest ``MonkeyPatch``) ``ParamPoint``'s
    ``materialize`` and ``theta`` so that each theta taken first calls
    ``on_theta(pp, m, star, z)``, ``m`` the monomial whose value ``z`` is.
    An evaluation takes each theta from the very object ``materialize``
    returned for its argument, so the argument is found by that object's
    identity; every value is kept, so no identity is reused."""
    materialize, theta = ParamPoint.materialize, ParamPoint.theta
    made = {}

    def materialized(self, m):
        z = materialize(self, m)
        made[id(z)] = (z, m)
        return z

    def taken(self, z, star=False):
        on_theta(self, made[id(z)][1], star, z)
        return theta(self, z, star)

    patch.setattr(ParamPoint, "materialize", materialized)
    patch.setattr(ParamPoint, "theta", taken)
