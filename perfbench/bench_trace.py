"""Per-layer tracing of ``ellstab`` from outside the library.

A :class:`Tracer` replaces selected public functions and methods of the
library's modules with wrappers that count calls, time spans and record a few
values read from return values.  Nothing is added to the library itself: the
wrappers are installed by rebinding names, and :meth:`Tracer.uninstall` puts
every original object back.

A module-level function is rebound at every site that looks it up by name,
not only where it is defined: ``rmatrix`` and ``vertex`` import ``restrict``
from ``envelopes``, ``envelopes`` imports ``lambda_trees`` and
``index_degrees`` from ``partitions``, and so on.  Every ``ellstab`` module
namespace that binds the original object gets the wrapper.  Functions imported
inside a function body (``from .partitions import fixed_points``) read the
defining module at call time and so see the wrapper too.

Spans nest.  A module's self time is the time spent in its spans minus the
time covered by child spans, whichever module the child belongs to.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: the traced layers, in stack order
MODULES = ("core", "partitions", "envelopes", "rmatrix", "vertex", "scalars")

#: (module, attribute path) of every traced name.  The metric names that a
#: target feeds are set in :meth:`Tracer._hooks`; the rest only add span time.
SPANS = [
    ("core", "ParamPoint.theta"),
    ("core", "ParamPoint.qpoch_inf"),
    ("core", "ParamPoint.materialize"),
    ("core", "ParamPoint.phi"),
    ("core", "qpoch_inf"),
    ("core", "qpoch_fin"),
    ("core", "theta_p"),
    ("partitions", "fixed_points"),
    ("partitions", "make_fixed_point"),
    ("partitions", "chern_slots"),
    ("partitions", "box_slot_vars"),
    ("partitions", "index_degrees"),
    ("partitions", "lambda_trees"),
    ("partitions", "spanning_trees"),
    ("partitions", "phi_weight"),
    ("partitions", "rho_less"),
    ("envelopes", "Envelope.__init__"),
    ("envelopes", "Envelope.eval"),
    ("envelopes", "Envelope.qp_unit_factors"),
    ("envelopes", "ThetaProduct.eval"),
    ("envelopes", "s_factor_product"),
    ("envelopes", "tree_weights"),
    ("envelopes", "restrict"),
    ("envelopes", "restriction_values"),
    ("rmatrix", "basis_fixed_points"),
    ("rmatrix", "restriction_matrix"),
    ("rmatrix", "bare_transition"),
    ("rmatrix", "transition_r"),
    ("rmatrix", "composition_residual"),
    ("rmatrix", "weight_block_residual"),
    ("rmatrix", "transpose_relation_residual"),
    ("rmatrix", "shift_invariance_residual"),
    ("rmatrix", "r_action_on_triple"),
    ("rmatrix", "ybe_residual"),
    ("vertex", "vertex_series"),
    ("vertex", "jackson_term_ratio"),
    ("vertex", "qpoch_fin_mono"),
    ("vertex", "bethe_solve"),
    ("vertex", "bethe_residuals"),
    ("scalars", "gamma3v"),
    ("scalars", "qpoch2_ratio"),
    ("scalars", "mu_vacuum_ope"),
    ("scalars", "mu_exchange"),
    ("scalars", "mu_star_exchange"),
    ("scalars", "chi_exchange"),
    ("scalars", "rho_plus"),
    ("scalars", "rll_scalar_residual"),
]

#: counted but not timed: too fine-grained for a span, their time stays in
#: the caller's self time
COUNTS = [
    ("core", "Monomial.__mul__", "core.monomial_ops"),
    ("core", "Monomial.__truediv__", "core.monomial_ops"),
    ("core", "Monomial.__pow__", "core.monomial_ops"),
    ("envelopes", "Envelope._term", "envelopes.perm_terms"),
]

#: every per-layer metric the tracer reports, with its unit
METRICS = {
    "core.monomial_ops": "count",
    "core.theta_calls": "count",
    "core.theta_s": "s",
    "core.qpoch_calls": "count",
    "core.qpoch_reuse": "frac",
    "core.self_s": "s",
    "partitions.self_s": "s",
    "envelopes.eval_calls": "count",
    "envelopes.eval_s": "s",
    "envelopes.perm_terms": "count",
    "envelopes.compile_calls": "count",
    "envelopes.compile_s": "s",
    "envelopes.self_s": "s",
    "rmatrix.restriction_matrix_calls": "count",
    "rmatrix.restriction_matrix_unique_frac": "frac",
    "rmatrix.solve_calls": "count",
    "rmatrix.solve_s": "s",
    "rmatrix.cond_log10_max": "log10",
    "rmatrix.singular": "count",
    "rmatrix.self_s": "s",
    "vertex.series_calls": "count",
    "vertex.series_s": "s",
    "vertex.oracle_s": "s",
    "vertex.qpoch_fin_calls": "count",
    "vertex.singular": "count",
    "vertex.bethe_iterations": "count",
    "vertex.self_s": "s",
    "scalars.gamma3v_calls": "count",
    "scalars.gamma3v_s": "s",
    "scalars.self_s": "s",
    "trace.overhead_frac": "frac",
}


def resolve(module: str, path: str):
    """(owner, attribute, object) of a traced name; raises if it is missing."""
    owner = importlib.import_module(f"ellstab.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} defines no {attr}")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


def library_modules():
    """Every loaded ``ellstab`` module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ellstab" or name.startswith("ellstab."))]


class _LinalgView:
    """numpy.linalg with ``solve`` replaced; everything else delegates."""

    def __init__(self, solve):
        self.solve = solve

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyView:
    """numpy as seen by one traced module, with a wrapped ``linalg``."""

    def __init__(self, linalg):
        self.linalg = linalg

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    """Counters and span times for one traced phase; install, run, uninstall."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.cond_log10_max = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._qpoch_keys: set = set()
        self._rm_keys: set = set()
        self._qpoch_distinct = 0
        self._rm_distinct = 0

    # -- per-check scope ----------------------------------------------------

    def end_check(self):
        """Close the distinct-key scopes of one check.

        Every check works on its own parameter point and therefore its own
        q-Pochhammer memo, so distinct keys are counted per check.
        """
        self._qpoch_distinct += len(self._qpoch_keys)
        self._rm_distinct += len(self._rm_keys)
        self._qpoch_keys.clear()
        self._rm_keys.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, module: str, fn, calls=None, seconds=None,
              before=None, after=None):
        stack = self._stack
        counts = self.counts
        spent = self.seconds
        self_s = self.self_s
        perf = time.perf_counter
        from ellstab.core import SingularityError
        singular = (SingularityError, np.linalg.LinAlgError)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                counts[calls] += 1
            if before:
                before(args)
            frame = [module, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except singular:
                if module in ("rmatrix", "vertex") and (
                        len(stack) < 2 or stack[-2][0] != module):
                    counts[f"{module}.singular"] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                self_s[module] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if seconds:
                    spent[seconds] += dur
            if after:
                after(out)
            return out

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        """Metric names and value hooks of the targets that feed a metric."""

        def qpoch_key(args):
            self._qpoch_keys.add((args[1], args[2]))

        def rm_key(args):
            basis, pp = args[0], args[1]
            self._rm_keys.add((
                tuple((fp.partitions(), tuple(s.u_var for s, _ in fp.slots))
                      for fp in basis),
                args[2:], tuple(sorted(pp.values.items()))))

        def rm_cond(res):
            if math.isfinite(res.cond) and res.cond > 0:
                self.cond_log10_max = max(self.cond_log10_max,
                                          math.log10(res.cond))
            else:
                self.counts["rmatrix.singular"] += 1

        def bethe_iterations(sol):
            self.counts["vertex.bethe_iterations"] += sol.iterations

        return {
            ("core", "ParamPoint.theta"):
                dict(calls="core.theta_calls", seconds="core.theta_s"),
            ("core", "ParamPoint.qpoch_inf"):
                dict(calls="core.qpoch_calls", before=qpoch_key),
            ("envelopes", "Envelope.__init__"):
                dict(calls="envelopes.compile_calls",
                     seconds="envelopes.compile_s"),
            ("envelopes", "Envelope.eval"):
                dict(calls="envelopes.eval_calls", seconds="envelopes.eval_s"),
            ("rmatrix", "restriction_matrix"):
                dict(calls="rmatrix.restriction_matrix_calls", before=rm_key,
                     after=rm_cond),
            ("vertex", "vertex_series"):
                dict(calls="vertex.series_calls", seconds="vertex.series_s"),
            ("vertex", "jackson_term_ratio"):
                dict(seconds="vertex.oracle_s"),
            ("vertex", "qpoch_fin_mono"):
                dict(calls="vertex.qpoch_fin_calls"),
            ("vertex", "bethe_solve"):
                dict(after=bethe_iterations),
            ("scalars", "gamma3v"):
                dict(calls="scalars.gamma3v_calls", seconds="scalars.gamma3v_s"),
        }

    # -- installation -------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        for mod in library_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for module, path in SPANS:
            owner, attr, original = resolve(module, path)
            wrapper = self._span(module, original, **hooks.get((module, path), {}))
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)
        for module, path, metric in COUNTS:
            owner, attr, original = resolve(module, path)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._counter(original, metric))
        rmatrix = importlib.import_module("ellstab.rmatrix")
        solve = self._span("rmatrix", np.linalg.solve, calls="rmatrix.solve_calls",
                           seconds="rmatrix.solve_s")
        self._patches.append((rmatrix, "np", rmatrix.np))
        rmatrix.np = _NumpyView(_LinalgView(solve))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self, sweeps: int, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric; counts and times are per sweep."""
        c, s = self.counts, self.seconds
        qcalls = c["core.qpoch_calls"]
        rcalls = c["rmatrix.restriction_matrix_calls"]
        out = {name: c[name] / sweeps for name, unit in METRICS.items()
               if unit == "count"}
        out.update({name: s[name] / sweeps for name, unit in METRICS.items()
                    if unit == "s" and not name.endswith(".self_s")})
        out.update({f"{m}.self_s": self.self_s[m] / sweeps for m in MODULES})
        out["core.qpoch_reuse"] = 1.0 - self._qpoch_distinct / qcalls if qcalls else 0.0
        out["rmatrix.restriction_matrix_unique_frac"] = (
            self._rm_distinct / rcalls if rcalls else 0.0)
        out["rmatrix.cond_log10_max"] = self.cond_log10_max
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in METRICS}
