"""The benchmark's workloads, built from a seed.

A workload is a list of checks.  Each check is one identity evaluated the way
its acceptance criterion evaluates it, against that criterion's pinned limit.
Parameter points, u points and solver seeds are drawn from the workload seed
while the workload is built; the library receives only those generated
inputs.  A check runs on a fresh copy of its parameter point, so no
check finds the q-Pochhammer memo warmed by an earlier one: every CLI call
pays that cost too.

Checks of known defects stay in the workloads and count as failures.  Their
``known`` field names the defect and the ways it may make the check fail; any
other failure of any check makes the run incorrect.  A profile whose basis is
empty is not a check (the acceptance suite skips it the same way).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Timed calls go through the module objects, never through names imported
# here, so that the tracer's rebinding of module attributes reaches them.
from ellstab import rmatrix, scalars, vertex
from ellstab.core import Monomial, ParamPoint
from ellstab.envelopes import Envelope, EnvelopeSpec
from ellstab.partitions import fixed_points
from ellstab.rmatrix import FramingGroup, profiles
from ellstab.sampling import Annuli, sample_param_point

class CheckFailed(Exception):
    """A check failed without a residual: a non-finite value, or no
    convergence."""


#: failure kinds, as :func:`run.evaluate` names them
SINGULAR = "SingularityError"
LINALG = "LinAlgError"
NO_VALUE = "CheckFailed"
RESIDUAL = "residual"


@dataclass(frozen=True)
class Known:
    """A known defect that a check may show, and how it shows.

    A check that is not ``flaky`` may fail in any sweep.  A ``flaky`` one
    passes at most parameter points: a run of three or more sweeps in which
    it fails in every sweep is incorrect.
    """

    reason: str
    kinds: frozenset[str]
    flaky: bool = False


ROUNDING = frozenset({SINGULAR, LINALG, RESIDUAL})

YBE_3BOX = Known("ROADMAP item 2: ybe_residual is wrong at 3 boxes", ROUNDING)
YBE_MIXED = Known("ROADMAP item 2: ybe_residual is wrong for mixed colors",
                  ROUNDING)
TRANSPOSE_MIXED = Known("transpose_relation_residual fails for mixed framing "
                        "colors on the 3-dimensional block v=(1,1,0)",
                        frozenset({RESIDUAL}))
COMPOSITION_4BOX = Known("ROADMAP items 2-3: 4-box restriction matrices are "
                         "ill-conditioned or hit a rounded structural zero",
                         ROUNDING)
COMPOSITION_3BOX = Known("ROADMAP item 3: a 3-box restriction matrix is "
                         "ill-conditioned at rare points (about 1 in 100)",
                         ROUNDING, flaky=True)


@dataclass(frozen=True)
class Check:
    """One identity check.

    ``run()`` returns the residual to compare with ``limit``, or None when the
    check has no residual.  It raises :class:`CheckFailed`, or whatever the
    library raises, when the check fails otherwise.
    """

    name: str
    limit: float
    run: Callable[[], float | None]
    known: Known | None = None


def fresh(pp: ParamPoint) -> ParamPoint:
    """The same parameter point with an empty memo table."""
    return ParamPoint(pp.n_colors, pp.values, pp.logs, tol=pp.tol,
                      min_terms=pp.min_terms, seed=pp.seed)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


def _unit(n: int, color: int) -> tuple[int, ...]:
    return tuple(1 if i == color else 0 for i in range(n))


# ---------------------------------------------------------------------------
# rmatrix-ybe
# ---------------------------------------------------------------------------

def _composition_check(v, g1, g2, pp, n):
    return lambda: rmatrix.composition_residual(v, g1, g2, fresh(pp), n)


def _weight_block_check(v, g1, g2, pp, n):
    def run():
        basis, bare, _ = rmatrix.bare_transition(v, g1, g2, fresh(pp), n)
        return rmatrix.weight_block_residual(basis, bare)
    return run


def _transpose_check(v, g1, g2, pp, n):
    return lambda: rmatrix.transpose_relation_residual(v, g1, g2, fresh(pp), n)


def _shift_check(v, g1, g2, pp, n):
    return lambda: rmatrix.shift_invariance_residual(v, g1, g2, fresh(pp), n)


def _ybe_check(groups, pp, n, boxes):
    return lambda: rmatrix.ybe_residual(groups, fresh(pp), n, boxes)


@functools.cache
def _bases(w: tuple[int, ...], n: int, max_boxes: int):
    """(profile, fixed points) of every profile of 1 to max_boxes boxes whose
    basis is not empty."""
    out = []
    for total in range(1, max_boxes + 1):
        for v in profiles(total, n):
            basis = fixed_points(v, w, n)
            if basis:
                out.append((v, basis))
    return out


def rmatrix_ybe(seed: int) -> list[Check]:
    """Criteria 6 and 7 widened to 4 boxes, both color pairs, and YBE.

    Every check draws its own parameter point: whether an ill-conditioned
    4-box block raises early is decided by rounding at that point, and
    independent draws keep the cost of a sweep from hanging on one of them.
    """
    n = 3
    checks = []
    seeds = iter(_seeds(seed, 128))

    def point(groups):
        return sample_param_point(next(seeds), n, framing_counts={
            g.prefix: list(g.w) for g in groups})

    for colors in ((0, 0), (0, 1)):
        g1 = FramingGroup(_unit(n, colors[0]), "ua")
        g2 = FramingGroup(_unit(n, colors[1]), "ub")
        w = tuple(a + b for a, b in zip(g1.w, g2.w))
        for v, _ in _bases(w, n, 4):
            tag = f"colors={colors} v={v}"
            known = {3: COMPOSITION_3BOX, 4: COMPOSITION_4BOX}.get(sum(v))
            checks.append(Check(f"composition {tag}", 1e-8,
                                _composition_check(v, g1, g2, point((g1, g2)), n),
                                known))
            checks.append(Check(f"weight_blocks {tag}", 1e-8,
                                _weight_block_check(v, g1, g2, point((g1, g2)), n),
                                known))
            if sum(v) <= 2:
                known = (TRANSPOSE_MIXED if colors[0] != colors[1]
                         and v == (1, 1, 0) else None)
                checks.append(Check(f"transpose {tag}", 1e-8,
                                    _transpose_check(v, g1, g2, point((g1, g2)), n),
                                    known))
                checks.append(Check(f"shift_invariance {tag}", 1e-8,
                                    _shift_check(v, g1, g2, point((g1, g2)), n)))
    for colors, boxes, limit, known in (((0, 0, 0), 1, 1e-7, None),
                                        ((0, 0, 0), 2, 1e-6, None),
                                        ((0, 0, 0), 3, 1e-6, YBE_3BOX),
                                        ((0, 0, 1), 2, 1e-6, YBE_MIXED)):
        groups = tuple(FramingGroup(_unit(n, c), prefix)
                       for c, prefix in zip(colors, ("ua", "ub", "uc")))
        checks.append(Check(f"ybe colors={colors} boxes={boxes}", limit,
                            _ybe_check(groups, point(groups), n, boxes), known))
    return checks


# ---------------------------------------------------------------------------
# scalar-kernels
# ---------------------------------------------------------------------------

#: The triple-Pochhammer lattices grow like 1/log(1/|t|^N) along two axes,
#: so one point near |t| = 0.9 costs a hundred points near 0.45.  Each sweep
#: therefore runs every kind of check once in each of these t-modulus strata
#: of the default annulus, which keeps the cost of a sweep, not the inputs,
#: the same from seed to seed.
SCALAR_T_STRATA = 8


def _require_finite(values, what: str):
    if not all(cmath.isfinite(complex(v)) for v in values):
        raise CheckFailed(f"non-finite {what}")


def _exchange_check(pp, uval, k):
    def run():
        ppu = fresh(pp).extended({"u": uval})
        z = Monomial.var("u")
        n = ppu.n_colors
        values = [f(ppu, z, k, l) for l in range(n)
                  for f in (scalars.mu_exchange, scalars.mu_star_exchange,
                            scalars.chi_exchange)]
        _require_finite(values, "exchange kernel value")
        return scalars.rll_scalar_residual(ppu, z, k)
    return run


def _rho_check(pp, uval):
    def run():
        ppu = fresh(pp).extended({"u": uval})
        z = Monomial.var("u")
        _require_finite([scalars.rho_plus(ppu, z),
                         scalars.rho_plus(ppu, z, star=True)], "rho_plus value")
        return None
    return run


def _vacuum_check(pp, w):
    def run():
        value = scalars.mu_vacuum_ope(w, fresh(pp))
        _require_finite([value], "mu_vacuum_ope value")
        if value == 0:
            raise CheckFailed("mu_vacuum_ope vanished")
        return None
    return run


def _t_strata(count: int) -> list[Annuli]:
    lo, hi = Annuli().t
    edges = np.geomspace(lo, hi, count + 1)
    return [Annuli(t=(float(a), float(b))) for a, b in zip(edges, edges[1:])]


def scalar_kernels(seed: int) -> list[Check]:
    """Criterion 10's identity plus every exchange kernel, at seeded u points.

    Every check draws its own parameter point and u point in its stratum, so
    the cost of a sweep does not hang on the moduli of a few points.
    """
    n = 3
    w = (1, 1, 0)
    checks = []
    seeds = iter(_seeds(seed, 2 * (n + 2) * SCALAR_T_STRATA))

    def point(annuli):
        pp = sample_param_point(next(seeds), n, framing_counts={"u": list(w)},
                                annuli=annuli)
        rng = np.random.default_rng(next(seeds))
        uval = (0.55 + 0.8 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        return pp, uval

    for j, annuli in enumerate(_t_strata(SCALAR_T_STRATA)):
        pp, _ = point(annuli)
        checks.append(Check(f"mu_vacuum_ope t{j} w={w}", math.inf,
                            _vacuum_check(pp, w)))
        checks.append(Check(f"rho_plus t{j}", math.inf, _rho_check(*point(annuli))))
        for k in range(n):
            checks.append(Check(f"exchange t{j} k={k}", 1e-7,
                                _exchange_check(*point(annuli), k)))
    return checks


# ---------------------------------------------------------------------------
# vertex-bethe
# ---------------------------------------------------------------------------

VERTEX_SINGULAR = Known("vertex_series raises SingularityError at pairs with "
                        "a structural pole; criterion 8 skips these pairs",
                        frozenset({SINGULAR}))
BETHE_START = Known("bethe_solve's damped Newton misses from all its jittered "
                    "starts at some points (up to 1 in 15 at v=(2,2,2))",
                    frozenset({NO_VALUE}), flaky=True)


def _vertex_check(lam, mu, pp, degree_cap=3):
    """Criterion 8's series checks for one (lambda, mu) pair."""
    def run():
        ppx = fresh(pp)
        qp = Envelope(EnvelopeSpec(lam, "hat")).qp_unit_factors()
        series = vertex.vertex_series(lam, mu, degree_cap, ppx)
        scale = max(abs(c) for c in series.coefficients.values())
        d0 = (0,) * mu.size
        worst = (abs(series.coefficients[d0] - series.envelope_at_mu)
                 / max(abs(series.envelope_at_mu), 1e-300))
        for d, c in series.coefficients.items():
            oracle = (vertex.jackson_term_ratio(mu, d, ppx, qp)
                      * series.envelope_at_mu)
            worst = max(worst, abs(c - oracle)
                        / max(abs(c), abs(oracle), 1e-12 * scale, 1e-300))
        return worst
    return run


def _bethe_check(v, w, pp, solver_seed):
    def run():
        sol = vertex.bethe_solve(v, w, fresh(pp), seed=solver_seed)
        if not sol.converged:
            raise CheckFailed(f"Newton did not converge, residual {sol.residual:.1e}")
        return sol.residual
    return run


def vertex_bethe(seed: int) -> list[Check]:
    """Criterion 8 on two framings up to 4 boxes, plus Bethe solves.

    Every profile and every Bethe solve draws its own parameter point, so the
    cost of a sweep does not hang on the moduli of one point.
    """
    n = 3
    checks = []
    seeds = iter(_seeds(seed, 128))
    for w in ((1, 1, 0), (2, 0, 0)):
        for v, basis in _bases(w, n, 4):
            pp = sample_param_point(next(seeds), n, framing_counts={"u": list(w)})
            for a, lam in enumerate(basis):
                for b, mu in enumerate(basis):
                    checks.append(Check(f"vertex w={w} v={v} {a}->{b}", 1e-8,
                                        _vertex_check(lam, mu, pp),
                                        VERTEX_SINGULAR))
        for v in ((1, 1, 1), (2, 1, 1), (2, 2, 2)):
            pp = sample_param_point(next(seeds), n, framing_counts={"u": list(w)})
            checks.append(Check(f"bethe w={w} v={v}", 1e-10,
                                _bethe_check(v, w, pp, next(seeds)),
                                BETHE_START))
    return checks


#: seconds one sweep of each workload takes on the machine the baseline was
#: recorded on (2 vCPUs, Python 3.11, numpy 2.4)
SWEEP_SECONDS = {"rmatrix-ybe": 3.1, "scalar-kernels": 4.4, "vertex-bethe": 4.3}


def sweep_count(workload: str, seconds: float) -> int:
    """Sweeps in a run of ``seconds``.  The count depends on the run length
    alone, never on the host's speed, so every run of a seed sees the same
    inputs."""
    return max(1, round(seconds / SWEEP_SECONDS[workload]))


def build(workload: str, seed: int, sweeps: int) -> list[list[Check]]:
    """The sweeps of a workload: the same checks at fresh seeded inputs."""
    return [WORKLOADS[workload](s) for s in _seeds(seed, sweeps)]


WORKLOADS = {
    "rmatrix-ybe": rmatrix_ybe,
    "scalar-kernels": scalar_kernels,
    "vertex-bethe": vertex_bethe,
}
