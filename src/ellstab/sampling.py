"""Deterministic sampling of generic parameter points.

Moduli are drawn log-uniformly inside configured annuli, phases uniformly but
bounded away from the real axis resonances.  The chamber conventions are baked
in: framing-weight moduli strictly decrease along the chamber order and
|t1/t2| < 1.  The shifted nome p* = p/(t1 t2) is kept inside the unit disc by
construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ParamPoint
from .partitions import FramingGroup, kahler_var


@dataclass
class Annuli:
    """Sampling bands for the base variables (moduli ranges)."""

    p: tuple[float, float] = (0.05, 0.15)
    t: tuple[float, float] = (0.45, 0.9)
    kahler: tuple[float, float] = (0.55, 1.8)
    chern: tuple[float, float] = (0.55, 1.8)
    framing_top: float = 1.2
    framing_ratio: tuple[float, float] = (0.55, 0.8)
    pstar_cap: float = 0.8
    phase_margin: float = 0.15


def _draw(rng: np.random.Generator, band: tuple[float, float], margin: float) -> complex:
    lo, hi = band
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(margin, 2 * math.pi - margin)
    return r * cmath.exp(1j * phase)


def sample_param_point(seed: int, n_colors: int,
                       framing_counts: dict[str, list[int]] | None = None,
                       extra_vars: list[str] | None = None,
                       annuli: Annuli | None = None) -> ParamPoint:
    """Draw a generic parameter point, reproducibly from ``seed``.

    ``framing_counts`` maps a framing group prefix (e.g. ``"u"``) to a vector
    w over colors; the slots of ``FramingGroup(w, prefix)`` get strictly
    decreasing moduli in chamber order within each group.  The Kahler
    variables of all N colors are always included, ``extra_vars`` are drawn
    from the Chern annulus.
    """
    ann = annuli or Annuli()
    rng = np.random.default_rng(seed)
    values: dict[str, complex] = {}

    for _ in range(200):
        p = _draw(rng, ann.p, ann.phase_margin)
        t1 = _draw(rng, ann.t, ann.phase_margin)
        t2 = _draw(rng, ann.t, ann.phase_margin)
        if abs(t1) >= abs(t2):
            t1, t2 = t2 * 0.98, t1 * 1.02  # enforce |t1/t2| < 1 keeping genericity
        if abs(t1 / t2) >= 0.97:
            continue
        if abs(p / (t1 * t2)) <= ann.pstar_cap:
            break
    else:
        raise RuntimeError("could not sample p, t1, t2 inside the configured annuli")
    values.update(p=p, t1=t1, t2=t2)

    for i in range(n_colors):
        values[kahler_var(i)] = _draw(rng, ann.kahler, ann.phase_margin)

    for prefix, w in (framing_counts or {}).items():
        mod = ann.framing_top
        for slot in FramingGroup(tuple(w), prefix).slots():
            phase = rng.uniform(ann.phase_margin, 2 * math.pi - ann.phase_margin)
            values[slot.u_var] = mod * cmath.exp(1j * phase)
            mod *= rng.uniform(*ann.framing_ratio)

    for name in extra_vars or []:
        values[name] = _draw(rng, ann.chern, ann.phase_margin)

    return ParamPoint(n_colors, values, seed=seed)


def random_assignment(rng: np.random.Generator, names: list[str]) -> dict[str, complex]:
    """Random generic complex values for a list of variables (Chern roots)."""
    ann = Annuli()
    return {name: _draw(rng, ann.chern, ann.phase_margin) for name in names}
