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
from .partitions import ColoredPartition, FramingGroup, kahler_var


#: modulus bands of the nome p, the Kahler parameters and the Chern roots
P_BAND = (0.05, 0.15)
KAHLER_BAND = (0.55, 1.8)
CHERN_BAND = (0.55, 1.8)
#: a group's first framing modulus, and the band of each next one's ratio
#: to the one before
FRAMING_TOP = 1.2
FRAMING_RATIO = (0.55, 0.8)
#: the bound on |p / (t1 t2)|, and the least distance of a phase from 0 mod 2 pi
PSTAR_CAP = 0.8
PHASE_MARGIN = 0.15


@dataclass
class Annuli:
    """The settable sampling band: the moduli of t1 and t2."""

    t: tuple[float, float] = (0.45, 0.9)


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
    from the Chern annulus.  ``annuli`` sets the band of t1 and t2; the
    other bands are the module constants.
    """
    t_band = (annuli or Annuli()).t
    rng = np.random.default_rng(seed)
    values: dict[str, complex] = {}

    for _ in range(200):
        p = _draw(rng, P_BAND, PHASE_MARGIN)
        t1 = _draw(rng, t_band, PHASE_MARGIN)
        t2 = _draw(rng, t_band, PHASE_MARGIN)
        if abs(t1) >= abs(t2):
            t1, t2 = t2 * 0.98, t1 * 1.02  # enforce |t1/t2| < 1 keeping genericity
        if abs(t1 / t2) >= 0.97:
            continue
        if abs(p / (t1 * t2)) <= PSTAR_CAP:
            break
    else:
        raise RuntimeError("could not sample p, t1, t2 inside the configured annuli")
    values.update(p=p, t1=t1, t2=t2)

    for i in range(n_colors):
        values[kahler_var(i)] = _draw(rng, KAHLER_BAND, PHASE_MARGIN)

    for prefix, w in (framing_counts or {}).items():
        mod = FRAMING_TOP
        for slot in FramingGroup(w, prefix).slots():
            phase = rng.uniform(PHASE_MARGIN, 2 * math.pi - PHASE_MARGIN)
            values[slot.u_var] = mod * cmath.exp(1j * phase)
            mod *= rng.uniform(*FRAMING_RATIO)

    for name in extra_vars or []:
        values[name] = _draw(rng, CHERN_BAND, PHASE_MARGIN)

    return ParamPoint(n_colors, values, seed=seed)


def random_assignment(rng: np.random.Generator, names: list[str]) -> dict[str, complex]:
    """Random generic complex values for a list of variables (Chern roots)."""
    return {name: _draw(rng, CHERN_BAND, PHASE_MARGIN) for name in names}


def random_partition(rng: np.random.Generator, max_size: int,
                     n_colors: int) -> ColoredPartition:
    """A colored partition of a size uniform in 0..max_size, each part
    uniform up to the one before and the boxes left, of a uniform color."""
    size = int(rng.integers(0, max_size + 1))
    rows, rem, mx = [], size, size
    while rem > 0:
        part = int(rng.integers(1, min(rem, mx) + 1))
        rows.append(part)
        mx = part
        rem -= part
    return ColoredPartition(tuple(rows), int(rng.integers(0, n_colors)), n_colors)
