"""Known defects, one row each, pinned as strict xfails.

A row names the identity, its exact inputs, the limit its acceptance
criterion or test pins, the ROADMAP item that tracks it and the value
measured when the row was added, per case.  Every case asserts the identity
at that limit as an ``xfail(strict=True)`` test: a fix makes the case pass,
which fails the suite until the row goes with the fix.  Rows fail far from
their limit, so no last-bit change flips them.

Run the module as a script to print every case's current value:

    PYTHONPATH=src python tests/test_known_defects.py
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from ellstab.rmatrix import (FramingGroup, transpose_relation_residual,
                             ybe_residual)
from ellstab.sampling import sample_param_point

N = 3
UA, UB, UC = (FramingGroup((1, 0, 0), "ua"), FramingGroup((0, 1, 0), "ub"),
              FramingGroup((1, 0, 0), "uc"))


def _point(seed: int, groups):
    return sample_param_point(seed, N,
                              framing_counts={g.prefix: list(g.w) for g in groups})


def mixed_ybe(seed: int, boxes: int) -> float:
    """``ybe_residual`` for the framing colors (0, 1, 0)."""
    return ybe_residual((UA, UB, UC), _point(seed, (UA, UB, UC)), N, boxes)


def mixed_transpose(seed: int, v: tuple[int, ...]) -> float:
    """``transpose_relation_residual`` for the framing colors (0, 1)."""
    return transpose_relation_residual(v, UA, UB, _point(seed, (UA, UB)), N)


@dataclass(frozen=True)
class Defect:
    identity: str
    inputs: str  # how ``value`` is called, and on what
    limit: float
    item: str
    value: Callable[..., float]
    cases: tuple[tuple, ...]  # argument tuples of ``value``
    measured: tuple[float, ...]  # per case, when the row was added


DEFECTS = [
    Defect("dynamical Yang-Baxter equation, 2 boxes, framing colors (0, 1, 0)",
           "mixed_ybe(seed, boxes): groups ua (1,0,0), ub (0,1,0), uc (1,0,0) "
           "at sample_param_point(seed, 3, framing_counts of the groups)",
           1e-6, "ROADMAP item 2b (criterion 7's 2-box limit)",
           mixed_ybe, ((88, 2),), (0.165,)),
    Defect("transpose relation of R*, framing colors (0, 1)",
           "mixed_transpose(seed, v): groups ua (1,0,0), ub (0,1,0) at "
           "sample_param_point(seed, 3, framing_counts of the groups)",
           1e-8, "ROADMAP item 6",
           mixed_transpose,
           tuple((seed, v) for v in ((1, 1, 0), (1, 1, 1)) for seed in (0, 1, 2)),
           (0.86, 2.52, 0.55, 1.15, 1.36, 1.29)),
]

CASES = [pytest.param(d, args, id=f"{d.value.__name__}{args}",
                      marks=pytest.mark.xfail(strict=True, reason=f"{d.item}: "
                                              f"{d.identity} measured {m}"))
         for d in DEFECTS for args, m in zip(d.cases, d.measured)]


@pytest.mark.parametrize("defect,args", CASES)
def test_known_defect(defect, args):
    assert defect.value(*args) < defect.limit


@pytest.mark.parametrize("v", [(1, 0, 0), (2, 1, 0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_transpose_holds_off_the_defect_profiles(seed, v):
    """The transpose relation holds for colors (0, 1) on the profiles beside
    the defect's, at its limit (measured below 1e-15)."""
    assert mixed_transpose(seed, v) < 1e-8


if __name__ == "__main__":
    for d in DEFECTS:
        print(f"{d.item}: {d.identity}, limit {d.limit:.0e}")
        print(f"  {d.inputs}")
        for args, m in zip(d.cases, d.measured):
            print(f"  {d.value.__name__}{args} = {d.value(*args):.3g}"
                  f" (measured {m})")
