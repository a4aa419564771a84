"""Known defects, one row each, pinned as strict xfails.

A row names the identity, its exact inputs, the limit its acceptance
criterion or test pins, the ROADMAP item that tracks it and the value (or
the exception) measured when the row was added, per case.  Every case
asserts the identity at that limit as an ``xfail(strict=True)`` test: a fix
makes the case pass, which fails the suite until the row goes with the fix.
Rows fail far from their limit, or raise, so no last-bit change flips them.

A row the 40-digit shadow reaches (``mp_shadow``: restriction matrices,
their solves, the Yang-Baxter check's triple actions and the vertex series
with its Jackson oracle) also records, per case, the value or exception of
the same function at the shadow of the same point (``value(*case,
at=mp_shadow.shadow)``, ``measured_40``), which a test reproduces: a value
that the float one matches is the formula's, not rounding, and one that
grows with the precision is a pole that rounding hides.  The Bethe row is
outside the shadow's reach: the Bethe solve is numpy's, in double
precision.

Run the module as a script to print every case's current value or
exception, and its 40-digit one where the row has it:

    PYTHONPATH=src python tests/test_known_defects.py
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

import mp_shadow
from ellstab.core import SingularityError
from ellstab.partitions import make_fixed_point
from ellstab.rmatrix import (ChamberMatrices, FramingGroup,
                             transpose_relation_residual, ybe_residual)
from ellstab.sampling import sample_param_point
from ellstab.vertex import bethe_solve, oracle_residual, vertex_series

N = 3
UA, UB, UC = (FramingGroup((1, 0, 0), "ua"), FramingGroup((0, 1, 0), "ub"),
              FramingGroup((1, 0, 0), "uc"))
COLOR0 = (UA, FramingGroup((1, 0, 0), "ub"))
COLOR0_TRIPLE = COLOR0 + (UC,)


def _point(seed: int, groups, at=None):
    """The sample point of ``seed`` and ``groups``, or ``at`` of it
    (``mp_shadow.shadow`` for a row's 40-digit value)."""
    pp = sample_param_point(seed, N,
                            framing_counts={g.prefix: list(g.w) for g in groups})
    return pp if at is None else at(pp)


def mixed_ybe(seed: int, boxes: int, at=None) -> float:
    """``ybe_residual`` for the framing colors (0, 1, 0)."""
    return ybe_residual((UA, UB, UC), _point(seed, (UA, UB, UC), at), N, boxes)


def color0_ybe(seed: int, boxes: int, at=None) -> float:
    """``ybe_residual`` for the framing colors (0, 0, 0)."""
    return ybe_residual(COLOR0_TRIPLE, _point(seed, COLOR0_TRIPLE, at), N, boxes)


def mixed_transpose(seed: int, v: tuple[int, ...], at=None) -> float:
    """``transpose_relation_residual`` for the framing colors (0, 1)."""
    return transpose_relation_residual(v, UA, UB, _point(seed, (UA, UB), at), N)


def color0_transpose(seed: int, v: tuple[int, ...], at=None) -> float:
    """``transpose_relation_residual`` for the framing colors (0, 0)."""
    return transpose_relation_residual(v, *COLOR0, _point(seed, COLOR0, at), N)


def diagonal_vertex(seed: int, rows, w: tuple[int, ...], at=None) -> float:
    """Criterion 8's residual (``oracle_residual``) of the diagonal pair
    (mu, mu), mu the fixed point of ``rows`` at framing ``w``, up to
    degree 3."""
    group = FramingGroup(w)
    mu = make_fixed_point(rows, group, N)
    pp = _point(seed, (group,), at)
    return oracle_residual(vertex_series(mu, mu, 3, pp), pp)


def rounded_vertex_pole(seed: int, lam_rows, mu_rows, w: tuple[int, ...],
                        at=None) -> float:
    """The modulus of the envelope value (``envelope_at_mu``) that the
    series of the pair (lambda, mu) of ``lam_rows`` and ``mu_rows`` at
    framing ``w`` keeps, up to degree 3; 0 when the series raises a pole,
    since criterion 8 then skips the pair."""
    group = FramingGroup(w)
    lam, mu = (make_fixed_point(rows, group, N) for rows in (lam_rows, mu_rows))
    pp = _point(seed, (group,), at)
    try:
        return float(abs(vertex_series(lam, mu, 3, pp).envelope_at_mu))
    except SingularityError:
        return 0.0


def color0_composition(seed: int, v: tuple[int, ...], at=None) -> float:
    """``ChamberMatrices.composition`` for the framing colors (0, 0)."""
    return ChamberMatrices.build(v, *COLOR0, _point(seed, COLOR0, at), N).composition()


def bethe_miss(seed: int, v: tuple[int, ...], w: tuple[int, ...]) -> float:
    """The residual ``bethe_solve`` ends at, solver seed ``seed``, at
    ``sample_param_point(seed, 3, framing_counts={'u': list(w)})``."""
    pp = sample_param_point(seed, N, framing_counts={"u": list(w)})
    return bethe_solve(v, w, pp, seed=seed).residual


POLE = "SingularityError: theta pole in denominator at t1^1*t2^1*"


@dataclass(frozen=True)
class Defect:
    identity: str
    inputs: str  # how ``value`` is called, and on what
    limit: float
    item: str
    value: Callable[..., float]
    cases: tuple[tuple, ...]  # argument tuples of ``value``
    measured: tuple[float | str, ...]  # per case, when the row was added:
    # the value, or the exception ``value`` raised
    measured_40: tuple[float | str, ...] = ()  # per case, as ``measured``, of
    # ``value(*case, at=mp_shadow.shadow)``; empty where the shadow cannot reach


DEFECTS = [
    Defect("dynamical Yang-Baxter equation, 2 boxes, framing colors (0, 1, 0)",
           "mixed_ybe(seed, boxes): groups ua (1,0,0), ub (0,1,0), uc (1,0,0) "
           "at sample_param_point(seed, 3, framing_counts of the groups)",
           1e-6, "ROADMAP item 2b (criterion 7's 2-box limit)",
           mixed_ybe, ((88, 2),), (0.165,), (0.1650,)),
    Defect("dynamical Yang-Baxter equation, 3 boxes, framing colors (0, 0, 0)",
           "color0_ybe(seed, boxes): groups ua, ub, uc (1,0,0) at "
           "sample_param_point(seed, 3, framing_counts of the groups)",
           1e-6, "ROADMAP item 2b (criterion 7's limit)",
           color0_ybe, ((31, 3), (88, 3)), (0.7803, 0.02620), (0.7803, 0.02620)),
    Defect("transpose relation of R*, framing colors (0, 1)",
           "mixed_transpose(seed, v): groups ua (1,0,0), ub (0,1,0) at "
           "sample_param_point(seed, 3, framing_counts of the groups)",
           1e-8, "ROADMAP item 6",
           mixed_transpose,
           tuple((seed, v) for v in ((1, 1, 0), (1, 1, 1)) for seed in (0, 1, 2)),
           (0.86, 2.52, 0.55, 1.15, 1.36, 1.29),
           (0.8589, 2.522, 0.5534, 1.148, 1.364, 1.288)),
    Defect("transpose relation of R*, framing colors (0, 0)",
           "color0_transpose(seed, v): groups ua, ub (1,0,0) at "
           "sample_param_point(seed, 3, framing_counts of the groups)",
           1e-8, "ROADMAP item 6",
           color0_transpose, tuple((seed, (2, 1, 0)) for seed in range(4)),
           (1.457, 0.342, 0.0856, 1.091), (1.4567, 0.3424, 0.08562, 1.0912)),
    Defect("vertex series of the diagonal pair [[1],[1]] against its oracle, "
           "v=(2,0,0), w=(2,0,0)",
           "diagonal_vertex(seed, rows, w): criterion 8's residual at "
           "sample_param_point(seed, 3, framing_counts={'u': list(w)})",
           1e-8, "ROADMAP item 7",
           diagonal_vertex,
           tuple((seed, ((1,), (1,)), (2, 0, 0)) for seed in (1, 2)),
           ("SingularityError: vertex coefficient has a structural pole",) * 2,
           ("SingularityError: vertex coefficient has a structural pole",) * 2),
    # The pair's restriction stab_lambda(mu) holds a net structural theta
    # pole: in one permutation of the color-0 roots the denominator argument
    # t1 x0_2 / x1_1 is exactly 1 at mu, with no numerator zero to cancel
    # it.  Its logs sum to 0 only up to rounding, so the argument is not
    # exactly 1.0 and the envelope value is about 1/eps at either precision
    # instead of a pole.  Criterion 8's float residual still passes
    # (1.2-3.4e-15), since the series and its oracle share that value.  The
    # pair lambda ((1, 1, 1), (1,)), mu ((), (1, 1, 1, 1)) at w = (2,0,0)
    # keeps a value of the same kind at seeds 0-2 (1.3e16, 2.3e16 and
    # 7.5e15; 1.2e41, 2.2e41 and 7.3e40 at 40 digits).  At seed 3, three
    # 4-box pairs against the single-slot column mu ((), (1, 1, 1, 1))
    # raise a theta pole in float but not at 40 digits: lambda
    # ((1, 1, 1), (1,)) at w = (2,0,0) (6.9e39 there), lambda ((2, 1), (1,))
    # at w = (2,0,0) (0) and lambda ((1, 1, 1), (1,)) at w = (1,1,0) (0).
    # So the outcome of a 4-box vertex pair depends on rounding (ROADMAP
    # items 3 and 7)
    Defect("vertex series of the pair lambda ((3,), (1,)), mu ((), (4,)), "
           "v=(2,1,1), w=(2,0,0): a structural pole that rounding hides",
           "rounded_vertex_pole(seed, lam_rows, mu_rows, w): |envelope_at_mu| "
           "of vertex_series(lam, mu, 3, point), or 0 when it raises, at "
           "sample_param_point(seed, 3, framing_counts={'u': list(w)})",
           1e-8, "ROADMAP items 3 and 7 (criterion 8's limit)",
           rounded_vertex_pole,
           tuple((seed, ((3,), (1,)), ((), (4,)), (2, 0, 0)) for seed in (1, 2, 3)),
           (2.66e16, 1.21e15, 1.46e15), (2.630e41, 1.105e40, 1.422e40)),
    Defect("restriction matrices of framing colors (0, 0) at a structural "
           "theta pole",
           "color0_composition(seed, v): groups ua, ub (1,0,0) at "
           "sample_param_point(seed, 3, framing_counts of the groups)",
           1e-8, "ROADMAP item 3 (criterion 6's composition limit)",
           color0_composition,
           tuple((seed, v) for seed in (0, 4) for v in ((2, 1, 1), (2, 2, 1), (3, 1, 1))),
           tuple(f"{POLE}{x}" for x in ("x0_1^1*x0_2^-1",) * 2 + ("x0_2^1*x0_3^-1",)
                 + ("x0_1^1*x0_2^-1",) * 3),
           (f"{POLE}x0_1^1*x0_2^-1",) * 6),
    # (2,2,1) at seeds 1 and 5 misses the limit only narrowly (1.7e-8 and
    # 3.7e-7), so it stays measured in ROADMAP item 3, not pinned here.  At
    # 40 digits the structural zeros that float rounds off 1.0 come out
    # exact, so both cases raise the theta pole of the rows above
    Defect("transition composition, framing colors (0, 0), rounded "
           "structural zeros",
           "color0_composition(seed, v) as above",
           1e-8, "ROADMAP item 3 (criterion 6's composition limit)",
           color0_composition, ((6, (2, 1, 1)), (6, (3, 1, 1))), (1.4e15, 0.37),
           (f"{POLE}x0_1^1*x0_2^-1", f"{POLE}x0_2^1*x0_3^-1")),
    Defect("Bethe roots by damped Newton, v=(2,2,2), w=(2,0,0)",
           "bethe_miss(seed, v, w): bethe_solve(v, w, point, seed=seed) at "
           "sample_param_point(seed, 3, framing_counts={'u': list(w)})",
           1e-10, "ROADMAP item 9 (criterion 9's Newton limit)",
           bethe_miss,
           tuple((seed, (2, 2, 2), (2, 0, 0)) for seed in (1011, 1012, 1013)),
           (0.528, 1.09, 2.64)),
]

CASES = [pytest.param(d, args, id=f"{d.value.__name__}{args}",
                      marks=pytest.mark.xfail(strict=True, reason=f"{d.item}: "
                                              f"{d.identity} measured {m}"))
         for d in DEFECTS for args, m in zip(d.cases, d.measured)]


@pytest.mark.parametrize("defect,args", CASES)
def test_known_defect(defect, args):
    assert defect.value(*args) < defect.limit


def _outcome(f, args, **kwargs) -> float | str:
    """``f(*args, **kwargs)``, or the exception it raises as "Type: message"."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("defect,args,measured", [
    pytest.param(d, args, m, id=f"{d.value.__name__}_40{args}")
    for d in DEFECTS for args, m in zip(d.cases, d.measured_40)])
def test_known_defect_at_40_digits(defect, args, measured):
    """The shadow gives each case the value (to the digits recorded) or the
    exception recorded in its row."""
    got = _outcome(defect.value, args, at=mp_shadow.shadow)
    if isinstance(measured, str):
        assert got == measured
    else:
        assert got == pytest.approx(measured, rel=1e-3)


@pytest.mark.parametrize("v", [(1, 0, 0), (2, 1, 0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_transpose_holds_off_the_defect_profiles(seed, v):
    """The transpose relation holds for colors (0, 1) on the profiles beside
    the defect's, at its limit (measured below 1e-15)."""
    assert mixed_transpose(seed, v) < 1e-8


def _show(outcome: float | str, digits: int = 3) -> str:
    return outcome if isinstance(outcome, str) else f"{outcome:.{digits}g}"


if __name__ == "__main__":
    for d in DEFECTS:
        print(f"{d.item}: {d.identity}, limit {d.limit:.0e}")
        print(f"  {d.inputs}")
        for k, (args, m) in enumerate(zip(d.cases, d.measured)):
            print(f"  {d.value.__name__}{args} = {_show(_outcome(d.value, args))} "
                  f"(measured {_show(m)})")
            if d.measured_40:
                print(f"    at 40 digits: "
                      f"{_show(_outcome(d.value, args, at=mp_shadow.shadow), 4)} "
                      f"(measured {_show(d.measured_40[k], 4)})")
