"""Batch command-line front end.

Every command samples a reproducible parameter point from its seed, runs one
computation and returns ``(point, results, residuals, exit code)``.  ``main``
times the call and builds and emits the one JSON document (stdout or --out):
command, seed, tol, param_point, timings, results and residuals.  Complex
numbers are encoded as [re, im] pairs; matrices are row-major with
self-describing basis labels.

Exit codes: 0 all checks within tolerance, 1 check failure, 2 usage error
(an option value that is out of range or malformed, such as JSON rows that
are not lists of non-negative integers, or a count below 1), 3 numeric
singularity or exceeded enumeration budget (no retry is made).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from .core import BudgetError, Monomial, SingularityError
from .envelopes import EnvelopeSpec, compiled, restrict, shuffle_residual
from .fock import (exchange_pairs, exchange_residual, lowering_coefficient,
                   phi_eigenvalue, raising_coefficient)
from .partitions import (ColoredPartition, addable_removable,
                         check_dimension_vector, fixed_points, make_fixed_point,
                         partitions_of)
from .rmatrix import (ChamberMatrices, FramingGroup, inverted_kahler,
                      weight_block_residual, ybe_residual)
from .sampling import random_assignment, sample_param_point
from .scalars import (chi_exchange, mu_exchange, mu_star_exchange, rho_plus,
                      rll_scalar_residual)
from .vertex import bethe_solve, vertex_series
from . import acceptance as acc


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _vec(args, name: str) -> tuple[int, ...]:
    """The dimension vector of option ``--name``: one non-negative entry per
    color (``check_dimension_vector``)."""
    vec = _ints(getattr(args, name))
    check_dimension_vector(f"--{name}", vec, args.N)
    return vec


def _list(args, name: str, count: int) -> tuple[int, ...]:
    """The ``count`` integers of option ``--name``."""
    vals = _ints(getattr(args, name))
    if len(vals) != count:
        raise ValueError(f"--{name} has {len(vals)} entries, expected {count}")
    return vals


def _colors(args, name: str, colors: tuple[int, ...]) -> tuple[int, ...]:
    """``colors`` (option ``--name``), each checked to lie in 0..N-1."""
    for c in colors:
        if not 0 <= c < args.N:
            raise ValueError(f"--{name} {c} is not a color in 0..{args.N - 1}")
    return colors


def _pick(basis: list, index: int, name: str):
    """The fixed point at position ``index`` of ``basis`` (option ``--name``)."""
    if not 0 <= index < len(basis):
        raise ValueError(f"--{name} {index} is not an index into the "
                         f"{len(basis)} fixed points")
    return basis[index]


def _count(args, name: str) -> int:
    """Option ``--name``, a count of at least 1."""
    count = getattr(args, name)
    if count < 1:
        raise ValueError(f"--{name} {count} is below 1")
    return count


def _partition(name: str, text: str, rows) -> tuple[int, ...]:
    """``rows``, read from option ``--name`` ``text``, as one partition."""
    if not isinstance(rows, list) or any(type(r) is not int or r < 0
                                         for r in rows):
        raise ValueError(f"--{name} {text} is not JSON rows of non-negative "
                         f"integers")
    return tuple(rows)


@contextmanager
def _option(name: str, text: str):
    """Re-raise a ``ValueError`` of the block naming option ``--name text``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"--{name} {text}: {exc}") from exc


def _fixed_point(args, name: str, w: tuple[int, ...]):
    """The fixed point of option ``--name``: JSON rows per framing slot (one
    slot's rows may stand alone), on the slots of ``FramingGroup(w)``."""
    text = getattr(args, name)
    with _option(name, text):
        slots = json.loads(text)
    if not isinstance(slots, list) or (slots and isinstance(slots[0], int)):
        slots = [slots]
    rows = [_partition(name, text, s) for s in slots]
    with _option(name, text):
        return make_fixed_point(rows, FramingGroup(w), args.N)


def cmd_fixed_points(args):
    w, v = _vec(args, "w"), _vec(args, "v")
    pts = fixed_points(v, w, args.N)
    pp = sample_param_point(args.seed, args.N, framing_counts={"u": list(w)})
    return pp, {"count": len(pts), "labels": [p.partitions() for p in pts]}, {}, 0


def cmd_stab(args):
    w = _vec(args, "w")
    fp = _fixed_point(args, "fp", w)
    assignments = _count(args, "assignments")
    pp = sample_param_point(args.seed, args.N, framing_counts={"u": list(w)})
    env = compiled(EnvelopeSpec(fp, args.variant, args.star), pp)
    rng = np.random.default_rng(args.seed)
    values_list, results, sym_resid = [], [], 0.0
    for _ in range(assignments):
        values = random_assignment(rng, env.x_names())
        val = env.eval(pp, values)
        # symmetry diagnostic: swap two same-color roots if possible
        swapped = dict(values)
        for i, names in env.nvars.items():
            if len(names) >= 2:
                swapped[names[0]], swapped[names[1]] = swapped[names[1]], swapped[names[0]]
                break
        val2 = env.eval(pp, swapped)
        sym_resid = max(sym_resid, abs(val - val2) / max(abs(val), 1e-300))
        values_list.append({k: _c(v) for k, v in values.items()})
        results.append(_c(val))
    return (pp, {"fixed_point": fp.partitions(), "variant": args.variant,
                 "values": results, "assignments": values_list},
            {"symmetry": sym_resid}, 0 if sym_resid < args.tol else 1)


def cmd_restrict(args):
    w = _vec(args, "w")
    fp = _fixed_point(args, "fp", w)
    mu = _fixed_point(args, "mu", w)
    pp = sample_param_point(args.seed, args.N, framing_counts={"u": list(w)})
    env = compiled(EnvelopeSpec(fp, args.variant, args.star), pp)
    val = restrict(env, mu, pp, framed=not args.unframed)
    return (pp, {"fixed_point": fp.partitions(), "at": mu.partitions(),
                 "value": _c(val)}, {}, 0)


def cmd_shuffle_check(args):
    n = args.N
    sizes = _list(args, "boxes", 2)
    if min(sizes) < 0:
        raise ValueError(f"--boxes {args.boxes} has a negative entry")
    _colors(args, "color2", (args.color2,))
    assignments = _count(args, "assignments")
    ga = FramingGroup.unit(0, n, "ua")
    gb = FramingGroup.unit(args.color2, n, "ub")
    pp = sample_param_point(args.seed, n, framing_counts={g.prefix: list(g.w)
                                                          for g in (ga, gb)})
    checks = []
    for rows1 in partitions_of(sizes[0]):
        fpa = make_fixed_point([rows1], ga, n)
        for rows2 in partitions_of(sizes[1]):
            fpb = make_fixed_point([rows2], gb, n)
            for variant in ("plain", "hat", "tilde"):
                rng = np.random.default_rng(args.seed + 13 * len(rows1)
                                            + 29 * len(rows2))
                r = shuffle_residual(fpa, fpb, pp, variant,
                                     n_assignments=assignments, rng=rng)
                checks.append({"first": list(rows1), "second": list(rows2),
                               "variant": variant, "residual": r})
    worst = max(c["residual"] for c in checks)
    return (pp, {"checks": checks}, {"worst": worst},
            0 if worst < args.tol else 1)


def cmd_rmatrix(args):
    n = args.N
    g1 = FramingGroup(_vec(args, "w1"), "ua")
    g2 = FramingGroup(_vec(args, "w2"), "ub")
    pp = sample_param_point(args.seed, n, framing_counts={"ua": list(g1.w),
                                                          "ub": list(g2.w)})
    v = _vec(args, "v")
    # the matrix, its composition and (with --star) the transpose relation
    # are solved from the same restriction matrices, each built once
    ch = ChamberMatrices.build(v, g1, g2, pp, n, star=args.star,
                               kahler=inverted_kahler(n) if args.star else None)
    if not ch.basis:
        raise ValueError(f"--v {args.v} has 0 fixed points at --w1 {args.w1} "
                         f"--w2 {args.w2}")
    res = ch.transition(include_scalar=not args.bare)
    residuals = {"composition": ch.composition(),
                 "weight_blocks": weight_block_residual(res.basis, res.bare)}
    if args.star:
        residuals["transpose_relation"] = ch.transpose_relation()
    results = {
        "basis": [b.partitions() for b in res.basis],
        "weights": [list(wt) for wt in res.weights],
        "scalar": _c(res.scalar),
        "matrix": [[_c(z) for z in row]
                   for row in (res.bare if args.bare else res.full)],
        "condition_numbers": list(res.cond),
    }
    worst = max(residuals["composition"], residuals["weight_blocks"])
    return pp, results, residuals, 0 if worst < args.tol else 1


def cmd_ybe(args):
    n = args.N
    colors = _colors(args, "colors", _list(args, "colors", 3))
    if args.boxes < 0:
        raise ValueError(f"--boxes {args.boxes} is negative")
    groups = tuple(FramingGroup.unit(c, n, p)
                   for c, p in zip(colors, ("ua", "ub", "uc")))
    pp = sample_param_point(args.seed, n,
                            framing_counts={g.prefix: list(g.w) for g in groups})
    r = ybe_residual(groups, pp, n, args.boxes)
    return (pp, {"colors": list(colors), "boxes": args.boxes}, {"ybe": r},
            0 if r < args.tol else 1)


def cmd_fock(args):
    n = args.N
    with _option("partition", args.partition):
        rows = json.loads(args.partition)
    rows = _partition("partition", args.partition, rows)
    _colors(args, "k", (args.k,))
    with _option("partition", args.partition):
        lam = ColoredPartition(rows, args.k, n)
    pp = sample_param_point(args.seed, n, extra_vars=["u", "zarg"])
    z = Monomial.var("zarg")
    eigen = {j: _c(phi_eigenvalue(lam, j, z).eval(pp, False))
             for j in range(n)}
    ladders = {"raise": {}, "lower": {}}
    for j in range(n):
        add, rem = addable_removable(lam, j)
        for kind, coefficient, cells in (("raise", raising_coefficient, add),
                                         ("lower", lowering_coefficient, rem)):
            for cell in cells:
                ladders[kind][str(list(cell))] = _c(coefficient(lam, cell).eval(pp, False))
    pairs = exchange_pairs(lam)
    worst = max((exchange_residual(lam, a, b, pp) for a, b in pairs), default=0.0)
    return (pp, {"partition": list(rows), "color": args.k,
                 "cartan_eigenvalues": eigen, "ladders": ladders,
                 "exchange_pairs": len(pairs)},
            {"exchange": worst}, 0 if worst < args.tol else 1)


def cmd_vertex(args):
    n = args.N
    w, v = _vec(args, "w"), _vec(args, "v")
    if args.D < 0:
        raise ValueError(f"--D {args.D} is negative")
    pp = sample_param_point(args.seed, n, framing_counts={"u": list(w)})
    basis = fixed_points(v, w, n)
    lam = _pick(basis, args.lam, "lam")
    mu = lam if args.mu is None else _pick(basis, args.mu, "mu")
    try:
        series = vertex_series(lam, mu, args.D, pp)
    except SingularityError as exc:
        return pp, {"error": str(exc)}, {}, 3
    d0 = tuple([0] * sum(v))
    law = abs(series.coefficients[d0] - series.envelope_at_mu)
    results = {
        "lam": lam.partitions(), "mu": mu.partitions(), "degree_cap": args.D,
        "envelope_at_mu": _c(series.envelope_at_mu),
        "coefficients": {",".join(map(str, d)): _c(c)
                         for d, c in sorted(series.coefficients.items())},
    }
    return (pp, results, {"degree_zero_law": law},
            0 if law < args.tol * max(1.0, abs(series.envelope_at_mu)) else 1)


def cmd_bethe(args):
    n = args.N
    w, v = _vec(args, "w"), _vec(args, "v")
    if not fixed_points(v, w, n):
        raise ValueError(f"--v {args.v} has 0 fixed points at --w {args.w}")
    pp = sample_param_point(args.seed, n, framing_counts={"u": list(w)})
    sol = bethe_solve(v, w, pp, seed=args.seed)
    results = {
        "roots": {str(k): [_c(x) for x in xs] for k, xs in sol.roots.items()},
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    return pp, results, {"bethe": sol.residual}, 0 if sol.converged else 1


def cmd_scalars(args):
    n = args.N
    points = _count(args, "points")
    rng = np.random.default_rng(args.seed)
    pp0 = sample_param_point(args.seed, n)
    worst = 0.0
    samples = []
    for _ in range(points):
        uval = (0.55 + 0.8 * rng.random()) * cmath.exp(2j * np.pi * rng.random())
        pp = pp0.extended({"u": uval})
        z = Monomial.var("u")
        row = {"u": _c(uval),
               "rho_plus": _c(rho_plus(pp, z)),
               "mu_00": _c(mu_exchange(pp, z, 0, 0)),
               "mu_star_00": _c(mu_star_exchange(pp, z, 0, 0)),
               "chi_00": _c(chi_exchange(pp, z, 0, 0))}
        rll = max(rll_scalar_residual(pp, z, k) for k in range(n))
        row["rll_residual"] = rll
        worst = max(worst, rll)
        samples.append(row)
    return (pp0, {"samples": samples}, {"rll_worst": worst},
            0 if worst < args.tol else 1)


def cmd_acceptance(args):
    results = acc.run_all(args.seed, verbose=not args.out)
    pp = sample_param_point(args.seed, 3)
    failures = sum(0 if r.passed else 1 for r in results)
    return (pp, {"criteria": [{
        "number": r.number, "name": r.name, "passed": r.passed,
        "worst": r.worst, "limit": r.limit, "seconds": round(r.seconds, 3),
        "detail": r.detail} for r in results]},
        {"failures": failures}, 0 if failures == 0 else 1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellstab",
        description="numerical elliptic stable envelopes for cyclic quiver "
                    "varieties: identities, R-matrices, vertex functions")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--N", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=func)
        return p

    p = command("fixed-points", cmd_fixed_points,
                "enumerate torus fixed points")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)

    p = command("stab", cmd_stab, "evaluate a stable envelope")
    p.add_argument("--w", required=True)
    p.add_argument("--fp", required=True, help="JSON rows per framing slot")
    p.add_argument("--variant", choices=("plain", "hat", "tilde"), default="hat")
    p.add_argument("--star", action="store_true")
    p.add_argument("--assignments", type=int, default=3)

    p = command("restrict", cmd_restrict,
                "restrict an envelope to a fixed point")
    p.add_argument("--w", required=True)
    p.add_argument("--fp", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--variant", choices=("plain", "hat", "tilde"), default="plain")
    p.add_argument("--star", action="store_true")
    p.add_argument("--unframed", action="store_true",
                   help="use bare t-weights in the restriction values")

    p = command("shuffle-check", cmd_shuffle_check,
                "shuffle product residuals")
    p.add_argument("--boxes", required=True, help="sizes, e.g. 1,1")
    p.add_argument("--color2", type=int, default=0)
    p.add_argument("--assignments", type=int, default=5)

    p = command("rmatrix", cmd_rmatrix, "dynamical R-matrix block")
    p.add_argument("--v", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--star", action="store_true")
    p.add_argument("--bare", action="store_true",
                   help="omit the vacuum exchange scalar")

    p = command("ybe", cmd_ybe, "dynamical Yang-Baxter residual")
    p.add_argument("--colors", default="0,0,0")
    p.add_argument("--boxes", type=int, default=1)

    p = command("fock", cmd_fock, "Fock representation coefficients")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--partition", required=True, help="JSON rows, e.g. [2,1]")

    p = command("vertex", cmd_vertex, "vertex-function series")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--lam", type=int, default=0,
                   help="index of the envelope label in the fixed-point list")
    p.add_argument("--mu", type=int, default=None,
                   help="index of the cycle label in the fixed-point list")

    p = command("bethe", cmd_bethe, "solve the saddle-point equations")
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)

    p = command("scalars", cmd_scalars, "exchange scalars and their identity")
    p.add_argument("--points", type=int, default=20)

    command("acceptance", cmd_acceptance, "run the full acceptance suite")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        pp, results, residuals, code = args.func(args)
    except (SingularityError, BudgetError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}),
              file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {
        "command": args.command,
        "seed": args.seed,
        "tol": args.tol,
        "param_point": {k: _c(z) for k, z in sorted(pp.values.items())},
        "timings": {"seconds": round(time.perf_counter() - t0, 6)},
        "results": results,
        "residuals": residuals,
    }
    blob = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    return code


if __name__ == "__main__":
    sys.exit(main())
