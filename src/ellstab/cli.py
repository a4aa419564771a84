"""Batch command-line front end.

Every command samples a reproducible parameter point from its seed, runs one
computation, and emits a single JSON document (stdout or --out) holding the
seed, the parameter point, the results, residuals and timings.  Complex
numbers are encoded as [re, im] pairs; matrices are row-major with
self-describing basis labels.

Exit codes: 0 all checks within tolerance, 1 check failure, 2 usage error,
3 numeric singularity or exceeded enumeration budget (no retry is made).
``shuffle-check`` alone takes ``--workers``, its process-pool size.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import BudgetError, Monomial, SingularityError
from .envelopes import Envelope, EnvelopeSpec, restrict, shuffle_residual
from .fock import (lowering_coefficient, phi_eigenvalue, raising_coefficient)
from .partitions import (ColoredPartition, addable_removable, fixed_points,
                         make_fixed_point, partitions_upto)
from .rmatrix import (ChamberMatrices, FramingGroup, inverted_kahler,
                      transition_r, transition_r_star,
                      transpose_relation_residual, weight_block_residual,
                      ybe_residual)
from .sampling import random_assignment, sample_param_point
from .scalars import (chi_exchange, mu_exchange, mu_star_exchange, rho_plus,
                      rll_scalar_residual)
from .vertex import bethe_solve, vertex_series
from . import acceptance as acc


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[_c(v) for v in row] for row in m]


def _param_json(pp) -> dict:
    return {name: _c(v) for name, v in sorted(pp.values.items())}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _vec(args, name: str) -> tuple[int, ...]:
    """The dimension vector of option ``--name``: one non-negative entry per
    color."""
    vec = _ints(getattr(args, name))
    if len(vec) != args.N:
        raise ValueError(f"--{name} has {len(vec)} entries, --N is {args.N}")
    if any(e < 0 for e in vec):
        raise ValueError(f"--{name} {getattr(args, name)} has a negative entry")
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


def _partition_list(text: str):
    rows = json.loads(text)
    if rows and isinstance(rows[0], int):
        rows = [rows]
    return [tuple(r) for r in rows]


def _emit(doc: dict, args) -> None:
    blob = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def _base_doc(args, pp, t0) -> dict:
    return {
        "command": args.command,
        "seed": args.seed,
        "tol": args.tol,
        "param_point": _param_json(pp),
        "timings": {"seconds": round(time.perf_counter() - t0, 6)},
        "residuals": {},
    }


def cmd_fixed_points(args) -> int:
    t0 = time.perf_counter()
    w, v = _vec(args, "w"), _vec(args, "v")
    pts = fixed_points(v, w, args.N)
    pp = sample_param_point(args.seed, args.N, framing_counts={"u": list(w)})
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"count": len(pts), "labels": [p.label() for p in pts]}
    _emit(doc, args)
    return 0


def _fp_from_args(args, w, text):
    """The fixed point of JSON rows ``text``, framing variables u{k}_{j}."""
    return make_fixed_point(_partition_list(text), w, args.N)


def cmd_stab(args) -> int:
    t0 = time.perf_counter()
    w = _vec(args, "w")
    fp = _fp_from_args(args, w, args.fp)
    pp = sample_param_point(args.seed, args.N, framing_counts={"u": list(w)})
    env = Envelope(EnvelopeSpec(fp, args.variant, args.star))
    rng = np.random.default_rng(args.seed)
    values_list, results, sym_resid = [], [], 0.0
    for _ in range(args.assignments):
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
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"fixed_point": fp.label(), "variant": args.variant,
                      "values": results, "assignments": values_list}
    doc["residuals"]["symmetry"] = sym_resid
    _emit(doc, args)
    return 0 if sym_resid < args.tol else 1


def cmd_restrict(args) -> int:
    t0 = time.perf_counter()
    w = _vec(args, "w")
    fp = _fp_from_args(args, w, args.fp)
    mu = _fp_from_args(args, w, args.mu)
    pp = sample_param_point(args.seed, args.N, framing_counts={"u": list(w)})
    env = Envelope(EnvelopeSpec(fp, args.variant, args.star))
    val = restrict(env, mu, pp, framed=not args.unframed)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"fixed_point": fp.label(), "at": mu.label(),
                      "value": _c(val)}
    _emit(doc, args)
    return 0


def _shuffle_case(task):
    """One shuffle check; module-level so a process pool can run it."""
    (n, seed, color2, rows1, rows2, variant, assignments) = task
    wa = tuple(1 if i == 0 else 0 for i in range(n))
    wb = tuple(1 if i == color2 else 0 for i in range(n))
    pp = sample_param_point(seed, n, framing_counts={"ua": list(wa),
                                                     "ub": list(wb)})
    fpa = make_fixed_point([rows1], wa, n, u_names=["ua0_1"])
    fpb = make_fixed_point([rows2], wb, n, u_names=[f"ub{color2}_1"])
    rng = np.random.default_rng(seed + 13 * len(rows1) + 29 * len(rows2))
    return shuffle_residual(fpa, fpb, pp, variant, n_assignments=assignments,
                            rng=rng)


def cmd_shuffle_check(args) -> int:
    t0 = time.perf_counter()
    n = args.N
    sizes = _list(args, "boxes", 2)
    _colors(args, "color2", (args.color2,))
    tasks = []
    for rows1 in partitions_upto(sizes[0]):
        if sum(rows1) != sizes[0]:
            continue
        for rows2 in partitions_upto(sizes[1]):
            if sum(rows2) != sizes[1]:
                continue
            for variant in ("plain", "hat", "tilde"):
                tasks.append((n, args.seed, args.color2, rows1, rows2,
                              variant, args.assignments))
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            residuals = list(pool.map(_shuffle_case, tasks))
    else:
        residuals = [_shuffle_case(t) for t in tasks]
    checks = [{"first": list(t[3]), "second": list(t[4]), "variant": t[5],
               "residual": r} for t, r in zip(tasks, residuals)]
    worst = max(residuals) if residuals else 0.0
    wa = tuple(1 if i == 0 else 0 for i in range(n))
    wb = tuple(1 if i == args.color2 else 0 for i in range(n))
    pp = sample_param_point(args.seed, n, framing_counts={"ua": list(wa),
                                                          "ub": list(wb)})
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"checks": checks}
    doc["residuals"]["worst"] = worst
    _emit(doc, args)
    return 0 if worst < args.tol else 1


def cmd_rmatrix(args) -> int:
    t0 = time.perf_counter()
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
    res = (transition_r_star if args.star else transition_r)(
        v, g1, g2, pp, n, include_scalar=not args.bare, chambers=ch)
    comp = ch.composition()
    wres = weight_block_residual(res.basis, res.bare)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {
        "basis": [b.label() for b in res.basis],
        "weights": [list(wt) for wt in res.weights],
        "scalar": _c(res.scalar),
        "matrix": _matrix(res.full if not args.bare else res.bare),
        "condition_numbers": list(res.cond),
    }
    doc["residuals"]["composition"] = comp
    doc["residuals"]["weight_blocks"] = wres
    if args.star:
        doc["residuals"]["transpose_relation"] = transpose_relation_residual(
            v, g1, g2, pp, n, inverted=ch)
    worst = max(comp, wres)
    _emit(doc, args)
    return 0 if worst < args.tol else 1


def cmd_ybe(args) -> int:
    t0 = time.perf_counter()
    n = args.N
    colors = _colors(args, "colors", _list(args, "colors", 3))
    if args.boxes < 0:
        raise ValueError(f"--boxes {args.boxes} is negative")
    groups = tuple(FramingGroup(tuple(1 if i == c else 0 for i in range(n)),
                                p) for c, p in zip(colors, ("ua", "ub", "uc")))
    pp = sample_param_point(args.seed, n,
                            framing_counts={g.prefix: list(g.w) for g in groups})
    r = ybe_residual(groups, pp, n, args.boxes)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"colors": list(colors), "boxes": args.boxes}
    doc["residuals"]["ybe"] = r
    _emit(doc, args)
    return 0 if r < args.tol else 1


def cmd_fock(args) -> int:
    t0 = time.perf_counter()
    n = args.N
    rows = tuple(json.loads(args.partition))
    lam = ColoredPartition(rows, args.k, n)
    pp = sample_param_point(args.seed, n, extra_vars=["u", "zarg"])
    z = Monomial.var("zarg")
    eigen = {j: _c(phi_eigenvalue(lam, j, z, pp).materialize(pp))
             for j in range(n)}
    ladders = {"raise": {}, "lower": {}}
    worst = 0.0
    for j in range(n):
        add, rem = addable_removable(lam, j)
        for cell in add:
            a1 = raising_coefficient(lam, cell, pp, form=1).materialize(pp)
            a2 = raising_coefficient(lam, cell, pp, form=2).materialize(pp)
            worst = max(worst, abs(a1 - a2) / max(abs(a1), 1e-300))
            ladders["raise"][str(list(cell))] = _c(a1)
        for cell in rem:
            b1 = lowering_coefficient(lam, cell, pp, form=1).materialize(pp)
            b2 = lowering_coefficient(lam, cell, pp, form=2).materialize(pp)
            worst = max(worst, abs(b1 - b2) / max(abs(b1), 1e-300))
            ladders["lower"][str(list(cell))] = _c(b1)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"partition": list(rows), "color": args.k,
                      "cartan_eigenvalues": eigen, "ladders": ladders}
    doc["residuals"]["dual_forms"] = worst
    _emit(doc, args)
    return 0 if worst < args.tol else 1


def cmd_vertex(args) -> int:
    t0 = time.perf_counter()
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
        doc = _base_doc(args, pp, t0)
        doc["results"] = {"error": str(exc)}
        _emit(doc, args)
        return 3
    d0 = tuple([0] * sum(v))
    law = abs(series.coefficients[d0] - series.envelope_at_mu)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {
        "lam": lam.label(), "mu": mu.label(), "degree_cap": args.D,
        "envelope_at_mu": _c(series.envelope_at_mu),
        "coefficients": {",".join(map(str, d)): _c(c)
                         for d, c in sorted(series.coefficients.items())},
    }
    doc["residuals"]["degree_zero_law"] = law
    _emit(doc, args)
    return 0 if law < args.tol * max(1.0, abs(series.envelope_at_mu)) else 1


def cmd_bethe(args) -> int:
    t0 = time.perf_counter()
    n = args.N
    w, v = _vec(args, "w"), _vec(args, "v")
    if not fixed_points(v, w, n):
        raise ValueError(f"--v {args.v} has 0 fixed points at --w {args.w}")
    pp = sample_param_point(args.seed, n, framing_counts={"u": list(w)})
    sol = bethe_solve(v, w, pp, seed=args.seed)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {
        "roots": {str(k): [_c(x) for x in xs] for k, xs in sol.roots.items()},
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    doc["residuals"]["bethe"] = sol.residual
    _emit(doc, args)
    return 0 if sol.converged else 1


def cmd_scalars(args) -> int:
    t0 = time.perf_counter()
    n = args.N
    rng = np.random.default_rng(args.seed)
    pp0 = sample_param_point(args.seed, n)
    worst = 0.0
    samples = []
    for _ in range(args.points):
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
    doc = _base_doc(args, pp0, t0)
    doc["results"] = {"samples": samples}
    doc["residuals"]["rll_worst"] = worst
    _emit(doc, args)
    return 0 if worst < args.tol else 1


def cmd_acceptance(args) -> int:
    t0 = time.perf_counter()
    results = acc.run_all(args.seed, verbose=not args.out)
    pp = sample_param_point(args.seed, 3)
    doc = _base_doc(args, pp, t0)
    doc["results"] = {"criteria": [{
        "number": r.number, "name": r.name, "passed": r.passed,
        "worst": r.worst, "limit": r.limit, "seconds": round(r.seconds, 3),
        "detail": r.detail} for r in results]}
    doc["residuals"]["failures"] = sum(0 if r.passed else 1 for r in results)
    _emit(doc, args)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellstab",
        description="numerical elliptic stable envelopes for cyclic quiver "
                    "varieties: identities, R-matrices, vertex functions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--N", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("fixed-points", help="enumerate torus fixed points")
    common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("stab", help="evaluate a stable envelope")
    common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--fp", required=True, help="JSON rows per framing slot")
    p.add_argument("--variant", choices=("plain", "hat", "tilde"), default="hat")
    p.add_argument("--star", action="store_true")
    p.add_argument("--assignments", type=int, default=3)
    p.set_defaults(func=cmd_stab)

    p = sub.add_parser("restrict", help="restrict an envelope to a fixed point")
    common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--fp", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--variant", choices=("plain", "hat", "tilde"), default="plain")
    p.add_argument("--star", action="store_true")
    p.add_argument("--unframed", action="store_true",
                   help="use bare t-weights in the restriction values")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("shuffle-check", help="shuffle product residuals")
    common(p)
    p.add_argument("--boxes", required=True, help="sizes, e.g. 1,1")
    p.add_argument("--color2", type=int, default=0)
    p.add_argument("--assignments", type=int, default=5)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_shuffle_check)

    p = sub.add_parser("rmatrix", help="dynamical R-matrix block")
    common(p)
    p.add_argument("--v", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--star", action="store_true")
    p.add_argument("--bare", action="store_true",
                   help="omit the vacuum exchange scalar")
    p.set_defaults(func=cmd_rmatrix)

    p = sub.add_parser("ybe", help="dynamical Yang-Baxter residual")
    common(p)
    p.add_argument("--colors", default="0,0,0")
    p.add_argument("--boxes", type=int, default=1)
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("fock", help="Fock representation coefficients")
    common(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--partition", required=True, help="JSON rows, e.g. [2,1]")
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("vertex", help="vertex-function series")
    common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--D", type=int, default=2)
    p.add_argument("--lam", type=int, default=0,
                   help="index of the envelope label in the fixed-point list")
    p.add_argument("--mu", type=int, default=None,
                   help="index of the cycle label in the fixed-point list")
    p.set_defaults(func=cmd_vertex)

    p = sub.add_parser("bethe", help="solve the saddle-point equations")
    common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_bethe)

    p = sub.add_parser("scalars", help="exchange scalars and their identity")
    common(p)
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=cmd_scalars)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    common(p)
    p.set_defaults(func=cmd_acceptance)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SingularityError, BudgetError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}),
              file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
