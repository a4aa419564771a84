"""Benchmark of the ellstab identity checks.

Run from the repository root:

    python3 perfbench/run.py --workload rmatrix-ybe --seed 1 --seconds 10 --trace 0

The load is a closed loop with one client: one process, one thread, BLAS
pinned to one thread, checks run back to back.  The timed phase runs a fixed
number of whole sweeps (one pass over every check of the workload at fresh
seeded inputs).  The number follows from ``--seconds`` alone, so the checks
take about that long on the machine the baseline was recorded on, and every
run of a seed measures the same inputs on any host.  Short probes of the host's
speed run between the checks, and every check time is reported at the
reference speed (see :func:`run_sweep`).

A run is correct when no check fails in a way that is not a known defect of
that check (see ``bench_workloads.Known``); a check without a known defect
that fails once makes the run incorrect.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced sweeps and reports the per-layer metrics of
the traced ones (see ``bench_trace``), together with the tracing overhead; a
traced sweep whose residuals differ from the untraced one by a single bit
makes the run incorrect.  ``attempted`` and ``failed`` count the untraced
sweeps only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the failures grouped by reason and every failure
that made the run incorrect.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: seconds :func:`calibrate` takes in a fresh interpreter on the machine the
#: baseline was recorded on (2 vCPUs, Python 3.11), the median over its speeds
CALIBRATION_REFERENCE_S = 0.1

#: size of one :func:`probe`: rounds of :func:`calibrate`, lattice products
PROBE_ROUNDS, PROBE_LATTICES = 300, 25
#: seconds one :func:`probe` takes on the reference machine, the median
PROBE_REFERENCE_S = 0.0095
#: a probe follows the check that brings the check time since the last probe
#: to at least this many seconds
PROBE_INTERVAL_S = 0.05

#: a relative residual below this reads as machine precision
RESIDUAL_FLOOR = 2.0 ** -52

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "passed_frac": "frac",
    "residual_digits": "digits",
}


def _import_library():
    if not (SRC / "ellstab" / "__init__.py").is_file():
        raise SystemExit(f"error: no ellstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bench_workloads
    return bench_workloads


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def calibrate(rounds: int = 5000) -> float:
    """Seconds of a fixed pure-Python workload: dictionaries keyed by tuples,
    Fraction exponents and complex products, the operations the library's
    evaluation loops spend their time in.  It uses only the standard library,
    so no change to ``ellstab`` can move it."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(rounds):
        exponents = {f"x{j}": Fraction(i % (j + 2), j + 1) for j in range(4)}
        z = cmath.exp(complex(0.01 * (i % 50), 0.3))
        product = 1 + 0j
        for k in range(6):
            product *= 1 - z * 0.9 ** k
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + product * float(sum(exponents.values()))
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of one probe of the host's speed (about 10 ms): a short run of
    :func:`calibrate` and a numpy loop of products over a small lattice, the
    two kinds of work the checks do, in about equal shares.  Neither touches
    ``ellstab``."""
    import numpy as np
    t0 = time.perf_counter()
    calibrate(PROBE_ROUNDS)
    k = np.arange(48.0)
    for i in range(PROBE_LATTICES):
        z = 0.8 * cmath.exp(0.1j * i)
        np.log(1 - z * 0.7 ** k[:, None] * (0.6 + 0.01 * i) ** k[None, :]).sum()
    return time.perf_counter() - t0


def _setup_only(workload: str, seed: int, sweeps: int) -> int:
    """Child mode: calibrate, then import the library and build the workload;
    print both times."""
    calibration_s = calibrate()
    t0 = time.perf_counter()
    workloads = _import_library()
    workloads.build(workload, seed, sweeps)
    print(json.dumps({"calibration_s": calibration_s,
                      "setup_s": time.perf_counter() - t0}))
    return 0


def _setup_sample(workload: str, seed: int, sweeps: int) -> dict[str, float]:
    """Calibration and set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--sweeps", str(sweeps)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# checks and sweeps
# ---------------------------------------------------------------------------

def _failure_kinds():
    import numpy as np
    from bench_workloads import CheckFailed
    from ellstab.core import BudgetError, SingularityError
    return (SingularityError, BudgetError, np.linalg.LinAlgError, CheckFailed)


class Outcome(NamedTuple):
    """One check's result."""

    residual: str | None  # repr of the residual, so that bits compare
    kind: str  # failure kind, "" when the check passed
    detail: str = ""


def evaluate(check, expected_failures) -> Outcome:
    try:
        residual = check.run()
    except expected_failures as exc:
        return Outcome(None, type(exc).__name__, str(exc))
    except Exception as exc:  # recorded: the run is then reported incorrect
        return Outcome(None, "unexpected", f"{type(exc).__name__}: {exc}")
    if residual is None:
        return Outcome(None, "")
    if not residual < check.limit:
        return Outcome(repr(residual), "residual",
                       f"{residual:.3e} not below {check.limit:.0e}")
    return Outcome(repr(residual), "")


def run_sweep(checks, expected_failures, tracer=None, probed=False):
    """Outcomes and wall times of one pass over every check, and with
    ``probed`` the host's speed at each check.

    The shared host's speed changes by up to 2x within a second, and moves
    the checks and :func:`probe` alike.  A probed sweep probes before its
    first check and after every stretch of at least ``PROBE_INTERVAL_S`` of
    check time; the speed of a check is the mean time of the two probes
    around its stretch.  Without ``probed`` the list of probe times is empty.
    """
    outcomes, times, probes = [], [], []
    perf = time.perf_counter
    before = probe() if probed else 0.0
    stretch, stretch_s = 0, 0.0
    for i, check in enumerate(checks):
        t0 = perf()
        outcomes.append(evaluate(check, expected_failures))
        times.append(perf() - t0)
        if tracer is not None:
            tracer.end_check()
        if probed:
            stretch, stretch_s = stretch + 1, stretch_s + times[-1]
            if stretch_s >= PROBE_INTERVAL_S or i == len(checks) - 1:
                after = probe()
                probes += [(before + after) / 2] * stretch
                before, stretch, stretch_s = after, 0, 0.0
    return outcomes, times, probes


def _failure_groups(sweeps) -> dict[str, int]:
    """Failed checks by kind and known defect (or check name, if none)."""
    groups: dict[str, int] = {}
    for checks, outcomes, *_ in sweeps:
        for check, outcome in zip(checks, outcomes):
            if outcome.kind:
                key = f"{outcome.kind} [{check.known.reason if check.known else check.name}]"
                groups[key] = groups.get(key, 0) + 1
    return dict(sorted(groups.items()))


#: a flaky check is judged only in runs of at least this many sweeps: in
#: fewer, a rare failure cannot be told from a broken identity
FLAKY_MIN_SWEEPS = 3


def unexplained_failures(sweeps) -> list[str]:
    """Failures no known defect accounts for; the run is correct if none.

    A failure is unexplained when its check has no known defect, or fails in
    a way its known defect does not, or is flaky and failed in every one of
    at least ``FLAKY_MIN_SWEEPS`` sweeps.
    """
    found, passed_once, flaky = [], set(), {}
    for i, (checks, outcomes, *_) in enumerate(sweeps):
        for check, outcome in zip(checks, outcomes):
            known = check.known
            if not outcome.kind:
                passed_once.add(check.name)
            elif known is None or outcome.kind not in known.kinds:
                found.append(f"sweep {i}: {check.name}: {outcome.kind} {outcome.detail}")
            elif known.flaky:
                flaky[check.name] = known.reason
    if len(sweeps) >= FLAKY_MIN_SWEEPS:
        found += [f"{name}: failed in every sweep; {reason}"
                  for name, reason in flaky.items() if name not in passed_once]
    return found


def _residual_digits(outcomes) -> float:
    """The 10th percentile of -log10 of the relative residuals of the passed
    checks: a tenth of them keep fewer digits."""
    digits = [-math.log10(max(float(o.residual), RESIDUAL_FLOOR))
              for o in outcomes if not o.kind and o.residual is not None]
    if len(digits) < 2:
        return min(digits, default=0.0)
    return statistics.quantiles(digits, n=10, method="inclusive")[0]


def _timings(times: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"checks_per_s": len(times) / math.fsum(times),
            "check_p50_ms": 1e3 * statistics.median(times),
            "check_p90_ms": 1e3 * deciles[8]}


def end_to_end(sweeps, samples: list[dict]):
    """(metrics at the reference speed, metrics as measured, slowdown).

    Each check time is scaled by ``PROBE_REFERENCE_S`` over the probes
    around it (see :func:`run_sweep`), and ``setup_s`` scales each set-up
    sample by the calibration taken in the same interpreter just before it.
    The slowdown is the median probe over ``PROBE_REFERENCE_S``.
    """
    outcomes = [o for _, sweep, _, _ in sweeps for o in sweep]
    times = [t for _, _, sweep_times, _ in sweeps for t in sweep_times]
    probes = [p for _, _, _, sweep_probes in sweeps for p in sweep_probes]
    failed = sum(1 for o in outcomes if o.kind)
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        **_timings(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": 1.0 - failed / len(outcomes),
        "residual_digits": _residual_digits(outcomes),
    }
    scaled = {
        **raw,
        "setup_s": CALIBRATION_REFERENCE_S * statistics.median(
            s["setup_s"] / s["calibration_s"] for s in samples),
        **_timings([t * PROBE_REFERENCE_S / p for t, p in zip(times, probes)]),
    }
    return scaled, raw, statistics.median(probes) / PROBE_REFERENCE_S


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--sweeps", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if args.setup_only:
        return _setup_only(args.workload, args.seed, args.sweeps)

    workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    sweeps = workloads.sweep_count(args.workload, args.seconds)
    prepared = workloads.build(args.workload, args.seed, sweeps)
    kinds = _failure_kinds()

    import bench_trace
    tracer = bench_trace.Tracer() if args.trace else None
    plain, traced, samples = [], [], []
    for checks in prepared:
        if tracer is None:  # one sample per sweep spans the run
            samples.append(_setup_sample(args.workload, args.seed, sweeps))
        plain.append((checks, *run_sweep(checks, kinds, probed=tracer is None)))
        if tracer is not None:
            with tracer:
                traced.append((checks, *run_sweep(checks, kinds, tracer)))

    outcomes = [o for _, sweep, _, _ in plain for o in sweep]
    unexplained = unexplained_failures(plain)
    unexplained += [f"unexpected: {o.detail}" for _, sweep, _, _ in traced
                    for o in sweep if o.kind == "unexpected"]
    unexplained += [f"sweep {i}: traced outcomes differ from untraced"
                    for i, ((_, a, _, _), (_, b, _, _)) in enumerate(zip(plain, traced))
                    if a != b]
    report = {}
    if tracer is not None:
        def check_s(sweeps):
            return math.fsum(t for _, _, times, _ in sweeps for t in times)
        metrics = tracer.metrics(len(traced), check_s(traced) / check_s(plain) - 1.0)
        units = bench_trace.METRICS
    else:
        metrics, report["measured"], report["slowdown"] = end_to_end(plain, samples)
        units = END_TO_END_UNITS
    print(json.dumps({
        "env": environment(), "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "sweeps": sweeps, **report,
        "checks_per_sweep": len(prepared[0]),
        "failures": _failure_groups(plain), "unexplained": unexplained}))
    print(json.dumps({
        "correct": not unexplained, "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.kind),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
