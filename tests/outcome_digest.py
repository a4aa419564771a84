"""Digests of every benchmark check's outcome, to compare two checkouts.

Per workload and seed, this builds the sweeps of a benchmark run of
``--seconds`` (``bench_workloads.build`` with ``sweep_count``), runs every
check of every sweep and prints the number of checks and the sha256 of the
lines ``name|repr(outcome)``; the outcome is the residual a check returns or
the exception it raises.  Two checkouts whose digests agree give every check
the same outcome bit for bit.  Not a test: run it in each checkout and
compare the output,

    python tests/outcome_digest.py [--seconds 25] [--seeds 1 2 3]
                                   [--workloads rmatrix-ybe ...]

The defaults (all three workloads, seeds 1-3) take about 30 s on a 2-vCPU
host, since the checks run faster than the run lengths ``sweep_count``
assumes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_workloads as workloads  # noqa: E402


def outcome(check):
    """The residual of a check, or the exception it raises."""
    try:
        return check.run()
    except Exception as exc:
        return exc


def digest(workload: str, seed: int, seconds: float) -> tuple[int, str]:
    """(number of checks, sha256 of their outcome lines) of one run."""
    h = hashlib.sha256()
    count = 0
    sweeps = workloads.build(workload, seed, workloads.sweep_count(workload, seconds))
    for checks in sweeps:
        for check in checks:
            h.update(f"{check.name}|{outcome(check)!r}\n".encode())
            count += 1
    return count, h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            count, sha = digest(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: {count} checks {sha}", flush=True)


if __name__ == "__main__":
    main()
