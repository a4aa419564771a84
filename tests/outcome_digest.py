"""Digests of every benchmark check's outcome, to compare two checkouts.

Per workload and seed, this builds the sweeps of a benchmark run of
``--seconds`` (``bench_workloads.build`` with ``sweep_count``), runs every
check of every sweep and prints the number of checks and the sha256 of the
lines ``name|repr(outcome)``; the outcome is the residual a check returns or
the exception it raises.  Two checkouts whose digests agree give every check
the same outcome bit for bit.  Not a test: run it in each checkout and
compare the output, or let it run the other checkout too,

    python tests/outcome_digest.py [--seconds 25] [--seeds 1 2 3]
                                   [--workloads rmatrix-ybe ...]
                                   [--acceptance 0 1 2] [--against PATH]

``--acceptance`` (opt-in) also runs every acceptance criterion
(``acceptance.ALL_CRITERIA``) at each seed given and prints one line per
criterion, ``criterion N seed S: SHA``, the sha256 of its line
``number|passed|float.hex(worst)|detail``, the timing left out;
``--workloads`` with no name runs only those.  With ``--against PATH`` the
same digests also run in the checkout at PATH, in an interpreter of their
own that imports that checkout's ``src/`` and ``perfbench/``; its lines are
printed after this checkout's, prefixed with ``against:``, and the script
exits 1, naming on standard error every workload or criterion, with its
seed, whose digest differs or is missing there.

The defaults (all three workloads, seeds 1-3) take about 30 s per checkout
on a 2-vCPU host, since the checks run faster than the run lengths
``sweep_count`` assumes; the acceptance criteria take about 2 s per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_path(root: Path) -> list[str]:
    """What a checkout puts ahead on ``sys.path``: its ``src/`` and
    ``perfbench/``."""
    return [str(root / "src"), str(root / "perfbench")]


def outcome(check):
    """The residual of a check, or the exception it raises."""
    try:
        return check.run()
    except Exception as exc:
        return exc


def digest(workload: str, seed: int, seconds: float) -> tuple[int, str]:
    """(number of checks, sha256 of their outcome lines) of one run."""
    workloads = importlib.import_module("bench_workloads")
    h = hashlib.sha256()
    count = 0
    sweeps = workloads.build(workload, seed, workloads.sweep_count(workload, seconds))
    for checks in sweeps:
        for check in checks:
            h.update(f"{check.name}|{outcome(check)!r}\n".encode())
            count += 1
    return count, h.hexdigest()


def acceptance_digests(seed: int) -> list[tuple[int, str]]:
    """(number, sha256 of its outcome line) of every acceptance criterion at
    ``seed``: the line holds the number, the pass, ``float.hex`` of the
    worst residual and the detail, without the time the criterion took."""
    acceptance = importlib.import_module("ellstab.acceptance")
    return [(res.number, hashlib.sha256(
                f"{res.number}|{res.passed}|{float(res.worst).hex()}|{res.detail}\n"
                .encode()).hexdigest())
            for res in acceptance.run_all(seed, verbose=False)]


def parse(lines: list[str]) -> dict[tuple[str, int], str]:
    """The digest lines ``workload seed S: N checks SHA`` (and
    ``criterion N seed S: SHA``) keyed by (workload, seed), a criterion's
    workload being ``criterion N``; other lines are left out."""
    out = {}
    for line in lines:
        head, sep, rest = line.partition(": ")
        workload, _, seed = head.partition(" seed ")
        if sep and seed.isdigit():
            out[workload, int(seed)] = rest
    return out


def differing(ours: dict, theirs: dict) -> list[tuple[str, int]]:
    """The (workload, seed) keys of ``ours`` whose digest ``theirs`` does
    not give."""
    return [key for key, line in ours.items() if theirs.get(key) != line]


def run_against(root: Path, argv: list[str]) -> tuple[int, list[str]]:
    """(exit code, output lines) of this script's digests run in the
    checkout at ``root``, in a new interpreter whose imports come from that
    checkout."""
    boot = (f"import sys; sys.path[:0] = {import_path(root) + [str(ROOT / 'tests')]!r}; "
            f"import outcome_digest; outcome_digest.main({argv!r})")
    done = subprocess.run([sys.executable, "-c", boot], cwd=root,
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def main(argv=None) -> int:
    workloads = importlib.import_module("bench_workloads")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="*", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--acceptance", type=int, nargs="+", default=[], metavar="SEED")
    parser.add_argument("--against", type=Path, default=None, metavar="PATH")
    args = parser.parse_args(argv)
    lines = []
    for workload in args.workloads:
        for seed in args.seeds:
            count, sha = digest(workload, seed, args.seconds)
            lines.append(f"{workload} seed {seed}: {count} checks {sha}")
            print(lines[-1], flush=True)
    for seed in args.acceptance:
        for number, sha in acceptance_digests(seed):
            lines.append(f"criterion {number} seed {seed}: {sha}")
            print(lines[-1], flush=True)
    if args.against is None:
        return 0
    same = ["--seconds", str(args.seconds), "--seeds", *map(str, args.seeds),
            "--workloads", *args.workloads]
    if args.acceptance:
        same += ["--acceptance", *map(str, args.acceptance)]
    code, theirs = run_against(args.against.resolve(), same)
    for line in theirs:
        print(f"against: {line}", flush=True)
    differ = differing(parse(lines), parse(theirs))
    for workload, seed in differ:
        print(f"digest differs: {workload} seed {seed}", file=sys.stderr)
    return 1 if differ or code else 0


if __name__ == "__main__":
    sys.path[:0] = import_path(ROOT)
    sys.exit(main())
