"""Record the benchmark's baseline and the run-to-run spread behind its bounds.

Run from the repository root:

    python3 perfbench/record_baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --held-out 2718 --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs the benchmark untraced:

- ``first`` and ``second``: once per seed, twice over, the way the bounds are
  checked.  Each set reports per end-to-end metric the median, the quartiles
  and the spread (interquartile distance over the median) next to the
  metric's bound; ``second_vs_first`` is the change of the median.
  ``measured_spread`` gives the same for the times as measured, before
  they are scaled to the reference speed.
- ``repeats``: the first seed again, ``REPEATS`` times, whose spread is the
  host's noise alone, without the variation of the inputs.

The first seed and the held-out seed also get a traced run.  The held-out
seed is reserved for confirming later performance claims: do not tune a
change on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: runs of the first seed in the ``repeats`` set
REPEATS = 5


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]),
                            "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "failures": report["failures"], "unexplained": report["unexplained"],
            "env": report["env"], "metrics": values,
            **{k: report[k] for k in ("measured", "slowdown") if k in report}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def summary(bench: dict, runs: list[dict], key: str = "metrics") -> dict:
    return {m["name"]: {**spread([r[key][m["name"]] for r in runs]),
                        "bound": m["bound"]}
            for m in bench["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--held-out", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.held_out in args.seeds:
        parser.error("the held-out seed must not be one of the spread seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"run_seconds": bench["run_seconds"], "reference_seed": args.seeds[0],
           "held_out_seed": args.held_out, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {}
        for name, seeds in (("first", args.seeds), ("second", args.seeds),
                            ("repeats", [args.seeds[0]] * REPEATS)):
            sets[name] = [run_once(bench, workload, seed, 0) for seed in seeds]
            print(workload, name, json.dumps(summary(bench, sets[name])),
                  flush=True)
        runs = [r for rs in sets.values() for r in rs]
        extra = {
            "reference_traced": run_once(bench, workload, args.seeds[0], 1),
            "held_out": run_once(bench, workload, args.held_out, 0),
            "held_out_traced": run_once(bench, workload, args.held_out, 1),
        }
        doc["env"] = extra["held_out"]["env"]
        for r in runs + list(extra.values()):
            del r["env"]
        spreads = {name: summary(bench, rs) for name, rs in sets.items()}
        doc["workloads"][workload] = {
            "spread": spreads,
            "measured_spread": {name: summary(bench, rs, "measured")
                                for name, rs in sets.items()},
            "second_vs_first": {
                m: spreads["second"][m]["median"] / spreads["first"][m]["median"] - 1
                for m in spreads["first"]},
            "runs": sets, **extra}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
