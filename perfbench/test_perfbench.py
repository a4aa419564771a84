"""Tests of the benchmark's tracing: names, reach, metrics and bit-identity.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload is exercised on a small slice of one sweep, so the tests take
seconds, not a benchmark run.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

workloads = run._import_library()
import bench_trace  # noqa: E402

SEED = 7


def _slice(workload: str):
    """A cheap slice of one sweep that still reaches every layer the
    workload exercises."""
    checks = workloads.WORKLOADS[workload](SEED)
    picks = {
        "rmatrix-ybe": lambda c: (c.name in ("composition colors=(0, 0) v=(1, 1, 0)",
                                             "weight_blocks colors=(0, 1) v=(1, 1, 0)",
                                             "transpose colors=(0, 0) v=(1, 0, 0)",
                                             "shift_invariance colors=(0, 0) v=(1, 1, 0)",
                                             "ybe colors=(0, 0, 0) boxes=1")),
        "scalar-kernels": lambda c: c.name in ("mu_vacuum_ope t0 w=(1, 1, 0)",
                                               "rho_plus t0",
                                               "exchange t0 k=0"),
        "vertex-bethe": lambda c: (c.name.startswith("vertex w=(1, 1, 0) v=(1, 1, 0)")
                                   or c.name == "bethe w=(1, 1, 0) v=(1, 1, 1)"),
    }[workload]
    chosen = [c for c in checks if picks(c)]
    assert chosen, workload
    return chosen


@pytest.fixture(scope="module")
def traced_slices():
    """(untraced outcomes, traced outcomes, per-layer metrics) per workload."""
    kinds = run._failure_kinds()
    out = {}
    for workload in workloads.WORKLOADS:
        checks = _slice(workload)
        plain, _, _ = run.run_sweep(checks, kinds)
        tracer = bench_trace.Tracer()
        with tracer:
            traced, _, _ = run.run_sweep(checks, kinds, tracer)
        out[workload] = (plain, traced, tracer.metrics(1, 0.0))
    return out


def test_every_traced_name_exists():
    for module, path in bench_trace.SPANS:
        _, _, obj = bench_trace.resolve(module, path)
        assert callable(obj), (module, path)
    for module, path, metric in bench_trace.COUNTS:
        _, _, obj = bench_trace.resolve(module, path)
        assert callable(obj), (module, path)
        assert metric in bench_trace.METRICS


def test_wrappers_reach_every_lookup_site():
    originals = {id(bench_trace.resolve(m, p)[2]): (m, p)
                 for m, p in bench_trace.SPANS if "." not in p}
    envelopes = importlib.import_module("ellstab.envelopes")
    partitions = importlib.import_module("ellstab.partitions")
    lambda_trees = partitions.lambda_trees
    with bench_trace.Tracer():
        for mod in bench_trace.library_modules():
            for name, value in vars(mod).items():
                assert id(value) not in originals, (mod.__name__, name)
        assert envelopes.lambda_trees is partitions.lambda_trees
        assert envelopes.lambda_trees is not lambda_trees
    assert envelopes.lambda_trees is lambda_trees
    assert partitions.lambda_trees is lambda_trees


def test_tracing_leaves_residuals_bit_identical(traced_slices):
    for workload, (plain, traced, _) in traced_slices.items():
        assert traced == plain, workload
        assert not any(o.kind == "unexpected" for o in plain), workload


def test_probed_sweep_gives_every_check_a_speed():
    checks = _slice("scalar-kernels")
    kinds = run._failure_kinds()
    outcomes, times, probes = run.run_sweep(checks, kinds, probed=True)
    assert len(outcomes) == len(times) == len(probes) == len(checks)
    assert all(p > 0 for p in probes)
    assert run.run_sweep(checks, kinds)[2] == []


def _sweeps(*rows):
    """Sweeps of one check each, from (check, outcome) pairs."""
    return [([check], [outcome], [0.0], []) for check, outcome in rows]


def test_only_known_defects_may_fail():
    ok = run.Outcome("1e-15", "")
    residual = run.Outcome("0.5", "residual", "0.5 not below 1e-08")
    singular = run.Outcome(None, "SingularityError", "pole")
    sound = workloads.Check("sound", 1e-8, lambda: 0.0)
    vertex = workloads.Check("vertex", 1e-8, lambda: 0.0,
                             workloads.VERTEX_SINGULAR)
    bethe = workloads.Check("bethe", 1e-10, lambda: 0.0, workloads.BETHE_START)
    assert run.unexplained_failures(_sweeps((sound, ok), (vertex, singular))) == []
    assert len(run.unexplained_failures(_sweeps((sound, ok), (sound, residual)))) == 1
    # a known defect explains only the failure kinds it shows as
    assert len(run.unexplained_failures(_sweeps((vertex, residual)))) == 1
    # a flaky check must pass in at least one sweep of a long enough run
    no_value = run.Outcome(None, "CheckFailed", "no convergence")
    assert run.unexplained_failures(_sweeps((bethe, no_value), (bethe, ok),
                                            (bethe, no_value))) == []
    assert len(run.unexplained_failures(_sweeps(*[(bethe, no_value)] * 3))) == 1
    assert run.unexplained_failures(_sweeps(*[(bethe, no_value)] * 2)) == []


def test_run_counts_and_gate_on_a_workload_slice(capsys):
    assert run.main(["--workload", "scalar-kernels", "--seed", "3",
                     "--seconds", "1", "--trace", "1"]) == 0
    report, result = map(json.loads, capsys.readouterr().out.splitlines()[-2:])
    assert result["correct"] and report["unexplained"] == []
    assert result["attempted"] == report["checks_per_sweep"] * report["sweeps"]
    assert result["failed"] == sum(report["failures"].values())


# metrics that must be nonzero where a workload exercises the layer, and zero
# where it bypasses it
EXERCISED = {
    "rmatrix-ybe": ["core.monomial_ops", "core.theta_calls", "core.theta_s",
                    "core.qpoch_calls", "core.qpoch_reuse", "core.self_s",
                    "partitions.self_s", "envelopes.eval_calls",
                    "envelopes.eval_s", "envelopes.perm_terms",
                    "envelopes.compile_calls", "envelopes.compile_s",
                    "envelopes.self_s", "rmatrix.restriction_matrix_calls",
                    "rmatrix.restriction_matrix_unique_frac",
                    "rmatrix.solve_calls", "rmatrix.solve_s",
                    "rmatrix.cond_log10_max", "rmatrix.self_s"],
    "scalar-kernels": ["scalars.gamma3v_calls", "scalars.gamma3v_s",
                       "scalars.self_s"],
    "vertex-bethe": ["vertex.series_calls", "vertex.series_s", "vertex.oracle_s",
                     "vertex.qpoch_fin_calls", "vertex.singular",
                     "vertex.bethe_iterations", "vertex.self_s",
                     "envelopes.compile_calls", "partitions.self_s"],
}
BYPASSED = {
    "rmatrix-ybe": ["scalars.gamma3v_calls", "vertex.series_calls",
                    "vertex.qpoch_fin_calls", "vertex.bethe_iterations"],
    "scalar-kernels": ["core.theta_calls", "core.qpoch_calls",
                       "partitions.self_s", "envelopes.eval_calls",
                       "envelopes.compile_calls", "rmatrix.restriction_matrix_calls",
                       "rmatrix.solve_calls", "vertex.series_calls"],
    "vertex-bethe": ["scalars.gamma3v_calls", "rmatrix.restriction_matrix_calls",
                     "rmatrix.solve_calls"],
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_layer_metrics_follow_the_workload(traced_slices, workload):
    metrics = traced_slices[workload][2]
    assert set(metrics) == set(bench_trace.METRICS)
    for name in EXERCISED[workload]:
        assert metrics[name] > 0, (workload, name)
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, (workload, name)
