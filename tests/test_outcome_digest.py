"""The outcome-digest script that compares two checkouts."""

import subprocess
import sys

import outcome_digest


def test_differing_names_changed_and_missing_digests():
    ours = outcome_digest.parse(["a seed 1: 3 checks x", "a seed 2: 3 checks y",
                                 "b seed 1: 4 checks z"])
    theirs = outcome_digest.parse(["a seed 1: 3 checks x", "a seed 2: 3 checks w",
                                   "Traceback (most recent call last):"])
    assert outcome_digest.differing(ours, theirs) == [("a", 2), ("b", 1)]
    assert outcome_digest.differing(ours, ours) == []


def test_against_this_checkout_exits_zero():
    """One short workload run here and in this same checkout, through a
    second interpreter, gives one digest twice."""
    script = outcome_digest.ROOT / "tests" / "outcome_digest.py"
    done = subprocess.run([sys.executable, str(script), "--against", str(outcome_digest.ROOT),
                           "--seconds", "1", "--seeds", "1", "--workloads", "scalar-kernels"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ours, theirs = done.stdout.splitlines()
    assert ours.startswith("scalar-kernels seed 1: ")
    assert theirs == f"against: {ours}"
