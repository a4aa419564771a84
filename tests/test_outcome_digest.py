"""The outcome-digest script that compares two checkouts."""

import hashlib
import subprocess
import sys

import numpy as np

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


def test_acceptance_digest_reads_the_criteria_without_their_timing(monkeypatch, capsys):
    """``--acceptance`` prints one digest line per criterion and seed, of
    the criterion's number, pass, ``float.hex`` of its worst residual and
    detail, not its time; its lines parse like a workload's, keyed by the
    criterion, so a digest that moves names its criterion."""
    from ellstab import acceptance
    from ellstab.acceptance import CriterionResult

    def fake(worst, seconds):
        return [lambda seed: CriterionResult(1, "one", True, worst + seed, 1e-8, seconds, "a"),
                lambda seed: CriterionResult(2, "two", False, 3.0, 1e-8, seconds, "b")]

    monkeypatch.syspath_prepend(str(outcome_digest.ROOT / "perfbench"))
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", fake(1e-12, 0.5))
    assert outcome_digest.main(["--workloads", "--acceptance", "0", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "criterion 1 seed 0", "criterion 2 seed 0", "criterion 1 seed 1", "criterion 2 seed 1"]
    parsed = outcome_digest.parse(lines)
    one = hashlib.sha256(b"1|True|" + (1e-12).hex().encode() + b"|a\n").hexdigest()
    two = hashlib.sha256(b"2|False|" + (3.0).hex().encode() + b"|b\n").hexdigest()
    assert parsed["criterion 1", 0] == one and parsed["criterion 2", 0] == two
    assert parsed["criterion 2", 1] == two
    assert outcome_digest.differing(parsed, {**parsed, ("criterion 1", 1): one}) == [
        ("criterion 1", 1)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", fake(1e-12, 9.0))
    assert outcome_digest.acceptance_digests(0) == [(1, one), (2, two)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", fake(np.nextafter(1e-12, 1), 0.5))
    moved = outcome_digest.acceptance_digests(0)
    assert moved[0][0] == 1 and moved[0][1] != one and moved[1] == (2, two)
