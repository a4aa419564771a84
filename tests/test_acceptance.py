"""The acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from ellstab import acceptance, envelopes

BUDGETS = {1: 5, 2: 1, 3: 30, 4: 300, 5: 10, 6: 60, 7: 600, 8: 300, 9: 30,
           10: 30, 11: 5}


def declared_criteria() -> dict[str, tuple]:
    """(number, name, limit) of each ``@criterion`` in ``acceptance.py``, by
    function name, in source order."""
    tree = ast.parse(Path(acceptance.__file__).read_text())
    return {fn.name: tuple(ast.literal_eval(arg) for arg in dec.args)
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for dec in fn.decorator_list
            if isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
            and dec.func.id == "criterion"}


DECLARED = declared_criteria()


def test_registry_holds_the_criteria_in_number_order():
    """``ALL_CRITERIA`` is every ``@criterion`` in definition order, and the
    numbers run 1..11 in that order."""
    assert [fn.__name__ for fn in acceptance.ALL_CRITERIA] == list(DECLARED)
    assert [number for number, _, _ in DECLARED.values()] == list(range(1, 12))


def test_criterion_builds_the_record(monkeypatch):
    """A registered check is timed and gets its declared number, name and
    limit; it passes when worst < limit, or on the flag it returns."""
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [])

    @acceptance.criterion(12, "toy residual", 1e-3)
    def criterion_toy(seed: int = 0):
        """A residual that grows with the seed."""
        return 1e-4 * seed, f"seed {seed}"

    @acceptance.criterion(13, "toy compound", 1e-3)
    def criterion_compound(seed: int = 0):
        return 0.0, "", seed == 1

    assert acceptance.ALL_CRITERIA == [criterion_toy, criterion_compound]
    assert criterion_toy.__name__ == "criterion_toy"
    assert criterion_toy.__doc__ == "A residual that grows with the seed."
    got = criterion_toy(2)
    assert (got.number, got.name, got.passed, got.worst, got.limit, got.detail) == \
        (12, "toy residual", True, 2e-4, 1e-3, "seed 2")
    assert got.seconds >= 0
    assert not criterion_toy(10).passed
    assert criterion_compound(1).passed and not criterion_compound(0).passed


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(0)
    print("\n" + result.line())
    assert (result.number, result.name, result.limit) == DECLARED[criterion.__name__]
    assert result.passed, result.line()
    assert result.seconds < BUDGETS[result.number], \
        f"criterion {result.number} exceeded its runtime budget"


def test_vertex_criterion_counts_its_skips_by_reason():
    """Criterion 8 says why it skips a pair: at seed 0 every skipped series
    meets a theta pole of its restriction."""
    detail = acceptance.criterion_vertex(0).detail
    assert detail.startswith("8 pairs, 4 singular skipped "
                             "(4 theta pole in denominator); "), detail


def test_vertex_criterion_compiles_each_envelope_once(monkeypatch):
    """Criterion 8 at seed 0 compiles the hat envelope of each of its six
    fixed points once: the series, the oracle and the quasi-periodicity law
    share it through the parameter point."""
    calls = Counter()
    init = envelopes.Envelope.__init__

    def counted(self, spec):
        calls[spec] += 1
        init(self, spec)

    monkeypatch.setattr(envelopes.Envelope, "__init__", counted)
    acceptance.criterion_vertex(0)
    assert len(calls) == 6 and set(calls.values()) == {1}
