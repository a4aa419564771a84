"""The acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

from collections import Counter

import pytest

from ellstab import acceptance, envelopes

BUDGETS = {1: 5, 2: 1, 3: 30, 4: 300, 5: 10, 6: 60, 7: 600, 8: 300, 9: 30,
           10: 30, 11: 5}


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(0)
    print("\n" + result.line())
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
