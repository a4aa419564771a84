"""The acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import pytest

from ellstab import acceptance

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
