"""Tie-break determinism of the explorer's budgeted picks."""

from __future__ import annotations

from repro.core import Strategy
from repro.core.explorer import ExplorationResult


class _TiedPoint:
    """Stand-in scored partition with explicit, directly-set costs."""

    def __init__(self, sizes, transfer, storage):
        self.sizes = sizes
        self.feature_transfer_bytes = transfer
        self.extra_storage_bytes = storage


def _result(points):
    return ExplorationResult(network_name="tied", units=(),
                             strategy=Strategy.REUSE,
                             points=tuple(points), front=())


class TestTieBreakDeterminism:
    """Regression: equal-cost partitions used to resolve by whatever
    ``min`` saw first after cost comparison — which is stable in CPython
    but unspecified across reorderings. The partition index is now the
    final sort key."""

    def test_best_under_storage_picks_earliest_of_tied_points(self):
        tied_a = _TiedPoint((2, 1), transfer=100, storage=50)
        tied_b = _TiedPoint((1, 2), transfer=100, storage=50)
        result = _result([_TiedPoint((1, 1, 1), 200, 0), tied_a, tied_b])
        assert result.best_under_storage(1000) is tied_a

    def test_best_under_transfer_picks_earliest_of_tied_points(self):
        tied_a = _TiedPoint((3,), transfer=80, storage=40)
        tied_b = _TiedPoint((1, 2), transfer=80, storage=40)
        result = _result([tied_a, tied_b, _TiedPoint((1, 1, 1), 10, 300)])
        assert result.best_under_transfer(90) is tied_a

    def test_secondary_cost_still_breaks_primary_ties(self):
        cheap_storage = _TiedPoint((2,), transfer=100, storage=10)
        result = _result([_TiedPoint((1, 1), transfer=100, storage=50),
                          cheap_storage])
        assert result.best_under_storage(1000) is cheap_storage

    def test_infeasible_budget_returns_none(self):
        result = _result([_TiedPoint((1,), transfer=100, storage=50)])
        assert result.best_under_storage(10) is None
        assert result.best_under_transfer(10) is None
