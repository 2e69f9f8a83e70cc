"""Trivial static predictors.

These are not evaluated in the paper but serve as sanity baselines in the
test-suite and examples: any dynamic predictor worth simulating must beat
them on every trace category.
"""

from __future__ import annotations

from repro.common.storage import StorageReport
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats

__all__ = ["AlwaysTakenPredictor", "AlwaysNotTakenPredictor"]


class AlwaysTakenPredictor(Predictor):
    """Predicts every branch taken; zero storage."""

    name = "always-taken"

    def predict(self, pc: int) -> PredictionInfo:
        return PredictionInfo(taken=True)

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        """Stateless: nothing to record."""

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        return UpdateStats()

    def storage_report(self) -> StorageReport:
        return StorageReport(self.name)


class AlwaysNotTakenPredictor(Predictor):
    """Predicts every branch not taken; zero storage."""

    name = "always-not-taken"

    def predict(self, pc: int) -> PredictionInfo:
        return PredictionInfo(taken=False)

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        """Stateless: nothing to record."""

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        return UpdateStats()

    def storage_report(self) -> StorageReport:
        return StorageReport(self.name)
