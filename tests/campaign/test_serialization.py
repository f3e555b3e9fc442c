"""Stable dict round trips for the result types the campaign store
persists: counters, configuration records, performability results and
sweep points/results."""

import json

import pytest

from repro.core.dependency import CommonCause
from repro.core.progress import ScanCounters
from repro.core.results import ConfigurationRecord, PerformabilityResult
from repro.core.sweep import (
    SweepEngine,
    SweepPoint,
    SweepPointResult,
    SweepResult,
)
from tests.campaign.conftest import TINY_PROBS, tiny_mama, tiny_system


def solved_sweep() -> SweepResult:
    engine = SweepEngine(
        tiny_system(), {"central": tiny_mama()},
        base_failure_probs=TINY_PROBS,
    )
    return engine.run([
        SweepPoint(name="base", architecture="central"),
        SweepPoint(
            name="degraded", architecture="central",
            failure_probs={"s1": 0.4},
            common_causes=(
                CommonCause("rack", 0.05, ("s1", "s2")),
            ),
            weights={"users": 2.0},
        ),
        SweepPoint(name="perfect", architecture=None),
    ])


class TestScanCounters:
    def test_round_trip(self):
        counters = ScanCounters()
        counters.states_visited = 12
        counters.lqn_solves = 3
        counters.scan_seconds = 0.5
        counters.distinct_configurations = 4
        rebuilt = ScanCounters.from_dict(counters.to_dict())
        assert rebuilt.to_dict() == counters.to_dict()

    def test_json_safe(self):
        json.dumps(ScanCounters().to_dict())

    def test_missing_fields_default_and_unknown_fields_raise(self):
        rebuilt = ScanCounters.from_dict({"states_visited": 2})
        assert rebuilt.states_visited == 2
        assert rebuilt.lqn_solves == 0
        with pytest.raises(ValueError, match="unknown ScanCounters"):
            ScanCounters.from_dict({"from_the_future": 9})

    def test_retired_counters_are_dropped(self):
        """Stored rows carry every counter of the code that wrote them,
        including ``decision_leaves`` of the removed factored backend;
        they must still load (a store hit folds their counters)."""
        rebuilt = ScanCounters.from_dict(
            {"states_visited": 2, "decision_leaves": 0}
        )
        assert rebuilt.to_dict() == ScanCounters.from_dict(
            {"states_visited": 2}
        ).to_dict()
        assert "decision_leaves" not in rebuilt.to_dict()


class TestSweepRoundTrips:
    @pytest.fixture(scope="class")
    def sweep(self):
        return solved_sweep()

    def test_sweep_point_round_trip(self, sweep):
        for record in sweep.points:
            point = record.point
            rebuilt = SweepPoint.from_dict(point.to_dict())
            assert rebuilt == point
            assert rebuilt.to_dict() == point.to_dict()

    def test_point_result_round_trip_is_exact(self, sweep):
        for record in sweep.points:
            document = record.to_dict()
            rebuilt = SweepPointResult.from_dict(document)
            assert rebuilt.to_dict() == document
            # Bit-exact numerical fidelity, not approximate.
            assert rebuilt.result.expected_reward == (
                record.result.expected_reward
            )
            assert rebuilt.failure_probs == dict(record.failure_probs)
            assert rebuilt.scan_cached == record.scan_cached

    def test_configuration_records_round_trip(self, sweep):
        result = sweep.points[0].result
        for record in result.records:
            rebuilt = ConfigurationRecord.from_dict(record.to_dict())
            assert rebuilt.configuration == record.configuration
            assert rebuilt.probability == record.probability
            assert rebuilt.reward == record.reward
            assert dict(rebuilt.throughputs) == dict(record.throughputs)
            assert rebuilt.converged == record.converged

    def test_performability_result_round_trip(self, sweep):
        result = sweep.points[1].result
        rebuilt = PerformabilityResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.expected_reward == result.expected_reward
        assert rebuilt.failed_probability == result.failed_probability
        assert rebuilt.reward_interval == result.reward_interval

    def test_sweep_result_round_trip(self, sweep):
        document = sweep.to_dict()
        rebuilt = SweepResult.from_dict(document)
        assert rebuilt.to_dict() == document
        assert [p.name for p in rebuilt.points] == [
            "base", "degraded", "perfect",
        ]

    def test_documents_are_json_safe(self, sweep):
        json.loads(json.dumps(sweep.to_dict()))


def _with_retired_fields(document: dict) -> dict:
    """``document`` as the code with scan-level ``jobs`` and the LQN
    warm start wrote it: a ``"jobs"`` key next to ``"method"`` and both
    warm-start counters in every counters object."""
    old = json.loads(json.dumps(document))

    def visit(node):
        if isinstance(node, dict):
            if "method" in node and "counters" in node:
                node["jobs"] = 2
            counters = node.get("counters")
            if isinstance(counters, dict):
                counters["lqn_warm_starts"] = 3
                counters["lqn_warm_distance"] = 5
            for value in node.values():
                visit(value)
        elif isinstance(node, list):
            for value in node:
                visit(value)

    visit(old)
    return old


class TestDocumentsOfTheRemovedKnobsLoad:
    """Rows and exports written before scan-level ``jobs`` and the LQN
    warm start were removed still load, and load to the same values."""

    def test_store_row_and_sweep_export_load(self, tmp_path):
        from repro.campaign.report import CampaignReport
        from repro.campaign.store import ResultStore

        sweep = solved_sweep()
        old_sweep = _with_retired_fields(sweep.to_dict())
        assert old_sweep["jobs"] == 2
        assert old_sweep["counters"]["lqn_warm_starts"] == 3
        assert old_sweep["points"][0]["result"]["jobs"] == 2
        rebuilt = SweepResult.from_dict(old_sweep)
        assert rebuilt.to_dict() == sweep.to_dict()

        point = sweep.points[1]
        row = _with_retired_fields({
            "kind": "solve",
            "record": point.to_dict(),
            "counters": point.result.counters.to_dict(),
            "workload": "grid",
        })
        store = ResultStore(str(tmp_path / "old.sqlite"))
        try:
            store.put("k" * 64, kind="solve", name="grid/degraded",
                      document=row, seconds=0.1)
            report = CampaignReport.from_store(store)
        finally:
            store.close()
        (solve_row,) = report.solve_rows
        assert solve_row.expected_reward == point.result.expected_reward
        assert report.counters.to_dict() == (
            point.result.counters.to_dict()
        )
