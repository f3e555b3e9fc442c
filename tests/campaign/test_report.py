"""Offline reporting from a result store: rows, frontiers, summaries
and the CSV/JSON renderings."""

import json

import pytest

from repro.campaign import CampaignReport, ResultStore, run_campaign
from tests.campaign.conftest import mixed_spec


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "store.sqlite"
    with ResultStore(path) as store:
        result = run_campaign(mixed_spec(), store)
        assert result.ok
    return path


@pytest.fixture(scope="module")
def report(filled_store):
    with ResultStore(filled_store) as store:
        return CampaignReport.from_store(store, campaign="unit")


class TestRows:
    def test_row_partition(self, report):
        assert len(report.solve_rows) == 5
        assert len(report.fuzz_rows) == 2
        assert report.total_seconds > 0
        assert report.counters.states_visited > 0

    def test_solve_row_content(self, report):
        by_name = {row.name: row for row in report.solve_rows}
        degraded = by_name["drills/both-degraded"]
        assert degraded.architecture == "central"
        assert degraded.workload == "drills"
        assert 0.0 <= degraded.failed_probability <= 1.0
        assert degraded.expected_reward > 0
        assert degraded.method == "bdd"
        assert degraded.configurations > 0
        # Grid points carry no candidate metadata.
        assert degraded.cost is None
        assert degraded.component_count is None

    def test_fuzz_rows_are_ok(self, report):
        assert report.failed_fuzz() == ()
        assert all(row.state_count > 0 for row in report.fuzz_rows)
        assert sorted(row.seed for row in report.fuzz_rows) == [0, 1]

    def test_campaign_filter(self, filled_store):
        with ResultStore(filled_store) as store:
            empty = CampaignReport.from_store(store, campaign="nope")
            everything = CampaignReport.from_store(store)
        assert empty.solve_rows == ()
        assert len(everything.solve_rows) == 5


class TestDerivedViews:
    def test_reward_failure_frontier(self, report):
        frontier = report.pareto_reward_failure()
        assert frontier
        names = {row.name for row in report.solve_rows}
        assert {row.name for row in frontier} <= names
        # No frontier member dominates another.
        for row in frontier:
            for other in frontier:
                if row is other:
                    continue
                assert not (
                    row.expected_reward >= other.expected_reward
                    and row.failed_probability <= other.failed_probability
                    and (
                        row.expected_reward > other.expected_reward
                        or row.failed_probability < other.failed_probability
                    )
                )

    def test_reward_cost_frontier_needs_candidates(self, report):
        # The mixed spec has no optimize workload, so no costed rows.
        assert report.pareto_reward_cost() == ()

    def test_summary(self, report):
        summary = report.summary()
        assert summary["campaign"] == "unit"
        assert summary["solve_points"] == 5
        assert summary["fuzz_points"] == 2
        assert summary["fuzz_failures"] == 0
        best = summary["best_point"]
        assert best["expected_reward"] == max(
            row.expected_reward for row in report.solve_rows
        )


class TestRenderings:
    def test_json_parses_and_carries_everything(self, report):
        document = json.loads(report.to_json())
        assert set(document) == {"summary", "solve", "pareto", "fuzz"}
        assert len(document["solve"]) == 5
        assert len(document["fuzz"]) == 2
        assert document["pareto"]["reward_failure"]

    def test_csv_shape(self, report):
        lines = report.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "name"
        assert "expected_reward" in header
        assert len(lines) == 1 + 5
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)
