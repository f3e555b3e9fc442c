"""Frontier semantics and report export, on synthetic evaluations."""

import csv
import io
import json

import pytest

from repro.core import ScanCounters
from repro.optimize import (
    Candidate,
    CandidateEvaluation,
    OptimizationReport,
    SearchResult,
    UpgradeOption,
    best_under_budget,
    dominates,
    pareto_frontier,
)


def make_evaluation(name, reward, cost, comps, *, upgrades=(),
                    failed=0.1, cached=False):
    candidate = Candidate(
        name=name,
        architecture=name.split("+")[0],
        topology="centralized",
        style="direct",
        upgrades=tuple(upgrades),
        cost=cost,
        component_count=comps,
        overrides=(),
    )
    return CandidateEvaluation(
        candidate=candidate,
        expected_reward=reward,
        failed_probability=failed,
        scan_cached=cached,
    )


CHEAP = make_evaluation("cheap", reward=0.5, cost=2.0, comps=1)
RICH = make_evaluation("rich", reward=0.9, cost=10.0, comps=3)
DOMINATED = make_evaluation("worse", reward=0.4, cost=3.0, comps=2)
TWIN = make_evaluation("twin", reward=0.5, cost=2.0, comps=1)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates(CHEAP, DOMINATED)
        assert not dominates(DOMINATED, CHEAP)

    def test_tradeoffs_do_not_dominate(self):
        # rich has more reward but higher cost and more components.
        assert not dominates(RICH, CHEAP)
        assert not dominates(CHEAP, RICH)

    def test_identical_points_do_not_dominate_each_other(self):
        assert not dominates(CHEAP, TWIN)
        assert not dominates(TWIN, CHEAP)

    def test_single_axis_improvement_suffices(self):
        cheaper = make_evaluation("cheaper", reward=0.5, cost=1.0, comps=1)
        assert dominates(cheaper, CHEAP)
        smaller = make_evaluation("smaller", reward=0.5, cost=2.0, comps=0)
        assert dominates(smaller, CHEAP)
        better = make_evaluation("better", reward=0.6, cost=2.0, comps=1)
        assert dominates(better, CHEAP)


class TestParetoFrontier:
    def test_removes_dominated_keeps_tradeoffs_and_ties(self):
        frontier = pareto_frontier([CHEAP, RICH, DOMINATED, TWIN])
        names = [entry.name for entry in frontier]
        assert "worse" not in names
        # ties on all three axes both survive; order by reward then
        # cost then components then name.
        assert names == ["rich", "cheap", "twin"]

    def test_single_candidate_is_its_own_frontier(self):
        assert pareto_frontier([DOMINATED]) == (DOMINATED,)

    def test_empty(self):
        assert pareto_frontier([]) == ()


class TestBestUnderBudget:
    def test_highest_reward_within_budget(self):
        pool = [CHEAP, RICH, DOMINATED]
        assert best_under_budget(pool, 100.0) is RICH
        assert best_under_budget(pool, 5.0) is CHEAP

    def test_ties_break_to_cheaper_then_smaller(self):
        pricey_twin = make_evaluation("pricey", reward=0.5, cost=4.0, comps=1)
        assert best_under_budget([pricey_twin, CHEAP], 10.0) is CHEAP
        bigger_twin = make_evaluation("big", reward=0.5, cost=2.0, comps=5)
        assert best_under_budget([bigger_twin, CHEAP], 10.0) is CHEAP

    def test_infeasible_budget(self):
        assert best_under_budget([CHEAP, RICH], 1.0) is None
        assert best_under_budget([], 10.0) is None


def make_search_result(*evaluations, strategy="exhaustive"):
    counters = ScanCounters()
    counters.lqn_solves = 3
    counters.lqn_cache_hits = 9
    counters.distinct_configurations = 3
    return SearchResult(
        evaluations=tuple(evaluations),
        strategy=strategy,
        space_size=len(evaluations),
        counters=counters,
        method="bits",
        rounds=1,
    )


class TestOptimizationReport:
    def test_from_search_unbudgeted_recommends_overall_best(self):
        report = OptimizationReport.from_search(
            make_search_result(CHEAP, RICH, DOMINATED)
        )
        assert report.budget is None
        assert report.recommended is RICH
        assert [e.name for e in report.frontier] == ["rich", "cheap"]

    def test_from_search_budget_constrains_recommendation(self):
        report = OptimizationReport.from_search(
            make_search_result(CHEAP, RICH), budget=5.0
        )
        assert report.recommended is CHEAP
        infeasible = OptimizationReport.from_search(
            make_search_result(CHEAP, RICH), budget=0.5
        )
        assert infeasible.recommended is None

    def test_json_document_shape(self):
        upgraded = make_evaluation(
            "arch+up", reward=0.7, cost=6.0, comps=2,
            upgrades=[UpgradeOption("s1", 0.01, 1.0, name="up")],
            cached=True,
        )
        report = OptimizationReport.from_search(
            make_search_result(CHEAP, upgraded), budget=8.0
        )
        document = json.loads(report.to_json())
        assert document["strategy"] == "exhaustive"
        assert document["method"] == "bits"
        assert "jobs" not in document
        assert document["space_size"] == 2
        assert document["evaluated"] == 2
        assert document["budget"] == 8.0
        assert document["recommended"] == "arch+up"
        assert document["counters"]["lqn_solves"] == 3
        assert document["lqn_cache_hit_rate"] == pytest.approx(0.75)
        assert set(document["frontier"]) == {"cheap", "arch+up"}
        by_name = {c["name"]: c for c in document["candidates"]}
        entry = by_name["arch+up"]
        assert entry["upgrades"] == ["up"]
        assert entry["scan_cached"] is True
        assert entry["on_frontier"] is True
        assert entry["expected_reward"] == 0.7

    def test_csv_rows_and_flags(self):
        report = OptimizationReport.from_search(
            make_search_result(CHEAP, RICH, DOMINATED), budget=5.0
        )
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        header, *body = rows
        assert header == [
            "name", "architecture", "topology", "style", "upgrades",
            "expected_reward", "failed_probability", "cost",
            "component_count", "on_frontier", "recommended",
        ]
        assert len(body) == 3
        by_name = {row[0]: row for row in body}
        assert by_name["cheap"][9] == "1"   # on frontier
        assert by_name["cheap"][10] == "1"  # recommended under 5.0
        assert by_name["worse"][9] == "0"
        assert by_name["rich"][10] == "0"
        # round-trip precision: repr(float) in the reward column
        assert float(by_name["rich"][5]) == 0.9
