"""Figure 11 sweep and §6.3 state-space reproduction."""

import math

import pytest

from repro.experiments.figure11 import run_figure11
from repro.experiments.reporting import format_figure11, format_statespace
from repro.experiments.statespace import PAPER_STATE_COUNTS, run_statespace


@pytest.fixture(scope="module")
def figure11():
    return run_figure11(weights_b=(0.5, 1.0, 2.0, 4.0))


@pytest.fixture(scope="module")
def statespace():
    return run_statespace(include_enumeration=True)


class TestFigure11:
    def test_five_series(self, figure11):
        names = {s.architecture for s in figure11.series}
        assert names == {
            "perfect", "centralized", "distributed", "hierarchical",
            "network",
        }

    def test_rewards_increase_with_weight(self, figure11):
        for series in figure11.series:
            assert list(series.expected_rewards) == sorted(
                series.expected_rewards
            )

    def test_perfect_dominates_everywhere(self, figure11):
        perfect = figure11.series_for("perfect").expected_rewards
        for series in figure11.series:
            if series.architecture == "perfect":
                continue
            for ours, reference in zip(series.expected_rewards, perfect):
                assert ours <= reference + 1e-9

    def test_hierarchical_is_worst_at_high_weight(self, figure11):
        # The paper's robust qualitative finding: hierarchical trails
        # the others as UserB gains weight (its cross-domain knowledge
        # chain is the longest).
        ordering = figure11.ordering_at(4.0)
        assert ordering[-1] == "hierarchical"

    def test_network_beats_centralized_at_high_weight(self, figure11):
        ordering = figure11.ordering_at(4.0)
        assert ordering.index("network") < ordering.index("centralized")

    def test_report_renders(self, figure11):
        text = format_figure11(figure11)
        assert "Figure 11" in text
        assert "ordering at max weight" in text


class TestStateSpace:
    def test_state_counts_match_paper(self, statespace):
        for case in statespace.cases:
            assert case.state_count == PAPER_STATE_COUNTS[case.name], case.name

    def test_configuration_counts(self, statespace):
        # Six operational configurations + the failed one, everywhere.
        for case in statespace.cases:
            assert case.configuration_count == 7, case.name

    def test_timings_recorded(self, statespace):
        for case in statespace.cases:
            assert case.bdd_seconds > 0
            assert math.isfinite(case.enumeration_seconds)

    def test_bdd_is_faster_on_largest_case(self, statespace):
        worst = statespace.case("hierarchical")
        assert worst.bdd_seconds < worst.enumeration_seconds

    def test_report_renders(self, statespace):
        text = format_statespace(statespace)
        assert "262144" in text
        assert "hierarchical" in text
