"""Common-cause failure events."""

import pytest

from repro.core import CommonCause, PerformabilityAnalyzer
from repro.errors import ModelError
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn import FTLQNModel, Request


class TestCommonCauseValidation:
    def test_probability_range(self):
        with pytest.raises(ModelError, match="probability"):
            CommonCause("x", 1.5, ("a",))

    def test_needs_components(self):
        with pytest.raises(ModelError, match="at least one"):
            CommonCause("x", 0.1, ())

    def test_duplicates_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            CommonCause("x", 0.1, ("a", "a"))

    def test_name_collision_rejected(self, figure1):
        with pytest.raises(ModelError, match="collides"):
            PerformabilityAnalyzer(
                figure1, None,
                failure_probs=figure1_failure_probs(),
                common_causes=[CommonCause("Server1", 0.1, ("proc3",))],
            )

    def test_unknown_component_rejected(self, figure1):
        with pytest.raises(ModelError, match="unknown"):
            PerformabilityAnalyzer(
                figure1, None,
                failure_probs=figure1_failure_probs(),
                common_causes=[CommonCause("cc", 0.1, ("ghost",))],
            )


def tiny_system():
    """users -> s1/s2 service with one intermediary app."""
    m = FTLQNModel(name="tiny")
    for p in ("pu", "pa", "p1", "p2"):
        m.add_processor(p)
    m.add_task("users", processor="pu", multiplicity=2, is_reference=True)
    m.add_task("app", processor="pa")
    m.add_task("s1", processor="p1")
    m.add_task("s2", processor="p2")
    m.add_entry("e1", task="s1", demand=1.0)
    m.add_entry("e2", task="s2", demand=1.0)
    m.add_service("svc", targets=["e1", "e2"])
    m.add_entry("ea", task="app", demand=0.5, requests=[Request("svc")])
    m.add_entry("u", task="users", requests=[Request("ea")])
    return m


class TestSemantics:
    def test_hand_computed_failure_probability(self):
        # Only failure mode: the shared rack takes both servers down.
        model = tiny_system()
        analyzer = PerformabilityAnalyzer(
            model, None,
            failure_probs={},
            common_causes=[CommonCause("rack", 0.3, ("s1", "s2"))],
        )
        result = analyzer.configuration_probabilities()
        assert result[None] == pytest.approx(0.3)

    def test_event_combines_with_independent_failures(self):
        # s1 down iff own failure (0.2) OR rack (0.1):
        # P(primary branch up) = 0.8 * 0.9.
        model = tiny_system()
        analyzer = PerformabilityAnalyzer(
            model, None,
            failure_probs={"s1": 0.2},
            common_causes=[CommonCause("rack", 0.1, ("s1",))],
        )
        result = analyzer.configuration_probabilities()
        on_primary = sum(
            p for cfg, p in result.items() if cfg and "e1" in cfg
        )
        assert on_primary == pytest.approx(0.8 * 0.9)

    def test_correlated_failures_differ_from_independent(self, figure1):
        probs = figure1_failure_probs()
        correlated = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs,
            common_causes=[CommonCause("site", 0.05, ("proc3", "proc4"))],
        ).configuration_probabilities()
        independent = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs
        ).configuration_probabilities()
        # A common cause hitting both servers' processors raises the
        # system-failure probability (no diversity against it).
        assert correlated[None] > independent[None]

    def test_methods_agree_with_common_causes(self, figure1, centralized):
        probs = figure1_failure_probs(centralized)
        analyzer = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs,
            common_causes=[
                CommonCause("rack", 0.05, ("proc3", "proc4")),
                CommonCause("mgmt-outage", 0.03, ("m1", "ag1", "ag2")),
            ],
        )
        enumerated = analyzer.configuration_probabilities(method="enumeration")
        symbolic = analyzer.configuration_probabilities(method="bdd")
        assert set(enumerated) == set(symbolic)
        for configuration, probability in enumerated.items():
            assert symbolic[configuration] == pytest.approx(
                probability, abs=1e-12
            )

    def test_management_common_cause_degrades_coverage(
        self, figure1, centralized
    ):
        # An event that only kills agents/manager never touches the
        # application, yet the failed probability must rise because
        # reconfiguration knowledge is lost.
        probs = figure1_failure_probs(centralized)
        baseline = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs
        ).configuration_probabilities()[None]
        with_cc = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs,
            common_causes=[CommonCause("mgmt-net", 0.1, ("m1",))],
        ).configuration_probabilities()[None]
        assert with_cc > baseline

    def test_certain_event_pins_components_down(self):
        model = tiny_system()
        analyzer = PerformabilityAnalyzer(
            model, None, failure_probs={},
            common_causes=[CommonCause("dead", 1.0, ("s1",))],
        )
        result = analyzer.configuration_probabilities()
        assert len(result) == 1
        (config,) = result
        assert "e2" in config

    def test_state_count_includes_events(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs(),
            common_causes=[CommonCause("rack", 0.05, ("proc3", "proc4"))],
        )
        assert analyzer.problem.state_count == 2**9
