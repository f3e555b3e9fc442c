"""Failure/repair simulation vs analytic configuration probabilities."""

import pytest

from repro.core import PerformabilityAnalyzer
from repro.core.enumeration import StateSpaceProblem
from repro.errors import ModelError
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn.fault_graph import FaultPropagationGraph
from repro.markov.availability import ComponentAvailability
from repro.sim.availability_sim import simulate_availability, simulate_transient


class TestOccupancy:
    def test_fractions_sum_to_one(self, figure1):
        result = simulate_availability(
            figure1, None, figure1_failure_probs(), horizon=2000, seed=1
        )
        assert sum(result.configuration_fractions.values()) == pytest.approx(1.0)

    def test_matches_analytic_perfect_knowledge(self, figure1):
        probs = figure1_failure_probs()
        analytic = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs
        ).configuration_probabilities()
        sim = simulate_availability(
            figure1, None, probs, horizon=60_000, seed=3
        )
        for configuration, expected in analytic.items():
            observed = sim.configuration_fractions.get(configuration, 0.0)
            assert observed == pytest.approx(expected, abs=0.02), configuration

    def test_matches_analytic_centralized(self, figure1, centralized):
        probs = figure1_failure_probs(centralized)
        analytic = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs
        ).configuration_probabilities()
        sim = simulate_availability(
            figure1, centralized, probs, horizon=60_000, seed=5
        )
        # Check the two dominant configurations plus system failure.
        top = sorted(analytic.items(), key=lambda kv: -kv[1])[:3]
        for configuration, expected in top:
            observed = sim.configuration_fractions.get(configuration, 0.0)
            assert observed == pytest.approx(expected, abs=0.03), configuration

    def test_events_are_counted(self, figure1):
        result = simulate_availability(
            figure1, None, figure1_failure_probs(), horizon=2000, seed=1
        )
        assert result.event_count > 100

    def test_matches_analytic_with_common_causes(self, figure1):
        from repro.core.dependency import CommonCause

        probs = figure1_failure_probs()
        causes = (
            CommonCause(
                name="rack",
                probability=0.05,
                components=("proc1", "proc2"),
            ),
        )
        analytic = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs, common_causes=causes
        ).configuration_probabilities()
        sim = simulate_availability(
            figure1, None, probs, common_causes=causes,
            horizon=60_000, seed=9,
        )
        for configuration, expected in analytic.items():
            observed = sim.configuration_fractions.get(configuration, 0.0)
            assert observed == pytest.approx(expected, abs=0.02), configuration


class TestRewardsAndDelay:
    def make_group_rewards(self, figure1, probs):
        analyzer = PerformabilityAnalyzer(figure1, None, failure_probs=probs)
        rewards = {}
        for record in analyzer.solve().records:
            if record.configuration is not None:
                rewards[record.configuration] = dict(record.throughputs)
        return rewards

    def test_average_reward_matches_expected_reward(self, figure1):
        probs = figure1_failure_probs()
        rewards = self.make_group_rewards(figure1, probs)
        expected = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs
        ).solve().expected_reward
        sim = simulate_availability(
            figure1, None, probs, horizon=60_000, seed=7,
            group_rewards=rewards,
        )
        assert sim.average_reward == pytest.approx(expected, abs=0.04)

    def test_detection_delay_reduces_reward(self, figure1):
        probs = figure1_failure_probs()
        rewards = self.make_group_rewards(figure1, probs)
        instant = simulate_availability(
            figure1, None, probs, horizon=30_000, seed=11,
            group_rewards=rewards,
        )
        delayed = simulate_availability(
            figure1, None, probs, horizon=30_000, seed=11,
            group_rewards=rewards, detection_delay=2.0,
        )
        assert delayed.average_reward < instant.average_reward

    def test_bad_horizon_rejected(self, figure1):
        with pytest.raises(ModelError, match="horizon"):
            simulate_availability(
                figure1, None, figure1_failure_probs(), horizon=0
            )

    def test_bad_repair_rate_rejected(self, figure1):
        with pytest.raises(ModelError, match="repair_rate"):
            simulate_availability(
                figure1, None, figure1_failure_probs(), repair_rate=0.0
            )


class TestEvaluationMemo:
    """Definition-1 evaluation runs once per distinct component state.

    ``FaultPropagationGraph.evaluate`` is counted, and every state the
    simulator asks the problem for a leaf state is recorded: each
    visited state is evaluated at least once, so the recorded set is
    exactly the distinct states visited.  A missing memo or a second
    evaluation per event pushes the count above that set's size.
    """

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = [0]
        states: set[frozenset[str]] = set()
        evaluate = FaultPropagationGraph.evaluate
        leaf_state = StateSpaceProblem.leaf_state

        def counting_evaluate(self, *args, **kwargs):
            calls[0] += 1
            return evaluate(self, *args, **kwargs)

        def recording_leaf_state(self, state):
            states.add(frozenset(name for name, up in state.items() if not up))
            return leaf_state(self, state)

        monkeypatch.setattr(FaultPropagationGraph, "evaluate", counting_evaluate)
        monkeypatch.setattr(StateSpaceProblem, "leaf_state", recording_leaf_state)
        return calls, states

    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_availability_evaluates_each_state_once(
        self, figure1, centralized, counted, delay
    ):
        calls, states = counted
        result = simulate_availability(
            figure1, centralized, figure1_failure_probs(centralized),
            horizon=2000, seed=1, detection_delay=delay,
        )
        assert result.event_count > 4 * len(states)
        assert calls[0] <= len(states)

    def test_transient_evaluates_each_state_once(
        self, figure1, centralized, counted
    ):
        calls, states = counted
        probs = figure1_failure_probs(centralized)
        rates = {
            name: ComponentAvailability.from_probability(p)
            for name, p in probs.items()
        }
        times = (0.5, 1.0, 2.0, 4.0)
        result = simulate_transient(
            figure1, centralized, rates, times=times, replications=100, seed=1,
        )
        assert len(times) * result.replications > 2 * len(states)
        assert calls[0] <= len(states)
