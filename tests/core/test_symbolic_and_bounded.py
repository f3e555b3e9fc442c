"""Backend-specific behaviour of the symbolic and bounded engines.

Parity and containment against the exact backends live in
``test_backend_parity.py``; these tests pin down what only the new
backends themselves can promise — the cost counters they publish, the
nominal configuration used for the reward ceiling, and how ε threads
through the public entry points.
"""

import pytest

from repro.core import (
    PerformabilityAnalyzer,
    ScanCounters,
    bdd_configurations,
    bounded_configurations,
    nominal_configuration,
)
from tests.core.random_models import random_scenario


def analyzer_for(seed):
    ftlqn, mama, failure_probs, causes = random_scenario(seed)
    return PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=failure_probs, common_causes=causes
    )


class TestSymbolicCounters:
    def test_bdd_counters_are_filled(self):
        analyzer = analyzer_for(3)
        counters = ScanCounters()
        result = bdd_configurations(analyzer.problem, counters=counters)
        assert counters.bdd_nodes > 0
        assert counters.bdd_cache_hits >= 0
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.distinct_configurations == len(result)
        assert counters.scan_seconds > 0.0

    def test_no_backend_takes_a_worker_count(self):
        """Every backend scans in one process: the engine signature is
        ``(problem, *, progress, counters)`` (plus backend tuning)."""
        from repro.core.enumeration import enumerate_configurations
        from repro.core.kernel import bitset_configurations

        problem = analyzer_for(3).problem
        for backend in (
            enumerate_configurations, bitset_configurations,
            bdd_configurations, bounded_configurations,
        ):
            with pytest.raises(TypeError, match="jobs"):
                backend(problem, jobs=2)


class TestBoundedCounters:
    def test_bounded_counters_are_filled(self):
        analyzer = analyzer_for(3)
        counters = ScanCounters()
        result = bounded_configurations(
            analyzer.problem, epsilon=1e-6, counters=counters
        )
        assert counters.kernel_instructions > 0
        assert counters.kernel_batches >= 1
        assert counters.states_visited >= 1
        assert counters.enumerated_mass == pytest.approx(
            sum(result.values()), abs=1e-12
        )
        assert 1.0 - counters.enumerated_mass <= 1e-6 + 1e-9

    def test_max_states_caps_enumeration(self):
        analyzer = analyzer_for(3)
        counters = ScanCounters()
        bounded_configurations(
            analyzer.problem, epsilon=0.0, max_states=8, counters=counters
        )
        assert counters.states_visited <= 8


class TestNominalConfiguration:
    def test_nominal_is_the_all_up_configuration(self):
        analyzer = analyzer_for(1)
        nominal = nominal_configuration(analyzer.problem)
        exact = analyzer.configuration_probabilities(method="enumeration")
        # The all-up state is always scanned, so the configuration it
        # produces must appear in every exact result.
        assert nominal in exact
        assert nominal is not None


class TestEpsilonThreading:
    def test_solve_reports_interval_fields(self):
        analyzer = analyzer_for(1)
        result = analyzer.solve(method="bounded", epsilon=0.25)
        assert 0.0 <= result.unexplored_probability <= 0.25 + 1e-9
        assert result.reward_lower is not None
        assert result.reward_upper is not None
        assert result.reward_lower <= result.expected_reward
        assert result.reward_interval == (
            result.reward_lower, result.reward_upper
        )

    def test_exact_methods_report_degenerate_interval(self):
        analyzer = analyzer_for(1)
        result = analyzer.solve(method="bdd")
        assert result.unexplored_probability == 0.0
        assert result.reward_lower is None and result.reward_upper is None
        assert result.reward_interval == (
            result.expected_reward, result.expected_reward
        )
