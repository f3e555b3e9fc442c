"""PerformabilityAnalyzer API behaviour and error paths."""

import pickle

import pytest

from repro.core import PerformabilityAnalyzer, weighted_throughput_reward
from repro.core.enumeration import StateSpaceProblem, app_bits_for_index
from repro.core.rewards import total_reference_throughput
from repro.errors import ModelError
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn import FTLQNModel, Request
from repro.mama import MAMAModel


class TestConstruction:
    def test_unknown_failure_prob_component_rejected(self, figure1):
        with pytest.raises(ModelError, match="unknown components"):
            PerformabilityAnalyzer(
                figure1, None, failure_probs={"ghost": 0.1}
            )

    def test_out_of_range_probability_rejected(self, figure1):
        with pytest.raises(ModelError, match="must be in"):
            PerformabilityAnalyzer(
                figure1, None, failure_probs={"AppA": 1.5}
            )

    def test_mama_app_task_must_exist_in_ftlqn(self, figure1):
        mama = MAMAModel()
        mama.add_processor("proc1")
        mama.add_application_task("Ghost", processor="proc1")
        with pytest.raises(ModelError, match="does not exist in the FTLQN"):
            PerformabilityAnalyzer(figure1, mama)

    def test_mama_processor_placement_must_agree(self, figure1):
        mama = MAMAModel()
        mama.add_processor("proc2")
        mama.add_application_task("AppA", processor="proc2")
        with pytest.raises(ModelError, match="hosts"):
            PerformabilityAnalyzer(figure1, mama)

    def test_connector_name_collision_rejected(self, figure1):
        mama = MAMAModel()
        mama.add_processor("proc1")
        mama.add_processor("proc9")
        mama.add_application_task("AppA", processor="proc1")
        mama.add_agent("ag", processor="proc1")
        mama.add_manager("m", processor="proc9")
        # Connector named like an FTLQN component.
        mama.add_alive_watch("Server1", monitored="AppA", monitor="ag")
        mama.add_status_watch("sw", monitored="ag", monitor="m")
        mama.add_alive_watch("aw", monitored="proc1", monitor="m")
        with pytest.raises(ModelError, match="collides"):
            PerformabilityAnalyzer(figure1, mama)

    def test_unknown_method_rejected(self, figure1):
        analyzer = PerformabilityAnalyzer(figure1, None)
        with pytest.raises(ModelError, match="unknown method"):
            analyzer.configuration_probabilities(method="magic")

    def test_unknown_method_error_lists_every_backend(self, figure1):
        from repro.core import method_choices

        analyzer = PerformabilityAnalyzer(figure1, None)
        with pytest.raises(ModelError) as excinfo:
            analyzer.configuration_probabilities(method="magic")
        message = str(excinfo.value)
        for name in method_choices():
            assert name in message
        assert set(method_choices()) == {
            "bdd", "bits", "bounded", "enumeration", "interp",
        }
        with pytest.raises(ModelError, match="was removed; use 'bdd' instead"):
            analyzer.configuration_probabilities(method="factored")

    def test_interp_alias_matches_enumeration(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None, failure_probs={"Server1": 0.1, "AppA": 0.05}
        )
        assert analyzer.configuration_probabilities(
            method="interp"
        ) == analyzer.configuration_probabilities(method="enumeration")


class TestDegenerateProbabilities:
    def test_no_failures_means_single_configuration(self, figure1):
        analyzer = PerformabilityAnalyzer(figure1, None, failure_probs={})
        result = analyzer.solve()
        assert len(result.records) == 1
        assert result.records[0].probability == pytest.approx(1.0)
        assert result.state_count == 1

    def test_certain_failure_pins_component_down(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None, failure_probs={"Server1": 1.0}
        )
        result = analyzer.solve()
        assert len(result.records) == 1
        config = result.records[0].configuration
        assert "eA-2" in config and "eB-2" in config

    def test_all_servers_down_is_certain_failure(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None,
            failure_probs={"Server1": 1.0, "Server2": 1.0},
        )
        result = analyzer.solve()
        assert result.failed_probability == pytest.approx(1.0)
        assert result.expected_reward == 0.0


class TestRewards:
    def test_custom_weights_change_expected_reward(self, figure1):
        probs = figure1_failure_probs()
        flat = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs,
            reward=weighted_throughput_reward({"UserA": 1.0, "UserB": 1.0}),
        ).solve()
        b_heavy = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs,
            reward=weighted_throughput_reward({"UserA": 1.0, "UserB": 3.0}),
        ).solve()
        assert b_heavy.expected_reward > flat.expected_reward

    def test_default_reward_equals_unit_weights(self, figure1):
        probs = figure1_failure_probs()
        default = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs
        ).solve()
        explicit = PerformabilityAnalyzer(
            figure1, None, failure_probs=probs,
            reward=total_reference_throughput(["UserA", "UserB"]),
        ).solve()
        assert default.expected_reward == pytest.approx(
            explicit.expected_reward
        )

    def test_non_finite_reward_rejected(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None,
            failure_probs=figure1_failure_probs(),
            reward=lambda config, results: float("nan"),
        )
        with pytest.raises(ModelError, match="reward function"):
            analyzer.solve()


class TestResultHelpers:
    def test_probability_of(self, figure1):
        result = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        ).solve()
        c5 = frozenset(
            {"userA", "userB", "eA", "eB", "serviceA", "serviceB",
             "eA-1", "eB-1"}
        )
        assert result.probability_of(c5) == pytest.approx(0.9**6)
        assert result.probability_of(frozenset({"nope"})) == 0.0

    def test_performance_cache_reused(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        )
        c5 = frozenset(
            {"userA", "userB", "eA", "eB", "serviceA", "serviceB",
             "eA-1", "eB-1"}
        )
        first = analyzer.performance_of(c5)
        second = analyzer.performance_of(c5)
        assert first is second

    def test_record_labels(self, figure1):
        result = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        ).solve()
        labels = [record.label() for record in result.records]
        assert labels[-1] == "System Failed"
        assert any("userA" in label for label in labels)


class TestSmallSystemEndToEnd:
    def test_single_service_two_targets(self):
        ftlqn = FTLQNModel(name="tiny")
        ftlqn.add_processor("pu")
        ftlqn.add_processor("pa")
        ftlqn.add_processor("p1")
        ftlqn.add_processor("p2")
        ftlqn.add_task("users", processor="pu", multiplicity=2,
                       is_reference=True)
        ftlqn.add_task("app", processor="pa")
        ftlqn.add_task("s1", processor="p1")
        ftlqn.add_task("s2", processor="p2")
        ftlqn.add_entry("e1", task="s1", demand=1.0)
        ftlqn.add_entry("e2", task="s2", demand=1.0)
        ftlqn.add_service("svc", targets=["e1", "e2"])
        ftlqn.add_entry("ea", task="app", demand=0.5,
                        requests=[Request("svc")])
        ftlqn.add_entry("u", task="users", requests=[Request("ea")])

        analyzer = PerformabilityAnalyzer(
            ftlqn, None, failure_probs={"s1": 0.2, "s2": 0.2}
        )
        result = analyzer.solve()
        # Primary up: 0.8; primary down, backup up: 0.2*0.8; both down.
        assert result.failed_probability == pytest.approx(0.04)
        on_primary = [
            r for r in result.operational_records
            if "e1" in r.configuration
        ]
        assert on_primary[0].probability == pytest.approx(0.8)


class TestStateSpaceProblem:
    def test_app_bits_match_product_order(self):
        from itertools import product

        for width in range(5):
            expected = list(product((True, False), repeat=width))
            decoded = [
                app_bits_for_index(i, width) for i in range(2**width)
            ]
            assert decoded == expected

    def test_problem_pickles_cleanly(self, figure1, centralized):
        problem = PerformabilityAnalyzer(
            figure1, centralized,
            failure_probs=figure1_failure_probs(centralized),
        ).problem
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.app_components == problem.app_components
        assert clone.mgmt_components == problem.mgmt_components
        assert dict(clone.leaf_causes) == dict(problem.leaf_causes)
        assert clone.state_count == problem.state_count

    def test_leaf_causes_defaults_to_empty_mapping(self, figure1):
        problem = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        ).problem
        assert problem.leaf_causes == {}
        # field(default_factory=dict): construction without the argument
        # must yield a fresh, non-shared, non-None mapping.
        bare = StateSpaceProblem(
            graph=problem.graph,
            know_exprs={},
            perfect=True,
            app_components=problem.app_components,
            mgmt_components=(),
            fixed_up=problem.fixed_up,
            fixed_down=problem.fixed_down,
            up_probability=problem.up_probability,
        )
        assert bare.leaf_causes == {}
        assert bare.leaf_causes is not problem.leaf_causes
