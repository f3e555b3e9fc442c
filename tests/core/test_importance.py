"""Birnbaum-style importance analysis."""

import pytest

from repro.core import CommonCause, importance_analysis
from repro.errors import ModelError
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn import FTLQNModel, Request


@pytest.fixture(scope="module")
def figure1_records():
    from repro.experiments.figure1 import figure1_system

    return importance_analysis(
        figure1_system(), None, figure1_failure_probs()
    )


class TestFigure1Ranking:
    def test_all_unreliable_components_covered(self, figure1_records):
        names = {record.component for record in figure1_records}
        assert names == {
            "AppA", "AppB", "Server1", "Server2",
            "proc1", "proc2", "proc3", "proc4",
        }

    def test_appb_matters_most_for_reward(self, figure1_records):
        # UserB (100 users, throughput up to 1.0) outweighs UserA; AppB
        # and proc2 carry that whole group alone.
        top = figure1_records[0]
        assert top.component in ("AppB", "proc2")

    def test_single_server_less_important_than_app(self, figure1_records):
        by_name = {r.component: r for r in figure1_records}
        # Server1 has a backup; AppB does not.
        assert (
            by_name["AppB"].reward_importance
            > by_name["Server1"].reward_importance
        )

    def test_reward_conditioning_brackets_baseline(self, figure1_records):
        for record in figure1_records:
            assert (
                record.reward_if_down
                <= record.baseline_reward
                <= record.reward_if_up
            ), record.component

    def test_failure_importance_nonnegative(self, figure1_records):
        # The system is coherent: losing a component can never reduce
        # the failure probability.
        for record in figure1_records:
            assert record.failure_importance >= -1e-12, record.component

    def test_improvement_potential_nonnegative(self, figure1_records):
        for record in figure1_records:
            assert record.improvement_potential >= -1e-12, record.component


class TestManagementImportance:
    def test_manager_is_critical_in_centralized(self):
        from repro.experiments.architectures import centralized_mama
        from repro.experiments.figure1 import figure1_system

        mama = centralized_mama()
        records = importance_analysis(
            figure1_system(), mama, figure1_failure_probs(mama),
            components=["m1", "ag4", "Server1"],
        )
        by_name = {r.component: r for r in records}
        # The single manager gates every reconfiguration and every
        # primary-selection confirmation; it dominates one agent.
        assert (
            by_name["m1"].reward_importance
            > by_name["ag4"].reward_importance
        )

    def test_unknown_component_rejected(self):
        from repro.experiments.figure1 import figure1_system

        with pytest.raises(ModelError, match="importance is undefined"):
            importance_analysis(
                figure1_system(), None, figure1_failure_probs(),
                components=["UserA"],  # perfectly reliable
            )


class TestSharedInfrastructure:
    """counters/structure/lqn_cache must not change the numbers."""

    def test_counters_and_progress_observe_the_scans(self, figure1_records):
        from repro.core import ScanCounters
        from repro.experiments.figure1 import figure1_system

        counters = ScanCounters()
        events = []
        records = importance_analysis(
            figure1_system(), None, figure1_failure_probs(),
            counters=counters, progress=events.append,
        )
        assert records == figure1_records
        # Two conditioned scans per component plus the baseline share
        # one LQN cache, so solves stay far below scan count.
        assert counters.lqn_solves > 0
        assert counters.lqn_cache_hits > 0
        assert counters.lqn_solves < 2 * len(records)
        assert events

    def test_injected_structure_and_cache_match_default(self,
                                                        figure1_records):
        from repro.core import derive_structure
        from repro.core.progress import ScanCounters
        from repro.experiments.figure1 import figure1_system

        ftlqn = figure1_system()
        structure = derive_structure(ftlqn, None)
        lqn_cache = {}
        counters = ScanCounters()
        first = importance_analysis(
            ftlqn, None, figure1_failure_probs(),
            structure=structure, lqn_cache=lqn_cache, counters=counters,
        )
        assert first == figure1_records
        solves_after_first = counters.lqn_solves
        assert lqn_cache  # the shared cache got populated
        second = importance_analysis(
            ftlqn, None, figure1_failure_probs(),
            structure=structure, lqn_cache=lqn_cache, counters=counters,
        )
        assert second == figure1_records
        # A warm shared cache means the rerun solves nothing new.
        assert counters.lqn_solves == solves_after_first


class TestCommonCauseImportance:
    def test_event_can_be_ranked(self):
        model = FTLQNModel(name="tiny")
        for p in ("pu", "pa", "p1", "p2"):
            model.add_processor(p)
        model.add_task("users", processor="pu", multiplicity=2,
                       is_reference=True)
        model.add_task("app", processor="pa")
        model.add_task("s1", processor="p1")
        model.add_task("s2", processor="p2")
        model.add_entry("e1", task="s1", demand=1.0)
        model.add_entry("e2", task="s2", demand=1.0)
        model.add_service("svc", targets=["e1", "e2"])
        model.add_entry("ea", task="app", demand=0.5,
                        requests=[Request("svc")])
        model.add_entry("u", task="users", requests=[Request("ea")])

        rack = CommonCause("rack", 0.1, ("s1", "s2"))
        records = importance_analysis(
            model, None, {"s1": 0.1, "s2": 0.1},
            common_causes=(rack,),
            components=["rack", "s1"],
        )
        by_name = {r.component: r for r in records}
        # The rack takes out both alternatives at once: it must matter
        # strictly more than either single server.
        assert (
            by_name["rack"].failure_importance
            > by_name["s1"].failure_importance
        )
        assert by_name["rack"].failure_if_down == pytest.approx(1.0)
