"""Counter accumulation conventions: level fields (snapshots of a shared
cache or compiled program) must merge by max, never by addition, and
backends must not clobber cross-point values on a shared ScanCounters.
Also the progress events and counters one analysis reports."""

from repro.core import PerformabilityAnalyzer, ScanCounters, SweepEngine, SweepPoint
from repro.core.bounded import bounded_configurations
from repro.experiments.figure1 import figure1_failure_probs


def _probs(figure1_probs, scale):
    return {name: p * scale for name, p in figure1_probs.items()}


class TestLevelFieldMerge:
    def test_merge_adds_additive_fields(self):
        a = ScanCounters(states_visited=3, lqn_solves=2)
        b = ScanCounters(states_visited=5, lqn_solves=1)
        a.merge(b)
        assert a.states_visited == 8
        assert a.lqn_solves == 3

    def test_merge_takes_max_of_level_fields(self):
        """Regression: merge() used to add *every* field, so a sweep of
        P points reported P x kernel_instructions for one compiled
        program and nonsense distinct-configuration totals."""
        a = ScanCounters(kernel_instructions=40, distinct_configurations=7)
        b = ScanCounters(kernel_instructions=40, distinct_configurations=5)
        a.merge(b)
        assert a.kernel_instructions == 40
        assert a.distinct_configurations == 7

    def test_merge_raises_level_fields_when_larger(self):
        a = ScanCounters(distinct_configurations=5, lqn_batch_max=2)
        b = ScanCounters(distinct_configurations=9, lqn_batch_max=4)
        a.merge(b)
        assert a.distinct_configurations == 9
        assert a.lqn_batch_max == 4


class TestSharedCountersAcrossPoints:
    def _run(self, figure1, distributed, figure1_probs, method, count):
        engine = SweepEngine(figure1, {"distributed": distributed})
        points = [
            SweepPoint(
                name=f"p{i}",
                architecture="distributed",
                failure_probs=_probs(figure1_probs, 1.0 / (i + 1)),
            )
            for i in range(count)
        ]
        counters = ScanCounters()
        engine.run(
            points,
            method=method,
            epsilon=0.0 if method == "bounded" else 1e-9,
            counters=counters,
        )
        return counters

    def test_bounded_backend_does_not_inflate_shared_counters(
        self, figure1, distributed, figure1_probs
    ):
        """Regression: bounded.py snapshots kernel_instructions and
        distinct_configurations straight onto its counters; with
        merge() adding every field, a 3-point sweep reported 3x the
        instruction count of the single compiled program (the CLI
        prints this total)."""
        single = self._run(figure1, distributed, figure1_probs, "bounded", 1)
        triple = self._run(figure1, distributed, figure1_probs, "bounded", 3)
        assert single.kernel_instructions > 0
        assert triple.kernel_instructions == single.kernel_instructions
        assert (
            triple.distinct_configurations == single.distinct_configurations
        )

    def test_bits_backend_instruction_count_is_a_level(
        self, figure1, distributed, figure1_probs
    ):
        single = self._run(figure1, distributed, figure1_probs, "bits", 1)
        triple = self._run(figure1, distributed, figure1_probs, "bits", 3)
        assert single.kernel_instructions > 0
        assert triple.kernel_instructions == single.kernel_instructions

    def test_repeated_scans_on_one_counters_object(
        self, figure1, distributed, figure1_probs
    ):
        analyzer = PerformabilityAnalyzer(
            figure1, distributed, failure_probs=figure1_probs
        )
        counters = ScanCounters()
        for _ in range(3):
            bounded_configurations(
                analyzer.problem, epsilon=0.0, counters=counters
            )
        baseline = ScanCounters()
        result = bounded_configurations(
            analyzer.problem, epsilon=0.0, counters=baseline
        )
        assert result
        assert (
            counters.distinct_configurations
            == baseline.distinct_configurations
        )
        assert counters.kernel_instructions == baseline.kernel_instructions
        assert counters.states_visited == 3 * baseline.states_visited


class TestProgressInstrumentation:
    @staticmethod
    def _analyzer(figure1, mama):
        return PerformabilityAnalyzer(
            figure1, mama, failure_probs=figure1_failure_probs(mama)
        )

    def test_enumeration_visits_every_state(self, figure1, centralized):
        analyzer = self._analyzer(figure1, centralized)
        counters = ScanCounters()
        events = []
        analyzer.configuration_probabilities(
            method="enumeration",
            counters=counters,
            progress=events.append,
        )
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.app_states_visited == analyzer.problem.app_state_count
        # The knowledge-bit memo means far fewer fault-graph walks than
        # states; together they cover every non-skipped state.
        assert (
            counters.fault_graph_evaluations + counters.knowledge_cache_hits
            == analyzer.problem.state_count
        )
        assert counters.distinct_configurations == 7
        assert counters.scan_seconds > 0.0
        # Progress is monotone and ends exactly at completion.
        assert events, "no progress events delivered"
        completed = [e.completed for e in events]
        assert completed == sorted(completed)
        assert events[-1].completed == events[-1].total
        assert events[-1].total == analyzer.problem.state_count
        assert all(e.phase == "scan" for e in events)

    def test_bdd_covers_same_total(self, figure1, centralized):
        analyzer = self._analyzer(figure1, centralized)
        counters = ScanCounters()
        analyzer.configuration_probabilities(method="bdd", counters=counters)
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.distinct_configurations == 7
        assert counters.bdd_nodes > 0

    def test_solve_reports_lqn_phase(self, figure1, centralized):
        analyzer = self._analyzer(figure1, centralized)
        events = []
        result = analyzer.solve(method="bdd", progress=events.append)
        phases = {e.phase for e in events}
        assert phases == {"scan", "lqn"}
        lqn_events = [e for e in events if e.phase == "lqn"]
        assert lqn_events[-1].completed == lqn_events[-1].total
        counters = result.counters
        assert counters.lqn_solves + counters.lqn_cache_hits + 1 == len(
            result.records
        )  # +1: the failed configuration needs no LQN solve
        assert counters.lqn_seconds > 0.0

    def test_counters_merge_is_additive(self):
        left = ScanCounters(states_visited=3, scan_seconds=0.5, lqn_solves=2)
        right = ScanCounters(states_visited=4, scan_seconds=0.25)
        left.merge(right)
        assert left.states_visited == 7
        assert left.scan_seconds == 0.75
        assert left.lqn_solves == 2
        assert "states_visited" in left.as_dict()
