"""The parallel state-space engine and its progress instrumentation.

Parallel dispatch must be *invisible* in the results: ``jobs=N`` splits
the application-state outer loop into chunks scanned by worker
processes and merges the partial accumulators exactly, so probabilities
may differ from the sequential scan only by floating-point summation
reordering (≤ 1e-12 here).  ``jobs=1`` takes the in-process path and is
bit-for-bit the historical sequential behaviour.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.core import PerformabilityAnalyzer, ScanCounters
from repro.core.enumeration import (
    StateSpaceProblem,
    app_bits_for_index,
    chunk_ranges,
)
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.ftlqn import model_to_json
from repro.mama.serialize import mama_to_json


def _analyzer(figure1, mama):
    return PerformabilityAnalyzer(
        figure1, mama, failure_probs=figure1_failure_probs(mama)
    )


def assert_parallel_matches_sequential(analyzer, method):
    sequential = analyzer.configuration_probabilities(method=method, jobs=1)
    parallel = analyzer.configuration_probabilities(method=method, jobs=4)
    assert set(parallel) == set(sequential)
    for configuration, probability in sequential.items():
        assert parallel[configuration] == pytest.approx(
            probability, abs=1e-12
        ), configuration
    assert sum(parallel.values()) == pytest.approx(1.0, abs=1e-9)


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("method", ["enumeration", "bits"])
    def test_centralized(self, figure1, centralized, method):
        assert_parallel_matches_sequential(
            _analyzer(figure1, centralized), method
        )

    @pytest.mark.parametrize("method", ["enumeration", "bits"])
    def test_distributed(self, figure1, distributed, method):
        assert_parallel_matches_sequential(
            _analyzer(figure1, distributed), method
        )

    def test_perfect_knowledge(self, figure1):
        analyzer = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        )
        assert_parallel_matches_sequential(analyzer, "enumeration")
        assert_parallel_matches_sequential(analyzer, "bits")

    def test_jobs_zero_means_all_cores(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
        sequential = analyzer.configuration_probabilities(
            method="enumeration", jobs=1
        )
        all_cores = analyzer.configuration_probabilities(
            method="enumeration", jobs=0
        )
        for configuration, probability in sequential.items():
            assert all_cores[configuration] == pytest.approx(
                probability, abs=1e-12
            )

    def test_solve_with_jobs(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
        sequential = analyzer.solve(method="enumeration", jobs=1)
        parallel = analyzer.solve(method="enumeration", jobs=2)
        assert parallel.expected_reward == pytest.approx(
            sequential.expected_reward, abs=1e-12
        )
        assert parallel.jobs == 2
        assert parallel.counters is not None
        assert (
            parallel.counters.states_visited
            == analyzer.problem.state_count
        )


class TestProgressInstrumentation:
    def test_enumeration_visits_every_state(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
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
        analyzer = _analyzer(figure1, centralized)
        counters = ScanCounters()
        analyzer.configuration_probabilities(method="bdd", counters=counters)
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.distinct_configurations == 7
        assert counters.bdd_nodes > 0

    def test_parallel_counters_merge_exactly(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
        sequential = ScanCounters()
        parallel = ScanCounters()
        analyzer.configuration_probabilities(
            method="enumeration", jobs=1, counters=sequential
        )
        analyzer.configuration_probabilities(
            method="enumeration", jobs=4, counters=parallel
        )
        for name in (
            "states_visited",
            "app_states_visited",
            "knowledge_cache_hits",
            "fault_graph_evaluations",
            "distinct_configurations",
        ):
            assert getattr(parallel, name) == getattr(sequential, name), name

    def test_solve_reports_lqn_phase(self, figure1, centralized):
        analyzer = _analyzer(figure1, centralized)
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


class TestBitsParallelProgress:
    """``backend="bits"`` with ``jobs>1`` and ``progress=`` callbacks.

    The compiled kernel batches states, so its progress/counters path
    is distinct from the interpreted scan; this pins its parallel +
    instrumented combination to the serial interp reference.
    """

    @pytest.mark.parametrize("mama_fixture", ["centralized", "distributed"])
    def test_bits_parallel_matches_serial_interp(
        self, figure1, mama_fixture, request
    ):
        mama = request.getfixturevalue(mama_fixture)
        analyzer = _analyzer(figure1, mama)
        reference = analyzer.configuration_probabilities(
            method="enumeration", jobs=1
        )
        counters = ScanCounters()
        events = []
        parallel = analyzer.configuration_probabilities(
            method="bits", jobs=4, counters=counters,
            progress=events.append,
        )
        assert set(parallel) == set(reference)
        for configuration, probability in reference.items():
            assert parallel[configuration] == pytest.approx(
                probability, abs=1e-12
            ), configuration
        # Counters must cover the serial interp scan's state space
        # (the kernel scans a flat index space, so it reports no
        # app/mgmt split).
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.distinct_configurations == len(reference)
        assert counters.kernel_batches > 0
        # Progress is monotone and ends exactly at completion.
        assert events, "no progress events delivered"
        completed = [e.completed for e in events]
        assert completed == sorted(completed)
        assert events[-1].completed == events[-1].total
        assert events[-1].total == analyzer.problem.state_count
        assert all(e.phase == "scan" for e in events)

    def test_bits_parallel_on_generated_scenarios(self):
        from repro.verify import generate_scenario

        for seed in (1, 4, 7):
            analyzer = generate_scenario(seed).analyzer()
            reference = analyzer.configuration_probabilities(
                method="enumeration", jobs=1
            )
            serial_counters = ScanCounters()
            analyzer.configuration_probabilities(
                method="enumeration", jobs=1, counters=serial_counters
            )
            counters = ScanCounters()
            parallel = analyzer.configuration_probabilities(
                method="bits", jobs=2, counters=counters
            )
            assert set(parallel) == set(reference), seed
            for configuration, probability in reference.items():
                assert parallel[configuration] == pytest.approx(
                    probability, abs=1e-12
                ), (seed, configuration)
            assert (
                counters.states_visited == serial_counters.states_visited
            ), seed


class TestEngineHelpers:
    def test_app_bits_match_product_order(self):
        from itertools import product

        for width in range(5):
            expected = list(product((True, False), repeat=width))
            decoded = [
                app_bits_for_index(i, width) for i in range(2**width)
            ]
            assert decoded == expected

    def test_chunk_ranges_cover_exactly(self):
        for total in (1, 2, 7, 64, 100):
            for chunks in (1, 2, 3, 16, 200):
                ranges = chunk_ranges(total, chunks)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == total
                flat = [i for start, stop in ranges for i in range(start, stop)]
                assert flat == list(range(total))
                assert all(stop > start for start, stop in ranges)

    def test_problem_pickles_cleanly(self, figure1, centralized):
        problem = _analyzer(figure1, centralized).problem
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


class TestCLIFlags:
    @pytest.fixture
    def model_files(self, tmp_path, figure1, centralized):
        ftlqn_path = tmp_path / "figure1.json"
        mama_path = tmp_path / "centralized.json"
        probs_path = tmp_path / "probs.json"
        ftlqn_path.write_text(model_to_json(figure1))
        mama_path.write_text(mama_to_json(centralized))
        probs_path.write_text(
            json.dumps(figure1_failure_probs(centralized))
        )
        return str(ftlqn_path), str(mama_path), str(probs_path)

    def test_jobs_and_progress_flags(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        code = main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--method", "bits", "--jobs", "2", "--progress",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "2 jobs" in captured.out
        assert "expected steady-state reward rate" in captured.out
        assert "[scan]" in captured.err
        assert "[lqn]" in captured.err
        assert "cache hits" in captured.err

    def test_help_mentions_scaling_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        helptext = capsys.readouterr().out
        assert "--jobs" in helptext
        assert "--progress" in helptext
        assert "performance_guide" in helptext
