"""The compiled bit-parallel kernel agrees with the interpreted scan.

Covers the symbolic indicator derivation, the CSE compiler, the batch
evaluator (including degenerate and multi-batch shapes), the parallel
chunked path, counters/progress instrumentation, and the ``bits``
method through :class:`PerformabilityAnalyzer` and
:class:`SweepEngine`.
"""

import pytest

from repro.booleans.expr import Var
from repro.core import PerformabilityAnalyzer, ScanCounters, SweepEngine
from repro.core.dependency import CommonCause
from repro.core.enumeration import enumerate_configurations
from repro.core.kernel import (
    SymbolicIndicators,
    bitset_configurations,
    compile_indicators,
    compile_problem,
    derive_indicators,
)
from repro.core.sweep import SweepPoint
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn.fault_graph import ROOT


def assert_bits_agree(analyzer, **kernel_kwargs):
    reference = enumerate_configurations(analyzer.problem)
    bits = bitset_configurations(analyzer.problem, **kernel_kwargs)
    assert set(bits) == set(reference)
    for configuration, probability in reference.items():
        assert bits[configuration] == pytest.approx(
            probability, abs=1e-12
        ), configuration
    assert sum(bits.values()) == pytest.approx(1.0, abs=1e-9)


class TestPaperCases:
    def test_perfect(self, figure1, figure1_probs):
        assert_bits_agree(
            PerformabilityAnalyzer(figure1, None, failure_probs=figure1_probs)
        )

    @pytest.mark.parametrize(
        "architecture",
        ["centralized", "distributed", "hierarchical", "network"],
    )
    def test_architectures(self, figure1, architecture, request):
        mama = request.getfixturevalue(architecture)
        assert_bits_agree(
            PerformabilityAnalyzer(
                figure1, mama, failure_probs=figure1_failure_probs(mama)
            )
        )

    def test_connector_failure(self, figure1, centralized):
        probs = figure1_failure_probs(centralized)
        probs["c13"] = 0.2
        assert_bits_agree(
            PerformabilityAnalyzer(figure1, centralized, failure_probs=probs)
        )

    def test_common_causes(self, figure1, hierarchical):
        causes = [
            CommonCause("rack", 0.02, ("proc1", "proc3", "ag1")),
            CommonCause("power", 0.005, ("proc5", "proc6")),
        ]
        analyzer = PerformabilityAnalyzer(
            figure1,
            hierarchical,
            failure_probs=figure1_failure_probs(hierarchical),
            common_causes=causes,
        )
        reference = enumerate_configurations(analyzer.problem)
        bits = bitset_configurations(analyzer.problem)
        assert set(bits) == set(reference)
        for configuration, probability in reference.items():
            # The 2^21-state sequential reference sum itself drifts by
            # ~1e-12 here; compare relative instead of the usual 1e-12
            # absolute bound of the experiment-scale cases.
            assert bits[configuration] == pytest.approx(
                probability, rel=1e-9
            ), configuration
        assert sum(bits.values()) == pytest.approx(1.0, abs=1e-9)

    def test_pinned_component(self, figure1, centralized):
        probs = figure1_failure_probs(centralized)
        probs["Server1"] = 1.0
        assert_bits_agree(
            PerformabilityAnalyzer(figure1, centralized, failure_probs=probs)
        )


class TestDegenerateShapes:
    def test_no_unreliable_components(self, figure1, centralized):
        analyzer = PerformabilityAnalyzer(figure1, centralized)
        bits = bitset_configurations(analyzer.problem)
        assert len(bits) == 1
        (probability,) = bits.values()
        assert probability == pytest.approx(1.0)

    def test_fewer_states_than_one_word(self, figure1, centralized):
        analyzer = PerformabilityAnalyzer(
            figure1,
            centralized,
            failure_probs={"Server1": 0.1, "ag1": 0.2},
        )
        assert_bits_agree(analyzer)

    def test_small_batches_and_clamping(self, figure1, hierarchical):
        analyzer = PerformabilityAnalyzer(
            figure1,
            hierarchical,
            failure_probs=figure1_failure_probs(hierarchical),
        )
        # batch_bits below the 6-bit word floor is clamped, above splits
        # the scan into many batches; both must not change the result.
        assert_bits_agree(analyzer, batch_bits=3)
        assert_bits_agree(analyzer, batch_bits=8)


class TestParallelAndInstrumentation:
    def test_counters(self, figure1, hierarchical):
        analyzer = PerformabilityAnalyzer(
            figure1,
            hierarchical,
            failure_probs=figure1_failure_probs(hierarchical),
        )
        counters = ScanCounters()
        result = bitset_configurations(
            analyzer.problem, counters=counters, batch_bits=14
        )
        assert counters.states_visited == analyzer.problem.state_count
        assert counters.kernel_batches == analyzer.problem.state_count >> 14
        assert counters.kernel_instructions > 0
        assert counters.distinct_configurations == len(result)
        assert counters.scan_seconds > 0.0

    def test_progress_reported(self, figure1, centralized):
        analyzer = PerformabilityAnalyzer(
            figure1,
            centralized,
            failure_probs=figure1_failure_probs(centralized),
        )
        events = []
        bitset_configurations(analyzer.problem, progress=events.append)
        assert events
        final = events[-1]
        assert final.phase == "scan"
        assert final.completed == final.total == analyzer.problem.state_count


class TestCompiler:
    def test_shared_subexpressions_compile_once(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        shared = a | b  # an Or nested under Ands is preserved as a node
        indicators = SymbolicIndicators(
            root=shared & c, in_use=(("n", shared & ~c),)
        )
        kernel = compile_indicators(
            indicators, ("a", "b", "c"), (0.9, 0.8, 0.7)
        )
        or_instructions = [
            instruction for instruction in kernel.program
            if instruction[0] == 1
        ]
        # `a | b` appears in both outputs but is computed exactly once —
        # hash-consing makes both references the same DAG node, and the
        # compiler memo keys on node identity.
        assert len(or_instructions) == 1

    def test_register_recycling_bounds_register_file(self, figure1, hierarchical):
        analyzer = PerformabilityAnalyzer(
            figure1,
            hierarchical,
            failure_probs=figure1_failure_probs(hierarchical),
        )
        kernel = compile_problem(analyzer.problem)
        # Without recycling every instruction would need its own
        # destination register.
        temporaries = kernel.register_count - kernel.const_false - 1
        assert temporaries < len(kernel.program)

    def test_derived_root_depends_on_all_targets(self, figure1, centralized):
        analyzer = PerformabilityAnalyzer(
            figure1,
            centralized,
            failure_probs=figure1_failure_probs(centralized),
        )
        indicators = derive_indicators(analyzer.problem)
        names = {name for name, _ in indicators.in_use}
        graph = analyzer.problem.graph
        expected = {
            node.name
            for node in graph.nodes.values()
            if not node.is_leaf and node.name != ROOT
        }
        assert names == expected


class TestAnalyzerIntegration:
    def test_solve_with_bits_method(self, figure1, centralized):
        probs = figure1_failure_probs(centralized)
        enumerated = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs
        ).solve(method="enumeration")
        bits = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs
        ).solve(method="bits")
        assert bits.method == "bits"
        assert bits.expected_reward == pytest.approx(
            enumerated.expected_reward, abs=1e-9
        )

    def test_sweep_engine_bits_backend(self, figure1, centralized):
        engine = SweepEngine(figure1, architectures={"c": centralized})
        points = [
            SweepPoint(
                name=f"p{i}",
                architecture="c",
                failure_probs=figure1_failure_probs(
                    centralized, application=0.01 * (i + 1)
                ),
            )
            for i in range(3)
        ]
        enumerated = engine.run(points, method="enumeration")
        bits = engine.run(points, method="bits")
        assert bits.method == "bits"
        for reference, candidate in zip(enumerated.points, bits.points):
            assert candidate.expected_reward == pytest.approx(
                reference.expected_reward, abs=1e-9
            )
