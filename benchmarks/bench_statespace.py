"""E4 — the §6.3 state-space scan: 2^N enumeration cost per case.

The paper reports 256 / 16384 / 65536 / 262144 / 65536 states and Java
runtimes of 0.2–35 s; these benchmarks measure our implementation of
the same literal scan (plus the exact state counts), and the compiled
bit-parallel kernel against it on the largest (262,144-state
hierarchical) case.
"""

import time

import pytest

from repro.core import PerformabilityAnalyzer, ScanCounters
from repro.experiments.statespace import PAPER_STATE_COUNTS


@pytest.mark.parametrize(
    "case_name",
    ["perfect", "centralized", "distributed", "hierarchical", "network"],
)
def test_enumeration_scan(benchmark, figure1, cases, case_name):
    mama, probs = cases[case_name]
    analyzer = PerformabilityAnalyzer(figure1, mama, failure_probs=probs)
    assert analyzer.problem.state_count == PAPER_STATE_COUNTS[case_name]

    counters = ScanCounters()
    result = benchmark.pedantic(
        lambda: analyzer.configuration_probabilities(
            method="enumeration", counters=counters
        ),
        rounds=1,
        iterations=1,
    )
    assert sum(result.values()) == pytest.approx(1.0, abs=1e-9)
    # Instrumentation: the scan covers the entire space, and the
    # knowledge-bit memo absorbs almost all of it (cache effectiveness
    # is what keeps the literal scan tolerable in Python).
    assert counters.states_visited == analyzer.problem.state_count
    if case_name != "perfect":
        assert (
            counters.knowledge_cache_hits
            > 0.9 * counters.states_visited
        )
    benchmark.extra_info["counters"] = counters.as_dict()


@pytest.mark.parametrize(
    "case_name",
    ["perfect", "centralized", "distributed", "hierarchical", "network"],
)
def test_bits_kernel_parity(figure1, cases, case_name):
    """The compiled kernel matches the interpreted scan within 1e-12 on
    every §6.3 experiment case (the ISSUE 4 acceptance bound)."""
    mama, probs = cases[case_name]
    analyzer = PerformabilityAnalyzer(figure1, mama, failure_probs=probs)
    reference = analyzer.configuration_probabilities(method="enumeration")
    bits = analyzer.configuration_probabilities(method="bits")
    assert set(bits) == set(reference)
    for configuration, probability in reference.items():
        assert bits[configuration] == pytest.approx(
            probability, abs=1e-12
        ), configuration


def test_bits_kernel_speedup(benchmark, figure1, cases):
    """Single-process bit-parallel kernel vs the interpreted scan on
    the paper's largest (262,144-state hierarchical) case.

    The acceptance bar is 5×; evaluating 64 states per word with one
    numpy op per compiled instruction typically lands well above it.
    """
    mama, probs = cases["hierarchical"]
    analyzer = PerformabilityAnalyzer(figure1, mama, failure_probs=probs)
    assert analyzer.problem.state_count == 262_144

    started = time.perf_counter()
    reference = analyzer.configuration_probabilities(method="enumeration")
    interpreted_wall = time.perf_counter() - started

    counters = ScanCounters()

    def run():
        started = time.perf_counter()
        result = analyzer.configuration_probabilities(
            method="bits", counters=counters
        )
        _BITS_WALL.append(time.perf_counter() - started)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result == pytest.approx(reference, abs=1e-12)

    speedup = interpreted_wall / _BITS_WALL[-1]
    benchmark.extra_info["backend"] = "bits"
    benchmark.extra_info["interpreted_wall_seconds"] = interpreted_wall
    benchmark.extra_info["bits_wall_seconds"] = _BITS_WALL[-1]
    benchmark.extra_info["speedup_vs_interp"] = speedup
    benchmark.extra_info["counters"] = counters.as_dict()
    assert speedup >= 5.0, (
        f"bits kernel only {speedup:.1f}x faster than interpreted scan"
    )


_BITS_WALL: list[float] = []
