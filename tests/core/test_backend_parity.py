"""All exact backends agree on seeded random scenarios; bounded is contained.

The enumerative scan, the compiled bit-parallel kernel and the fully
symbolic ROBDD backend implement the same §5 step-4 semantics three
different ways; on every generated
scenario they must produce the same configuration set with
probabilities equal to 1e-12.  The bounded most-probable-first
enumerator is interval-valued, so it is held to a different contract:
containment in the exact answer, a deficit at most ε, and intervals
that tighten monotonically as ε shrinks.
"""

import pytest

from repro.core import PerformabilityAnalyzer
from tests.core.random_models import random_scenario

SEEDS = list(range(12))

BACKENDS = ("enumeration", "bits", "bdd")


def probability_maps(analyzer):
    return {
        backend: analyzer.configuration_probabilities(method=backend)
        for backend in BACKENDS
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_agree_on_random_scenarios(seed):
    ftlqn, mama, failure_probs, causes = random_scenario(seed)
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=failure_probs, common_causes=causes
    )
    maps = probability_maps(analyzer)
    reference = maps["enumeration"]
    assert sum(reference.values()) == pytest.approx(1.0, abs=1e-9)
    for backend in BACKENDS[1:]:
        candidate = maps[backend]
        assert set(candidate) == set(reference), backend
        for configuration, probability in reference.items():
            assert candidate[configuration] == pytest.approx(
                probability, abs=1e-12
            ), (backend, configuration)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_backends_agree_without_management(seed):
    ftlqn, _, failure_probs, causes = random_scenario(seed)
    app_probs = {
        name: probability
        for name, probability in failure_probs.items()
        if name in ftlqn.component_names()
    }
    analyzer = PerformabilityAnalyzer(
        ftlqn, None, failure_probs=app_probs, common_causes=causes
    )
    maps = probability_maps(analyzer)
    reference = maps["enumeration"]
    for backend in BACKENDS[1:]:
        assert maps[backend] == pytest.approx(reference, abs=1e-12)


def test_generator_is_deterministic():
    first = random_scenario(7)
    second = random_scenario(7)
    assert first[2] == second[2]
    assert first[3] == second[3]
    assert first[0].name == second[0].name


# The widened fuzzer space: perfect components, explicit zero/pinned
# probabilities, shared processors, second-tier chains, unreliable
# connectors and common causes.  The oracle applies the same 1e-12
# parity demand as the hand-rolled assertions above, over every
# backend at once.
WIDE_SEEDS = list(range(24))


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_backends_agree_on_widened_generator_space(seed):
    from repro.verify import check_scenario, generate_scenario

    report = check_scenario(generate_scenario(seed))
    assert report.ok, report.summary()
    assert report.backends_checked == ("interp", "bits", "bdd")
    assert report.bounded_checked


# -- the bounded enumerator's interval contract ------------------------

#: ε values in tightening order; 0.0 demands exhaustive enumeration.
EPSILONS = (0.3, 0.05, 1e-3, 1e-7, 0.0)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_bounded_is_contained_and_tightens(seed):
    ftlqn, mama, failure_probs, causes = random_scenario(seed)
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=failure_probs, common_causes=causes
    )
    exact = analyzer.configuration_probabilities(method="enumeration")
    previous_deficit = None
    for epsilon in EPSILONS:
        partial = analyzer.configuration_probabilities(
            method="bounded", epsilon=epsilon
        )
        assert set(partial) <= set(exact), epsilon
        for configuration, probability in partial.items():
            assert probability <= exact[configuration] + 1e-12, epsilon
        deficit = 1.0 - sum(partial.values())
        assert -1e-9 <= deficit <= epsilon + 1e-9, epsilon
        # Monotone tightening: smaller ε never explores less mass.
        if previous_deficit is not None:
            assert deficit <= previous_deficit + 1e-12, epsilon
        previous_deficit = deficit
    # ε = 0 is exhaustive, hence exact parity.
    assert partial == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_bounded_reward_interval_contains_exact(seed):
    ftlqn, mama, failure_probs, causes = random_scenario(seed)
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=failure_probs, common_causes=causes
    )
    exact = analyzer.solve(method="enumeration")
    assert exact.reward_interval == (
        exact.expected_reward, exact.expected_reward
    )
    previous_width = None
    for epsilon in (0.3, 1e-2, 0.0):
        bounded = analyzer.solve(method="bounded", epsilon=epsilon)
        lower, upper = bounded.reward_interval
        assert lower <= exact.expected_reward + 1e-9, epsilon
        assert upper >= exact.expected_reward - 1e-9, epsilon
        width = upper - lower
        if previous_width is not None:
            assert width <= previous_width + 1e-12, epsilon
        previous_width = width
    assert bounded.expected_reward == pytest.approx(
        exact.expected_reward, abs=1e-9
    )


# -- beyond the 2^N wall ----------------------------------------------

def test_large_n_only_symbolic_backends_finish():
    """A 60-server replicated service: 2^60 states, exact answer anyway.

    Any scanning backend would need ~1.15e18 state visits here; the
    symbolic backend solves it exactly and the bounded backend brackets
    the same reward with a rigorous interval.
    """
    from repro.experiments import run_largescale

    exact = run_largescale(60, method="bdd", failure_probability=1e-3)
    assert exact.state_count == 2 ** 60
    assert exact.distinct_configurations == 61
    assert exact.counters.bdd_nodes > 0
    assert exact.reward_interval == (
        exact.expected_reward, exact.expected_reward
    )

    bounded = run_largescale(
        60, method="bounded", epsilon=1e-4, failure_probability=1e-3
    )
    lower, upper = bounded.reward_interval
    assert lower <= exact.expected_reward <= upper
    assert upper - lower <= 1e-4 * max(1.0, upper)
    assert 0.0 < bounded.counters.enumerated_mass <= 1.0 + 1e-12
