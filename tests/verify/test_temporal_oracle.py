"""The fuzzer's temporal dimension: generation, oracle, mutation.

The mutation self-test injects a broken uniformization (Poisson series
truncated after two terms, remainder thrown away) and proves the
temporal oracle's closed-form cross-check flags it — the temporal net
catches real transient-solver bugs, not just healthy code.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.enumeration import enumerate_configurations
from repro.verify import (
    DEFAULT_ORACLE_CONFIG,
    Scenario,
    ScenarioSpace,
    check_scenario,
    generate_scenario,
    run_fuzz,
)

#: Cheap oracle settings for temporal tests: one backend's worth of
#: replications, no bounded containment run.
FAST_CONFIG = dataclasses.replace(
    DEFAULT_ORACLE_CONFIG,
    bounded_epsilon=None,
    temporal_replications=25,
    temporal_floor=0.06,
)

INTERP_ONLY = {"interp": enumerate_configurations}


def eligible_scenario() -> Scenario:
    """The first generated scenario the temporal check can run on
    (has a temporal spec, no pinned-down components or causes)."""
    for seed in range(40):
        scenario = generate_scenario(seed)
        if scenario.temporal is None:
            continue
        if any(p >= 1.0 for p in scenario.failure_probs.values()):
            continue
        if any(c.probability >= 1.0 for c in scenario.common_causes):
            continue
        return scenario
    pytest.fail("no temporal-eligible scenario in 40 seeds")


class TestGeneration:
    def test_temporal_axis_is_exercised(self):
        specs = [
            generate_scenario(seed).temporal for seed in range(30)
        ]
        present = [spec for spec in specs if spec is not None]
        assert present, "no scenario drew a temporal spec in 30 seeds"
        assert any(spec is None for spec in specs)
        assert any(spec.detection_latency is not None for spec in present)
        for spec in present:
            assert spec.repair_rate > 0
            assert len(spec.times) >= 3
            assert spec.times[0] == 0.0
            assert list(spec.times) == sorted(spec.times)

    def test_p_temporal_zero_disables_the_axis(self):
        space = ScenarioSpace(p_temporal=0.0)
        assert all(
            generate_scenario(seed, space).temporal is None
            for seed in range(10)
        )

    def test_document_round_trip_preserves_temporal(self):
        scenario = eligible_scenario()
        rebuilt = Scenario.from_document(scenario.to_document())
        assert rebuilt.temporal == scenario.temporal

    def test_documents_without_temporal_stay_loadable(self):
        scenario = eligible_scenario()
        document = scenario.to_document()
        del document["temporal"]  # pre-temporal corpus entries
        assert Scenario.from_document(document).temporal is None


class TestOracle:
    def test_healthy_scenario_passes(self):
        scenario = eligible_scenario()
        report = check_scenario(
            scenario, backends=INTERP_ONLY, temporal=True, config=FAST_CONFIG
        )
        assert report.temporal_checked
        assert report.ok, report.summary()

    def test_scenarios_without_spec_are_not_checked(self):
        scenario = generate_scenario(0, ScenarioSpace(p_temporal=0.0))
        report = check_scenario(
            scenario, backends=INTERP_ONLY, temporal=True, config=FAST_CONFIG
        )
        assert not report.temporal_checked
        assert report.ok

    def test_pinned_component_skips_the_check(self):
        scenario = eligible_scenario()
        probs = dict(scenario.failure_probs)
        probs[next(iter(probs))] = 1.0
        pinned = dataclasses.replace(scenario, failure_probs=probs)
        report = check_scenario(
            pinned, backends=INTERP_ONLY, temporal=True, config=FAST_CONFIG
        )
        assert not report.temporal_checked


def _buggy_transient_distribution(
    chain, initial, t, *, tolerance=1e-12, max_terms=1_000_000
):
    """Injected uniformization bug: the Poisson series is truncated
    after k = 1 and the remainder is silently discarded."""
    states = chain.states
    vector = chain.initial_vector(initial)
    if t == 0 or len(states) == 1:
        return {s: float(vector[i]) for i, s in enumerate(states)}
    q = chain.generator()
    lam = float(np.max(-np.diag(q)))
    if lam == 0.0:
        return {s: float(vector[i]) for i, s in enumerate(states)}
    p_matrix = np.eye(len(states)) + q / lam
    lt = lam * t
    result = np.exp(-lt) * vector + np.exp(-lt) * lt * (vector @ p_matrix)
    return {s: float(result[i]) for i, s in enumerate(states)}


class TestMutation:
    def test_uniformization_bug_is_caught(self, monkeypatch):
        scenario = eligible_scenario()
        import repro.markov.uniformization as uniformization

        monkeypatch.setattr(
            uniformization,
            "transient_distribution",
            _buggy_transient_distribution,
        )
        report = check_scenario(
            scenario, backends=INTERP_ONLY, temporal=True, config=FAST_CONFIG
        )
        assert report.temporal_checked
        flagged = [
            d for d in report.disagreements if d.backend == "uniformization"
        ]
        assert flagged, "temporal oracle missed the injected bug"
        assert all(d.kind == "temporal" for d in flagged)
        assert max(d.magnitude for d in flagged) > 1e-3

    def test_same_scenario_passes_with_healthy_solver(self):
        # Attribution: the detection above is the injected bug's doing.
        scenario = eligible_scenario()
        report = check_scenario(
            scenario, backends=INTERP_ONLY, temporal=True, config=FAST_CONFIG
        )
        assert report.ok, report.summary()


class TestFuzzWiring:
    def test_temporal_cadence_is_recorded(self):
        report = run_fuzz(
            seeds=5,
            sim_every=0,
            temporal_every=1,
            config=FAST_CONFIG,
        )
        assert report.ok
        checked = [o.seed for o in report.outcomes if o.temporal_checked]
        # Every seed requested the check; only scenarios that carry an
        # eligible temporal spec actually ran it.
        assert checked
        eligible = {
            seed
            for seed in range(5)
            if generate_scenario(seed).temporal is not None
            and all(
                p < 1.0
                for p in generate_scenario(seed).failure_probs.values()
            )
        }
        assert set(checked) == eligible
        document = report.as_dict()
        assert document["temporal_checks"] == len(checked)

    def test_temporal_zero_disables_the_check(self):
        report = run_fuzz(
            seeds=3,
            sim_every=0,
            temporal_every=0,
            config=FAST_CONFIG,
        )
        assert all(not o.temporal_checked for o in report.outcomes)
