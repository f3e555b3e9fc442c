"""The fuzzer's scenario generator: determinism, coverage, round-trip.

The generator must be deterministic per (seed, space), stay inside the
configured state-space cap, and actually exercise the axes the space
names (perfect components, explicit zero/one probabilities, shared
processors, deep backup chains, unreliable connectors, common causes)
across a modest seed range — otherwise the differential oracle is fed
a narrower distribution than advertised.
"""

import pytest

from repro.errors import ReproError, SerializationError
from repro.verify import (
    DEFAULT_SPACE,
    Scenario,
    ScenarioSpace,
    generate_scenario,
    random_scenario,
)

SAMPLE = [generate_scenario(seed) for seed in range(60)]


def test_generation_is_deterministic():
    for seed in (0, 3, 17):
        first = generate_scenario(seed)
        second = generate_scenario(seed)
        assert first.to_document() == second.to_document()


def test_every_scenario_is_analyzable():
    for scenario in SAMPLE[:20]:
        analyzer = scenario.analyzer()
        probabilities = analyzer.configuration_probabilities(method="bdd")
        assert sum(probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_state_space_cap_holds():
    for scenario in SAMPLE:
        assert scenario.unreliable_count() <= DEFAULT_SPACE.max_state_bits
        assert (
            scenario.analyzer().problem.state_count
            <= 2**DEFAULT_SPACE.max_state_bits
        )


def test_space_axes_are_all_exercised():
    probs = [s.failure_probs for s in SAMPLE]
    assert any(s.mama is None for s in SAMPLE), "no perfect-knowledge draw"
    assert any(s.mama is not None for s in SAMPLE)
    assert any(0.0 in p.values() for p in probs), "no explicit zero"
    assert any(1.0 in p.values() for p in probs), "no pinned-down component"
    assert any(s.common_causes for s in SAMPLE), "no common causes"
    assert any(not s.common_causes for s in SAMPLE)
    # Perfect components: some candidate missing from failure_probs.
    assert any(
        "app" not in p or "pa" not in p for p in probs
    ), "no perfect components"
    # Unreliable connectors (names carry the watch/notify prefixes).
    assert any(
        any(name.startswith(("w.", "r.", "n.")) for name in p) for p in probs
    ), "no unreliable connectors"
    # Deep backup chains and shared server processors.
    assert any("srv3" in s.ftlqn.tasks for s in SAMPLE), "no deep chains"
    assert any(
        len({t.processor for n, t in s.ftlqn.tasks.items() if n.startswith("srv")})
        < sum(1 for n in s.ftlqn.tasks if n.startswith("srv"))
        for s in SAMPLE
    ), "no shared server processors"
    assert any("db" in s.ftlqn.tasks for s in SAMPLE), "no second tier"


def test_space_knobs_change_the_distribution():
    narrow = ScenarioSpace(
        max_backups=0,
        p_perfect_knowledge=1.0,
        p_second_tier=0.0,
        p_common_cause=0.0,
    )
    for seed in range(10):
        scenario = generate_scenario(seed, narrow)
        assert scenario.mama is None
        assert scenario.common_causes == ()
        assert "srv1" not in scenario.ftlqn.tasks
        assert "db" not in scenario.ftlqn.tasks


def test_document_round_trip():
    for scenario in SAMPLE[:10]:
        document = scenario.to_document()
        rebuilt = Scenario.from_document(document)
        assert rebuilt.to_document() == document
        assert rebuilt.seed == scenario.seed
        assert rebuilt.failure_probs == scenario.failure_probs
        assert rebuilt.common_causes == scenario.common_causes


def test_from_document_rejects_malformed_input():
    with pytest.raises(SerializationError):
        Scenario.from_document("not an object")
    with pytest.raises(SerializationError):
        Scenario.from_document({"mama": None})
    good = SAMPLE[0].to_document()
    with pytest.raises(ReproError):
        Scenario.from_document({**good, "failure_probs": [1, 2]})
    with pytest.raises(ReproError):
        Scenario.from_document({**good, "common_causes": ["zap"]})


def test_legacy_generator_unchanged():
    # The historical generator backs committed parity-test IDs; its
    # output for a fixed seed is pinned so relocation cannot drift it.
    ftlqn, mama, failure_probs, causes = random_scenario(7)
    assert ftlqn.name == "rnd-7"
    assert mama.name == "rnd-mgmt-7"
    again = random_scenario(7)
    assert again[2] == failure_probs
    assert again[3] == causes


def test_legacy_shim_still_importable():
    from tests.core.random_models import random_scenario as shimmed

    assert shimmed is random_scenario
