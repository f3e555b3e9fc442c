"""Links under a management architecture: observability requirements."""

import pytest

from repro.core import PerformabilityAnalyzer
from repro.errors import ModelError
from repro.ftlqn import FTLQNModel, Request
from repro.mama import centralized_architecture


def linked_platform() -> FTLQNModel:
    m = FTLQNModel(name="linked")
    for p in ("pu", "pa", "p1", "p2"):
        m.add_processor(p)
    m.add_link("wan1")
    m.add_link("wan2")
    m.add_task("users", processor="pu", multiplicity=4, is_reference=True)
    m.add_task("app", processor="pa")
    m.add_task("s1", processor="p1")
    m.add_task("s2", processor="p2")
    m.add_entry("e1", task="s1", demand=1.0, depends_on=["wan1"])
    m.add_entry("e2", task="s2", demand=1.0, depends_on=["wan2"])
    m.add_service("svc", targets=["e1", "e2"])
    m.add_entry("ea", task="app", demand=0.5, requests=[Request("svc")])
    m.add_entry("u", task="users", requests=[Request("ea")])
    return m.validated()


TASKS = {"app": "pa", "s1": "p1", "s2": "p2"}


def test_unmonitored_link_is_rejected_with_guidance():
    mama = centralized_architecture(tasks=TASKS, subscribers=["app"])
    with pytest.raises(ModelError, match="wan1.*wan2|does not cover"):
        PerformabilityAnalyzer(linked_platform(), mama, failure_probs={})


def test_monitored_links_analyse_cleanly():
    mama = centralized_architecture(
        tasks=TASKS, subscribers=["app"], links=["wan1", "wan2"]
    )
    analyzer = PerformabilityAnalyzer(
        linked_platform(), mama,
        failure_probs={"wan1": 0.1, "wan2": 0.1, "m1": 0.1},
    )
    result = analyzer.solve()
    assert result.total_probability() == pytest.approx(1.0)
    # Manager down: the app cannot confirm wan1's state, so even a fully
    # healthy system fails — coverage, not connectivity.
    assert result.failed_probability > 0.1


def test_link_failure_triggers_failover_when_covered():
    mama = centralized_architecture(
        tasks=TASKS, subscribers=["app"], links=["wan1", "wan2"]
    )
    analyzer = PerformabilityAnalyzer(
        linked_platform(), mama, failure_probs={"wan1": 1.0}
    )
    result = analyzer.solve()
    assert len(result.records) == 1
    assert "e2" in result.records[0].configuration


def test_methods_agree_with_links_and_management():
    mama = centralized_architecture(
        tasks=TASKS, subscribers=["app"], links=["wan1", "wan2"]
    )
    analyzer = PerformabilityAnalyzer(
        linked_platform(), mama,
        failure_probs={"wan1": 0.2, "wan2": 0.2, "m1": 0.1,
                       "ag.app": 0.1, "s1": 0.1},
    )
    enumerated = analyzer.configuration_probabilities(method="enumeration")
    symbolic = analyzer.configuration_probabilities(method="bdd")
    assert set(enumerated) == set(symbolic)
    for configuration, probability in enumerated.items():
        assert symbolic[configuration] == pytest.approx(probability, abs=1e-12)
