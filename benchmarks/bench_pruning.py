"""E6 (ablation) — the §7 conjecture: symbolic (BDD) evaluation vs the
2^N scan.

The paper predicts that a non-state-space-based approach can prune the
exponential scan; this ablation measures the speedup of the ``bdd``
backend on the same five cases and on a scaled system with a growing
management architecture, while asserting exact agreement."""

import pytest

from repro.core import PerformabilityAnalyzer
from repro.ftlqn import FTLQNModel, Request
from repro.mama import MAMAModel


@pytest.mark.parametrize(
    "case_name",
    ["perfect", "centralized", "distributed", "hierarchical", "network"],
)
def test_bdd_method(benchmark, figure1, cases, case_name):
    mama, probs = cases[case_name]
    analyzer = PerformabilityAnalyzer(figure1, mama, failure_probs=probs)
    symbolic = benchmark(
        lambda: analyzer.configuration_probabilities(method="bdd")
    )
    enumerated = analyzer.configuration_probabilities(method="enumeration")
    for configuration, probability in enumerated.items():
        assert symbolic[configuration] == pytest.approx(probability, abs=1e-12)


def scaled_system(agents_per_task: int):
    """Figure-1-like system whose centralized architecture is inflated
    with redundant agent chains — state space grows as 2^(8+2+4k)."""
    ftlqn = FTLQNModel(name="scaled")
    for p in ("pu", "pa", "p1", "p2"):
        ftlqn.add_processor(p)
    ftlqn.add_task("users", processor="pu", multiplicity=10, is_reference=True)
    ftlqn.add_task("app", processor="pa")
    ftlqn.add_task("s1", processor="p1")
    ftlqn.add_task("s2", processor="p2")
    ftlqn.add_entry("e1", task="s1", demand=1.0)
    ftlqn.add_entry("e2", task="s2", demand=1.0)
    ftlqn.add_service("svc", targets=["e1", "e2"])
    ftlqn.add_entry("ea", task="app", demand=0.5, requests=[Request("svc")])
    ftlqn.add_entry("u", task="users", requests=[Request("ea")])

    mama = MAMAModel(name="scaled-mgmt")
    for p in ("pa", "p1", "p2", "pm"):
        mama.add_processor(p)
    mama.add_application_task("app", processor="pa")
    mama.add_application_task("s1", processor="p1")
    mama.add_application_task("s2", processor="p2")
    mama.add_manager("mgr", processor="pm")
    probs = {"app": 0.1, "pa": 0.1, "s1": 0.1, "p1": 0.1,
             "s2": 0.1, "p2": 0.1, "mgr": 0.1, "pm": 0.1}
    for server, processor in (("s1", "p1"), ("s2", "p2")):
        for index in range(agents_per_task):
            agent = f"ag.{server}.{index}"
            mama.add_agent(agent, processor=processor)
            mama.add_alive_watch(
                f"w.{agent}", monitored=server, monitor=agent
            )
            mama.add_status_watch(
                f"r.{agent}", monitored=agent, monitor="mgr"
            )
            probs[agent] = 0.1
        mama.add_alive_watch(
            f"w.{processor}", monitored=processor, monitor="mgr"
        )
    mama.add_agent("ag.app", processor="pa")
    mama.add_alive_watch("w.app", monitored="app", monitor="ag.app")
    mama.add_status_watch("r.app", monitored="ag.app", monitor="mgr")
    mama.add_alive_watch("w.pa", monitored="pa", monitor="mgr")
    mama.add_notify("n.mgr", notifier="mgr", subscriber="ag.app")
    mama.add_notify("n.app", notifier="ag.app", subscriber="app")
    probs["ag.app"] = 0.1
    return ftlqn, mama, probs


@pytest.mark.parametrize("agents", [1, 3, 5])
def test_bdd_scales_with_management_size(benchmark, agents):
    ftlqn, mama, probs = scaled_system(agents)
    analyzer = PerformabilityAnalyzer(ftlqn, mama, failure_probs=probs)
    result = benchmark(
        lambda: analyzer.configuration_probabilities(method="bdd")
    )
    assert sum(result.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("agents", [1, 3])
def test_enumeration_scales_exponentially(benchmark, agents):
    ftlqn, mama, probs = scaled_system(agents)
    analyzer = PerformabilityAnalyzer(ftlqn, mama, failure_probs=probs)
    result = benchmark.pedantic(
        lambda: analyzer.configuration_probabilities(method="enumeration"),
        rounds=1,
        iterations=1,
    )
    assert sum(result.values()) == pytest.approx(1.0, abs=1e-9)
