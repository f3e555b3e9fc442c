"""The symbolic ``bdd`` backend agrees with 2^N enumeration to 1e-12.

Checked on the paper's cases and, property-style, on randomly generated
small layered systems with randomly wired management architectures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformabilityAnalyzer
from repro.experiments.figure1 import figure1_failure_probs
from repro.ftlqn import FTLQNModel, Request
from repro.mama import MAMAModel


def assert_methods_agree(analyzer):
    enumerated = analyzer.configuration_probabilities(method="enumeration")
    symbolic = analyzer.configuration_probabilities(method="bdd")
    assert set(enumerated) == set(symbolic)
    for configuration, probability in enumerated.items():
        assert symbolic[configuration] == pytest.approx(
            probability, abs=1e-12
        ), configuration
    assert sum(symbolic.values()) == pytest.approx(1.0, abs=1e-9)


class TestPaperCases:
    def test_perfect(self, figure1):
        assert_methods_agree(
            PerformabilityAnalyzer(
                figure1, None, failure_probs=figure1_failure_probs()
            )
        )

    def test_centralized(self, figure1, centralized):
        assert_methods_agree(
            PerformabilityAnalyzer(
                figure1,
                centralized,
                failure_probs=figure1_failure_probs(centralized),
            )
        )

    def test_distributed(self, figure1, distributed):
        assert_methods_agree(
            PerformabilityAnalyzer(
                figure1,
                distributed,
                failure_probs=figure1_failure_probs(distributed),
            )
        )

    def test_network(self, figure1, network):
        assert_methods_agree(
            PerformabilityAnalyzer(
                figure1,
                network,
                failure_probs=figure1_failure_probs(network),
            )
        )

    def test_connector_failures_supported(self, figure1, centralized):
        probs = figure1_failure_probs(centralized)
        probs["c13"] = 0.2  # notify m1 -> ag1 becomes unreliable
        analyzer = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=probs
        )
        assert_methods_agree(analyzer)
        # Losing c13 cuts all of AppA's knowledge: the failed probability
        # must strictly increase versus reliable connectors.
        baseline = PerformabilityAnalyzer(
            figure1, centralized, failure_probs=figure1_failure_probs(centralized)
        )
        degraded = analyzer.configuration_probabilities()[None]
        assert degraded > baseline.configuration_probabilities()[None]


@st.composite
def random_system(draw):
    """A small random 2-tier system plus a random centralized MAMA."""
    backups = draw(st.integers(min_value=1, max_value=2))
    p_app = draw(st.floats(min_value=0.05, max_value=0.5))
    p_server = draw(st.floats(min_value=0.05, max_value=0.5))
    p_mgmt = draw(st.floats(min_value=0.05, max_value=0.5))
    watch_servers_directly = draw(st.booleans())

    ftlqn = FTLQNModel(name="rnd")
    ftlqn.add_processor("pu")
    ftlqn.add_processor("pa")
    ftlqn.add_task("users", processor="pu", multiplicity=3, is_reference=True)
    ftlqn.add_task("app", processor="pa")
    targets = []
    for index in range(backups + 1):
        ftlqn.add_processor(f"ps{index}")
        ftlqn.add_task(f"srv{index}", processor=f"ps{index}")
        ftlqn.add_entry(f"serve{index}", task=f"srv{index}", demand=1.0)
        targets.append(f"serve{index}")
    ftlqn.add_service("svc", targets=targets)
    ftlqn.add_entry("ea", task="app", demand=1.0, requests=[Request("svc")])
    ftlqn.add_entry("u", task="users", requests=[Request("ea")])

    mama = MAMAModel(name="rnd-mgmt")
    for processor in ["pa", "pm"] + [f"ps{i}" for i in range(backups + 1)]:
        mama.add_processor(processor)
    mama.add_application_task("app", processor="pa")
    mama.add_manager("mgr", processor="pm")
    mama.add_agent("ag.app", processor="pa")
    mama.add_alive_watch("w.app", monitored="app", monitor="ag.app")
    mama.add_status_watch("r.app", monitored="ag.app", monitor="mgr")
    mama.add_alive_watch("w.pa", monitored="pa", monitor="mgr")
    for index in range(backups + 1):
        server = f"srv{index}"
        mama.add_application_task(server, processor=f"ps{index}")
        if watch_servers_directly:
            mama.add_alive_watch(
                f"w.{server}", monitored=server, monitor="mgr"
            )
        else:
            mama.add_agent(f"ag.{server}", processor=f"ps{index}")
            mama.add_alive_watch(
                f"w.{server}", monitored=server, monitor=f"ag.{server}"
            )
            mama.add_status_watch(
                f"r.{server}", monitored=f"ag.{server}", monitor="mgr"
            )
        mama.add_alive_watch(
            f"w.ps{index}", monitored=f"ps{index}", monitor="mgr"
        )
    mama.add_notify("n.mgr", notifier="mgr", subscriber="ag.app")
    mama.add_notify("n.app", notifier="ag.app", subscriber="app")

    failure_probs = {"app": p_app, "pa": p_app, "mgr": p_mgmt, "pm": p_mgmt}
    for index in range(backups + 1):
        failure_probs[f"srv{index}"] = p_server
        failure_probs[f"ps{index}"] = p_server
        if not watch_servers_directly:
            failure_probs[f"ag.srv{index}"] = p_mgmt
    failure_probs["ag.app"] = p_mgmt
    return ftlqn, mama, failure_probs


@given(system=random_system())
@settings(max_examples=25, deadline=None)
def test_methods_agree_on_random_systems(system):
    ftlqn, mama, failure_probs = system
    analyzer = PerformabilityAnalyzer(ftlqn, mama, failure_probs=failure_probs)
    assert_methods_agree(analyzer)


@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    q=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=25, deadline=None)
def test_methods_agree_under_extreme_probabilities(figure1_module, p, q):
    from repro.experiments.architectures import centralized_mama

    mama = centralized_mama()
    probs = figure1_failure_probs(mama, application=p, management=q)
    analyzer = PerformabilityAnalyzer(
        figure1_module, mama, failure_probs=probs
    )
    symbolic = analyzer.configuration_probabilities(method="bdd")
    assert sum(symbolic.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def figure1_module():
    from repro.experiments.figure1 import figure1_system

    return figure1_system()
