"""Table 2 — configurations, probabilities and throughputs for the five
cases (§6.3): perfect knowledge plus the four management architectures.

For each case the paper lists the probability of the six operational
configurations and the failed configuration, the per-configuration user
throughputs (f_UserA, f_UserB), and the probability-weighted average
throughput of each user group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import PerformabilityAnalyzer
from repro.core.results import PerformabilityResult
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.experiments.table1 import (
    CONFIGURATION_LABELS,
    classify_configuration,
    grouped_probabilities,
)

#: Case names in the paper's column order.
CASE_NAMES = ("perfect", "centralized", "distributed", "hierarchical", "network")

#: The paper's Table 2 probability columns (for reports and tests).
#: The distributed column is reproduced here as published even though it
#: is internally inconsistent with Definition 1 — see EXPERIMENTS.md.
PAPER_TABLE2 = {
    "perfect": {
        "C1": 0.125, "C2": 0.024, "C3": 0.125, "C4": 0.024,
        "C5": 0.531, "C6": 0.100, "failed": 0.071,
    },
    "centralized": {
        "C1": 0.117, "C2": 0.021, "C3": 0.117, "C4": 0.021,
        "C5": 0.314, "C6": 0.057, "failed": 0.353,
    },
    "distributed": {
        "C1": 0.082, "C2": 0.041, "C3": 0.307, "C4": 0.036,
        "C5": 0.349, "C6": 0.046, "failed": 0.139,
    },
    "hierarchical": {
        "C1": 0.225, "C2": 0.014, "C3": 0.076, "C4": 0.014,
        "C5": 0.206, "C6": 0.037, "failed": 0.428,
    },
    "network": {
        "C1": 0.148, "C2": 0.026, "C3": 0.148, "C4": 0.026,
        "C5": 0.282, "C6": 0.049, "failed": 0.321,
    },
}

#: The paper's average-throughput rows (bottom of Table 2).
PAPER_AVERAGE_THROUGHPUT = {
    "perfect": {"UserA": 0.352, "UserB": 0.572},
    "centralized": {"UserA": 0.232, "UserB": 0.387},
    "distributed": {"UserA": 0.235, "UserB": 0.608},
    "hierarchical": {"UserA": 0.226, "UserB": 0.253},
    "network": {"UserA": 0.233, "UserB": 0.396},
}


@dataclass(frozen=True)
class Table2Case:
    """One column of Table 2."""

    name: str
    probabilities: dict[str, float]
    average_throughput_a: float
    average_throughput_b: float
    expected_reward: float
    result: PerformabilityResult


@dataclass(frozen=True)
class Table2:
    """The reproduced Table 2.

    ``throughputs`` maps each configuration label to the
    (f_UserA, f_UserB) pair from our LQN solver — identical across
    cases, as in the paper.
    """

    cases: tuple[Table2Case, ...]
    throughputs: dict[str, tuple[float, float]]

    def case(self, name: str) -> Table2Case:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(name)


def run_table2(*, method: str = "bdd") -> Table2:
    """Reproduce Table 2 across the five cases."""
    ftlqn = figure1_system()
    cases: list[Table2Case] = []
    throughputs: dict[str, tuple[float, float]] = {}

    builders: dict[str, object] = {"perfect": None}
    builders.update(ARCHITECTURE_BUILDERS)

    for name in CASE_NAMES:
        builder = builders[name]
        mama = builder() if builder is not None else None
        analyzer = PerformabilityAnalyzer(
            ftlqn, mama, failure_probs=figure1_failure_probs(mama)
        )
        result = analyzer.solve(method=method)
        probabilities = grouped_probabilities(result)
        for record in result.records:
            label = classify_configuration(record.configuration)
            if label != "failed" and label not in throughputs:
                throughputs[label] = (
                    record.throughputs.get("UserA", 0.0),
                    record.throughputs.get("UserB", 0.0),
                )
        cases.append(
            Table2Case(
                name=name,
                probabilities={
                    label: probabilities.get(label, 0.0)
                    for label in (*CONFIGURATION_LABELS, "failed")
                },
                average_throughput_a=result.average_throughput("UserA"),
                average_throughput_b=result.average_throughput("UserB"),
                expected_reward=result.expected_reward,
                result=result,
            )
        )
    return Table2(cases=tuple(cases), throughputs=throughputs)
