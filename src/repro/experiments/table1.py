"""Table 1 — configuration probabilities and rewards, perfect knowledge
vs the centralized management architecture (§6.2).

The paper reports six operational configurations C1..C6 plus the failed
configuration, their probabilities under perfect knowledge and under
centralized management, the reward of each (total throughput of both
user groups), and the expected steady-state reward rates (0.85 and
0.55/s in the paper, which use the Table 2 throughput column where
f_B(C3) = f_B(C4) = 0.5; see EXPERIMENTS.md for the paper-internal
inconsistency around that value).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.core import PerformabilityAnalyzer
from repro.core.results import PerformabilityResult
from repro.experiments.architectures import centralized_mama
from repro.experiments.figure1 import figure1_failure_probs, figure1_system

#: Canonical labels of the paper's six operational configurations.
CONFIGURATION_LABELS = ("C1", "C2", "C3", "C4", "C5", "C6")

#: The paper's Table 1 probability columns, for comparison in reports.
PAPER_TABLE1 = {
    "perfect": {
        "C1": 0.125, "C2": 0.024, "C3": 0.125, "C4": 0.024,
        "C5": 0.531, "C6": 0.100, "failed": 0.071,
    },
    "centralized": {
        "C1": 0.117, "C2": 0.021, "C3": 0.117, "C4": 0.021,
        "C5": 0.314, "C6": 0.057, "failed": 0.353,
    },
}

#: Expected reward rates the paper reports for Table 1 (computed with
#: its Table 2 throughput column, i.e. f_B(C3) = f_B(C4) = 0.5).
PAPER_EXPECTED_REWARD = {"perfect": 0.85, "centralized": 0.55}


def classify_configuration(configuration: frozenset[str] | None) -> str:
    """Map a configuration to the paper's C1..C6 / "failed" label.

    C1/C2: only UserA operational (on Server1 / Server2);
    C3/C4: only UserB; C5/C6: both groups (on Server1 / Server2).
    """
    if configuration is None:
        return "failed"
    has_a = "userA" in configuration
    has_b = "userB" in configuration
    on_primary = "eA-1" in configuration or "eB-1" in configuration
    if has_a and has_b:
        return "C5" if on_primary else "C6"
    if has_a:
        return "C1" if on_primary else "C2"
    if has_b:
        return "C3" if on_primary else "C4"
    raise ValueError(f"unclassifiable configuration {sorted(configuration)}")


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    label: str
    probability_perfect: float
    probability_centralized: float
    reward: float


@dataclass(frozen=True)
class Table1:
    """The reproduced Table 1.

    ``expected_perfect`` / ``expected_centralized`` are the expected
    steady-state reward rates with our solver's throughputs.
    """

    rows: tuple[Table1Row, ...]
    expected_perfect: float
    expected_centralized: float
    result_perfect: PerformabilityResult
    result_centralized: PerformabilityResult


def grouped_probabilities(result: PerformabilityResult) -> dict[str, float]:
    """Configuration probabilities keyed by the paper's labels."""
    grouped: dict[str, float] = {}
    for record in result.records:
        label = classify_configuration(record.configuration)
        grouped[label] = grouped.get(label, 0.0) + record.probability
    return grouped


def grouped_rewards(result: PerformabilityResult) -> dict[str, float]:
    """Reward of each labelled configuration (0 for failed)."""
    rewards: dict[str, float] = {}
    for record in result.records:
        rewards[classify_configuration(record.configuration)] = record.reward
    return rewards


def run_table1(*, method: str = "bdd") -> Table1:
    """Reproduce Table 1.

    Solves the Figure 1 system under perfect knowledge and under the
    centralized architecture of Figure 7, with reward = total user
    throughput (w_A = w_B = 1).
    """
    ftlqn = figure1_system()
    result_perfect = PerformabilityAnalyzer(
        ftlqn, None, failure_probs=figure1_failure_probs()
    ).solve(method=method)
    mama = centralized_mama()
    result_centralized = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=figure1_failure_probs(mama)
    ).solve(method=method)

    perfect = grouped_probabilities(result_perfect)
    central = grouped_probabilities(result_centralized)
    rewards: Mapping[str, float] = grouped_rewards(result_centralized)

    rows = [
        Table1Row(
            label=label,
            probability_perfect=perfect.get(label, 0.0),
            probability_centralized=central.get(label, 0.0),
            reward=rewards.get(label, 0.0),
        )
        for label in (*CONFIGURATION_LABELS, "failed")
    ]
    return Table1(
        rows=tuple(rows),
        expected_perfect=result_perfect.expected_reward,
        expected_centralized=result_centralized.expected_reward,
        result_perfect=result_perfect,
        result_centralized=result_centralized,
    )
