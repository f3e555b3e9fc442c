"""§6.3 state-space sizes and solution costs.

The paper reports, across the five cases, state spaces of 256, 16 384,
65 536, 262 144 and 65 536 states and Java solution times of roughly
0.2, 2, 8, 35 and 8 seconds (Windows 98, Pentium III).  We reproduce the
exact state counts and measure our own wall-clock times for both the
enumerative method and the symbolic ``bdd`` backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import PerformabilityAnalyzer
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.experiments.table2 import CASE_NAMES

#: §6.3: number of states in the solution state space per case.
PAPER_STATE_COUNTS = {
    "perfect": 256,
    "centralized": 16_384,
    "distributed": 65_536,
    "hierarchical": 262_144,
    "network": 65_536,
}

#: §6.3: execution times (seconds) of the authors' Java implementation.
PAPER_TIMES_SECONDS = {
    "perfect": 0.2,
    "centralized": 2.0,
    "distributed": 8.0,
    "hierarchical": 35.0,
    "network": 8.0,
}


@dataclass(frozen=True)
class StateSpaceCase:
    """State count and timings for one case."""

    name: str
    state_count: int
    enumeration_seconds: float
    bdd_seconds: float
    configuration_count: int


@dataclass(frozen=True)
class StateSpaceReport:
    cases: tuple[StateSpaceCase, ...]

    def case(self, name: str) -> StateSpaceCase:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(name)


def run_statespace(*, include_enumeration: bool = True) -> StateSpaceReport:
    """Measure state counts and wall-clock solution times per case."""
    ftlqn = figure1_system()
    builders: dict[str, object] = {"perfect": None}
    builders.update(ARCHITECTURE_BUILDERS)

    cases: list[StateSpaceCase] = []
    for name in CASE_NAMES:
        builder = builders[name]
        mama = builder() if builder is not None else None
        analyzer = PerformabilityAnalyzer(
            ftlqn, mama, failure_probs=figure1_failure_probs(mama)
        )

        start = time.perf_counter()
        symbolic = analyzer.configuration_probabilities(method="bdd")
        bdd_seconds = time.perf_counter() - start

        enumeration_seconds = float("nan")
        if include_enumeration:
            start = time.perf_counter()
            enumerated = analyzer.configuration_probabilities(
                method="enumeration"
            )
            enumeration_seconds = time.perf_counter() - start
            if set(enumerated) != set(symbolic):
                raise AssertionError(
                    f"method disagreement in case {name!r}"
                )

        cases.append(
            StateSpaceCase(
                name=name,
                state_count=analyzer.problem.state_count,
                enumeration_seconds=enumeration_seconds,
                bdd_seconds=bdd_seconds,
                configuration_count=len(symbolic),
            )
        )
    return StateSpaceReport(cases=tuple(cases))
