"""Sensitivity of each architecture to management-component reliability.

An ablation the paper motivates but does not plot: §6.2 observes that
"failures in the management architecture increase the probability of
system being failed or of reduced functionality".  Here we quantify it
by sweeping the management failure probability (agents, managers, their
processors) while the application stays at the paper's 0.1, and
recording the expected reward and system-failure probability per
architecture.  At p = 0 every architecture collapses onto the
perfect-knowledge values; the slope near 0 ranks how exposed each
organisation is to its own infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core import ScanCounters, SweepEngine, SweepPoint
from repro.core.progress import ProgressCallback
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system

#: Default sweep of the management-component failure probability.
DEFAULT_PROBABILITIES = (0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3)


@dataclass(frozen=True)
class SensitivityPoint:
    management_probability: float
    expected_reward: float
    failed_probability: float


@dataclass(frozen=True)
class SensitivitySeries:
    architecture: str
    points: tuple[SensitivityPoint, ...]

    def rewards(self) -> list[float]:
        return [point.expected_reward for point in self.points]

    def failure_probabilities(self) -> list[float]:
        return [point.failed_probability for point in self.points]


@dataclass(frozen=True)
class SensitivityReport:
    series: tuple[SensitivitySeries, ...]
    perfect_reward: float
    perfect_failed: float

    def series_for(self, architecture: str) -> SensitivitySeries:
        for entry in self.series:
            if entry.architecture == architecture:
                return entry
        raise KeyError(architecture)


def run_sensitivity(
    *,
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    method: str = "bdd",
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> SensitivityReport:
    """Sweep management failure probability across the architectures.

    Runs on :class:`~repro.core.SweepEngine`, so the fault graph and
    ``know`` table are derived once per architecture and every distinct
    operational configuration is solved by the LQN solver exactly once
    across the whole sweep.  Pass ``counters`` to observe the cache
    effectiveness (``lqn_solves`` vs ``lqn_cache_hits``).
    """
    ftlqn = figure1_system()
    architectures = {
        name: builder() for name, builder in ARCHITECTURE_BUILDERS.items()
    }
    engine = SweepEngine(ftlqn, architectures)

    points = [
        SweepPoint(name="perfect", failure_probs=figure1_failure_probs())
    ]
    for name, mama in architectures.items():
        for index, probability in enumerate(probabilities):
            points.append(
                SweepPoint(
                    name=f"{name}#{index}",
                    architecture=name,
                    failure_probs=figure1_failure_probs(
                        mama, management=probability
                    ),
                )
            )
    sweep = engine.run(
        points, method=method, progress=progress,
        counters=counters,
    )

    perfect = sweep.point("perfect")
    series = []
    for name in architectures:
        series.append(
            SensitivitySeries(
                architecture=name,
                points=tuple(
                    SensitivityPoint(
                        management_probability=probability,
                        expected_reward=entry.expected_reward,
                        failed_probability=entry.failed_probability,
                    )
                    for probability, entry in zip(
                        probabilities, sweep.series(name)
                    )
                ),
            )
        )
    return SensitivityReport(
        series=tuple(series),
        perfect_reward=perfect.expected_reward,
        perfect_failed=perfect.failed_probability,
    )


def format_sensitivity(report: SensitivityReport) -> str:
    """Text rendering of the sweep."""
    probabilities = [
        point.management_probability for point in report.series[0].points
    ]
    lines = [
        "Expected reward vs management failure probability "
        f"(perfect knowledge: {report.perfect_reward:.3f})",
        f"{'architecture':>14}" + "".join(f" {p:>7.2f}" for p in probabilities),
    ]
    for entry in report.series:
        lines.append(
            f"{entry.architecture:>14}"
            + "".join(f" {value:>7.3f}" for value in entry.rewards())
        )
    lines.append(
        "P(system failed) vs management failure probability "
        f"(perfect knowledge: {report.perfect_failed:.3f})"
    )
    for entry in report.series:
        lines.append(
            f"{entry.architecture:>14}"
            + "".join(
                f" {value:>7.3f}" for value in entry.failure_probabilities()
            )
        )
    return "\n".join(lines)
