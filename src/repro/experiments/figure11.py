"""Figure 11 — expected steady-state reward rate versus the weight of
UserB relative to UserA, for the four management architectures (§6.3).

The reward of configuration C_i is R_i = w_A·f_{i,UserA} + w_B·f_{i,UserB};
the figure fixes w_A = 1 and sweeps w_B.  The paper observes that the
expected reward decreases in the order distributed, network,
centralized, hierarchical as w_B grows (the distributed curve depends
on the paper's anomalous distributed probability column — see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core import ScanCounters, SweepEngine, SweepPoint
from repro.core.progress import ProgressCallback
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system

#: Default w_B sweep (w_A is fixed at 1).
DEFAULT_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)


@dataclass(frozen=True)
class Figure11Series:
    """One curve: expected reward rate per w_B value."""

    architecture: str
    weights_b: tuple[float, ...]
    expected_rewards: tuple[float, ...]


@dataclass(frozen=True)
class Figure11:
    """All four curves plus the perfect-knowledge reference."""

    series: tuple[Figure11Series, ...]

    def series_for(self, architecture: str) -> Figure11Series:
        for entry in self.series:
            if entry.architecture == architecture:
                return entry
        raise KeyError(architecture)

    def ordering_at(self, weight_b: float) -> list[str]:
        """Architectures sorted by decreasing expected reward at w_B."""
        values: list[tuple[float, str]] = []
        for entry in self.series:
            if entry.architecture == "perfect":
                continue
            index = entry.weights_b.index(weight_b)
            values.append((entry.expected_rewards[index], entry.architecture))
        values.sort(reverse=True)
        return [name for _, name in values]


def run_figure11(
    *,
    weights_b: Sequence[float] = DEFAULT_WEIGHTS,
    method: str = "bdd",
    include_perfect: bool = True,
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> Figure11:
    """Sweep w_B and compute the expected reward for each architecture.

    Runs on :class:`~repro.core.SweepEngine` as an (architecture ×
    weight) grid.  All the points of one architecture share the same
    failure-probability map, so the state-space scan runs once per
    architecture and every further weight hits the engine's scan cache;
    the LQN solver runs once per distinct configuration across the
    whole grid.  Pass ``counters`` to observe both effects.
    """
    ftlqn = figure1_system()
    architectures = {
        name: builder() for name, builder in ARCHITECTURE_BUILDERS.items()
    }
    engine = SweepEngine(ftlqn, architectures)

    names = (["perfect"] if include_perfect else []) + list(architectures)
    points = [
        SweepPoint(
            name=f"{name}@w{index}",
            architecture=None if name == "perfect" else name,
            failure_probs=figure1_failure_probs(
                architectures.get(name)
            ),
            weights={"UserA": 1.0, "UserB": w_b},
        )
        for name in names
        for index, w_b in enumerate(weights_b)
    ]
    sweep = engine.run(
        points, method=method, progress=progress,
        counters=counters,
    )

    series = [
        Figure11Series(
            architecture=name,
            weights_b=tuple(weights_b),
            expected_rewards=tuple(
                sweep.point(f"{name}@w{index}").expected_reward
                for index in range(len(weights_b))
            ),
        )
        for name in names
    ]
    return Figure11(series=tuple(series))
