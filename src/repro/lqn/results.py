"""Result container for the layered solver."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping


@dataclass(frozen=True)
class LQNResults:
    """Solution of a layered queueing network.

    All rates are per second; all times are seconds.

    Attributes
    ----------
    task_throughputs:
        Invocations per second of each task (for reference tasks:
        completed user cycles per second — the paper's user-group
        throughput f).
    entry_throughputs:
        Invocations per second of each entry.
    entry_service_times:
        Mean time an invocation of the entry occupies its task thread,
        including processor queueing and nested blocking calls.
    entry_waiting_times:
        Mean queueing delay a call to the entry spends waiting for a
        free thread of the entry's task, averaged over calling classes.
    task_utilizations:
        Fraction of time each task's threads are busy or blocked
        (averaged over threads).
    processor_utilizations:
        Fraction of time each processor's CPUs are executing (averaged
        over CPUs).
    iterations:
        Outer fixed-point iterations used by the layered solver.
    converged:
        Whether the outer iteration met its tolerance *and* every inner
        submodel AMVA solve converged.
    """

    task_throughputs: Mapping[str, float]
    entry_throughputs: Mapping[str, float]
    entry_service_times: Mapping[str, float]
    entry_waiting_times: Mapping[str, float]
    task_utilizations: Mapping[str, float]
    processor_utilizations: Mapping[str, float]
    iterations: int = 0
    converged: bool = True

    def throughput_of(self, task: str) -> float:
        """Throughput of a task; raises KeyError for unknown names."""
        return self.task_throughputs[task]

    def reference_throughputs(
        self, reference_names: list[str] | None = None
    ) -> dict[str, float]:
        """Throughputs restricted to the given (reference) task names."""
        if reference_names is None:
            return dict(self.task_throughputs)
        return {name: self.task_throughputs[name] for name in reference_names}
