"""Detection latency study — when the static ranking lies.

The steady-state comparison (Table 2 / :mod:`.selection`) treats
knowledge as instantaneous: a configuration is adopted the moment the
management architecture *could* know about a failure.  Section 7 of the
paper shows knowledge takes time — heartbeat timeouts and notification
chains — and that the loss is architecture-dependent: a deeper
management hierarchy detects later.

This experiment reruns the Figure-1 architecture choice under the
latency-aware temporal objective
(:meth:`~repro.optimize.search.DesignSpaceSearch.temporal_ranking`):
each of the paper's four architectures gets the mean detection latency
its own notification-hop depth implies under one shared heartbeat
protocol (:func:`~repro.core.temporal.architecture_detection_latency`,
hops 3/4/5/4 for centralized/distributed/hierarchical/network), and is
scored by its time-integrated transient reward times the §7 erosion
factor at that latency.

The committed default heartbeat (period 0.1, 2 misses, hop delay 0.2)
*flips the ranking*: the network architecture wins statically (two
independent intermediary paths beat the centralized manager's single
point of failure), but its extra notification hop costs enough reward
under erosion that the centralized architecture comes out on top —
the tests pin both orders.  With ``hop_delay=0`` every architecture
pays the same heartbeat timeout and the static order survives, which
the study exposes as a control.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ScanCounters
from repro.core.progress import ProgressCallback
from repro.core.temporal import time_grid
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import (
    MANAGEMENT_FAILURE_PROBABILITY,
    figure1_failure_probs,
    figure1_system,
)
from repro.optimize import DesignSpace, DesignSpaceSearch
from repro.optimize.search import TemporalRankingResult
from repro.sim.heartbeat import HeartbeatConfig

#: The deciding tasks of the Figure-1 system (the ones whose knowledge
#: expressions gate failover — see ``required_know_pairs``).
DECIDING_TASKS = {"AppA": "proc1", "AppB": "proc2"}

#: The committed flip scenario: a fast heartbeat with a noticeable
#: per-hop propagation delay.  Mean latencies come out to 0.75
#: (centralized, 3 hops), 0.95 (distributed and network, 4 hops) and
#: 1.15 (hierarchical, 5 hops) — steep enough on the erosion curve
#: that the network architecture's static win evaporates.
DEFAULT_HEARTBEAT = HeartbeatConfig(period=0.1, misses=2, hop_delay=0.2)

#: Transient grid: by t = 20 every component process is within 1e-8 of
#: steady state, so the integral is dominated by the regime the static
#: model describes — the flip is the erosion factor's doing, not a
#: short-horizon artifact.
DEFAULT_TIMES = time_grid(20.0, 9)


def latency_space() -> DesignSpace:
    """The four paper architectures as explicit candidates (no
    generated baseline: the study compares latencies, and the
    no-management candidate has no latency to speak of)."""
    return DesignSpace(
        figure1_system(),
        tasks=DECIDING_TASKS,
        topologies=(),
        management_failure_prob=MANAGEMENT_FAILURE_PROBABILITY,
        base_failure_probs=figure1_failure_probs(),
        explicit={
            name: builder() for name, builder in ARCHITECTURE_BUILDERS.items()
        },
    )


@dataclass(frozen=True)
class DetectionLatencyReport:
    """The temporal-vs-static architecture comparison."""

    result: TemporalRankingResult
    heartbeat: HeartbeatConfig

    @property
    def flipped(self) -> bool:
        return self.result.flipped

    def ranking(self) -> list[str]:
        return [entry.name for entry in self.result.ranking()]

    def static_ranking(self) -> list[str]:
        return [entry.name for entry in self.result.static_ranking()]

    def to_json_dict(self) -> dict:
        document = self.result.to_json_dict()
        document["heartbeat"] = {
            "period": self.heartbeat.period,
            "misses": self.heartbeat.misses,
            "hop_delay": self.heartbeat.hop_delay,
        }
        return document


def run_detection_latency(
    *,
    heartbeat: HeartbeatConfig = DEFAULT_HEARTBEAT,
    times=DEFAULT_TIMES,
    repair_rate: float = 1.0,
    method: str = "bdd",
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> DetectionLatencyReport:
    """Rank the paper's architectures under heartbeat-derived latency.

    All candidates share one sweep engine, so the static rewards in the
    report are bit-identical to :mod:`.selection` on the same scenario.
    """
    search = DesignSpaceSearch(
        latency_space(), method=method, progress=progress,
        counters=counters,
    )
    result = search.temporal_ranking(
        times, heartbeat=heartbeat, repair_rate=repair_rate,
    )
    return DetectionLatencyReport(result=result, heartbeat=heartbeat)


def format_detection_latency(report: DetectionLatencyReport) -> str:
    """Text rendering of the latency-aware comparison."""
    heartbeat = report.heartbeat
    lines = [
        "Detection latency on the Figure-1 architecture choice "
        f"(heartbeat period {heartbeat.period:g}, "
        f"{heartbeat.misses} misses, hop delay {heartbeat.hop_delay:g})",
        f"{'candidate':>14} {'latency':>8} {'static':>8} "
        f"{'integral':>9} {'erosion':>8} {'effective':>10}",
    ]
    for entry in report.result.ranking():
        lines.append(
            f"{entry.name:>14} {entry.latency:8.3f} "
            f"{entry.static_reward:8.4f} {entry.reward_integral:9.4f} "
            f"{entry.erosion_factor:8.4f} {entry.effective_reward:10.4f}"
        )
    static = " > ".join(report.static_ranking())
    temporal = " > ".join(report.ranking())
    lines.append(f"static ranking:   {static}")
    lines.append(f"temporal ranking: {temporal}")
    lines.append(
        "ranking FLIPPED under detection latency"
        if report.flipped
        else "ranking unchanged under detection latency"
    )
    return "\n".join(lines)
