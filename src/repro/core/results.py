"""Result containers for performability analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.core.progress import ScanCounters


@dataclass(frozen=True)
class ConfigurationRecord:
    """One distinct operational configuration with its statistics.

    Attributes
    ----------
    configuration:
        The frozenset of in-use entry/service node names; ``None`` for
        the system-failed configuration.
    probability:
        Steady-state probability of the system operating in this
        configuration.
    reward:
        Reward rate assigned to the configuration (0 for failed).
    throughputs:
        Per-reference-task throughput in this configuration (empty for
        failed).
    converged:
        Whether the configuration's LQN solve met its tolerance.  An
        unconverged solution still contributes its (approximate) reward
        to the expectation, but is flagged here and counted in
        :attr:`~repro.core.progress.ScanCounters.lqn_unconverged`.
        Always True for the failed configuration (no solve needed).
    """

    configuration: frozenset[str] | None
    probability: float
    reward: float
    throughputs: Mapping[str, float] = field(default_factory=dict)
    converged: bool = True

    @property
    def is_failed(self) -> bool:
        return self.configuration is None

    def label(self) -> str:
        """Human-readable single-line description."""
        if self.configuration is None:
            return "System Failed"
        return "{" + ", ".join(sorted(self.configuration)) + "}"

    def to_dict(self) -> dict:
        """Canonical JSON form (sorted component list, ``None`` for the
        failed configuration) — the schema shared by sweep exports and
        campaign-store rows."""
        return {
            "configuration": (
                sorted(self.configuration)
                if self.configuration is not None
                else None
            ),
            "probability": float(self.probability),
            "reward": float(self.reward),
            "throughputs": {
                task: float(value)
                for task, value in sorted(self.throughputs.items())
            },
            "converged": bool(self.converged),
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "ConfigurationRecord":
        """Rebuild a record from :meth:`to_dict` output (exact floats:
        JSON round-trips IEEE doubles via shortest-repr)."""
        configuration = document["configuration"]
        return cls(
            configuration=(
                None if configuration is None
                else frozenset(str(name) for name in configuration)
            ),
            probability=float(document["probability"]),
            reward=float(document["reward"]),
            throughputs={
                str(task): float(value)
                for task, value in document.get("throughputs", {}).items()
            },
            converged=bool(document.get("converged", True)),
        )


@dataclass(frozen=True)
class PerformabilityResult:
    """Full output of :class:`repro.core.PerformabilityAnalyzer`.

    Attributes
    ----------
    records:
        One record per distinct configuration (failed included), sorted
        by decreasing probability with the failed record last.
    expected_reward:
        Σ_i R_i · Prob(C_i) — the paper's performability measure.
    state_count:
        Size of the state space scanned (2^N; the symbolic backend
        covers the same space without visiting it).
    method:
        Canonical scan method name, e.g. ``"bdd"`` or ``"enumeration"``.
    counters:
        Instrumentation filled during :meth:`PerformabilityAnalyzer
        .solve` (states visited, cache hits, per-phase wall time); see
        :class:`repro.core.progress.ScanCounters`.  ``None`` when the
        result was constructed without instrumentation.
    unexplored_probability:
        Probability mass of states the scan did not visit — 0.0 for
        every exact backend, and the rigorous leftover bound for the
        ``bounded`` backend (at most its ε).
    reward_lower / reward_upper:
        Rigorous bounds on the exact expected reward.  Exact backends
        report the point value for both; the ``bounded`` backend
        reports ``expected_reward`` (the enumerated-mass contribution;
        unexplored states counted as reward 0) as the lower bound and
        ``expected_reward + unexplored_probability · R_max`` as the
        upper, where ``R_max`` bounds any single configuration's reward
        (see ``PerformabilityAnalyzer.evaluate_probabilities``).
    """

    records: tuple[ConfigurationRecord, ...]
    expected_reward: float
    state_count: int
    method: str
    counters: ScanCounters | None = None
    unexplored_probability: float = 0.0
    reward_lower: float | None = None
    reward_upper: float | None = None

    @property
    def reward_interval(self) -> tuple[float, float]:
        """``[lower, upper]`` bounds on the exact expected reward.

        Collapses to ``(expected_reward, expected_reward)`` for exact
        backends; for the ``bounded`` backend the exact value is
        guaranteed to lie inside, and the width shrinks monotonically
        with the backend's ε.
        """
        if self.reward_lower is None or self.reward_upper is None:
            return (self.expected_reward, self.expected_reward)
        return (self.reward_lower, self.reward_upper)

    @property
    def failed_probability(self) -> float:
        """Probability that the system is not operational."""
        for record in self.records:
            if record.is_failed:
                return record.probability
        return 0.0

    @property
    def operational_records(self) -> tuple[ConfigurationRecord, ...]:
        return tuple(r for r in self.records if not r.is_failed)

    @property
    def unconverged_records(self) -> tuple[ConfigurationRecord, ...]:
        """Records whose LQN solution did not meet its tolerance."""
        return tuple(r for r in self.records if not r.converged)

    def probability_of(self, configuration: frozenset[str] | None) -> float:
        """Probability of one configuration (0.0 if never reached)."""
        for record in self.records:
            if record.configuration == configuration:
                return record.probability
        return 0.0

    def total_probability(self) -> float:
        """Sanity measure: 1 up to rounding for exact backends, and
        ``1 - unexplored_probability`` for the ``bounded`` backend."""
        return sum(record.probability for record in self.records)

    def average_throughput(self, task: str) -> float:
        """Probability-weighted mean throughput of a reference task.

        Reproduces the paper's "Average UserA/UserB throughput" rows.
        """
        return sum(
            record.probability * record.throughputs.get(task, 0.0)
            for record in self.records
        )

    def to_dict(self) -> dict:
        """Canonical JSON form carrying full fidelity (records,
        counters, reward interval) so a stored result reconstructs
        exactly — the campaign store's row payload."""
        return {
            "records": [record.to_dict() for record in self.records],
            "expected_reward": float(self.expected_reward),
            "state_count": int(self.state_count),
            "method": self.method,
            "counters": (
                None if self.counters is None else self.counters.to_dict()
            ),
            "unexplored_probability": float(self.unexplored_probability),
            "reward_lower": (
                None if self.reward_lower is None else float(self.reward_lower)
            ),
            "reward_upper": (
                None if self.reward_upper is None else float(self.reward_upper)
            ),
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "PerformabilityResult":
        """Rebuild a result from :meth:`to_dict` output.  Records keep
        their serialized order, so re-folding the expected reward from
        a round-tripped result is bit-identical.  The ``"jobs"`` key of
        documents written while the scan had a worker count is
        ignored."""
        counters_doc = document.get("counters")
        return cls(
            records=tuple(
                ConfigurationRecord.from_dict(entry)
                for entry in document["records"]
            ),
            expected_reward=float(document["expected_reward"]),
            state_count=int(document["state_count"]),
            method=str(document["method"]),
            counters=(
                None if counters_doc is None
                else ScanCounters.from_dict(counters_doc)
            ),
            unexplored_probability=float(
                document.get("unexplored_probability", 0.0)
            ),
            reward_lower=(
                None if document.get("reward_lower") is None
                else float(document["reward_lower"])
            ),
            reward_upper=(
                None if document.get("reward_upper") is None
                else float(document["reward_upper"])
            ),
        )
