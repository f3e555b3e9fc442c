"""Temporal analysis mode: transient performability and coverage erosion.

The steady-state pipeline answers "what fraction of time, eventually";
this module wires the :mod:`repro.markov` layer into the same machinery
to answer the two temporal questions a fault-management architecture is
actually built for:

* **How does reward evolve after a clean start?**  Component
  failure/repair processes are independent 2-state chains, so the joint
  transient distribution is product form: starting all-up, component
  *c* is down at time *t* with probability
  ``u_c(t) = λ/(λ+μ) · (1 − e^{−(λ+μ)t})``.  The *exact* configuration
  probabilities at time *t* are therefore a static coverage scan at the
  time-indexed failure probabilities — no state-space blow-up, every
  scan backend (interp/bits/bdd/bounded) works unchanged, and
  a shared :class:`~repro.core.sweep.SweepEngine` collapses the LQN
  work to one solve per *distinct configuration across the whole
  curve*.  The ``t → ∞`` point is evaluated at the exact steady-state
  unavailabilities, so it is bit-identical to the static analysis
  through the same engine.

* **What does detection latency cost?**  The §7 detection-delay
  Markov-reward model (:func:`repro.markov.detection
  .detection_delay_model`) yields an *erosion curve*: expected reward
  vs. mean detection latency, normalized by the instantaneous-detection
  baseline.  Combined multiplicatively with the time-integrated reward
  (the two effects are separable because knowledge latency is modeled
  under perfect knowledge, orthogonal to the coverage axis), this gives
  the latency-aware ranking objective the optimizer uses.

Per-architecture latencies need not be guessed: :func:`notification_hops`
derives the worst-case notify-chain depth from the MAMA connector graph
and :func:`architecture_detection_latency` folds it into a heartbeat
protocol's closed-form mean latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Callable, Mapping, Sequence

from typing import TYPE_CHECKING

from repro.core.bounded import DEFAULT_EPSILON
from repro.core.dependency import CommonCause
from repro.core.progress import ProgressCallback, ScanCounters
from repro.core.sweep import SweepEngine, SweepPoint, SweepPointResult
from repro.errors import ModelError
from repro.ftlqn.model import FTLQNModel
from repro.mama.model import ConnectorKind, MAMAModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.markov.availability import ComponentAvailability

# The markov layer imports repro.core.performability at module import
# time, and this module is imported from core/__init__ — importing
# markov eagerly here would close an import cycle that breaks
# ``import repro.markov``.  The three markov entry points are therefore
# imported lazily inside the methods that use them.


def _format_time(t: float) -> str:
    return "inf" if math.isinf(t) else repr(float(t))


@dataclass(frozen=True)
class TemporalPoint:
    """System snapshot at one time along the transient curve."""

    time: float
    expected_reward: float
    failed_probability: float
    scan_cached: bool
    failure_probs: Mapping[str, float]

    @property
    def availability(self) -> float:
        """P(system operational at this time)."""
        return 1.0 - self.failed_probability

    def to_dict(self) -> dict:
        return {
            "time": float(self.time),
            "expected_reward": float(self.expected_reward),
            "failed_probability": float(self.failed_probability),
            "availability": float(self.availability),
            "scan_cached": bool(self.scan_cached),
            "failure_probs": {
                name: float(value)
                for name, value in sorted(self.failure_probs.items())
            },
        }


@dataclass(frozen=True)
class TemporalResult:
    """A transient curve plus its interval aggregates.

    ``interval_availability`` and ``time_averaged_reward`` are trapezoid
    integrals over ``horizon = (times[0], times[-1])`` divided by its
    length; ``reward_integral`` is the un-normalized integral (the
    optimizer's time-integrated reward).  ``steady`` is the ``t → ∞``
    point, evaluated at the exact steady-state unavailabilities — it
    matches the static analysis bit-for-bit through the shared engine.
    """

    architecture: str | None
    method: str
    points: tuple[TemporalPoint, ...]
    steady: SweepPointResult
    reward_integral: float
    interval_availability: float
    time_averaged_reward: float
    horizon: tuple[float, float]

    def point(self, time: float) -> TemporalPoint:
        for entry in self.points:
            if entry.time == time:
                return entry
        raise KeyError(time)

    def to_json_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "method": self.method,
            "horizon": [float(self.horizon[0]), float(self.horizon[1])],
            "reward_integral": float(self.reward_integral),
            "interval_availability": float(self.interval_availability),
            "time_averaged_reward": float(self.time_averaged_reward),
            "steady_state": {
                "expected_reward": float(self.steady.expected_reward),
                "failed_probability": float(self.steady.failed_probability),
            },
            "points": [entry.to_dict() for entry in self.points],
        }


@dataclass(frozen=True)
class ErosionPoint:
    """Detection-delay model solution at one mean latency."""

    latency: float
    detection_rate: float
    expected_reward: float
    instantaneous_reward: float
    stale_probability: float
    state_count: int

    @property
    def erosion_factor(self) -> float:
        """Fraction of the instantaneous-detection reward retained."""
        if self.instantaneous_reward == 0.0:
            return 1.0
        return self.expected_reward / self.instantaneous_reward

    def to_dict(self) -> dict:
        return {
            "latency": float(self.latency),
            "detection_rate": float(self.detection_rate),
            "expected_reward": float(self.expected_reward),
            "instantaneous_reward": float(self.instantaneous_reward),
            "erosion_factor": float(self.erosion_factor),
            "stale_probability": float(self.stale_probability),
            "state_count": int(self.state_count),
        }


@dataclass(frozen=True)
class EffectiveReward:
    """Separable latency-aware objective: integral × erosion factor."""

    reward_integral: float
    erosion: ErosionPoint

    @property
    def value(self) -> float:
        return self.reward_integral * self.erosion.erosion_factor


def time_grid(horizon: float, points: int) -> tuple[float, ...]:
    """Evenly spaced grid ``0, …, horizon`` with ``points`` entries."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ModelError(f"horizon must be positive, got {horizon!r}")
    if points < 2:
        raise ModelError(f"need at least 2 grid points, got {points}")
    step = horizon / (points - 1)
    return tuple(index * step for index in range(points))


def notification_hops(mama: MAMAModel | None) -> int:
    """Worst-case knowledge-propagation depth of an architecture.

    A component failure is first observed by its watcher (the heartbeat
    timeout itself — not a hop); from there knowledge spreads along the
    propagation edges of the MAMA: a NOTIFY connector pushes it from
    notifier to subscriber, and a STATUS_WATCH connector lets the
    watching monitor pick it up from the watched one.  The returned
    value is the maximum, over all watching monitors, of the longest
    shortest-path (in propagation edges) from that monitor to anything
    it can reach — the number of hops before the *last* interested
    party learns of the failure.  For the paper's four architectures
    this yields 3 (centralized, agents polled by one manager), 4
    (distributed, peer managers forward across domains), 4 (network,
    one intermediary layer on every path) and 5 (hierarchical, up to
    the manager-of-managers and back down).  Perfect knowledge
    (``mama is None``) has depth 0.
    """
    if mama is None:
        return 0
    edges: dict[str, list[str]] = {}
    monitors: set[str] = set()
    for connector in mama.connectors.values():
        if connector.kind is not ConnectorKind.ALIVE_WATCH:
            # NOTIFY: source pushes to target.  STATUS_WATCH: target
            # polls source — either way knowledge moves source → target.
            edges.setdefault(connector.source, []).append(connector.target)
        if connector.kind is not ConnectorKind.NOTIFY:
            monitors.add(connector.target)
    worst = 0
    for monitor in monitors:
        # BFS eccentricity of the monitor in the propagation digraph.
        distance = {monitor: 0}
        frontier = [monitor]
        while frontier:
            next_frontier = []
            for node in frontier:
                for successor in edges.get(node, ()):
                    if successor not in distance:
                        distance[successor] = distance[node] + 1
                        next_frontier.append(successor)
            frontier = next_frontier
        worst = max(worst, max(distance.values()))
    return worst


def architecture_detection_latency(mama: MAMAModel | None, heartbeat) -> float:
    """Mean detection latency of an architecture under a heartbeat
    protocol: the closed-form heartbeat latency with the hop count
    replaced by the MAMA's :func:`notification_hops`."""
    from repro.sim.heartbeat import mean_detection_latency

    return mean_detection_latency(
        replace(heartbeat, hops=notification_hops(mama))
    )


class TemporalAnalyzer:
    """Time-dependent performability over a shared sweep engine.

    Parameters
    ----------
    ftlqn:
        The layered performance model.
    architectures:
        Mapping of architecture key → MAMA model (as for
        :class:`~repro.core.sweep.SweepEngine`).  Ignored when an
        ``engine`` is injected, except that any architectures it names
        are registered on the injected engine.
    rates:
        Per-component failure/repair rates.  Use
        :meth:`ComponentAvailability.from_probability` to lift an
        existing static scenario (the steady-state unavailability then
        equals the original probability, so ``t → ∞`` reproduces the
        static analysis exactly).
    common_causes:
        Common-cause events at their *steady-state* probabilities; each
        is transient-ized with ``cause_repair_rate`` so the whole
        scenario starts all-up at ``t = 0``.
    weights:
        Reward weights (per reference task) applied to every point;
        ``None`` keeps the engine's base reward.
    engine:
        An existing (warm) :class:`SweepEngine` to reuse — the service
        passes its per-model engine here so temporal requests share the
        LQN/scan caches with everything else.  Must wrap the same
        ``ftlqn``.
    """

    def __init__(
        self,
        ftlqn: FTLQNModel,
        architectures: Mapping[str, MAMAModel] | None = None,
        *,
        rates: Mapping[str, ComponentAvailability],
        common_causes: Sequence[CommonCause] = (),
        cause_repair_rate: float = 1.0,
        weights: Mapping[str, float] | None = None,
        engine: SweepEngine | None = None,
        lqn_solver=None,
    ):
        from repro.markov.availability import ComponentAvailability

        self._ftlqn = ftlqn
        self._rates = dict(rates)
        self._weights = dict(weights) if weights is not None else None
        self._causes = tuple(common_causes)
        self._cause_rates = {
            cause.name: ComponentAvailability.from_probability(
                cause.probability, repair_rate=cause_repair_rate
            )
            for cause in self._causes
        }
        if engine is None:
            engine = SweepEngine(
                ftlqn, architectures, lqn_solver=lqn_solver
            )
        elif architectures:
            for key, mama in architectures.items():
                engine.add_architecture(key, mama)
        self.engine = engine

    @property
    def rates(self) -> Mapping[str, ComponentAvailability]:
        return dict(self._rates)

    def probabilities_at(self, t: float) -> dict[str, float]:
        """Exact per-component down probabilities at time ``t`` (the
        steady-state unavailabilities at ``t = inf``)."""
        from repro.markov.transient import transient_unavailability

        if math.isinf(t):
            return {
                name: availability.unavailability
                for name, availability in self._rates.items()
            }
        return {
            name: transient_unavailability(availability, t)
            for name, availability in self._rates.items()
        }

    def _causes_at(self, t: float) -> tuple[CommonCause, ...]:
        from repro.markov.transient import transient_unavailability

        if math.isinf(t):
            return self._causes
        return tuple(
            replace(
                cause,
                probability=transient_unavailability(
                    self._cause_rates[cause.name], t
                ),
            )
            for cause in self._causes
        )

    def point_for(self, t: float, architecture: str | None) -> SweepPoint:
        """The sweep point encoding the system at time ``t``."""
        if not (t >= 0):  # also rejects NaN
            raise ModelError(f"time must be >= 0, got {t!r}")
        return SweepPoint(
            name=f"t={_format_time(t)}",
            architecture=architecture,
            failure_probs=self.probabilities_at(t),
            common_causes=self._causes_at(t),
            weights=self._weights,
        )

    def _solve(
        self,
        point: SweepPoint,
        *,
        method: str,
        epsilon: float,
        progress: ProgressCallback | None,
        counters: ScanCounters,
    ) -> SweepPointResult:
        return self.engine.run(
            [point],
            method=method,
            epsilon=epsilon,
            progress=progress,
            counters=counters,
        ).points[0]

    def steady_state(
        self,
        *,
        architecture: str | None = None,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> SweepPointResult:
        """The ``t → ∞`` solve — identical to the static analysis."""
        return self._solve(
            self.point_for(float("inf"), architecture),
            method=method,
            epsilon=epsilon,
            progress=progress,
            counters=counters if counters is not None else ScanCounters(),
        )

    def evaluate(
        self,
        times: Sequence[float],
        *,
        architecture: str | None = None,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
        on_point: Callable[[TemporalPoint], None] | None = None,
    ) -> TemporalResult:
        """Transient curve over a strictly increasing time grid.

        ``on_point`` (if given) is called with each
        :class:`TemporalPoint` as soon as it is solved — the service
        streams NDJSON lines from it.
        """
        times = [float(t) for t in times]
        if len(times) < 2:
            raise ModelError("need at least 2 time points")
        for earlier, later in zip(times, times[1:]):
            if not earlier < later:
                raise ModelError(
                    f"times must be strictly increasing, "
                    f"got {earlier!r} before {later!r}"
                )
        if not (math.isfinite(times[0]) and times[0] >= 0):
            raise ModelError(f"times must start >= 0, got {times[0]!r}")
        if not math.isfinite(times[-1]):
            raise ModelError("times must be finite (steady state is "
                             "reported separately)")
        if counters is None:
            counters = ScanCounters()

        points: list[TemporalPoint] = []
        for t in times:
            solved = self._solve(
                self.point_for(t, architecture),
                method=method,
                epsilon=epsilon,
                progress=progress,
                counters=counters,
            )
            entry = TemporalPoint(
                time=t,
                expected_reward=solved.expected_reward,
                failed_probability=solved.failed_probability,
                scan_cached=solved.scan_cached,
                failure_probs=solved.failure_probs,
            )
            points.append(entry)
            if on_point is not None:
                on_point(entry)
        steady = self.steady_state(
            architecture=architecture,
            method=method,
            epsilon=epsilon,
            progress=progress,
            counters=counters,
        )

        span = times[-1] - times[0]
        reward_integral = _trapezoid(
            times, [entry.expected_reward for entry in points]
        )
        availability_integral = _trapezoid(
            times, [entry.availability for entry in points]
        )
        return TemporalResult(
            architecture=architecture,
            method=method,
            points=tuple(points),
            steady=steady,
            reward_integral=reward_integral,
            interval_availability=availability_integral / span,
            time_averaged_reward=reward_integral / span,
            horizon=(times[0], times[-1]),
        )

    def _group_rewards(
        self, steady: SweepPointResult
    ) -> dict[frozenset[str], dict[str, float]]:
        """Per-configuration, per-group reward rates for the delay
        model, consistent with the engine's reward function."""
        rewards: dict[frozenset[str], dict[str, float]] = {}
        for record in steady.result.records:
            if record.configuration is None:
                continue
            if self._weights is None:
                rewards[record.configuration] = dict(record.throughputs)
            else:
                rewards[record.configuration] = {
                    group: weight * record.throughputs.get(group, 0.0)
                    for group, weight in self._weights.items()
                }
        return rewards

    def erosion_curve(
        self,
        latencies: Sequence[float],
        *,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> tuple[ErosionPoint, ...]:
        """Reward retained vs. mean detection latency.

        Solves the §7 delay model once per latency over the unreliable
        *application* components.  The chain models latency under
        perfect knowledge — management unreliability and common causes
        live on the orthogonal coverage axis, and an architecture
        enters only through the latency its protocol implies
        (:func:`architecture_detection_latency`) — so group rewards
        come from the perfect-knowledge steady solve, which discovers
        every configuration the chain can adopt.  Latency ``0`` is the
        instantaneous baseline itself.
        """
        from repro.markov.detection import detection_delay_model

        for latency in latencies:
            if not (math.isfinite(latency) and latency >= 0):
                raise ModelError(
                    f"latencies must be finite and >= 0, got {latency!r}"
                )
        app_names = self._ftlqn.component_names()
        chain_rates = {
            name: availability
            for name, availability in self._rates.items()
            if name in app_names
        }
        # Group rewards come from the perfect-knowledge steady solve
        # over the application components alone: management components
        # and common causes do not exist in the no-MAMA analysis (and
        # the chain does not model them either).
        steady = self._solve(
            SweepPoint(
                name="t=inf",
                architecture=None,
                failure_probs={
                    name: availability.unavailability
                    for name, availability in chain_rates.items()
                },
                common_causes=(),
                weights=self._weights,
            ),
            method=method,
            epsilon=epsilon,
            progress=progress,
            counters=counters if counters is not None else ScanCounters(),
        )
        group_rewards = self._group_rewards(steady)
        curve: list[ErosionPoint] = []
        baseline: ErosionPoint | None = None
        for latency in latencies:
            if latency == 0:
                if baseline is None:
                    baseline = self._instantaneous_point(
                        chain_rates, group_rewards
                    )
                curve.append(baseline)
                continue
            solution = detection_delay_model(
                self._ftlqn,
                chain_rates,
                group_rewards,
                detection_rate=1.0 / latency,
            )
            curve.append(
                ErosionPoint(
                    latency=latency,
                    detection_rate=1.0 / latency,
                    expected_reward=solution.expected_reward,
                    instantaneous_reward=solution.instantaneous_reward,
                    stale_probability=solution.stale_probability,
                    state_count=solution.state_count,
                )
            )
        return tuple(curve)

    def _instantaneous_point(self, chain_rates, group_rewards) -> ErosionPoint:
        from repro.markov.detection import detection_delay_model

        # The zero-latency limit needs no chain: solve the delay model
        # at an arbitrary rate and reuse its instantaneous baseline.
        solution = detection_delay_model(
            self._ftlqn, chain_rates, group_rewards, detection_rate=1.0
        )
        return ErosionPoint(
            latency=0.0,
            detection_rate=math.inf,
            expected_reward=solution.instantaneous_reward,
            instantaneous_reward=solution.instantaneous_reward,
            stale_probability=0.0,
            state_count=0,
        )

    def effective_reward(
        self,
        times: Sequence[float],
        latency: float,
        *,
        architecture: str | None = None,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> EffectiveReward:
        """Latency-aware ranking objective: time-integrated reward over
        the grid, discounted by the erosion factor at ``latency``."""
        curve = self.evaluate(
            times,
            architecture=architecture,
            method=method,
            epsilon=epsilon,
            progress=progress,
            counters=counters,
        )
        (erosion,) = self.erosion_curve(
            [latency],
            method=method,
            epsilon=epsilon,
            progress=progress,
            counters=counters,
        )
        return EffectiveReward(
            reward_integral=curve.reward_integral, erosion=erosion
        )


def _trapezoid(times: Sequence[float], values: Sequence[float]) -> float:
    total = 0.0
    for index in range(1, len(times)):
        step = times[index] - times[index - 1]
        total += 0.5 * step * (values[index] + values[index - 1])
    return total
