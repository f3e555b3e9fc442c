"""Failure/repair simulation with knowledge-gated reconfiguration.

Each unreliable component alternates exponentially distributed up and
down periods; the repair rate ``μ`` and the target steady-state failure
probability ``p`` fix the failure rate ``λ = μ·p/(1−p)``, so the
long-run fraction of time a component is down equals the static failure
probability used by the analytic model.  On every component event the
operational configuration is re-evaluated with the same Definition-1
semantics (knowledge evaluated at the current management state), and
configuration occupancy times are accumulated.

With ``detection_delay > 0`` the simulator realises the paper's §7
extension: the *active* configuration is only updated ``delay`` seconds
after an event (detection + notification + reconfiguration latency),
and during the stale window a user group earns reward only if the paths
of the stale configuration are actually up — requests to a dead server
earn nothing.  Two delay semantics are offered: ``"deterministic"``
schedules one fixed-delay adoption per event (a realistic pipelined
detector), while ``"exponential"`` keeps a *single* pending
exponentially distributed timer with mean ``detection_delay`` — by
memorylessness this is distribution-exact against the
:func:`repro.markov.detection.detection_delay_model` CTMC, making it
the oracle for that chain.

:func:`simulate_transient` is the time-dependent counterpart: every
replication restarts all-up at ``t = 0``, and per grid time it samples
whether the system is operational and the reward rate of the adopted
configuration — the Monte-Carlo oracle for
:class:`repro.core.temporal.TemporalAnalyzer`.

Long-run occupancies converge to the analytic configuration
probabilities as the horizon grows (validated in ``tests/sim``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.configuration import group_support
from repro.core.dependency import CommonCause
from repro.core.performability import PerformabilityAnalyzer
from repro.errors import ModelError
from repro.ftlqn.model import FTLQNModel
from repro.mama.model import MAMAModel
from repro.markov.availability import ComponentAvailability
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

_DETECTION_MODES = ("deterministic", "exponential")


def _configuration_memo(analyzer: PerformabilityAnalyzer):
    """The unreliable components and a memoized state → configuration map.

    A state is a down-mask: bit ``i`` set means ``components[i]`` is
    down.  A miss applies Definition 1 directly — the fault graph with
    knowledge evaluated at that state — so evaluation cost scales with
    the distinct states a run visits, not with its events.
    """
    problem = analyzer.problem
    components = list(problem.app_components) + list(problem.mgmt_components)
    fixed = problem.fixed_assignment()
    know_exprs = dict(problem.know_exprs)
    memo: dict[int, frozenset[str] | None] = {}

    def configuration_of(down: int) -> frozenset[str] | None:
        if down not in memo:
            state = {name: not down >> i & 1 for i, name in enumerate(components)}
            full = {**fixed, **state}
            if problem.perfect:
                know = lambda c, t: True
            else:
                know = lambda c, t: know_exprs[(c, t)].evaluate(full)
            memo[down] = analyzer.fault_graph.evaluate(
                problem.leaf_state(state), know
            ).configuration
        return memo[down]

    return components, configuration_of


@dataclass(frozen=True)
class AvailabilitySimulationResult:
    """Estimates from one failure/repair simulation run.

    Attributes
    ----------
    configuration_fractions:
        Long-run fraction of time spent in each *evaluated*
        configuration (key ``None`` = system failed).
    average_reward:
        Time-average reward rate (0.0 when no rewards were supplied).
        With detection delay, stale windows are penalised as described
        in the module docstring.
    event_count:
        Number of component failure/repair events simulated.
    horizon:
        Simulated time.
    """

    configuration_fractions: dict[frozenset[str] | None, float]
    average_reward: float
    event_count: int
    horizon: float


def simulate_availability(
    ftlqn: FTLQNModel,
    mama: MAMAModel | None,
    failure_probs: Mapping[str, float],
    *,
    common_causes: Sequence[CommonCause] = (),
    horizon: float = 50_000.0,
    seed: int = 1,
    repair_rate: float = 1.0,
    detection_delay: float = 0.0,
    detection_mode: str = "deterministic",
    group_rewards: Mapping[frozenset[str], Mapping[str, float]] | None = None,
) -> AvailabilitySimulationResult:
    """Simulate failures/repairs and measure configuration occupancy.

    Parameters
    ----------
    common_causes:
        Common-cause failure events.  Each event becomes one more
        alternating up/down process whose long-run down fraction equals
        the event probability; while an event is down every component
        it covers is down regardless of that component's own state.
    group_rewards:
        Optional: per configuration, the reward rate contributed by each
        operational user group (e.g. w_g · f_g from the LQN solution).
        Required to get a non-zero ``average_reward``.
    detection_delay:
        Latency between a component event and the system adopting the
        newly correct configuration (0 = the paper's instantaneous
        model).
    detection_mode:
        ``"deterministic"`` schedules one fixed-``detection_delay``
        adoption per component event; ``"exponential"`` keeps a single
        pending timer with an Exp(1/``detection_delay``) firing time,
        re-armed whenever the active configuration goes stale — the
        distribution-exact counterpart of the
        :func:`~repro.markov.detection.detection_delay_model` CTMC.
    """
    if horizon <= 0:
        raise ModelError("horizon must be positive")
    if repair_rate <= 0:
        raise ModelError("repair_rate must be positive")
    if detection_mode not in _DETECTION_MODES:
        raise ModelError(
            f"detection_mode must be one of {_DETECTION_MODES}, "
            f"got {detection_mode!r}"
        )
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=failure_probs, common_causes=common_causes
    )
    problem = analyzer.problem
    components, configuration_of = _configuration_memo(analyzer)
    bits = {name: 1 << i for i, name in enumerate(components)}

    rates: dict[str, tuple[float, float]] = {}
    for name in components:
        p_fail = 1.0 - problem.up_probability[name]
        failure_rate = repair_rate * p_fail / (1.0 - p_fail)
        rates[name] = (failure_rate, repair_rate)

    sim = Simulator()
    streams = RandomStreams(seed)
    down = 0  # the simulator's state, as a down-mask over ``bits``
    event_count = 0

    # Occupancy bookkeeping: evaluated (instantaneous) configuration and
    # the active (possibly stale) configuration used for rewards.
    occupancy: dict[frozenset[str] | None, float] = {}
    evaluated = configuration_of(down)
    active = evaluated
    last_change = 0.0
    reward_integral = 0.0

    def is_up(component: str) -> bool:
        if component in bits:
            return not down & bits[component]
        return component not in problem.fixed_down

    rate_cache: dict[tuple[frozenset[str] | None, int], float] = {}

    def reward_rate_now() -> float:
        key = (active, down)
        if key not in rate_cache:
            rewards = (group_rewards or {}).get(active) or {}
            total = 0.0
            for group, value in rewards.items():
                if all(map(is_up, group_support(ftlqn, active, group))):
                    total += value
            rate_cache[key] = total
        return rate_cache[key]

    def close_interval() -> None:
        nonlocal last_change, reward_integral
        elapsed = sim.now - last_change
        if elapsed > 0:
            occupancy[evaluated] = occupancy.get(evaluated, 0.0) + elapsed
            reward_integral += reward_rate_now() * elapsed
        last_change = sim.now

    def adopt_configuration() -> None:
        nonlocal active
        close_interval()
        active = configuration_of(down)

    # Exponential mode: one pending timer at most.  By memorylessness
    # its remaining life is Exp(1/delay) at every instant, so keeping
    # it armed across further component events matches the CTMC's
    # constant-rate detection transition exactly; when an event happens
    # to restore the active configuration the eventual firing is a
    # no-op, equivalent to the chain leaving its stale set.
    detection_pending = [False]

    def fire_detection() -> None:
        detection_pending[0] = False
        adopt_configuration()

    def arm_detection() -> None:
        if evaluated != active and not detection_pending[0]:
            detection_pending[0] = True
            delay = streams.exponential("detection", detection_delay)
            sim.schedule(delay, fire_detection)

    def component_event(name: str) -> None:
        nonlocal active, down, evaluated, event_count
        close_interval()
        event_count += 1
        down ^= bits[name]
        evaluated = configuration_of(down)
        if detection_delay <= 0:
            active = evaluated
        elif detection_mode == "exponential":
            arm_detection()
        else:
            sim.schedule(detection_delay, adopt_configuration)
        schedule_next(name)

    def schedule_next(name: str) -> None:
        failure_rate, repair = rates[name]
        rate = repair if down & bits[name] else failure_rate
        delay = streams.exponential(f"component:{name}", 1.0 / rate)
        sim.schedule(delay, lambda: component_event(name))

    for name in components:
        schedule_next(name)

    sim.run(until=horizon)
    close_interval()

    fractions = {key: value / horizon for key, value in occupancy.items()}
    total = sum(fractions.values())
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        # Guard against bookkeeping drift; occupancy must tile the horizon.
        raise AssertionError(f"occupancy fractions sum to {total}")
    return AvailabilitySimulationResult(
        configuration_fractions=fractions,
        average_reward=reward_integral / horizon,
        event_count=event_count,
        horizon=horizon,
    )


@dataclass(frozen=True)
class TransientSimulationResult:
    """Per-grid-time Monte-Carlo samples from a cold (all-up) start.

    ``reward_samples[k]`` / ``operational_samples[k]`` hold one entry
    per replication: the reward rate of the configuration adopted at
    ``times[k]`` and 1.0/0.0 for whether the system was operational.
    Keeping the raw samples (rather than means) lets callers build
    Student-t confidence intervals around the analytic transient curve.
    """

    times: tuple[float, ...]
    reward_samples: tuple[tuple[float, ...], ...]
    operational_samples: tuple[tuple[float, ...], ...]

    @property
    def replications(self) -> int:
        return len(self.reward_samples[0]) if self.reward_samples else 0

    def mean_reward(self, index: int) -> float:
        samples = self.reward_samples[index]
        return sum(samples) / len(samples)

    def mean_availability(self, index: int) -> float:
        samples = self.operational_samples[index]
        return sum(samples) / len(samples)


def simulate_transient(
    ftlqn: FTLQNModel,
    mama: MAMAModel | None,
    rates: Mapping[str, ComponentAvailability],
    *,
    times: Sequence[float],
    common_causes: Sequence[CommonCause] = (),
    cause_repair_rate: float = 1.0,
    replications: int = 200,
    seed: int = 1,
    group_rewards: Mapping[frozenset[str], Mapping[str, float]] | None = None,
) -> TransientSimulationResult:
    """Monte-Carlo transient oracle: every replication starts all-up.

    Each component (and each common-cause event, lifted to an
    alternating process via ``cause_repair_rate``) follows its own
    exponential up/down renewal process; at every grid time the
    component states are assembled and the configuration is evaluated
    with the usual Definition-1 knowledge semantics.  The per-time
    sample means are unbiased estimates of the analytic transient
    availability and R(t) of
    :class:`repro.core.temporal.TemporalAnalyzer`.
    """
    times = [float(t) for t in times]
    if not times:
        raise ModelError("need at least one time point")
    for t in times:
        if not (math.isfinite(t) and t >= 0):
            raise ModelError(f"times must be finite and >= 0, got {t!r}")
    for earlier, later in zip(times, times[1:]):
        if not earlier < later:
            raise ModelError("times must be strictly increasing")
    if replications < 1:
        raise ModelError("replications must be >= 1")

    analyzer = PerformabilityAnalyzer(
        ftlqn,
        mama,
        failure_probs={
            name: availability.unavailability
            for name, availability in rates.items()
        },
        common_causes=common_causes,
    )
    components, configuration_of = _configuration_memo(analyzer)
    full_rates = dict(rates)
    for cause in common_causes:
        full_rates[cause.name] = ComponentAvailability.from_probability(
            cause.probability, repair_rate=cause_repair_rate
        )
    missing = [name for name in components if name not in full_rates]
    if missing:
        raise ModelError(f"rates missing components: {sorted(missing)}")

    def states_at_times(lam: float, mu: float, stream_name: str) -> list[bool]:
        """Up/down at every grid time for one alternating process."""
        out = [True] * len(times)
        now = 0.0
        up = True
        index = 0
        while index < len(times):
            if up and lam == 0:
                break  # never fails again; remaining grid times stay up
            mean = (1.0 / lam) if up else (1.0 / mu)
            now += streams.exponential(stream_name, mean)
            while index < len(times) and times[index] < now:
                out[index] = up
                index += 1
            up = not up
        return out

    streams = RandomStreams(seed)
    reward_cache: dict[frozenset[str] | None, float] = {None: 0.0}

    def reward_of(configuration) -> float:
        value = reward_cache.get(configuration)
        if value is None:
            if group_rewards is None:
                value = 0.0
            else:
                value = sum(group_rewards.get(configuration, {}).values())
            reward_cache[configuration] = value
        return value

    reward_samples: list[list[float]] = [[] for _ in times]
    operational_samples: list[list[float]] = [[] for _ in times]
    for replication in range(replications):
        masks = [0] * len(times)
        for bit, name in enumerate(components):
            trajectory = states_at_times(
                full_rates[name].failure_rate,
                full_rates[name].repair_rate,
                f"replication:{replication}:{name}",
            )
            for index, up in enumerate(trajectory):
                if not up:
                    masks[index] |= 1 << bit
        for index, mask in enumerate(masks):
            configuration = configuration_of(mask)
            operational_samples[index].append(
                0.0 if configuration is None else 1.0
            )
            reward_samples[index].append(reward_of(configuration))

    return TransientSimulationResult(
        times=tuple(times),
        reward_samples=tuple(tuple(entry) for entry in reward_samples),
        operational_samples=tuple(
            tuple(entry) for entry in operational_samples
        ),
    )
