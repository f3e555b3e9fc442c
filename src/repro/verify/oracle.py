"""The differential oracle: three exact backends, one interval backend
and one simulator.

A scenario passes the oracle when

1. every exact backend (interpreted enumeration, compiled
   bit-parallel kernel, fully symbolic ROBDD traversal) produces the
   *same configuration set* with probabilities agreeing to
   ``tolerance`` (1e-12) against the interpreted reference;
2. the reference probabilities sum to 1 within ``total_tolerance``;
3. the bounded most-probable-first enumerator, run at
   ``bounded_epsilon``, is *contained* in the reference: every
   configuration it reports exists in the reference with at least the
   reported probability, and the unexplored deficit is at most ε —
   parity is the wrong check for an interval-valued backend, so the
   oracle verifies its rigorous-underapproximation contract instead;
4. optionally, the analytic system availability and expected reward
   fall inside a confidence interval computed from independent
   replications of the Monte-Carlo failure/repair simulation
   (:func:`repro.sim.simulate_availability`) — an *independent
   semantics* cross-check: the simulator re-implements Definition 1
   reconfiguration event-by-event instead of scanning the state space.

The backend set is injectable (``backends=`` maps names to callables
with the ``(problem, *, progress, counters)`` engine signature),
which is how the mutation self-test proves the oracle catches a
deliberately broken kernel, and how future backends join the parity
net without touching this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence

from repro.core.enumeration import (
    StateSpaceProblem,
    enumerate_configurations,
    normalize_method,
)
from repro.core.bounded import bounded_configurations
from repro.core.kernel import bitset_configurations
from repro.core.symbolic import bdd_configurations
from repro.core.progress import ScanCounters
from repro.errors import ModelError
from repro.verify.generator import Scenario

#: Engine-signature backend callable.
BackendFn = Callable[..., dict[frozenset[str] | None, float]]

#: Canonical oracle backend names, in reference-preference order
#: (``interp`` is the paper's literal scan and serves as reference).
BACKEND_NAMES = ("interp", "bits", "bdd")

_BACKEND_FNS: dict[str, BackendFn] = {
    "interp": enumerate_configurations,
    "bits": bitset_configurations,
    "bdd": bdd_configurations,
}

#: Oracle name per canonical scan-method name.  ``bounded`` is absent
#: deliberately: it is interval-valued, so the oracle checks it by
#: containment (see :func:`check_scenario`), never by parity.
_CANONICAL_TO_ORACLE = {
    "enumeration": "interp",
    "bits": "bits",
    "bdd": "bdd",
}


def default_backends(
    names: Sequence[str] | None = None,
) -> dict[str, BackendFn]:
    """The standard backend table, optionally restricted to ``names``.

    Accepts the CLI spellings (``interp``/``enumeration``, ``bits``,
    ``bdd``); unknown names raise
    :class:`~repro.errors.ModelError`.  ``bounded`` is rejected here:
    parity against an interval-valued backend is meaningless, so the
    oracle exercises it through the containment check instead.
    """
    if names is None:
        return dict(_BACKEND_FNS)
    selected: dict[str, BackendFn] = {}
    for name in names:
        canonical = normalize_method(name)
        if canonical not in _CANONICAL_TO_ORACLE:
            raise ModelError(
                f"backend {name!r} is interval-valued and cannot join the "
                "parity net; the oracle checks it by containment instead"
            )
        oracle_name = _CANONICAL_TO_ORACLE[canonical]
        selected[oracle_name] = _BACKEND_FNS[oracle_name]
    if not selected:
        raise ModelError("the oracle needs at least one backend")
    return selected


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and simulation settings of the oracle.

    The analytic tolerances are absolute: the backends implement one
    exact computation three ways, so they must agree to summation
    reordering (≲ 1e-15 relative); 1e-12 leaves two orders of headroom.

    The simulation check compares the analytic value against the mean
    of ``sim_replications`` independent runs, inside a two-sided
    Student-t interval at ``sim_confidence`` plus a bias allowance of
    ``sim_bias_allowance / sim_horizon`` (the simulator starts all-up,
    so finite-horizon occupancies are biased towards availability by
    O(relaxation time / horizon)).

    ``bounded_epsilon`` is the mass tolerance handed to the bounded
    enumerator for its containment check; set it to ``None`` to skip
    that check entirely.
    """

    tolerance: float = 1e-12
    total_tolerance: float = 1e-9
    bounded_epsilon: float | None = 1e-6
    sim_replications: int = 5
    sim_horizon: float = 3000.0
    sim_confidence: float = 0.999
    sim_floor: float = 1e-9
    sim_bias_allowance: float = 25.0
    #: Temporal check: deterministic tolerance for the uniformization
    #: vs closed-form marginal comparison and the t → ∞ steady limit.
    temporal_tolerance: float = 1e-9
    #: Monte-Carlo side of the temporal check (the transient sampler is
    #: unbiased, so there is no horizon bias allowance — only a floor
    #: absorbing replication noise at near-deterministic grid points).
    temporal_replications: int = 150
    temporal_confidence: float = 0.999
    temporal_floor: float = 0.02
    #: Skip the detection-latency erosion sanity check when the delay
    #: chain would exceed 2**temporal_max_chain_bits down-sets.
    temporal_max_chain_bits: int = 8


DEFAULT_ORACLE_CONFIG = OracleConfig()


@dataclass(frozen=True)
class Disagreement:
    """One oracle finding.

    ``kind`` is ``"configuration-set"`` (a backend found different
    configurations), ``"probability"`` (same set, probability off by
    more than the tolerance), ``"total-mass"`` (reference probabilities
    do not sum to 1), ``"bounded-containment"`` (the bounded enumerator
    reported a configuration, probability or unexplored deficit that
    violates its rigorous-underapproximation contract),
    ``"simulation"`` (analytic value outside the simulation confidence
    interval) or ``"temporal"`` (the transient cross-check failed: the
    uniformization series disagrees with the closed-form marginal, the
    ``t → ∞`` limit drifts off the static scan, the transient curve
    falls outside the Monte-Carlo interval, or the detection-delay
    erosion factor left (0, 1]).  ``backend`` is the backend name,
    ``"bounded"``, ``"sim"``, ``"uniformization"``, ``"temporal"``,
    ``"temporal-sim"`` or ``"detection-delay"``; ``magnitude`` is the
    observed absolute error.
    """

    kind: str
    backend: str
    detail: str
    magnitude: float

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "backend": self.backend,
            "detail": self.detail,
            "magnitude": self.magnitude,
        }


@dataclass
class OracleReport:
    """The outcome of one differential check."""

    scenario: Scenario
    reference_backend: str
    backends_checked: tuple[str, ...]
    disagreements: list[Disagreement] = field(default_factory=list)
    simulated: bool = False
    bounded_checked: bool = False
    temporal_checked: bool = False
    state_count: int = 0
    distinct_configurations: int = 0
    expected_reward: float | None = None
    failed_probability: float | None = None

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        """One human-readable line per disagreement (or ``"ok"``)."""
        if self.ok:
            return (
                f"ok: {len(self.backends_checked)} backends agree on "
                f"{self.distinct_configurations} configurations "
                f"({self.state_count} states)"
            )
        lines = [
            f"{d.kind} [{d.backend}] {d.detail} (|err| = {d.magnitude:.3e})"
            for d in self.disagreements
        ]
        return "\n".join(lines)


def _label(configuration: frozenset[str] | None) -> str:
    return "FAILED" if configuration is None else "{%s}" % ", ".join(
        sorted(configuration)
    )


def _compare_maps(
    name: str,
    reference: Mapping[frozenset[str] | None, float],
    candidate: Mapping[frozenset[str] | None, float],
    tolerance: float,
    disagreements: list[Disagreement],
) -> None:
    missing = set(reference) - set(candidate)
    extra = set(candidate) - set(reference)
    for configuration in sorted(missing, key=_label):
        disagreements.append(
            Disagreement(
                kind="configuration-set",
                backend=name,
                detail=f"missing configuration {_label(configuration)} "
                f"(reference probability "
                f"{reference[configuration]:.6g})",
                magnitude=abs(reference[configuration]),
            )
        )
    for configuration in sorted(extra, key=_label):
        disagreements.append(
            Disagreement(
                kind="configuration-set",
                backend=name,
                detail=f"extra configuration {_label(configuration)} "
                f"(probability {candidate[configuration]:.6g})",
                magnitude=abs(candidate[configuration]),
            )
        )
    for configuration in sorted(set(reference) & set(candidate), key=_label):
        delta = abs(reference[configuration] - candidate[configuration])
        if delta > tolerance:
            disagreements.append(
                Disagreement(
                    kind="probability",
                    backend=name,
                    detail=f"probability of {_label(configuration)} is "
                    f"{candidate[configuration]:.15g}, reference "
                    f"{reference[configuration]:.15g}",
                    magnitude=delta,
                )
            )


def _bounded_check(
    problem: StateSpaceProblem,
    reference: Mapping[frozenset[str] | None, float],
    config: OracleConfig,
    disagreements: list[Disagreement],
) -> None:
    """Verify the bounded enumerator's underapproximation contract.

    Three obligations, all against the interpreted reference: the
    configuration set is a subset of the exact one, every reported
    probability is at most the exact probability (to ``tolerance``),
    and the unexplored deficit ``1 - Σp`` is non-negative and at most
    the requested ε (to ``total_tolerance``).
    """
    epsilon = config.bounded_epsilon
    assert epsilon is not None
    partial = bounded_configurations(
        problem, epsilon=epsilon, counters=ScanCounters()
    )
    for configuration in sorted(set(partial) - set(reference), key=_label):
        disagreements.append(
            Disagreement(
                kind="bounded-containment",
                backend="bounded",
                detail=f"phantom configuration {_label(configuration)} "
                f"(probability {partial[configuration]:.6g}) not in the "
                "exact configuration set",
                magnitude=abs(partial[configuration]),
            )
        )
    for configuration in sorted(set(partial) & set(reference), key=_label):
        excess = partial[configuration] - reference[configuration]
        if excess > config.tolerance:
            disagreements.append(
                Disagreement(
                    kind="bounded-containment",
                    backend="bounded",
                    detail=f"probability of {_label(configuration)} is "
                    f"{partial[configuration]:.15g}, above the exact "
                    f"{reference[configuration]:.15g}",
                    magnitude=excess,
                )
            )
    deficit = 1.0 - sum(partial.values())
    if deficit < -config.total_tolerance or deficit > epsilon + config.total_tolerance:
        disagreements.append(
            Disagreement(
                kind="bounded-containment",
                backend="bounded",
                detail=f"unexplored deficit {deficit:.6g} outside "
                f"[0, ε = {epsilon:g}]",
                magnitude=max(-deficit, deficit - epsilon),
            )
        )


def _student_interval(
    samples: Sequence[float], confidence: float
) -> tuple[float, float]:
    """(mean, half-width) of the two-sided Student-t interval at
    ``confidence``; the half-width is 0 for fewer than two samples.

    ``scipy.special.stdtrit`` is the quantile ``scipy.stats.t.ppf``
    calls, without the cost of importing ``scipy.stats``.
    """
    n = len(samples)
    mean = sum(samples) / n
    if n < 2:
        return mean, 0.0
    from scipy.special import stdtrit

    variance = sum((s - mean) ** 2 for s in samples) / (n - 1)
    quantile = float(stdtrit(n - 1, 1.0 - (1.0 - confidence) / 2.0))
    return mean, quantile * math.sqrt(variance / n)


def _confidence_interval(
    samples: Sequence[float], config: OracleConfig, scale: float
) -> tuple[float, float]:
    """(mean, half-width) of the replication confidence interval.

    Half-width is the two-sided Student-t interval at
    ``config.sim_confidence`` plus the floor and the horizon-scaled
    bias allowance (multiplied by ``scale`` so reward-valued checks get
    tolerances proportional to their magnitude).
    """
    mean, half = _student_interval(samples, config.sim_confidence)
    half += config.sim_floor
    half += config.sim_bias_allowance / config.sim_horizon * scale
    return mean, half


def _simulation_check(
    scenario: Scenario,
    reference: Mapping[frozenset[str] | None, float],
    expected_reward: float,
    group_rewards: Mapping[frozenset[str], Mapping[str, float]],
    config: OracleConfig,
    disagreements: list[Disagreement],
) -> None:
    from repro.sim.availability_sim import simulate_availability

    base_seed = 1 if scenario.seed is None else scenario.seed * 1000 + 1
    availabilities: list[float] = []
    rewards: list[float] = []
    for replication in range(config.sim_replications):
        result = simulate_availability(
            scenario.ftlqn,
            scenario.mama,
            scenario.failure_probs,
            common_causes=scenario.common_causes,
            horizon=config.sim_horizon,
            seed=base_seed + replication,
            group_rewards=group_rewards,
        )
        availabilities.append(
            1.0 - result.configuration_fractions.get(None, 0.0)
        )
        rewards.append(result.average_reward)

    analytic_availability = 1.0 - reference.get(None, 0.0)
    checks = (
        ("availability", availabilities, analytic_availability, 1.0),
        (
            "expected reward",
            rewards,
            expected_reward,
            max(1.0, abs(expected_reward)),
        ),
    )
    for label, samples, analytic, scale in checks:
        mean, half = _confidence_interval(samples, config, scale)
        if abs(mean - analytic) > half:
            disagreements.append(
                Disagreement(
                    kind="simulation",
                    backend="sim",
                    detail=f"analytic {label} {analytic:.6g} outside the "
                    f"simulation interval {mean:.6g} ± {half:.3g} "
                    f"({config.sim_replications} replications, horizon "
                    f"{config.sim_horizon:g})",
                    magnitude=abs(mean - analytic),
                )
            )


def _temporal_check(
    scenario: Scenario,
    reference: Mapping[frozenset[str] | None, float],
    config: OracleConfig,
    disagreements: list[Disagreement],
) -> bool:
    """Cross-check the scenario's temporal dimension; returns whether
    the check actually ran.

    Three obligations:

    1. *uniformization vs closed form* — each component's transient
       down-probability from the uniformization series on its 2-state
       chain must match the closed-form marginal to
       ``temporal_tolerance`` (deterministic; this is the hook the
       mutation self-test uses to prove an injected uniformization bug
       is caught);
    2. *steady limit* — the temporal analyzer's ``t → ∞`` system
       failure probability must equal the reference scan's;
    3. *transient vs simulation* — the analytic availability at every
       grid time must fall inside the Student-t interval of the
       Monte-Carlo transient samples.

    Plus, when the spec carries a detection latency and the delay chain
    is small enough, an erosion sanity check (factor in (0, 1], stale
    probability a probability).

    Scenarios with pinned-down components or certain common causes
    (probability 1) have no finite-rate CTMC lift and are skipped.
    """
    spec = scenario.temporal
    if spec is None:
        return False
    if any(p >= 1.0 for p in scenario.failure_probs.values()):
        return False
    if any(c.probability >= 1.0 for c in scenario.common_causes):
        return False

    from repro.core.temporal import TemporalAnalyzer
    from repro.markov.availability import ComponentAvailability
    from repro.markov.ctmc import CTMC
    from repro.markov.transient import transient_unavailability
    from repro.sim.availability_sim import simulate_transient

    rates = {
        name: ComponentAvailability.from_probability(
            p, repair_rate=spec.repair_rate
        )
        for name, p in scenario.failure_probs.items()
    }

    # 1. The uniformization series against the closed-form marginal.
    for name, availability in sorted(rates.items()):
        if availability.failure_rate == 0.0:
            continue
        chain = CTMC()
        chain.add_transition("up", "down", rate=availability.failure_rate)
        chain.add_transition("down", "up", rate=availability.repair_rate)
        for t in spec.times:
            series = chain.transient({"up": 1.0}, t)["down"]
            closed = transient_unavailability(availability, t)
            delta = abs(series - closed)
            if delta > config.temporal_tolerance:
                disagreements.append(
                    Disagreement(
                        kind="temporal",
                        backend="uniformization",
                        detail=f"component {name}: series marginal at "
                        f"t={t:g} is {series:.15g}, closed form "
                        f"{closed:.15g}",
                        magnitude=delta,
                    )
                )

    # 2 + 3. The temporal analyzer's curve: exact steady limit and
    # simulation-validated transient availability.
    architectures = None if scenario.mama is None else {"m": scenario.mama}
    key = None if scenario.mama is None else "m"
    analyzer = TemporalAnalyzer(
        scenario.ftlqn,
        architectures,
        rates=rates,
        common_causes=scenario.common_causes,
        cause_repair_rate=spec.repair_rate,
    )
    curve = analyzer.evaluate(spec.times, architecture=key)
    steady_delta = abs(
        curve.steady.failed_probability - reference.get(None, 0.0)
    )
    if steady_delta > config.temporal_tolerance:
        disagreements.append(
            Disagreement(
                kind="temporal",
                backend="temporal",
                detail=f"t→∞ failure probability "
                f"{curve.steady.failed_probability:.15g} differs from the "
                f"static scan's {reference.get(None, 0.0):.15g}",
                magnitude=steady_delta,
            )
        )

    sim_rates = dict(rates)
    for name in scenario.component_universe():
        sim_rates.setdefault(name, ComponentAvailability.from_probability(0.0))
    base_seed = 1 if scenario.seed is None else scenario.seed * 1000 + 7
    sim = simulate_transient(
        scenario.ftlqn,
        scenario.mama,
        sim_rates,
        times=spec.times,
        common_causes=scenario.common_causes,
        cause_repair_rate=spec.repair_rate,
        replications=config.temporal_replications,
        seed=base_seed,
    )
    for index, point in enumerate(curve.points):
        mean, half = _student_interval(
            sim.operational_samples[index], config.temporal_confidence
        )
        half += config.temporal_floor
        delta = abs(point.availability - mean)
        if delta > half:
            disagreements.append(
                Disagreement(
                    kind="temporal",
                    backend="temporal-sim",
                    detail=f"analytic availability at t={point.time:g} is "
                    f"{point.availability:.6g}, outside the simulation "
                    f"interval {mean:.6g} ± {half:.3g} "
                    f"({config.temporal_replications} replications)",
                    magnitude=delta,
                )
            )

    # 4. Detection-latency erosion sanity (bounded chains only).
    if spec.detection_latency is not None:
        chain_components = set(scenario.ftlqn.component_names()) & set(rates)
        if len(chain_components) <= config.temporal_max_chain_bits:
            erosion = analyzer.erosion_curve([spec.detection_latency])[0]
            factor = erosion.erosion_factor
            if not (0.0 < factor <= 1.0 + config.temporal_tolerance):
                disagreements.append(
                    Disagreement(
                        kind="temporal",
                        backend="detection-delay",
                        detail=f"erosion factor {factor:.6g} at latency "
                        f"{spec.detection_latency:g} outside (0, 1]",
                        magnitude=abs(factor - 1.0),
                    )
                )
            if not (0.0 <= erosion.stale_probability <= 1.0):
                disagreements.append(
                    Disagreement(
                        kind="temporal",
                        backend="detection-delay",
                        detail=f"stale probability "
                        f"{erosion.stale_probability:.6g} is not a "
                        "probability",
                        magnitude=abs(erosion.stale_probability),
                    )
                )
    return True


def check_scenario(
    scenario: Scenario,
    *,
    backends: Mapping[str, BackendFn] | None = None,
    simulate: bool = False,
    temporal: bool = False,
    config: OracleConfig = DEFAULT_ORACLE_CONFIG,
) -> OracleReport:
    """Run one scenario through every backend and compare the results.

    The first backend in ``backends`` is the reference;
    with the default table that is the interpreted enumerative scan,
    the most literal rendering of the paper's semantics.  Unless
    ``config.bounded_epsilon`` is ``None``, the bounded enumerator is
    additionally run at that ε and checked for containment in the
    reference (subset, pointwise ≤, deficit ≤ ε).  ``simulate``
    additionally runs the LQN phase on the reference probabilities and
    cross-checks availability and expected reward against the
    Monte-Carlo simulation (see :class:`OracleConfig`).

    Raises :class:`~repro.errors.ReproError` when the scenario itself
    is invalid — callers that probe candidate scenarios (the shrinker)
    treat that as "does not reproduce".
    """
    table = dict(backends) if backends is not None else default_backends()
    if not table:
        raise ModelError("the oracle needs at least one backend")

    analyzer = scenario.analyzer()
    problem: StateSpaceProblem = analyzer.problem
    reference_backend = next(iter(table))

    disagreements: list[Disagreement] = []
    results = {
        name: backend(problem, counters=ScanCounters())
        for name, backend in table.items()
    }

    reference = results[reference_backend]
    total = sum(reference.values())
    if abs(total - 1.0) > config.total_tolerance:
        disagreements.append(
            Disagreement(
                kind="total-mass",
                backend=reference_backend,
                detail=f"probabilities sum to {total:.15g}, not 1",
                magnitude=abs(total - 1.0),
            )
        )
    for name, candidate in results.items():
        if name != reference_backend:
            _compare_maps(
                name, reference, candidate, config.tolerance, disagreements
            )

    report = OracleReport(
        scenario=scenario,
        reference_backend=reference_backend,
        backends_checked=tuple(table),
        disagreements=disagreements,
        state_count=problem.state_count,
        distinct_configurations=len(reference),
    )

    if config.bounded_epsilon is not None:
        _bounded_check(problem, reference, config, disagreements)
        report.bounded_checked = True

    if simulate:
        result = analyzer.evaluate_probabilities(reference)
        report.expected_reward = result.expected_reward
        report.failed_probability = result.failed_probability
        group_rewards = {
            record.configuration: dict(record.throughputs)
            for record in result.records
            if record.configuration is not None
        }
        _simulation_check(
            scenario,
            reference,
            result.expected_reward,
            group_rewards,
            config,
            disagreements,
        )
        report.simulated = True

    if temporal:
        report.temporal_checked = _temporal_check(
            scenario, reference, config, disagreements
        )

    return report
