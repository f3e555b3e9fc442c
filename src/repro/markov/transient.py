"""Transient (time-dependent) performability.

The steady-state analysis answers "what fraction of time, eventually";
operators also ask "what will the system look like *t* hours after we
bring it up clean?".  Because component failure/repair processes are
independent 2-state chains, the joint transient distribution is product
form: starting from all-up, component *c* is down at time *t* with
probability

    u_c(t) = (λ_c / (λ_c + μ_c)) · (1 − e^{−(λ_c+μ_c)·t}),

so the *exact* configuration probabilities at time *t* are obtained by
running the static coverage analysis at the time-indexed failure
probabilities.  No state-space blow-up: the knowledge semantics is
evaluated as usual, only the component marginals move.

(The one approximation inherited from the paper's framework: knowledge
and reconfiguration are still instantaneous; combine with
:mod:`repro.markov.detection` for latency effects.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.performability import PerformabilityAnalyzer
from repro.core.rewards import RewardFunction
from repro.errors import ModelError
from repro.ftlqn.model import FTLQNModel
from repro.mama.model import MAMAModel
from repro.markov.availability import ComponentAvailability


def transient_unavailability(
    availability: ComponentAvailability, t: float
) -> float:
    """P(component down at time t | up at time 0)."""
    if t < 0:
        raise ModelError("time must be >= 0")
    lam = availability.failure_rate
    mu = availability.repair_rate
    if lam == 0:
        return 0.0
    total = lam + mu
    return (lam / total) * (1.0 - math.exp(-total * t))


@dataclass(frozen=True)
class TransientPoint:
    """Snapshot of the system at one time."""

    time: float
    expected_reward: float
    failed_probability: float
    configuration_probabilities: dict[frozenset[str] | None, float]


class TransientPerformability:
    """Expected reward and failure probability as functions of time.

    Parameters mirror :class:`~repro.core.PerformabilityAnalyzer`, with
    failure/repair *rates* instead of static probabilities.  LQN
    solutions are computed once per distinct configuration and shared
    across all evaluation times.

    Example
    -------
    >>> from repro.experiments.figure1 import figure1_system
    >>> from repro.markov.availability import ComponentAvailability
    >>> rates = {"Server1": ComponentAvailability.from_probability(0.1)}
    >>> curve = TransientPerformability(figure1_system(), None, rates)
    >>> points = curve.evaluate([0.0, 1.0, 10.0])
    >>> points[0].failed_probability
    0.0
    """

    def __init__(
        self,
        ftlqn: FTLQNModel,
        mama: MAMAModel | None,
        rates: Mapping[str, ComponentAvailability],
        *,
        reward: RewardFunction | None = None,
        method: str = "bdd",
    ):
        self._ftlqn = ftlqn
        self._mama = mama
        self._rates = dict(rates)
        self._reward = reward
        self._method = method
        # One analyzer provides the reward machinery; its probabilities
        # are never used directly.
        self._reference = PerformabilityAnalyzer(
            ftlqn,
            mama,
            failure_probs={
                name: availability.unavailability
                for name, availability in self._rates.items()
            },
            reward=reward,
        )
        self._reward_cache: dict[frozenset[str], float] = {}

    def _reward_of(self, configuration: frozenset[str]) -> float:
        value = self._reward_cache.get(configuration)
        if value is None:
            results = self._reference.performance_of(configuration)
            value = self._reference._reward(configuration, results)
            self._reward_cache[configuration] = value
        return value

    def at(self, t: float) -> TransientPoint:
        """Exact configuration probabilities and reward at time ``t``."""
        probs = {
            name: transient_unavailability(availability, t)
            for name, availability in self._rates.items()
        }
        analyzer = PerformabilityAnalyzer(
            self._ftlqn, self._mama, failure_probs=probs, reward=self._reward
        )
        configuration_probs = analyzer.configuration_probabilities(
            method=self._method
        )
        expected = 0.0
        failed = 0.0
        for configuration, probability in configuration_probs.items():
            if configuration is None:
                failed = probability
                continue
            expected += probability * self._reward_of(configuration)
        return TransientPoint(
            time=t,
            expected_reward=expected,
            failed_probability=failed,
            configuration_probabilities=configuration_probs,
        )

    def evaluate(self, times: Sequence[float]) -> list[TransientPoint]:
        """Snapshots at each time, in the given order."""
        return [self.at(t) for t in times]

    def steady_state(self) -> TransientPoint:
        """The t → ∞ limit (equals the static analysis)."""
        return self.at(float("inf"))
