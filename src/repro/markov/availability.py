"""Two-state failure/repair component models.

The paper treats component failure as a static probability; the usual
dynamic justification is an alternating-renewal (2-state Markov)
component with failure rate λ and repair rate μ, whose steady-state
unavailability is λ/(λ+μ).  This module provides:

* :class:`ComponentAvailability` — the (λ, μ) pair with conversions in
  both directions;
* :func:`steady_state_unavailability` — the closed form;
* :func:`independent_components_ctmc` — the exact joint chain over a
  set of independent components (exponential state-space; intended for
  small component sets and for validating the product-form shortcut);
* :func:`configuration_probabilities_from_rates` — runs the paper's
  static analysis at the steady-state probabilities implied by dynamic
  rates, the bridge between the Markov world and the core algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from collections.abc import Mapping

from repro.core.performability import PerformabilityAnalyzer
from repro.errors import ModelError
from repro.ftlqn.model import FTLQNModel
from repro.mama.model import MAMAModel
from repro.markov.ctmc import CTMC


def validate_rates(
    failure_rate: float, repair_rate: float, *, component: str | None = None
) -> None:
    """Reject invalid (λ, μ) pairs with a :class:`ModelError`.

    Finiteness is checked explicitly: ``NaN < 0`` is ``False``, so a
    plain range test silently accepts NaN rates and lets them poison
    every generator built from them.
    """
    ok = (
        math.isfinite(failure_rate)
        and math.isfinite(repair_rate)
        and failure_rate >= 0
        and repair_rate > 0
    )
    if not ok:
        where = "" if component is None else f"component {component!r}: "
        raise ModelError(
            f"{where}need finite failure_rate >= 0 and repair_rate > 0, "
            f"got ({failure_rate!r}, {repair_rate!r})"
        )


def steady_state_unavailability(failure_rate: float, repair_rate: float) -> float:
    """λ/(λ+μ) — long-run fraction of time a 2-state component is down."""
    validate_rates(failure_rate, repair_rate)
    return failure_rate / (failure_rate + repair_rate)


@dataclass(frozen=True)
class ComponentAvailability:
    """Failure/repair rates of one component.

    ``from_probability`` builds rates matching a target steady-state
    failure probability at a given repair rate (mean time to repair
    1/μ).
    """

    failure_rate: float
    repair_rate: float

    def __post_init__(self) -> None:
        validate_rates(self.failure_rate, self.repair_rate)

    @property
    def unavailability(self) -> float:
        return steady_state_unavailability(self.failure_rate, self.repair_rate)

    @property
    def availability(self) -> float:
        return 1.0 - self.unavailability

    @staticmethod
    def from_probability(
        failure_probability: float, *, repair_rate: float = 1.0
    ) -> "ComponentAvailability":
        if not 0 <= failure_probability < 1:  # NaN fails this comparison too
            raise ModelError(
                f"failure probability must be in [0, 1), "
                f"got {failure_probability!r}"
            )
        failure_rate = (
            repair_rate * failure_probability / (1.0 - failure_probability)
        )
        return ComponentAvailability(
            failure_rate=failure_rate, repair_rate=repair_rate
        )


def independent_components_ctmc(
    components: Mapping[str, ComponentAvailability],
) -> CTMC:
    """The exact joint CTMC of independent 2-state components.

    States are frozensets of the *down* component names.  The state
    space is 2^n; intended for n ≲ 15 and for cross-checking the
    product-form marginals.
    """
    names = sorted(components)
    if len(names) > 20:
        raise ModelError(
            f"joint chain over {len(names)} components is too large"
        )
    for name in names:
        rates = components[name]
        validate_rates(rates.failure_rate, rates.repair_rate, component=name)
    chain = CTMC()
    for down_tuple in product((False, True), repeat=len(names)):
        down = frozenset(n for n, d in zip(names, down_tuple) if d)
        chain.add_state(down)
        for name in names:
            rates = components[name]
            if name in down:
                chain.add_transition(
                    down, down - {name}, rate=rates.repair_rate
                )
            else:
                chain.add_transition(
                    down, down | {name}, rate=rates.failure_rate
                )
    return chain


def configuration_probabilities_from_rates(
    ftlqn: FTLQNModel,
    mama: MAMAModel | None,
    rates: Mapping[str, ComponentAvailability],
    *,
    method: str = "bdd",
) -> dict[frozenset[str] | None, float]:
    """Static configuration probabilities at the rates' steady state.

    Because component processes are independent, the joint steady-state
    probability of any up/down pattern is the product of marginals —
    exactly the static model of the paper.  This helper converts rates
    to probabilities and runs the core analysis.
    """
    failure_probs = {
        name: availability.unavailability
        for name, availability in rates.items()
    }
    analyzer = PerformabilityAnalyzer(ftlqn, mama, failure_probs=failure_probs)
    return analyzer.configuration_probabilities(method=method)
