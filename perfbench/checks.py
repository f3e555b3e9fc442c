"""Output checks applied to every op.

Each check returns ``None`` when the output is right and a one-line
cause when it is not; the workload then counts the op as failed.

* Pinned inputs (Figure 1 at the §6.1 probabilities, catalog
  defaults) must reproduce the committed reference rewards
  (``reference.json``) within :data:`PARITY`, the repository's
  cross-backend parity tolerance.
* Every result must be structurally sound: its configuration
  probabilities sum to one within :data:`PARITY`, and its expected
  reward lies in ``[0, nominal]``, the nominal (all-up)
  configuration's reward.
"""

from __future__ import annotations

import math

#: Absolute tolerance of reward parity and probability mass.
PARITY = 1e-12


def check_result(document: dict, reference: dict, *, pinned: bool) -> str | None:
    """Check one :meth:`PerformabilityResult.to_dict` document."""
    total = math.fsum(record["probability"] for record in document["records"])
    if abs(total - 1.0) > PARITY:
        return f"configuration probabilities sum to {total!r}"
    reward = document["expected_reward"]
    nominal = reference["nominal_reward"]
    if not 0.0 <= reward <= nominal + PARITY:
        return f"reward {reward!r} outside [0, {nominal!r}]"
    if pinned and abs(reward - reference["expected_reward"]) > PARITY:
        return (
            f"reward {reward!r} differs from the reference "
            f"{reference['expected_reward']!r}"
        )
    return None


def check_response(kind: str, document: dict, reference: dict) -> str | None:
    """Check one HTTP 200 service response of the given request kind.

    ``repeat`` requests are catalog defaults, so they are pinned;
    ``/temporal`` curves must stay in ``[0, nominal]`` and their steady
    state must reproduce the static reference reward.
    """
    if kind != "temporal":
        return check_result(
            document["result"], reference, pinned=kind == "repeat"
        )
    result = document["result"]
    nominal = reference["nominal_reward"]
    for point in result["points"]:
        if not 0.0 <= point["expected_reward"] <= nominal + PARITY:
            return (
                f"reward {point['expected_reward']!r} at t={point['time']} "
                f"outside [0, {nominal!r}]"
            )
    steady = result["steady_state"]["expected_reward"]
    if abs(steady - reference["expected_reward"]) > PARITY:
        return (
            f"steady-state reward {steady!r} differs from the reference "
            f"{reference['expected_reward']!r}"
        )
    return None
