"""Regenerate ``tests/sim/golden_sim.json``: the Monte-Carlo simulators'
exact outputs on a pinned set of models and seeds.

The fixture pins, for each model,

* :func:`~repro.sim.availability_sim.simulate_availability` in the three
  detection modes (instantaneous, deterministic delay, exponential
  delay): every configuration fraction, the average reward and the
  event count;
* :func:`~repro.sim.availability_sim.simulate_transient`: every raw
  reward and operational sample, with certain failures clamped to
  probability 0.9 so that every component has a failure/repair lift.

The models are the five Figure-1 analyses (perfect knowledge plus the
four MAMA architectures at the §6.1 failure probabilities) and the fuzz
scenarios of seeds 41-50.  Group rewards are synthetic — a fixed
function of each reachable configuration's rank — so the pins depend on
the simulators alone and not on the LQN solver.  Horizons and
replication counts are short: the fixture is a parity argument for
changes to how the simulators evaluate states, not an accuracy check.

``tests/sim/test_golden_sim.py`` reruns every case and compares with
``==``.  Run from the repository root::

    PYTHONPATH=src python tests/sim/make_golden.py

Only regenerate when a change is *meant* to move the samples (a change
to the random streams or the event order, say).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.core import PerformabilityAnalyzer
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.markov.availability import ComponentAvailability
from repro.sim.availability_sim import simulate_availability, simulate_transient
from repro.verify import Scenario, generate_scenario

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "golden_sim.json"
FUZZ_SEEDS = range(41, 51)
HORIZON = 200.0
SEED = 3
#: ``(label, detection_delay, detection_mode)`` of each availability run.
MODES = (
    ("instant", 0.0, "deterministic"),
    ("deterministic", 0.3, "deterministic"),
    ("exponential", 0.3, "exponential"),
)
TIMES = (0.25, 1.0, 3.0)
#: Clamp for certain failures in the transient runs (see :func:`lifted`).
CERTAIN_FAILURE = 0.9
REPLICATIONS = 40


def model_sources() -> list[tuple[dict, Scenario]]:
    """``(source descriptor, scenario)`` for every model the fixture pins."""
    ftlqn = figure1_system()
    sources = [
        (
            {"kind": "figure1", "architecture": name},
            Scenario(
                ftlqn=ftlqn,
                mama=builder() if builder else None,
                failure_probs=figure1_failure_probs(
                    builder() if builder else None
                ),
            ),
        )
        for name, builder in [("perfect", None), *ARCHITECTURE_BUILDERS.items()]
    ]
    for seed in FUZZ_SEEDS:
        sources.append(({"kind": "fuzz", "seed": seed}, generate_scenario(seed)))
    return sources


def group_rewards(scenario: Scenario) -> dict[frozenset[str], dict[str, float]]:
    """Synthetic per-group reward rates of every reachable configuration."""
    configurations = sorted(
        (
            c for c in PerformabilityAnalyzer(
                scenario.ftlqn, scenario.mama,
                failure_probs=scenario.failure_probs,
                common_causes=scenario.common_causes,
            ).configuration_probabilities(method="bdd")
            if c is not None
        ),
        key=sorted,
    )
    groups = [task.name for task in scenario.ftlqn.reference_tasks()]
    return {
        configuration: {
            group: (rank + 1) / (rank + 2) / (index + 1)
            for index, group in enumerate(groups)
        }
        for rank, configuration in enumerate(configurations)
    }


def lifted(scenario: Scenario) -> Scenario:
    """The scenario with certain failures clamped to
    :data:`CERTAIN_FAILURE`, so every component has a finite-rate
    failure/repair lift for the transient simulator."""
    return dataclasses.replace(
        scenario,
        failure_probs={
            name: min(p, CERTAIN_FAILURE)
            for name, p in scenario.failure_probs.items()
        },
        common_causes=tuple(
            dataclasses.replace(c, probability=min(c.probability, CERTAIN_FAILURE))
            for c in scenario.common_causes
        ),
    )


def transient_rates(scenario: Scenario) -> dict[str, ComponentAvailability]:
    """Failure/repair rates (repair rate 1) lifting the probabilities of
    every component of the scenario's universe."""
    rates = {
        name: ComponentAvailability.from_probability(p)
        for name, p in scenario.failure_probs.items()
    }
    for name in scenario.component_universe():
        rates.setdefault(name, ComponentAvailability.from_probability(0.0))
    return rates


def run_availability(scenario: Scenario, rewards, delay: float, mode: str):
    return simulate_availability(
        scenario.ftlqn,
        scenario.mama,
        scenario.failure_probs,
        common_causes=scenario.common_causes,
        horizon=HORIZON,
        seed=SEED,
        detection_delay=delay,
        detection_mode=mode,
        group_rewards=rewards,
    )


def run_transient(scenario: Scenario, rewards):
    return simulate_transient(
        scenario.ftlqn,
        scenario.mama,
        transient_rates(scenario),
        times=TIMES,
        common_causes=scenario.common_causes,
        replications=REPLICATIONS,
        seed=SEED,
        group_rewards=rewards,
    )


def availability_document(result) -> dict:
    """Configuration keys become sorted node lists (``None``, the failed
    system, first)."""
    fractions = sorted(
        [sorted(c), value]
        for c, value in result.configuration_fractions.items()
        if c is not None
    )
    if None in result.configuration_fractions:
        fractions.insert(0, [None, result.configuration_fractions[None]])
    return {
        "configuration_fractions": fractions,
        "average_reward": result.average_reward,
        "event_count": result.event_count,
    }


def transient_document(result) -> dict:
    return {
        "reward_samples": [list(s) for s in result.reward_samples],
        "operational_samples": [list(s) for s in result.operational_samples],
    }


def build() -> dict:
    cases = []
    for source, scenario in model_sources():
        rewards = group_rewards(scenario)
        case = {
            "source": source,
            "availability": {
                label: availability_document(
                    run_availability(scenario, rewards, delay, mode)
                )
                for label, delay, mode in MODES
            },
        }
        scenario = lifted(scenario)
        case["transient"] = transient_document(
            run_transient(scenario, group_rewards(scenario))
        )
        cases.append(case)
    return {
        "version": 1,
        "horizon": HORIZON,
        "seed": SEED,
        "times": list(TIMES),
        "replications": REPLICATIONS,
        "cases": cases,
    }


def main() -> None:
    document = build()
    FIXTURE.write_text(json.dumps(document, indent=1) + "\n")
    events = sum(
        run["event_count"]
        for case in document["cases"]
        for run in case["availability"].values()
    )
    print(f"wrote {FIXTURE.name}: {len(document['cases'])} cases, {events} events")


if __name__ == "__main__":
    main()
