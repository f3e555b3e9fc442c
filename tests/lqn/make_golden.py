"""Regenerate ``tests/lqn/golden_lqn.json``: the layered solver's full
results on every configuration LQN of the pinned model set.

The fixture pins :class:`~repro.lqn.results.LQNResults` (throughputs,
services, waits, utilisations, iteration counts and convergence flags)
for each operational configuration reached by

* the five Figure-1 architectures (perfect knowledge plus the four
  MAMA architectures) at the §6.1 failure probabilities;
* the Figure-11 grid (every architecture x every default w_B);
* every catalog scenario under each of its architectures;
* every scenario of ``tests/corpus/counterexamples.json``;
* a seeded set of random layered LQNs (:func:`random_models`) with the
  features configuration LQNs never carry: second phases, several
  reference classes, shared and multi-core processors, tasks without
  entries, and solves that stop at the iteration cap.

Configurations are recorded as sorted node lists, so
``tests/lqn/test_golden.py`` rebuilds each model with
``configuration_to_lqn`` (random models from their seed) and compares a
fresh solve against the pinned numbers.  Run from the repository root::

    PYTHONPATH=src python tests/lqn/make_golden.py

Only regenerate when a solver change is *meant* to move the numbers.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core import PerformabilityAnalyzer, SweepEngine, SweepPoint
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.experiments.figure11 import DEFAULT_WEIGHTS
from repro.core.configuration import configuration_to_lqn
from repro.lqn import LQNCall, LQNModel, LQNResults, solve_lqn_batch
from repro.service.catalog import load_scenario, scenario_names
from repro.verify import Scenario, load_corpus

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "golden_lqn.json"
CORPUS = HERE.parent / "corpus" / "counterexamples.json"
RANDOM_SOURCE = {"kind": "random", "seed": 12, "count": 24}


def model_sources() -> list[tuple[dict, object]]:
    """``(source descriptor, FTLQN)`` for every model the fixture pins."""
    sources: list[tuple[dict, object]] = [({"kind": "figure1"}, figure1_system())]
    for name in scenario_names():
        sources.append(
            ({"kind": "catalog", "scenario": name}, load_scenario(name).ftlqn)
        )
    for entry in load_corpus(CORPUS):
        scenario = Scenario.from_document(entry["scenario"])
        sources.append(({"kind": "corpus", "id": entry["id"]}, scenario.ftlqn))
    return sources


def _solved(analyzer) -> set[frozenset[str]]:
    """Configurations whose LQN a cold ``bdd`` analysis solves."""
    cache: dict = {}
    analyzer(cache).solve(method="bdd")
    return set(cache)


def figure1_configurations() -> set[frozenset[str]]:
    ftlqn = figure1_system()
    found: set[frozenset[str]] = set()
    for mama in [None, *(b() for b in ARCHITECTURE_BUILDERS.values())]:
        found |= _solved(
            lambda cache, mama=mama: PerformabilityAnalyzer(
                ftlqn, mama,
                failure_probs=figure1_failure_probs(mama),
                lqn_cache=cache,
            )
        )
    architectures = {n: b() for n, b in ARCHITECTURE_BUILDERS.items()}
    points = [
        SweepPoint(
            name=f"{name}@w{index}",
            architecture=None if name == "perfect" else name,
            failure_probs=figure1_failure_probs(architectures.get(name)),
            weights={"UserA": 1.0, "UserB": w_b},
        )
        for name in ["perfect", *architectures]
        for index, w_b in enumerate(DEFAULT_WEIGHTS)
    ]
    engine = SweepEngine(ftlqn, architectures)
    engine.run(points, method="bdd")
    return found | set(engine.lqn_cache)


def catalog_configurations(name: str) -> set[frozenset[str]]:
    """Every architecture of the scenario at its defaults, plus the
    perfect-knowledge baseline where no common cause names a management
    component; failure probabilities are restricted to each analysis's
    component universe."""
    bundle = load_scenario(name)
    application = set(bundle.ftlqn.component_names())
    mamas = list(bundle.architectures.values())
    if all(set(c.components) <= application for c in bundle.common_causes):
        mamas.insert(0, None)
    found: set[frozenset[str]] = set()
    for mama in mamas:
        universe = application | (
            set(mama.components) | set(mama.connectors) if mama else set()
        )
        found |= _solved(
            lambda cache, mama=mama, universe=universe: PerformabilityAnalyzer(
                bundle.ftlqn, mama,
                failure_probs={
                    k: v for k, v in bundle.failure_probs.items()
                    if k in universe
                },
                common_causes=bundle.common_causes,
                lqn_cache=cache,
            )
        )
    return found


def corpus_configurations(entry_id: str) -> set[frozenset[str]]:
    (entry,) = [e for e in load_corpus(CORPUS) if e["id"] == entry_id]
    scenario = Scenario.from_document(entry["scenario"])
    return _solved(lambda cache: scenario.analyzer(lqn_cache=cache))


def random_models(seed: int, count: int) -> list[LQNModel]:
    """``count`` seeded random layered LQNs: one or two reference tasks
    above up to four server layers, each entry calling up to three
    entries of lower layers."""
    rng = random.Random(seed)
    models = []
    for k in range(count):
        m = LQNModel(name=f"random-{seed}-{k}")
        processors = [f"p{i}" for i in range(rng.randint(1, 4))]
        for name in processors:
            m.add_processor(name, multiplicity=rng.choice([1, 1, 2, 3]))
        layers = [[f"u{i}" for i in range(rng.choice([1, 1, 2]))]]
        for depth in range(rng.randint(1, 4)):
            layers.append([f"t{depth}_{i}" for i in range(rng.randint(1, 3))])
        for depth, layer in enumerate(layers):
            for task in layer:
                m.add_task(
                    task,
                    processor=rng.choice(processors),
                    multiplicity=rng.choice([1, 3, 10, 40] if depth == 0 else [1, 1, 2, 5, 20]),
                    is_reference=depth == 0,
                    think_time=rng.choice([0.0, 0.5, 2.0]) if depth == 0 else 0.0,
                )
        if rng.random() < 0.2:
            m.add_task("idle", processor=processors[0])
        entries: dict[str, list[str]] = {}
        for depth in range(len(layers) - 1, -1, -1):
            below = [e for layer in layers[depth + 1:] for t in layer for e in entries[t]]
            for task in layers[depth]:
                entries[task] = []
                for j in range(rng.randint(1, 3)):
                    targets = rng.sample(below, rng.randint(0, min(3, len(below))))
                    if depth == 0 and not targets:
                        targets = below[:1]
                    m.add_entry(
                        f"{task}_e{j}",
                        task=task,
                        demand=rng.choice([0.0, 0.01, 0.1, 0.3, 1.0] if depth else [0.0, 0.05]),
                        calls=[
                            LQNCall(t, mean_calls=rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
                            for t in targets
                        ],
                        phase2_demand=rng.choice([0.0, 0.0, 0.05, 0.2]) if depth else 0.0,
                    )
                    entries[task].append(f"{task}_e{j}")
        models.append(m)
    return models


def results_document(results: LQNResults) -> dict:
    """Every field of an :class:`LQNResults` as plain JSON."""
    return {
        "task_throughputs": dict(results.task_throughputs),
        "entry_throughputs": dict(results.entry_throughputs),
        "entry_service_times": dict(results.entry_service_times),
        "entry_waiting_times": dict(results.entry_waiting_times),
        "task_utilizations": dict(results.task_utilizations),
        "processor_utilizations": dict(results.processor_utilizations),
        "iterations": results.iterations,
        "converged": results.converged,
    }


def build() -> dict:
    cases = []
    for source, ftlqn in model_sources():
        if source["kind"] == "figure1":
            configurations = figure1_configurations()
        elif source["kind"] == "catalog":
            configurations = catalog_configurations(source["scenario"])
        else:
            configurations = corpus_configurations(source["id"])
        ordered = sorted(sorted(c) for c in configurations)
        models = [configuration_to_lqn(ftlqn, frozenset(c)) for c in ordered]
        solved = solve_lqn_batch(models)
        cases.append(
            {
                "source": source,
                "models": [
                    {"configuration": c, "results": results_document(r)}
                    for c, r in zip(ordered, solved)
                ],
            }
        )
    solved = solve_lqn_batch(
        random_models(RANDOM_SOURCE["seed"], RANDOM_SOURCE["count"])
    )
    cases.append(
        {
            "source": RANDOM_SOURCE,
            "models": [
                {"index": i, "results": results_document(r)}
                for i, r in enumerate(solved)
            ],
        }
    )
    return {"version": 1, "cases": cases}


def main() -> None:
    document = build()
    FIXTURE.write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
    count = sum(len(case["models"]) for case in document["cases"])
    print(f"wrote {FIXTURE.name}: {len(document['cases'])} cases, {count} models")


if __name__ == "__main__":
    main()
