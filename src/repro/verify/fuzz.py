"""The fuzzing campaign driver behind ``repro verify`` and ``make fuzz``.

:func:`run_fuzz` walks a seed range through the scenario generator and
the differential oracle, periodically widening the check (the
Monte-Carlo simulation cross-check every ``sim_every`` seeds, the
temporal cross-check every ``temporal_every`` seeds), shrinks any
disagreement to a minimal counterexample, and returns a JSON-serialisable
:class:`FuzzReport` carrying per-seed outcomes, the shrunken
counterexamples, their standalone repro scripts and ready-to-commit
corpus entries.

The campaign is budgeted two ways: ``seeds`` bounds the seed range and
``time_budget`` (seconds, optional) stops early — nightly CI gives a
wall-clock budget so the job finishes whatever the machine, while
``repro verify --seeds N`` gives an exact, reproducible range.

With a :class:`~repro.campaign.store.ResultStore` attached
(``store=``), every completed check is committed under its
content-addressed key (:func:`repro.campaign.keys.fuzz_point_key`) and
already-stored seeds are skipped — a nightly job that died at seed 700
resumes there instead of re-checking 0–699, and a widened seed range
only pays for the new seeds.  Check strength is derived from the
*seed value* (``seed % sim_every``), not the position in the range, so
a seed's key means the same thing whatever range reached it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.verify.generator import (
    DEFAULT_SPACE,
    Scenario,
    ScenarioSpace,
    generate_scenario,
)
from repro.verify.oracle import (
    DEFAULT_ORACLE_CONFIG,
    OracleConfig,
    check_scenario,
    default_backends,
)
from repro.verify.shrink import (
    ShrinkResult,
    corpus_entry,
    repro_script,
    shrink_scenario,
)

#: Called once per seed with the finished outcome (CLI progress line).
FuzzLog = Callable[["SeedOutcome"], None]


@dataclass
class SeedOutcome:
    """Everything the campaign learned from one seed."""

    seed: int
    ok: bool
    seconds: float
    state_count: int
    distinct_configurations: int
    simulated: bool
    temporal_checked: bool
    disagreements: list[dict] = field(default_factory=list)
    shrunken: dict | None = None
    shrink_steps: list[str] = field(default_factory=list)
    script: str | None = None
    corpus: dict | None = None
    #: True when the verdict came from the result store instead of a
    #: fresh oracle run (shrink artifacts are not re-derived for cached
    #: failures — they were produced when the failure was first found).
    cached: bool = False

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "seconds": round(self.seconds, 4),
            "state_count": self.state_count,
            "distinct_configurations": self.distinct_configurations,
            "simulated": self.simulated,
            "temporal_checked": self.temporal_checked,
            "disagreements": self.disagreements,
            "shrunken": self.shrunken,
            "shrink_steps": self.shrink_steps,
            "cached": self.cached,
        }


@dataclass
class FuzzReport:
    """Result of one fuzzing campaign."""

    outcomes: list[SeedOutcome]
    backends: tuple[str, ...]
    seeds_requested: int
    seconds: float
    stopped_by_budget: bool

    @property
    def failures(self) -> list[SeedOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def store_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def as_dict(self) -> dict:
        return {
            "backends": list(self.backends),
            "seeds_requested": self.seeds_requested,
            "seeds_checked": len(self.outcomes),
            "store_hits": self.store_hits,
            "seconds": round(self.seconds, 3),
            "stopped_by_budget": self.stopped_by_budget,
            "failures": len(self.failures),
            "states_covered": sum(o.state_count for o in self.outcomes),
            "simulation_checks": sum(1 for o in self.outcomes if o.simulated),
            "temporal_checks": sum(
                1 for o in self.outcomes if o.temporal_checked
            ),
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }


def run_fuzz(
    *,
    seeds: int = 100,
    seed_start: int = 0,
    time_budget: float | None = None,
    backends: Sequence[str] | None = None,
    space: ScenarioSpace = DEFAULT_SPACE,
    config: OracleConfig = DEFAULT_ORACLE_CONFIG,
    sim_every: int = 10,
    parallel_every: int = 0,
    temporal_every: int = 10,
    shrink: bool = True,
    log: FuzzLog | None = None,
    store=None,
) -> FuzzReport:
    """Run one fuzzing campaign and return its report.

    Every seed runs all selected backends; every ``sim_every``-th seed
    adds the Monte-Carlo cross-check and every ``temporal_every``-th
    seed the temporal one (0 disables either; both are keyed on the
    seed *value*, so the same seed gets the same check strength in any
    range).  ``parallel_every`` is retired: parallel re-runs of the
    scan were removed, and only ``0`` is accepted.  Disagreements are
    shrunk (unless ``shrink=False``) with a predicate that replays only
    the *analytic* part of the oracle — simulation-only disagreements
    are reported but not shrunk, since the stochastic check is not a
    reliable reduction predicate.

    ``store`` (a :class:`~repro.campaign.store.ResultStore`) memoizes
    checks across runs: stored seeds are reported as ``cached``
    outcomes without re-running the oracle, fresh checks are committed
    as they finish (so a killed campaign resumes where it died).  The
    row format is shared with ``repro campaign`` fuzz workloads — a
    campaign and a ``repro verify --store`` run memoize each other.
    """
    if parallel_every != 0:
        raise ValueError(
            "parallel_every is retired: parallel re-runs of the scan were "
            "removed; pass 0 or omit it"
        )
    table = default_backends(backends)
    backend_names = tuple(table)
    oracle_document = None
    if store is not None:
        # Lazy: repro.campaign imports the verify package for its fuzz
        # workloads, so the store integration must not import it back
        # at module level.
        from dataclasses import asdict

        from repro.campaign.keys import fuzz_point_key as _fuzz_point_key

        oracle_document = asdict(config)
    started = time.perf_counter()
    outcomes: list[SeedOutcome] = []
    stopped = False

    for index in range(seeds):
        if time_budget is not None and time.perf_counter() - started > time_budget:
            stopped = True
            break
        seed = seed_start + index
        simulate = bool(sim_every) and seed % sim_every == 0
        temporal = bool(temporal_every) and seed % temporal_every == 0

        seed_started = time.perf_counter()
        scenario = generate_scenario(seed, space)

        key = None
        if store is not None:
            key = _fuzz_point_key(
                scenario.to_document(),
                backends=backend_names,
                simulate=simulate,
                temporal=temporal,
                oracle_config=oracle_document,
            )
            stored = store.get(key)
            if stored is not None:
                outcome = _outcome_from_store(seed, stored.document)
                outcomes.append(outcome)
                if log is not None:
                    log(outcome)
                continue

        report = check_scenario(
            scenario,
            backends=table,
            simulate=simulate,
            temporal=temporal,
            config=config,
        )
        outcome = SeedOutcome(
            seed=seed,
            ok=report.ok,
            seconds=time.perf_counter() - seed_started,
            state_count=report.state_count,
            distinct_configurations=report.distinct_configurations,
            simulated=report.simulated,
            temporal_checked=report.temporal_checked,
            disagreements=[d.as_dict() for d in report.disagreements],
        )
        if store is not None:
            store.put(
                key,
                kind="fuzz",
                name=f"verify/seed-{seed}",
                document={
                    "kind": "fuzz",
                    "workload": "verify",
                    "seed": seed,
                    "ok": report.ok,
                    "reference_backend": report.reference_backend,
                    "backends_checked": list(report.backends_checked),
                    "simulated": report.simulated,
                    "temporal_checked": report.temporal_checked,
                    "bounded_checked": report.bounded_checked,
                    "state_count": report.state_count,
                    "distinct_configurations": (
                        report.distinct_configurations
                    ),
                    "expected_reward": report.expected_reward,
                    "failed_probability": report.failed_probability,
                    "disagreements": [
                        d.as_dict() for d in report.disagreements
                    ],
                },
                seconds=time.perf_counter() - seed_started,
            )

        # Simulation and temporal disagreements are reported but not
        # shrunk: the shrink predicate replays only the analytic part
        # of the oracle, where reductions are reliable.
        analytic_failure = any(
            d.kind not in ("simulation", "temporal")
            for d in report.disagreements
        )
        if not report.ok and shrink and analytic_failure:
            _shrink_outcome(outcome, scenario, table, config)
        outcome.seconds = time.perf_counter() - seed_started
        outcomes.append(outcome)
        if log is not None:
            log(outcome)

    return FuzzReport(
        outcomes=outcomes,
        backends=tuple(table),
        seeds_requested=seeds,
        seconds=time.perf_counter() - started,
        stopped_by_budget=stopped,
    )


def _outcome_from_store(seed: int, document: dict) -> SeedOutcome:
    """A ``cached`` outcome rebuilt from a stored check document.

    The stored verdict stands — in particular a remembered failure
    fails the rerun too — but shrink artifacts are not re-derived.
    """
    return SeedOutcome(
        seed=seed,
        ok=bool(document.get("ok", True)),
        seconds=0.0,
        state_count=int(document.get("state_count", 0)),
        distinct_configurations=int(
            document.get("distinct_configurations", 0)
        ),
        simulated=bool(document.get("simulated", False)),
        temporal_checked=bool(document.get("temporal_checked", False)),
        disagreements=list(document.get("disagreements", [])),
        cached=True,
    )


def _shrink_outcome(
    outcome: SeedOutcome,
    scenario: Scenario,
    table,
    config: OracleConfig,
) -> None:
    """Shrink ``scenario`` and attach the artifacts to ``outcome``."""

    def predicate(candidate: Scenario) -> bool:
        replay = check_scenario(candidate, backends=table, config=config)
        return any(d.kind != "simulation" for d in replay.disagreements)

    result: ShrinkResult = shrink_scenario(scenario, predicate)
    minimal = result.scenario
    final = check_scenario(minimal, backends=table, config=config)
    identifier = f"fuzz-seed-{outcome.seed}"
    note = (
        f"Found by `repro verify` on generated seed {outcome.seed}; "
        f"shrunk in {len(result.steps)} steps "
        f"({result.candidates_tried} candidates tried)."
    )
    outcome.shrunken = minimal.to_document()
    outcome.shrink_steps = result.steps
    outcome.script = repro_script(
        minimal,
        note=note,
        backends=tuple(table),
        filename=f"counterexample-{outcome.seed}.py",
    )
    outcome.corpus = corpus_entry(
        minimal,
        identifier=identifier,
        description=note,
        disagreements=[d.as_dict() for d in final.disagreements],
    )
