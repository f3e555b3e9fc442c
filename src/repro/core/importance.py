"""Component importance (sensitivity) analysis.

Which component's reliability should you improve first — a server, a
processor, an agent, or the manager itself?  For every unreliable
component *c* this module computes Birnbaum-style importance measures
by conditioning the full coverage-aware analysis on *c* being up or
down:

* **reward importance** — E[R | c up] − E[R | c down]: reward-rate at
  stake per unit of c's availability;
* **failure importance** — P(system failed | c down) −
  P(system failed | c up): the classical Birnbaum measure on the
  system-failure event;
* **improvement potential** — E[R | c up] − E[R]: the reward recovered
  by making c perfect.

Management components participate exactly like application components,
so the analysis directly answers the paper's motivating question of how
much the management architecture itself matters.

Every conditioned run shares one :class:`AnalysisStructure` (the fault
graph and ``know`` table depend only on the models, not on what is
pinned) and one LQN cache (a configuration's performance is independent
of probabilities), so the per-component cost is two state-space scans
and zero new LQN solves once the baseline has been evaluated.  The
scans report into ``counters=``/``progress=`` like
:meth:`~repro.core.performability.PerformabilityAnalyzer.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, MutableMapping

from repro.core.dependency import CommonCause
from repro.core.performability import (
    AnalysisStructure,
    PerformabilityAnalyzer,
    derive_structure,
)
from repro.core.progress import ProgressCallback, ScanCounters
from repro.core.rewards import RewardFunction
from repro.errors import ModelError
from repro.ftlqn.model import FTLQNModel
from repro.lqn.results import LQNResults
from repro.mama.model import MAMAModel


@dataclass(frozen=True)
class ImportanceRecord:
    """Importance measures for one component.

    ``reward_if_up`` / ``reward_if_down`` are expected reward rates of
    the system conditioned on the component state; the failure fields
    are the corresponding system-failure probabilities.
    """

    component: str
    reward_if_up: float
    reward_if_down: float
    failure_if_up: float
    failure_if_down: float
    baseline_reward: float

    @property
    def reward_importance(self) -> float:
        return self.reward_if_up - self.reward_if_down

    @property
    def failure_importance(self) -> float:
        return self.failure_if_down - self.failure_if_up

    @property
    def improvement_potential(self) -> float:
        return self.reward_if_up - self.baseline_reward


def importance_analysis(
    ftlqn: FTLQNModel,
    mama: MAMAModel | None,
    failure_probs: Mapping[str, float],
    *,
    reward: RewardFunction | None = None,
    components: Iterable[str] | None = None,
    common_causes: tuple[CommonCause, ...] = (),
    method: str = "bdd",
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
    structure: AnalysisStructure | None = None,
    lqn_cache: MutableMapping[frozenset[str], LQNResults] | None = None,
) -> list[ImportanceRecord]:
    """Birnbaum importance of every (or the given) unreliable component.

    Common-cause events participate too: conditioning an event "up"
    means it never fires, "down" that it has fired.  Returns records
    sorted by decreasing reward importance.

    One :class:`~repro.core.performability.AnalysisStructure` and one
    LQN cache are shared across the baseline and all conditioned runs
    (or injected via ``structure=``/``lqn_cache=``, e.g. a
    :class:`~repro.core.sweep.SweepEngine`'s caches during a
    design-space search), so conditioning only re-scans the state space.
    ``progress`` receives the usual per-phase events, and
    ``counters`` accumulates scan/LQN statistics across *all*
    conditioned runs.

    Raises
    ------
    ModelError
        If ``components`` names something without a (0, 1) failure
        probability — pinned or perfect components have no Birnbaum
        measure.
    """
    common_causes = tuple(common_causes)
    if counters is None:
        counters = ScanCounters()
    if structure is None:
        structure = derive_structure(ftlqn, mama)
    if lqn_cache is None:
        lqn_cache = {}

    def make_analyzer(
        probs: Mapping[str, float], causes: tuple[CommonCause, ...]
    ) -> PerformabilityAnalyzer:
        return PerformabilityAnalyzer(
            ftlqn, mama, failure_probs=probs, reward=reward,
            common_causes=causes, structure=structure, lqn_cache=lqn_cache,
        )

    baseline = make_analyzer(failure_probs, common_causes)
    unreliable = set(baseline.problem.app_components) | set(
        baseline.problem.mgmt_components
    )
    if components is None:
        targets = sorted(unreliable)
    else:
        targets = list(components)
        unknown = [name for name in targets if name not in unreliable]
        if unknown:
            raise ModelError(
                f"components {unknown} have no (0, 1) failure probability; "
                "importance is undefined for pinned or perfect components"
            )

    def expected_metrics(analyzer: PerformabilityAnalyzer) -> tuple[float, float]:
        """(expected reward, failure probability) over shared caches."""
        probabilities = analyzer.configuration_probabilities(
            method=method, progress=progress, counters=counters
        )
        result = analyzer.evaluate_probabilities(
            probabilities, method=method, progress=progress,
            counters=counters,
        )
        return result.expected_reward, result.failed_probability

    baseline_reward, _ = expected_metrics(baseline)

    event_names = {cause.name for cause in common_causes}

    def pinned_analyzer(component: str, pinned: float) -> PerformabilityAnalyzer:
        if component in event_names:
            causes = tuple(
                CommonCause(c.name, pinned, c.components)
                if c.name == component
                else c
                for c in common_causes
            )
            return make_analyzer(failure_probs, causes)
        probs = dict(failure_probs)
        probs[component] = pinned
        return make_analyzer(probs, common_causes)

    records = []
    for component in targets:
        conditioned: dict[str, tuple[float, float]] = {}
        for label, pinned in (("up", 0.0), ("down", 1.0)):
            conditioned[label] = expected_metrics(
                pinned_analyzer(component, pinned)
            )
        records.append(
            ImportanceRecord(
                component=component,
                reward_if_up=conditioned["up"][0],
                reward_if_down=conditioned["down"][0],
                failure_if_up=conditioned["up"][1],
                failure_if_down=conditioned["down"][1],
                baseline_reward=baseline_reward,
            )
        )
    records.sort(key=lambda r: (-r.reward_importance, r.component))
    return records
