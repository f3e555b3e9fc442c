"""The end-to-end performability algorithm of §5.

:class:`PerformabilityAnalyzer` composes the substrates:

FTLQN model → fault propagation graph (§3)
MAMA model → knowledge propagation graph → ``know`` expressions (§4)
state-space scan (enumerative §5 or symbolic BDD §7) → configurations + probabilities
configuration → ordinary LQN → solver → throughputs → reward (§5 step 5)
expected reward rate = Σ R_i · Prob(C_i) (§5 step 6)
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from collections.abc import Callable, Mapping, MutableMapping, Sequence

from repro.booleans.expr import Expr, Var, all_of
from repro.core.configuration import configuration_to_lqn
from repro.core.dependency import CommonCause
from repro.core.enumeration import (
    StateSpaceProblem,
    enumerate_configurations,
    normalize_method,
)
from repro.core.bounded import (
    DEFAULT_EPSILON,
    bounded_configurations,
    nominal_configuration,
)
from repro.core.kernel import bitset_configurations
from repro.core.symbolic import bdd_configurations
from repro.core.progress import (
    ProgressCallback,
    ProgressReporter,
    ScanCounters,
)
from repro.core.results import ConfigurationRecord, PerformabilityResult
from repro.core.rewards import RewardFunction, weighted_throughput_reward
from repro.errors import ModelError
from repro.ftlqn.fault_graph import build_fault_graph
from repro.ftlqn.model import FTLQNModel
from repro.lqn.results import LQNResults
from repro.lqn.solver import solve_lqn_batch
from repro.mama.knowledge import KnowledgeGraph
from repro.mama.model import ComponentKind, MAMAModel


#: Signature of an injectable batched LQN solver: a list of ordinary
#: LQN models in, one :class:`LQNResults` per model (same order) out.
#: The default is :func:`repro.lqn.solver.solve_lqn_batch`; the
#: analysis service injects its micro-batching queue here so concurrent
#: requests coalesce into fewer, larger batched solves.
BatchSolver = Callable[[Sequence[object]], list[LQNResults]]


class LQNCoordinator:
    """Single-flight gate over a shared configuration → LQN cache.

    Concurrent analyzers (the sweep engine under the analysis service's
    thread pool) share one LQN cache; without coordination two threads
    that miss on the same configuration would both solve it — wasted
    work, and a lost-update on the cache-hit counters.  The coordinator
    closes that window: a thread *claims* the configurations it will
    solve by publishing an in-flight latch under the lock, solves every
    claim in **one** batched call (preserving the PR-8 batching win
    across concurrent requests), then publishes the results and
    releases the latches.  A thread that finds a configuration already
    claimed simply waits on the claimant's latch and reads the cache —
    so across all threads each distinct configuration is solved exactly
    once, and per-thread ``solved_now`` sets stay disjoint (coherent
    ``lqn_solves``/``lqn_cache_hits`` accounting).

    Single-threaded behaviour is bit-identical to the historical inline
    batch solve: every missing configuration is claimed, models are
    built in the same order, and the same ``solve_lqn_batch`` call is
    issued (batched solves are bitwise-equal to sequential ones).

    Parameters
    ----------
    ftlqn:
        The layered model whose configurations are being solved.
    cache:
        The shared configuration → :class:`LQNResults` mapping; a fresh
        dict when omitted.  All mutation happens under the internal
        lock.
    solver:
        Optional :data:`BatchSolver` override (micro-batching, custom
        tolerances).  Defaults to :func:`solve_lqn_batch`.
    """

    def __init__(
        self,
        ftlqn: FTLQNModel,
        cache: MutableMapping[frozenset[str], LQNResults] | None = None,
        *,
        solver: BatchSolver | None = None,
    ) -> None:
        self._ftlqn = ftlqn
        self._cache = cache if cache is not None else {}
        self._solver = solver or solve_lqn_batch
        self._lock = threading.Lock()
        self._inflight: dict[frozenset[str], threading.Event] = {}

    @property
    def cache(self) -> MutableMapping[frozenset[str], LQNResults]:
        """The shared configuration → LQN-results mapping."""
        return self._cache

    def ensure(
        self,
        configurations: Sequence[frozenset[str]],
        *,
        counters: ScanCounters | None = None,
    ) -> set[frozenset[str]]:
        """Make every configuration present in the cache.

        ``configurations`` must not contain duplicates (callers pass
        the missing keys of a probability mapping, which are unique).
        Returns the subset this call actually solved — configurations
        claimed by concurrent peers are waited for instead and are
        *not* in the returned set, so callers can keep attributing
        cache hits and fresh solves exactly.
        """
        claimed: list[frozenset[str]] = []
        waiting: list[tuple[frozenset[str], threading.Event]] = []
        with self._lock:
            for configuration in configurations:
                if configuration in self._cache:
                    continue
                latch = self._inflight.get(configuration)
                if latch is None:
                    self._inflight[configuration] = threading.Event()
                    claimed.append(configuration)
                else:
                    waiting.append((configuration, latch))
        solved: set[frozenset[str]] = set()
        if claimed:
            try:
                batch = self._solver(
                    [
                        configuration_to_lqn(self._ftlqn, configuration)
                        for configuration in claimed
                    ]
                )
                with self._lock:
                    for configuration, results in zip(claimed, batch):
                        self._cache[configuration] = results
            finally:
                # Release the latches even on solver failure so waiting
                # peers can re-claim instead of blocking forever.
                with self._lock:
                    for configuration in claimed:
                        latch = self._inflight.pop(configuration, None)
                        if latch is not None:
                            latch.set()
            if counters is not None:
                counters.record_level("lqn_batch_max", len(claimed))
            solved.update(claimed)
        for _configuration, latch in waiting:
            latch.wait()
        # A peer whose solver raised released its latches without
        # publishing results; claim the leftovers ourselves (its error
        # surfaces on its own thread, not here).
        retry = [
            configuration
            for configuration, _latch in waiting
            if configuration not in self._cache
        ]
        if retry:
            solved |= self.ensure(retry, counters=counters)
        return solved


@dataclass(frozen=True)
class AnalysisStructure:
    """Everything the analysis derives from the *structure* of an
    (FTLQN, MAMA) pair alone — independent of failure probabilities,
    common causes and rewards.

    Deriving this is the expensive, probability-free part of
    :class:`PerformabilityAnalyzer` construction (fault-graph walk plus
    one ``know``-expression derivation per required (component, task)
    pair).  :func:`derive_structure` builds it; a sweep over many
    probability scenarios derives it once per architecture and passes
    it to every per-point analyzer via the ``structure=`` argument.

    Attributes
    ----------
    graph:
        The fault propagation graph of the FTLQN model.
    know_exprs:
        Base ``know[c, t]`` expressions keyed by (component, task);
        empty for the perfect-knowledge analysis.  Treat as immutable —
        analyzers copy it before rewriting for common causes.
    mama_names / connector_names:
        Component and connector names of the MAMA model (empty sets
        when there is none).
    """

    graph: object
    know_exprs: Mapping[tuple[str, str], Expr]
    mama_names: frozenset[str]
    connector_names: frozenset[str]

    @property
    def perfect(self) -> bool:
        """True when derived without a MAMA model."""
        return not self.mama_names


def derive_structure(
    ftlqn: FTLQNModel, mama: MAMAModel | None
) -> AnalysisStructure:
    """Derive the probability-independent analysis structure.

    Validates the FTLQN model, builds its fault propagation graph and,
    when a MAMA model is given, checks cross-model name consistency and
    derives the ``know`` expression table for every (component, task)
    pair the reconfiguration decisions need.
    """
    ftlqn.validated()
    graph = build_fault_graph(ftlqn)
    ftlqn_names = set(ftlqn.component_names())
    know_exprs: dict[tuple[str, str], Expr] = {}
    mama_names: set[str] = set()
    connector_names: set[str] = set()

    if mama is not None:
        _check_cross_model_names(ftlqn, mama, ftlqn_names)
        knowledge = KnowledgeGraph(mama)
        pairs = graph.required_know_pairs()
        missing = sorted({c for c, _ in pairs if c not in mama.components})
        if missing:
            raise ModelError(
                "the MAMA model does not cover the components "
                f"{missing}, whose state the reconfiguration decisions "
                "need (they support a service target).  Add them to "
                "the architecture — links and processors as "
                "alive-watched processor-kind components, tasks as "
                "monitored application tasks."
            )
        know_exprs = dict(knowledge.know_table(pairs))
        mama_names = set(mama.components)
        connector_names = set(mama.connectors)

    return AnalysisStructure(
        graph=graph,
        know_exprs=know_exprs,
        mama_names=frozenset(mama_names),
        connector_names=frozenset(connector_names),
    )


def _check_cross_model_names(
    ftlqn: FTLQNModel, mama: MAMAModel, ftlqn_names: set[str]
) -> None:
    for component in mama.components.values():
        if component.kind is ComponentKind.APPLICATION_TASK:
            if component.name not in ftlqn.tasks:
                raise ModelError(
                    f"MAMA application task {component.name!r} does not "
                    "exist in the FTLQN model"
                )
            expected = ftlqn.tasks[component.name].processor
            if component.processor != expected:
                raise ModelError(
                    f"MAMA places {component.name!r} on "
                    f"{component.processor!r} but the FTLQN model hosts "
                    f"it on {expected!r}"
                )
    for connector in mama.connectors:
        if connector in ftlqn_names:
            raise ModelError(
                f"MAMA connector name {connector!r} collides with an "
                "FTLQN component name"
            )


class PerformabilityAnalyzer:
    """Coverage-aware performability of a layered system.

    Parameters
    ----------
    ftlqn:
        The layered application model.
    mama:
        The fault-management architecture; ``None`` analyses the
        idealised perfect-knowledge system of [8, 10].
    failure_probs:
        Steady-state failure probability per component name (tasks,
        processors — application and management — and, optionally,
        MAMA connectors).  Names absent from the mapping are perfectly
        reliable.  A probability of 1.0 pins a component down (useful
        for what-if analyses).
    reward:
        Reward function for operational configurations; defaults to the
        unweighted sum of user-group throughputs.  The failed
        configuration always has reward 0.
    common_causes:
        Optional shared failure modes (see
        :class:`repro.core.dependency.CommonCause`): each event is an
        extra independent variable taking down all its components at
        once, in both the application and the knowledge analysis.
    structure:
        Optional precomputed :class:`AnalysisStructure` for this exact
        (ftlqn, mama) pair, as returned by :func:`derive_structure`.
        Passing it skips the fault-graph and ``know``-table derivation;
        sweeps over many probability scenarios share one per
        architecture.  The caller is responsible for it matching the
        models.
    lqn_cache:
        Optional external configuration → :class:`LQNResults` mapping
        used as the analyzer's LQN cache.  Sharing one mutable mapping
        between analyzers of the *same* FTLQN model de-duplicates LQN
        solves across them (a configuration's performance is
        independent of failure probabilities).  Default: a private
        per-analyzer dict.
    lqn_solver:
        Optional :data:`BatchSolver` replacing
        :func:`~repro.lqn.solver.solve_lqn_batch` for the batched LQN
        phase (the analysis service injects its micro-batching queue).
        Ignored when ``lqn_coordinator`` is given — the coordinator
        already carries a solver.
    lqn_coordinator:
        Optional shared :class:`LQNCoordinator`.  When given it
        supersedes ``lqn_cache`` (the analyzer adopts the
        coordinator's cache) and makes concurrent analyzers over the
        same model solve each distinct configuration exactly once.

    Example
    -------
    See ``examples/quickstart.py`` for a complete walk-through on the
    paper's Figure 1 system.
    """

    def __init__(
        self,
        ftlqn: FTLQNModel,
        mama: MAMAModel | None = None,
        *,
        failure_probs: Mapping[str, float] | None = None,
        reward: RewardFunction | None = None,
        common_causes: list[CommonCause] | tuple[CommonCause, ...] = (),
        structure: AnalysisStructure | None = None,
        lqn_cache: MutableMapping[frozenset[str], LQNResults] | None = None,
        lqn_solver: BatchSolver | None = None,
        lqn_coordinator: LQNCoordinator | None = None,
    ):
        self._ftlqn = ftlqn
        self._mama = mama
        self._common_causes = tuple(common_causes)
        self._failure_probs = dict(failure_probs or {})
        for name, probability in self._failure_probs.items():
            if not 0.0 <= probability <= 1.0:
                raise ModelError(
                    f"failure probability of {name!r} must be in [0, 1], "
                    f"got {probability}"
                )
        if structure is None:
            structure = derive_structure(ftlqn, mama)
        self._structure = structure
        self._graph = structure.graph
        if reward is None:
            reward = weighted_throughput_reward(
                {task.name: 1.0 for task in ftlqn.reference_tasks()}
            )
        self._reward = reward
        self._problem = self._build_problem()
        if lqn_coordinator is not None:
            self._coordinator = lqn_coordinator
            self._lqn_cache = lqn_coordinator.cache
        else:
            self._lqn_cache = lqn_cache if lqn_cache is not None else {}
            self._coordinator = LQNCoordinator(
                ftlqn, self._lqn_cache, solver=lqn_solver
            )

    # ------------------------------------------------------------------

    @property
    def fault_graph(self):
        """The derived fault propagation graph."""
        return self._graph

    @property
    def problem(self) -> StateSpaceProblem:
        """The prepared state-space problem (for inspection/testing)."""
        return self._problem

    @property
    def structure(self) -> AnalysisStructure:
        """The probability-independent analysis structure."""
        return self._structure

    @property
    def lqn_cache(self) -> MutableMapping[frozenset[str], LQNResults]:
        """The configuration → LQN-results cache (shared if injected)."""
        return self._lqn_cache

    def _build_problem(self) -> StateSpaceProblem:
        ftlqn_names = set(self._ftlqn.component_names())
        # Copy the base table: common-cause resolution rewrites entries
        # in place and the structure may be shared across analyzers.
        know_exprs: dict[tuple[str, str], Expr] = dict(
            self._structure.know_exprs
        )
        mama_names = set(self._structure.mama_names)
        connector_names = set(self._structure.connector_names)

        universe = ftlqn_names | mama_names | connector_names
        unknown = [
            name for name in self._failure_probs if name not in universe
        ]
        if unknown:
            raise ModelError(
                f"failure_probs mention unknown components: {sorted(unknown)}"
            )

        cause_probability, leaf_causes, app_events, mgmt_events = (
            self._resolve_common_causes(universe, ftlqn_names, know_exprs)
        )

        app_components: list[str] = []
        mgmt_components: list[str] = []
        fixed_up: set[str] = set()
        fixed_down: set[str] = set()
        up_probability: dict[str, float] = {}

        for name in sorted(universe):
            p_fail = self._failure_probs.get(name, 0.0)
            if p_fail == 0.0:
                fixed_up.add(name)
            elif p_fail == 1.0:
                fixed_down.add(name)
            else:
                up_probability[name] = 1.0 - p_fail
                if name in ftlqn_names:
                    app_components.append(name)
                else:
                    mgmt_components.append(name)

        for name, p_occur in cause_probability.items():
            if p_occur == 0.0:
                fixed_up.add(name)
            elif p_occur == 1.0:
                fixed_down.add(name)
            else:
                up_probability[name] = 1.0 - p_occur
                if name in app_events:
                    app_components.append(name)
                else:
                    mgmt_components.append(name)

        return StateSpaceProblem(
            graph=self._graph,
            know_exprs=know_exprs,
            perfect=self._mama is None,
            app_components=tuple(app_components),
            mgmt_components=tuple(mgmt_components),
            fixed_up=frozenset(fixed_up),
            fixed_down=frozenset(fixed_down),
            up_probability=up_probability,
            leaf_causes=leaf_causes,
        )

    def _resolve_common_causes(
        self,
        universe: set[str],
        ftlqn_names: set[str],
        know_exprs: dict[tuple[str, str], Expr],
    ) -> tuple[dict[str, float], dict[str, tuple[str, ...]], set[str], set[str]]:
        """Validate common causes, rewrite know expressions, and return
        (event probability, leaf->events, app-side events, mgmt-side
        events).

        An event covering any application (fault-graph) component must be
        enumerated on the application side so that
        :meth:`StateSpaceProblem.leaf_state` can see it; pure-management
        events stay on the management side.
        """
        cause_probability: dict[str, float] = {}
        component_events: dict[str, list[str]] = {}
        app_events: set[str] = set()
        mgmt_events: set[str] = set()

        for cause in self._common_causes:
            if cause.name in universe or cause.name in cause_probability:
                raise ModelError(
                    f"common cause name {cause.name!r} collides with an "
                    "existing component, connector or event"
                )
            missing = [c for c in cause.components if c not in universe]
            if missing:
                raise ModelError(
                    f"common cause {cause.name!r} affects unknown "
                    f"components: {sorted(missing)}"
                )
            cause_probability[cause.name] = cause.probability
            touches_application = False
            for component in cause.components:
                component_events.setdefault(component, []).append(cause.name)
                if component in ftlqn_names:
                    touches_application = True
            (app_events if touches_application else mgmt_events).add(cause.name)

        if component_events and know_exprs:
            replacement = {
                component: all_of(
                    [Var(component)] + [Var(event) for event in events]
                )
                for component, events in component_events.items()
            }
            for pair, expr in know_exprs.items():
                know_exprs[pair] = expr.replace(replacement)

        leaf_names = {leaf.name for leaf in self._graph.leaves()}
        leaf_causes = {
            component: tuple(events)
            for component, events in component_events.items()
            if component in leaf_names
        }
        return cause_probability, leaf_causes, app_events, mgmt_events

    # ------------------------------------------------------------------

    def configuration_probabilities(
        self,
        *,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> dict[frozenset[str] | None, float]:
        """Step 4: distinct configurations and their probabilities.

        ``method`` is ``"bdd"`` (default; exact symbolic evaluation,
        polynomial in diagram size — see :mod:`repro.core.symbolic`),
        ``"enumeration"`` (the paper's literal 2^N scan; alias
        ``"interp"``), ``"bits"`` (the compiled bit-parallel kernel of
        :mod:`repro.core.kernel`) or ``"bounded"`` (most-probable
        states first until leftover mass ≤ ``epsilon`` — see
        :mod:`repro.core.bounded`; the returned probabilities then sum
        to less than one and downstream reward evaluation reports a
        rigorous interval).  Unknown names raise
        :class:`~repro.errors.ModelError`.  ``epsilon`` is only read by
        ``"bounded"``; ``progress`` receives
        :class:`~repro.core.progress.ProgressEvent` notifications;
        ``counters`` collects scan statistics.
        """
        method = normalize_method(method)
        if method == "enumeration":
            return enumerate_configurations(
                self._problem, progress=progress, counters=counters
            )
        if method == "bits":
            return bitset_configurations(
                self._problem, progress=progress, counters=counters
            )
        if method == "bounded":
            return bounded_configurations(
                self._problem, epsilon=epsilon, progress=progress,
                counters=counters,
            )
        return bdd_configurations(
            self._problem, progress=progress, counters=counters
        )

    def performance_of(self, configuration: frozenset[str]) -> LQNResults:
        """Step 5: solve the LQN of one configuration (cached).

        Cache misses route through the shared
        :class:`LQNCoordinator` as a batch of one — bitwise-equal to a
        direct :func:`~repro.lqn.solver.solve_lqn` call, and safe when
        another thread is solving the same configuration.
        """
        cached = self._lqn_cache.get(configuration)
        if cached is None:
            self._coordinator.ensure([configuration])
            cached = self._lqn_cache[configuration]
        return cached

    def solve(
        self,
        *,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
    ) -> PerformabilityResult:
        """Run the full §5 algorithm and return the result.

        ``epsilon`` and ``progress`` are forwarded to the state-space
        scan (see :meth:`configuration_probabilities`); the
        per-configuration LQN phase additionally reports progress under
        phase ``"lqn"``.  The returned result carries the filled
        :class:`~repro.core.progress.ScanCounters` as ``counters``.  With
        ``method="bounded"`` the result additionally carries the
        rigorous reward interval (``reward_interval``,
        ``unexplored_probability``).
        """
        method = normalize_method(method)
        counters = ScanCounters()
        probabilities = self.configuration_probabilities(
            method=method, epsilon=epsilon, progress=progress,
            counters=counters,
        )
        return self.evaluate_probabilities(
            probabilities, method=method, progress=progress,
            counters=counters,
        )

    def evaluate_probabilities(
        self,
        probabilities: Mapping[frozenset[str] | None, float],
        *,
        method: str = "bdd",
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> PerformabilityResult:
        """Steps 5–6 given precomputed configuration probabilities.

        Runs one (cached) LQN solve per operational configuration,
        attaches rewards and folds the expected steady-state reward
        rate.  :meth:`solve` is ``configuration_probabilities`` followed
        by this method; sweeps that reuse a scan result across points
        (e.g. a pure reward-weight sweep) call it directly.

        ``probabilities`` is consumed in iteration order, which fixes
        the floating-point summation order of the expected reward —
        feeding the same mapping twice gives bit-identical results.
        Unconverged LQN solutions are folded in as-is, but counted in
        ``counters.lqn_unconverged`` and flagged on their
        :class:`~repro.core.results.ConfigurationRecord`.

        With ``method="bounded"`` the probabilities are allowed to sum
        to less than one; the deficit is reported as
        ``unexplored_probability`` and the result carries a rigorous
        reward interval: the lower bound counts every unexplored state
        at reward 0, the upper bound at ``R_max = max(rewards seen,
        nominal all-up configuration's reward)``.  Both bounds assume
        the reward function is non-negative and maximised by the
        nominal configuration — true of the default throughput-weighted
        rewards, where degraded configurations can only lose capacity.
        """
        method = normalize_method(method)
        if counters is None:
            counters = ScanCounters()
        reporter = ProgressReporter(progress)

        records: list[ConfigurationRecord] = []
        expected = 0.0
        reference_names = [t.name for t in self._ftlqn.reference_tasks()]
        lqn_started = time.perf_counter()
        # Solve every uncached configuration in one batched layered
        # solve (bit-identical to sequential per-configuration solves;
        # see solve_lqn_batch), going through the single-flight
        # coordinator so concurrent analyzers sharing this cache solve
        # each configuration exactly once.  Cache hits are counted
        # against the cache state *before* this call; configurations a
        # peer solved while we waited count as hits, keeping
        # lqn_solves + lqn_cache_hits coherent across threads.
        missing = [
            configuration
            for configuration in probabilities
            if configuration is not None
            and configuration not in self._lqn_cache
        ]
        solved_now: set[frozenset[str]] = set()
        if missing:
            solved_now = self._coordinator.ensure(missing, counters=counters)
        solved = 0
        for configuration, probability in probabilities.items():
            solved += 1
            reporter.emit("lqn", solved - 1, len(probabilities), counters)
            if configuration is None:
                records.append(
                    ConfigurationRecord(
                        configuration=None,
                        probability=probability,
                        reward=0.0,
                    )
                )
                continue
            if configuration in solved_now:
                counters.lqn_solves += 1
            else:
                counters.lqn_cache_hits += 1
            results = self.performance_of(configuration)
            if not results.converged:
                counters.lqn_unconverged += 1
            reward = self._reward(configuration, results)
            if not math.isfinite(reward):
                raise ModelError(
                    f"reward function returned {reward!r} for configuration "
                    f"{sorted(configuration)}"
                )
            throughputs = {
                name: results.task_throughputs.get(name, 0.0)
                for name in reference_names
            }
            records.append(
                ConfigurationRecord(
                    configuration=configuration,
                    probability=probability,
                    reward=reward,
                    throughputs=throughputs,
                    converged=results.converged,
                )
            )
            expected += probability * reward

        unexplored = 0.0
        reward_lower: float | None = None
        reward_upper: float | None = None
        if method == "bounded":
            unexplored = max(0.0, 1.0 - sum(probabilities.values()))
            reward_ceiling = max(
                (record.reward for record in records), default=0.0
            )
            nominal = nominal_configuration(self._problem)
            if nominal is not None:
                if nominal in self._lqn_cache:
                    counters.lqn_cache_hits += 1
                else:
                    counters.lqn_solves += 1
                reward_ceiling = max(
                    reward_ceiling,
                    self._reward(nominal, self.performance_of(nominal)),
                )
            reward_lower = expected
            reward_upper = expected + unexplored * reward_ceiling

        counters.lqn_seconds += time.perf_counter() - lqn_started
        reporter.emit(
            "lqn", len(probabilities), len(probabilities), counters,
            force=True,
        )
        records.sort(
            key=lambda r: (r.is_failed, -r.probability, r.label())
        )
        return PerformabilityResult(
            records=tuple(records),
            expected_reward=expected,
            state_count=self._problem.state_count,
            method=method,
            counters=counters,
            unexplored_probability=unexplored,
            reward_lower=reward_lower,
            reward_upper=reward_upper,
        )
