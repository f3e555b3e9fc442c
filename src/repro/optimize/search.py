"""Search strategies over a candidate design space.

Two strategies, both evaluating every candidate through one shared
:class:`~repro.core.sweep.SweepEngine`:

* :meth:`DesignSpaceSearch.exhaustive` — evaluate every candidate of
  the space; exact, the default for small spaces;
* :meth:`DesignSpaceSearch.greedy` — importance-guided local search
  for spaces too large to enumerate: walk from a start candidate by
  single moves (switch architecture, toggle one upgrade), ranking the
  upgrade toggles by
  :func:`~repro.core.importance.importance_analysis` reward-importance
  so the most reward-critical components are tried first, with
  seeded random restarts against local optima.

Sharing the engine is what makes search affordable: every candidate of
one architecture reuses that architecture's derived structure, two
candidates with the same effective probability map share one
state-space scan, and *all* candidates share one LQN cache — so a
whole search solves one LQN per distinct configuration in the space,
not per candidate × configuration (asserted by
``benchmarks/bench_optimize.py``).  The greedy ranking plugs the same
caches into ``importance_analysis`` via its ``structure=`` /
``lqn_cache=`` arguments, so move ranking costs scans, never new
solves.

Both strategies record every candidate they touch; the
:class:`SearchResult` hands the full evaluation list to
:mod:`repro.optimize.frontier` for Pareto and budget queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.core.bounded import DEFAULT_EPSILON
from repro.core.configuration import configuration_to_lqn
from repro.core.enumeration import normalize_method
from repro.core.importance import importance_analysis
from repro.core.progress import ProgressCallback, ScanCounters
from repro.core.rewards import RewardFunction, weighted_throughput_reward
from repro.core.sweep import SweepEngine, SweepPointResult
from repro.errors import ModelError
from repro.lqn.bounds import throughput_bounds
from repro.optimize.space import Candidate, DesignSpace, UpgradeOption

#: Slack of the bounds fast path's skip test.  A candidate is skipped
#: only when its guaranteed reward upper bound is at least this far
#: below the incumbent's reward.  The slack absorbs how far a solved
#: reward can numerically *exceed* the analytic bound: the layered
#: solver stops at an outer tolerance of 1e-8, so its throughputs can
#: sit up to ~1e-8 above the true fixed point (which itself respects
#: the bound).  1e-6 dominates that by two orders of magnitude, while
#: staying far below any reward difference the search could care
#: about.
_BOUNDS_SLACK = 1e-6


@dataclass(frozen=True)
class CandidateEvaluation:
    """One evaluated candidate: the design-space point plus the
    performability outcome of its sweep evaluation."""

    candidate: Candidate
    expected_reward: float
    failed_probability: float
    scan_cached: bool = False

    @property
    def name(self) -> str:
        return self.candidate.name

    @property
    def architecture(self) -> str:
        return self.candidate.architecture

    @property
    def cost(self) -> float:
        return self.candidate.cost

    @property
    def component_count(self) -> int:
        return self.candidate.component_count


def _preference_key(evaluation: CandidateEvaluation) -> tuple:
    """Total order for "best" queries: highest reward, then cheapest,
    then fewest components, then name (a deterministic final tie-break)."""
    return (
        -evaluation.expected_reward,
        evaluation.cost,
        evaluation.component_count,
        evaluation.name,
    )


@dataclass(frozen=True)
class TemporalCandidateEvaluation:
    """One candidate ranked on the temporal axis.

    ``static_reward`` is the steady-state expected reward (identical to
    the candidate's ordinary evaluation); ``reward_integral`` the
    time-integrated transient reward over the ranking's grid;
    ``erosion_factor`` the fraction of reward the §7 detection-delay
    model says survives the candidate's mean detection ``latency``.
    The ranking objective multiplies the two temporal effects (they are
    separable — latency is modeled under perfect knowledge, orthogonal
    to the coverage axis the integral captures).
    """

    candidate: Candidate
    latency: float
    static_reward: float
    reward_integral: float
    time_averaged_reward: float
    interval_availability: float
    erosion_factor: float

    @property
    def effective_reward(self) -> float:
        return self.reward_integral * self.erosion_factor

    @property
    def name(self) -> str:
        return self.candidate.name

    @property
    def architecture(self) -> str:
        return self.candidate.architecture

    @property
    def cost(self) -> float:
        return self.candidate.cost


@dataclass(frozen=True)
class TemporalRankingResult:
    """Candidates ranked by latency-aware time-integrated reward."""

    evaluations: tuple[TemporalCandidateEvaluation, ...]
    times: tuple[float, ...]

    def ranking(self) -> tuple[TemporalCandidateEvaluation, ...]:
        """Best-first under the temporal objective."""
        return tuple(sorted(
            self.evaluations,
            key=lambda entry: (
                -entry.effective_reward, entry.cost, entry.name
            ),
        ))

    def static_ranking(self) -> tuple[TemporalCandidateEvaluation, ...]:
        """Best-first under the static (steady-state) objective."""
        return tuple(sorted(
            self.evaluations,
            key=lambda entry: (-entry.static_reward, entry.cost, entry.name),
        ))

    @property
    def best(self) -> TemporalCandidateEvaluation:
        return self.ranking()[0]

    @property
    def flipped(self) -> bool:
        """True when detection latency changes the order — the temporal
        axis mattered for this scenario."""
        return (
            [entry.name for entry in self.ranking()]
            != [entry.name for entry in self.static_ranking()]
        )

    def evaluation(self, name: str) -> TemporalCandidateEvaluation:
        for entry in self.evaluations:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "flipped": self.flipped,
            "ranking": [
                {
                    "name": entry.name,
                    "architecture": entry.architecture,
                    "latency": float(entry.latency),
                    "static_reward": float(entry.static_reward),
                    "reward_integral": float(entry.reward_integral),
                    "time_averaged_reward": float(
                        entry.time_averaged_reward
                    ),
                    "interval_availability": float(
                        entry.interval_availability
                    ),
                    "erosion_factor": float(entry.erosion_factor),
                    "effective_reward": float(entry.effective_reward),
                }
                for entry in self.ranking()
            ],
        }


@dataclass(frozen=True)
class BoundsSkip:
    """One candidate the greedy search proved away without solving.

    ``upper_bound`` is the candidate's guaranteed expected-reward upper
    bound (scan probabilities × per-configuration throughput bounds);
    it satisfied ``upper_bound + 1e-6 <= incumbent_reward``
    (``_BOUNDS_SLACK``), so the candidate provably could not beat
    ``incumbent`` and its LQN solves were skipped entirely.
    """

    candidate: Candidate
    upper_bound: float
    incumbent: str
    incumbent_reward: float

    @property
    def name(self) -> str:
        return self.candidate.name


@dataclass(frozen=True)
class SearchResult:
    """All candidates a search evaluated, plus its aggregate costs.

    ``evaluations`` is in evaluation order (exhaustive: the space's
    generation order; greedy: the order candidates were first visited).
    ``counters`` aggregates every scan and LQN solve of the search,
    including the importance analyses that ranked greedy moves;
    ``counters.distinct_configurations`` counts distinct configurations
    across *all* evaluated candidates — compare it with
    ``counters.lqn_solves`` to see the shared-cache effect.
    ``rounds`` counts accepted greedy moves (0 for exhaustive);
    ``bounds_skips`` lists the candidates the greedy bounds fast path
    proved away without solving (see :class:`BoundsSkip`).
    """

    evaluations: tuple[CandidateEvaluation, ...]
    strategy: str
    space_size: int
    counters: ScanCounters
    method: str
    rounds: int = 0
    bounds_skips: tuple[BoundsSkip, ...] = ()
    store_hits: int = 0

    def evaluation(self, name: str) -> CandidateEvaluation:
        """Look up one evaluated candidate by name."""
        for entry in self.evaluations:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def lqn_cache_hit_rate(self) -> float:
        """Fraction of configuration evaluations served from the shared
        LQN cache across the whole search."""
        total = self.counters.lqn_solves + self.counters.lqn_cache_hits
        return self.counters.lqn_cache_hits / total if total else 0.0

    def best(self, budget: float | None = None) -> CandidateEvaluation | None:
        """The preferred candidate, optionally under ``cost <= budget``.

        Highest expected reward wins; ties break to lower cost, then
        fewer components, then name.  ``None`` when no evaluated
        candidate fits the budget.
        """
        feasible = [
            entry for entry in self.evaluations
            if budget is None or entry.cost <= budget
        ]
        if not feasible:
            return None
        return min(feasible, key=_preference_key)


class DesignSpaceSearch:
    """Stateful search session over one :class:`DesignSpace`.

    All strategies called on one session share the engine caches and
    the evaluation memo, so e.g. a greedy pass after an exhaustive pass
    costs nothing, and interleaved :meth:`evaluate` calls never re-solve
    a candidate.

    Parameters
    ----------
    space:
        The candidate space to search.
    weights:
        Optional reward weights per reference task; default is the
        unweighted throughput sum.
    method / epsilon / progress / counters:
        As in :meth:`~repro.core.sweep.SweepEngine.run`, applied to
        every candidate evaluation and move-ranking importance run
        (``epsilon`` is only read by the ``bounded`` backend).
    bounds_fast_path:
        Let the greedy walk skip candidate moves whose guaranteed
        expected-reward upper bound (state-space scan ×
        :func:`~repro.lqn.bounds.throughput_bounds`) already proves
        them no better than the incumbent.  Sound — every skip is a
        proof, and the walk's decisions are unchanged — so on by
        default; automatically disabled for the ``bounded`` backend
        (whose rewards are intervals) and for reward functions the
        bound does not cover (negative weights, or an opaque custom
        ``RewardFunction``).
    store:
        Optional :class:`~repro.campaign.store.ResultStore`: candidate
        evaluations are memoized under their content-addressed solve
        keys (:func:`repro.campaign.keys.solve_point_key`), so a
        re-run of the same search — or a campaign that evaluated the
        same candidates — costs store lookups instead of solves.
        Fresh evaluations are committed as they finish.
    lqn_solver:
        Optional :data:`~repro.core.performability.BatchSolver`
        override forwarded to the session's
        :class:`~repro.core.sweep.SweepEngine` — the analysis service
        passes its shared micro-batcher here so search evaluations
        coalesce with concurrent requests.
    """

    def __init__(
        self,
        space: DesignSpace,
        *,
        weights: Mapping[str, float] | None = None,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
        bounds_fast_path: bool = True,
        store=None,
        lqn_solver=None,
    ):
        self.space = space
        self.method = method
        self.epsilon = epsilon
        self.progress = progress
        self.counters = counters if counters is not None else ScanCounters()
        self._reward: RewardFunction | None = (
            weighted_throughput_reward(dict(weights))
            if weights is not None
            else None
        )
        self.engine = SweepEngine(
            space.ftlqn,
            space.architectures(),
            base_failure_probs=space.base_failure_probs,
            base_common_causes=space.common_causes,
            base_reward=self._reward,
            lqn_solver=lqn_solver,
        )
        self._evaluated: dict[str, CandidateEvaluation] = {}
        self._order: list[str] = []
        self._distinct: set[frozenset[str] | None] = set()
        self._store = store
        self._store_hits = 0
        self._ftlqn_document: dict | None = None
        self._mama_documents: dict[str, dict] = {}
        self._weights = None if weights is None else dict(weights)
        # Bounds fast path: the reward weights the upper bound is taken
        # over (None when the reward is opaque and cannot be bounded).
        bound_weights = getattr(self._reward, "weights", None)
        if self._reward is None:
            bound_weights = {
                task.name: 1.0 for task in space.ftlqn.reference_tasks()
            }
        self._bounds_enabled = (
            bounds_fast_path
            and normalize_method(method) != "bounded"
            and bound_weights is not None
            and all(weight >= 0.0 for weight in bound_weights.values())
        )
        self._bound_weights: dict[str, float] = dict(bound_weights or {})
        self._bound_cache: dict[frozenset[str], float] = {}
        self._bounds_skips: list[BoundsSkip] = []

    # ------------------------------------------------------------------

    @property
    def evaluations(self) -> tuple[CandidateEvaluation, ...]:
        """Everything evaluated so far, in first-visit order."""
        return tuple(self._evaluated[name] for name in self._order)

    def evaluate(
        self, candidates: Iterable[Candidate]
    ) -> list[CandidateEvaluation]:
        """Evaluate candidates (memoised) and return their evaluations.

        Fresh candidates run through the shared engine in one sweep;
        already-seen names are returned from the memo without touching
        the engine.
        """
        requested = list(candidates)
        fresh: list[Candidate] = []
        seen: set[str] = set()
        for candidate in requested:
            if candidate.name in self._evaluated or candidate.name in seen:
                continue
            seen.add(candidate.name)
            fresh.append(candidate)
        if fresh and self._store is not None:
            fresh = [
                candidate for candidate in fresh
                if not self._record_from_store(candidate)
            ]
        if fresh:
            run_counters = ScanCounters()
            sweep = self.engine.run(
                [candidate.sweep_point() for candidate in fresh],
                method=self.method, epsilon=self.epsilon,
                progress=self.progress, counters=run_counters,
            )
            self.counters.merge(run_counters)
            for candidate, entry in zip(fresh, sweep.points):
                self._record(candidate, entry)
                if self._store is not None:
                    self._store.put(
                        self._candidate_key(candidate),
                        kind="solve",
                        name=candidate.name,
                        document={
                            "kind": "solve",
                            "workload": "optimize",
                            "record": entry.to_dict(),
                            "counters": (
                                entry.result.counters.to_dict()
                                if entry.result.counters is not None
                                else ScanCounters().to_dict()
                            ),
                        },
                        seconds=0.0,
                    )
        return [self._evaluated[candidate.name] for candidate in requested]

    def _candidate_key(self, candidate: Candidate) -> str:
        """The candidate's content-addressed solve key — identical to
        what a campaign's optimize workload computes for it, so the
        search and ``repro campaign`` memoize each other."""
        # Lazy: repro.campaign sits above the optimize package.
        from repro.campaign.keys import solve_point_key

        if self._ftlqn_document is None:
            import json

            from repro.ftlqn.serialize import model_to_json

            self._ftlqn_document = json.loads(model_to_json(self.space.ftlqn))
        mama_document = self._mama_documents.get(candidate.architecture)
        if mama_document is None:
            import json

            from repro.mama.serialize import mama_to_json

            mama_document = json.loads(mama_to_json(
                self.engine.architectures[candidate.architecture]
            ))
            self._mama_documents[candidate.architecture] = mama_document
        point = candidate.sweep_point()
        return solve_point_key(
            self._ftlqn_document,
            mama_document,
            failure_probs=self.engine.effective_failure_probs(point),
            common_causes=self.space.common_causes,
            weights=self._weights,
            method=self.method,
            epsilon=self.epsilon,
        )

    def _record_from_store(self, candidate: Candidate) -> bool:
        """Serve one candidate from the result store, if present."""
        stored = self._store.get(self._candidate_key(candidate))
        if stored is None or stored.kind != "solve":
            return False
        entry = SweepPointResult.from_dict(stored.document["record"])
        self._record(candidate, entry)
        self._store_hits += 1
        return True

    def _record(
        self, candidate: Candidate, entry: SweepPointResult
    ) -> None:
        for record in entry.result.records:
            self._distinct.add(record.configuration)
        self._evaluated[candidate.name] = CandidateEvaluation(
            candidate=candidate,
            expected_reward=entry.expected_reward,
            failed_probability=entry.failed_probability,
            scan_cached=entry.scan_cached,
        )
        self._order.append(candidate.name)

    def _finalize(self, strategy: str, rounds: int) -> SearchResult:
        self.counters.record_level(
            "distinct_configurations", len(self._distinct)
        )
        return SearchResult(
            evaluations=self.evaluations,
            strategy=strategy,
            space_size=self.space.size,
            counters=self.counters,
            method=self.method,
            rounds=rounds,
            bounds_skips=tuple(self._bounds_skips),
            store_hits=self._store_hits,
        )

    # ------------------------------------------------------------------

    def exhaustive(self) -> SearchResult:
        """Evaluate every candidate of the space."""
        self.evaluate(self.space.candidates())
        return self._finalize("exhaustive", 0)

    # ------------------------------------------------------------------

    def temporal_ranking(
        self,
        times: Sequence[float],
        *,
        latency: float | Mapping[str, float] | None = None,
        heartbeat=None,
        repair_rate: float = 1.0,
        cause_repair_rate: float = 1.0,
        candidates: Iterable[Candidate] | None = None,
    ) -> TemporalRankingResult:
        """Rank candidates by latency-aware time-integrated reward.

        For each candidate, the transient reward curve over ``times``
        (from a cold all-up start, rates lifted from the candidate's
        effective failure probabilities at ``repair_rate``) is
        integrated and multiplied by the §7 erosion factor at the
        candidate's mean detection latency.  The latency comes from
        exactly one of:

        * ``latency`` — a scalar applied to every candidate, or a
          mapping keyed by architecture;
        * ``heartbeat`` — a :class:`~repro.sim.heartbeat
          .HeartbeatConfig` whose hop count is replaced per
          architecture by the MAMA's notify-chain depth
          (:func:`~repro.core.temporal.architecture_detection_latency`)
          — deeper management hierarchies pay more latency.

        Defaults to one candidate per architecture (no upgrades): the
        paper's architecture-ranking question.  All solves go through
        the session's shared engine, so the steady-state rewards are
        bit-identical to :meth:`evaluate` on the same candidates.
        """
        from repro.core.temporal import (
            TemporalAnalyzer,
            architecture_detection_latency,
        )
        from repro.markov.availability import ComponentAvailability

        if (latency is None) == (heartbeat is None):
            raise ModelError(
                "provide exactly one of latency= or heartbeat="
            )
        if candidates is None:
            candidates = [
                self.space.candidate(key)
                for key in self.space.architecture_keys()
            ]
        evaluations: list[TemporalCandidateEvaluation] = []
        for candidate in candidates:
            if heartbeat is not None:
                candidate_latency = architecture_detection_latency(
                    self.engine.architectures[candidate.architecture],
                    heartbeat,
                )
            elif isinstance(latency, Mapping):
                candidate_latency = float(latency[candidate.architecture])
            else:
                candidate_latency = float(latency)
            point = candidate.sweep_point()
            rates = {
                name: ComponentAvailability.from_probability(
                    probability, repair_rate=repair_rate
                )
                for name, probability in
                self.engine.effective_failure_probs(point).items()
            }
            analyzer = TemporalAnalyzer(
                self.space.ftlqn,
                rates=rates,
                common_causes=self.space.common_causes,
                cause_repair_rate=cause_repair_rate,
                weights=self._weights,
                engine=self.engine,
            )
            curve = analyzer.evaluate(
                times,
                architecture=candidate.architecture,
                method=self.method, epsilon=self.epsilon,
                progress=self.progress, counters=self.counters,
            )
            (erosion,) = analyzer.erosion_curve(
                [candidate_latency],
                method=self.method, epsilon=self.epsilon,
                progress=self.progress, counters=self.counters,
            )
            evaluations.append(TemporalCandidateEvaluation(
                candidate=candidate,
                latency=candidate_latency,
                static_reward=curve.steady.expected_reward,
                reward_integral=curve.reward_integral,
                time_averaged_reward=curve.time_averaged_reward,
                interval_availability=curve.interval_availability,
                erosion_factor=erosion.erosion_factor,
            ))
        return TemporalRankingResult(
            evaluations=tuple(evaluations),
            times=tuple(float(t) for t in times),
        )

    # ------------------------------------------------------------------

    def greedy(
        self,
        *,
        seed: int = 0,
        restarts: int = 0,
        max_rounds: int | None = None,
        move_limit: int | None = None,
    ) -> SearchResult:
        """Importance-guided local search.

        Starts at the cheapest candidate (no upgrades on the cheapest
        architecture) and repeatedly takes the best strictly-improving
        single move — switching architecture (keeping the applicable
        upgrades) or toggling one upgrade — until none improves the
        expected reward.  ``restarts`` extra walks start from random
        candidates drawn with ``random.Random(seed)``; all walks share
        the caches, and the returned result covers every candidate any
        walk touched.

        Upgrade-*adding* moves are ranked by the reward importance of
        their component under the current candidate's scenario
        (computed over the engine's shared structure and LQN caches);
        ``move_limit`` keeps only the top-ranked additions per round.
        Architecture switches and upgrade removals are always
        considered.  Deterministic for a fixed seed: move generation,
        ranking tie-breaks and acceptance all order by candidate name.

        ``max_rounds`` caps accepted moves per walk (None = until no
        move improves).
        """
        if restarts < 0:
            raise ModelError(f"restarts must be >= 0, got {restarts}")
        rng = random.Random(seed)
        starts = [self._cheapest_start()]
        for _ in range(restarts):
            starts.append(self._random_start(rng))
        rounds = 0
        for start in starts:
            rounds += self._walk(
                start, max_rounds=max_rounds, move_limit=move_limit
            )
        return self._finalize("greedy", rounds)

    def _cheapest_start(self) -> Candidate:
        candidates = [
            self.space.candidate(key) for key in self.space.architecture_keys()
        ]
        return min(candidates, key=lambda c: (c.cost, c.name))

    def _random_start(self, rng: random.Random) -> Candidate:
        key = rng.choice(list(self.space.architecture_keys()))
        applicable = self.space.applicable_upgrades(key)
        chosen = tuple(u for u in applicable if rng.random() < 0.5)
        return self.space.candidate(key, chosen)

    def _walk(
        self,
        start: Candidate,
        *,
        max_rounds: int | None,
        move_limit: int | None,
    ) -> int:
        (current,) = self.evaluate([start])
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            moves = self._moves(current.candidate, move_limit=move_limit)
            moves = self._screen_moves(moves, current)
            if not moves:
                break
            evaluated = self.evaluate(moves)
            best = min(evaluated, key=_preference_key)
            if best.expected_reward <= current.expected_reward:
                break
            current = best
            rounds += 1
        return rounds

    def _screen_moves(
        self,
        moves: list[Candidate],
        incumbent: CandidateEvaluation,
    ) -> list[Candidate]:
        """Drop moves the bounds fast path proves cannot improve.

        A move is skipped only when its guaranteed expected-reward
        upper bound sits at least ``_BOUNDS_SLACK`` below the
        incumbent's reward: since the solved reward never exceeds the
        bound by more than the solver's own convergence tolerance
        (which the slack dominates), a skipped move could never have
        been accepted by the strictly-improving walk, so the walk's
        trajectory — and the final ``best()`` — are exactly what full
        evaluation would have produced.  Already-memoised candidates
        pass straight through (their evaluation is free).
        """
        if not self._bounds_enabled:
            return moves
        kept: list[Candidate] = []
        for move in moves:
            if move.name in self._evaluated:
                kept.append(move)
                continue
            upper_bound = self._candidate_upper_bound(move)
            if upper_bound + _BOUNDS_SLACK <= incumbent.expected_reward:
                self.counters.lqn_bounds_skips += 1
                self._bounds_skips.append(
                    BoundsSkip(
                        candidate=move,
                        upper_bound=upper_bound,
                        incumbent=incumbent.name,
                        incumbent_reward=incumbent.expected_reward,
                    )
                )
            else:
                kept.append(move)
        return kept

    def _candidate_upper_bound(self, candidate: Candidate) -> float:
        """Guaranteed upper bound on a candidate's expected reward:
        its configuration probabilities (via the engine's shared scan
        cache — the scan is reused if the candidate is evaluated after
        all) folded against per-configuration reward bounds."""
        probabilities, _ = self.engine.scan_for(
            candidate.sweep_point(),
            method=self.method, epsilon=self.epsilon,
            progress=self.progress, counters=self.counters,
        )
        total = 0.0
        for configuration, probability in probabilities.items():
            total += probability * self._configuration_bound(configuration)
        return total

    def _configuration_bound(self, configuration: frozenset[str] | None) -> float:
        """Cached Σ w_r · (throughput bound of r) of one configuration
        (0 for the failed configuration, like its reward)."""
        if configuration is None:
            return 0.0
        cached = self._bound_cache.get(configuration)
        if cached is None:
            bounds = throughput_bounds(
                configuration_to_lqn(self.space.ftlqn, configuration)
            )
            cached = sum(
                weight * bounds[name].throughput
                for name, weight in self._bound_weights.items()
                if name in bounds
            )
            self._bound_cache[configuration] = cached
        return cached

    def _moves(
        self, candidate: Candidate, *, move_limit: int | None
    ) -> list[Candidate]:
        """Single-step neighbours, deterministically ordered."""
        moves: list[Candidate] = []
        chosen = set(candidate.upgrades)

        # Architecture switches, carrying over whatever upgrades still
        # apply under the new architecture.
        for key in self.space.architecture_keys():
            if key == candidate.architecture:
                continue
            applicable = set(self.space.applicable_upgrades(key))
            moves.append(self.space.candidate(key, tuple(
                upgrade for upgrade in candidate.upgrades
                if upgrade in applicable
            )))

        # Upgrade removals.
        for upgrade in candidate.upgrades:
            moves.append(self.space.candidate(
                candidate.architecture,
                tuple(u for u in candidate.upgrades if u is not upgrade),
            ))

        # Upgrade additions, importance-ranked.
        additions = [
            upgrade
            for upgrade in self.space.applicable_upgrades(
                candidate.architecture
            )
            if upgrade not in chosen
        ]
        for upgrade in self._rank_additions(candidate, additions, move_limit):
            moves.append(self.space.candidate(
                candidate.architecture, (*candidate.upgrades, upgrade)
            ))
        return moves

    def _rank_additions(
        self,
        candidate: Candidate,
        additions: Sequence[UpgradeOption],
        move_limit: int | None,
    ) -> list[UpgradeOption]:
        """Order upgrade additions by the reward importance of their
        component in the current candidate's scenario, keeping the top
        ``move_limit``.  Components the scenario pins (probability 0 or
        1) have no Birnbaum measure and rank last, by name."""
        if not additions:
            return []
        if move_limit is None and len(additions) == 1:
            return list(additions)
        point = candidate.sweep_point()
        effective = self.engine.effective_failure_probs(point)
        measurable = sorted({
            upgrade.component
            for upgrade in additions
            if 0.0 < effective.get(upgrade.component, 0.0) < 1.0
        })
        importance: dict[str, float] = {}
        if measurable:
            records = importance_analysis(
                self.space.ftlqn,
                self.engine.architectures.get(candidate.architecture),
                effective,
                reward=self._reward,
                components=measurable,
                common_causes=self.space.common_causes,
                method=self.method,
                progress=self.progress,
                counters=self.counters,
                structure=self.engine.structure_for(candidate.architecture),
                lqn_cache=self.engine.lqn_cache,
            )
            importance = {
                record.component: record.reward_importance
                for record in records
            }
        ranked = sorted(
            additions,
            key=lambda u: (-importance.get(u.component, float("-inf")),
                           u.name),
        )
        if move_limit is not None:
            ranked = ranked[:max(0, move_limit)]
        return ranked
