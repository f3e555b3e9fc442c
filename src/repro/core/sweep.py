"""Shared-cache sweep engine for multi-scenario studies.

The paper's evaluation is inherently multi-scenario: §6's sensitivity
studies and Figure 11's reward-weight curves solve the *same* layered
model dozens of times under varying failure probabilities, reward
weights and management architectures.  Building a fresh
:class:`~repro.core.performability.PerformabilityAnalyzer` per point
repeats work that depends only on structure, never on the scenario:

* the fault propagation graph and the ``know``-expression table are
  functions of the (FTLQN, MAMA) pair alone — one derivation per
  architecture covers every probability point;
* the LQN solution of a configuration is a function of (FTLQN,
  configuration) alone — across a whole sweep, the number of LQN solves
  collapses to the number of *distinct configurations in the sweep*
  (seven for every §6.3 case), not points × configurations;
* the configuration-probability map is a function of (structure,
  failure probabilities, common causes) — points that differ only in
  reward weights (Figure 11's whole x-axis) share one scan.

:class:`SweepEngine` owns the three caches and evaluates a list of
:class:`SweepPoint` scenario overrides against them.  Point results are
bit-identical to per-point analyzer runs (the scan is deterministic,
LQN solves are deterministic, and the expected reward folds the cached
probability map in its original iteration order); the equivalence is
asserted by ``tests/core/test_sweep_engine`` across methods.

Points are evaluated sequentially so every point sees the caches warmed
by its predecessors; each point's state-space scan reports through the
``progress`` machinery of :mod:`repro.core.enumeration`, and the engine
reports a coarse ``"sweep"`` progress phase between points.

One engine may also be shared by concurrent threads — the analysis
service (:mod:`repro.service`) runs every request of a model against
one warm engine.  The three caches are protected by an engine lock plus
single-flight gates: when several threads miss on the same scan key or
the same configuration at once, exactly one performs the work while the
others wait and take a cache hit, so results stay bit-identical to a
sequential run and the counters stay coherent (``lqn_solves`` still
equals the number of distinct configurations solved engine-wide, with
no lost updates).
"""

from __future__ import annotations

import csv
import io
import json
import threading
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.core.bounded import DEFAULT_EPSILON
from repro.core.dependency import CommonCause
from repro.core.enumeration import normalize_method
from repro.core.performability import (
    AnalysisStructure,
    BatchSolver,
    LQNCoordinator,
    PerformabilityAnalyzer,
    derive_structure,
)
from repro.core.progress import (
    ProgressCallback,
    ProgressReporter,
    ScanCounters,
)
from repro.core.results import PerformabilityResult
from repro.core.rewards import RewardFunction, weighted_throughput_reward
from repro.errors import ModelError, SerializationError
from repro.ftlqn.model import FTLQNModel
from repro.lqn.results import LQNResults
from repro.mama.model import MAMAModel

#: Scan-cache key: (architecture key, method, ε, sorted failure-prob
#: items, common-cause events).  Everything the configuration
#: probabilities depend on besides structure, which the key's
#: architecture entry stands in for.  ε is pinned to 0.0 for every
#: exact method (which ignores it), so exact runs share cache entries
#: across differing ``epsilon`` arguments while ``bounded`` runs with
#: different targets stay distinct.
_ScanKey = tuple[
    str | None,
    str,
    float,
    tuple[tuple[str, float], ...],
    tuple[CommonCause, ...],
]


@dataclass(frozen=True)
class SweepPoint:
    """One scenario of a sweep, as overrides on the engine's baseline.

    Attributes
    ----------
    name:
        Unique label of the point (used in reports and exports).
    architecture:
        Key into the engine's ``architectures`` mapping, or ``None``
        for the perfect-knowledge (no-MAMA) analysis.
    failure_probs:
        Per-component failure probabilities *overlaid* on the engine's
        base map (point entries win).  ``None`` keeps the base map
        unchanged.  To make a baseline-unreliable component perfectly
        reliable in one point, override it with ``0.0`` — that pins it
        up, exactly like omitting it from a fresh analyzer's map.
    common_causes:
        Common-cause events for this point; ``None`` keeps the engine's
        base events, an empty tuple removes them.
    weights:
        Reward weights per reference task
        (:func:`~repro.core.rewards.weighted_throughput_reward`);
        ``None`` keeps the engine's base reward function.
    """

    name: str
    architecture: str | None = None
    failure_probs: Mapping[str, float] | None = None
    common_causes: tuple[CommonCause, ...] | None = None
    weights: Mapping[str, float] | None = None

    def to_dict(self) -> dict:
        """Canonical JSON form.  ``None`` overrides are omitted, so the
        document round-trips the "keep the base" / "override with
        empty" distinction exactly."""
        document: dict = {"name": self.name, "architecture": self.architecture}
        if self.failure_probs is not None:
            document["failure_probs"] = {
                str(name): float(value)
                for name, value in sorted(self.failure_probs.items())
            }
        if self.common_causes is not None:
            document["common_causes"] = [
                {
                    "name": cause.name,
                    "probability": float(cause.probability),
                    "components": list(cause.components),
                }
                for cause in self.common_causes
            ]
        if self.weights is not None:
            document["weights"] = {
                str(name): float(value)
                for name, value in sorted(self.weights.items())
            }
        return document

    @classmethod
    def from_dict(cls, document: Mapping) -> "SweepPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        causes = None
        if "common_causes" in document:
            causes = tuple(
                CommonCause(
                    name=str(item["name"]),
                    probability=float(item["probability"]),
                    components=tuple(str(c) for c in item["components"]),
                )
                for item in document["common_causes"]
            )
        architecture = document.get("architecture")
        return cls(
            name=str(document["name"]),
            architecture=None if architecture is None else str(architecture),
            failure_probs=(
                {
                    str(name): float(value)
                    for name, value in document["failure_probs"].items()
                }
                if "failure_probs" in document
                else None
            ),
            common_causes=causes,
            weights=(
                {
                    str(name): float(value)
                    for name, value in document["weights"].items()
                }
                if "weights" in document
                else None
            ),
        )


@dataclass(frozen=True)
class SweepPointResult:
    """One evaluated sweep point.

    ``failure_probs`` is the *effective* (base + overlay) map the point
    was solved with; ``scan_cached`` records whether the configuration
    probabilities came from the engine's cross-point scan cache rather
    than a fresh state-space scan.
    """

    point: SweepPoint
    failure_probs: Mapping[str, float]
    result: PerformabilityResult
    scan_cached: bool = False

    @property
    def name(self) -> str:
        return self.point.name

    @property
    def architecture(self) -> str | None:
        return self.point.architecture

    @property
    def expected_reward(self) -> float:
        return self.result.expected_reward

    @property
    def failed_probability(self) -> float:
        return self.result.failed_probability

    def to_dict(self) -> dict:
        """Full-fidelity canonical JSON form (the campaign store's
        per-point payload; :meth:`SweepResult.to_json_dict` renders the
        lighter export view)."""
        return {
            "point": self.point.to_dict(),
            "failure_probs": {
                str(name): float(value)
                for name, value in sorted(self.failure_probs.items())
            },
            "result": self.result.to_dict(),
            "scan_cached": bool(self.scan_cached),
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "SweepPointResult":
        """Rebuild an evaluated point from :meth:`to_dict` output."""
        return cls(
            point=SweepPoint.from_dict(document["point"]),
            failure_probs={
                str(name): float(value)
                for name, value in document["failure_probs"].items()
            },
            result=PerformabilityResult.from_dict(document["result"]),
            scan_cached=bool(document.get("scan_cached", False)),
        )


@dataclass(frozen=True)
class SweepResult:
    """All evaluated points plus the sweep-wide aggregated counters.

    ``counters`` merges every point's :class:`ScanCounters`;
    ``counters.lqn_solves`` therefore equals the number of distinct
    configurations solved across the *whole* sweep (the shared-cache
    win), ``counters.distinct_configurations`` the number of distinct
    configurations (failed included) seen across all points, and
    ``counters.sweep_points`` / ``counters.scan_cache_hits`` the point
    count and cross-point scan-cache effectiveness.
    """

    points: tuple[SweepPointResult, ...]
    counters: ScanCounters
    method: str

    def point(self, name: str) -> SweepPointResult:
        """Look up one evaluated point by its label."""
        for entry in self.points:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def series(self, architecture: str | None) -> tuple[SweepPointResult, ...]:
        """All points of one architecture, in evaluation order."""
        return tuple(
            entry for entry in self.points
            if entry.architecture == architecture
        )

    @property
    def lqn_cache_hit_rate(self) -> float:
        """Fraction of configuration evaluations served from the shared
        LQN cache (the headline cross-point saving)."""
        total = self.counters.lqn_solves + self.counters.lqn_cache_hits
        return self.counters.lqn_cache_hits / total if total else 0.0

    def to_json_dict(self, *, include_records: bool = True) -> dict:
        """Plain-data rendering for ``json.dump`` (artifact export)."""
        points = []
        for entry in self.points:
            document: dict = {
                "name": entry.name,
                "architecture": entry.architecture,
                "expected_reward": float(entry.expected_reward),
                "failed_probability": float(entry.failed_probability),
                "scan_cached": entry.scan_cached,
                "failure_probs": dict(entry.failure_probs),
            }
            if entry.point.weights is not None:
                document["weights"] = dict(entry.point.weights)
            if include_records:
                # One record schema everywhere: exports share
                # ConfigurationRecord.to_dict with campaign-store rows.
                document["records"] = [
                    record.to_dict() for record in entry.result.records
                ]
            points.append(document)
        return {
            "method": self.method,
            "counters": self.counters.as_dict(),
            "lqn_cache_hit_rate": self.lqn_cache_hit_rate,
            "points": points,
        }

    def to_dict(self) -> dict:
        """Full-fidelity canonical JSON form: every point's complete
        :class:`~repro.core.results.PerformabilityResult` plus the
        aggregated counters.  :meth:`from_dict` reconstructs an equal
        :class:`SweepResult`; :meth:`to_json_dict` is the lighter
        human-facing export."""
        return {
            "points": [entry.to_dict() for entry in self.points],
            "counters": self.counters.to_dict(),
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "SweepResult":
        """Rebuild a sweep result from :meth:`to_dict` output (the
        ``"jobs"`` key of older documents is ignored)."""
        return cls(
            points=tuple(
                SweepPointResult.from_dict(entry)
                for entry in document["points"]
            ),
            counters=ScanCounters.from_dict(document["counters"]),
            method=str(document["method"]),
        )

    def to_json(self, *, indent: int | None = 2,
                include_records: bool = True) -> str:
        return json.dumps(
            self.to_json_dict(include_records=include_records),
            indent=indent,
        )

    def to_csv(self) -> str:
        """One row per point: the headline scalars plus the
        probability-weighted average throughput of every reference
        task seen in the sweep."""
        tasks = sorted({
            task
            for entry in self.points
            for record in entry.result.records
            for task in record.throughputs
        })
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["name", "architecture", "expected_reward",
             "failed_probability", "scan_cached"]
            + [f"avg_throughput_{task}" for task in tasks]
        )
        for entry in self.points:
            writer.writerow(
                [
                    entry.name,
                    entry.architecture or "perfect",
                    repr(float(entry.expected_reward)),
                    repr(float(entry.failed_probability)),
                    int(entry.scan_cached),
                ]
                + [
                    repr(float(entry.result.average_throughput(task)))
                    for task in tasks
                ]
            )
        return buffer.getvalue()


class SweepEngine:
    """Evaluate many scenario points over shared structure-derived caches.

    Parameters
    ----------
    ftlqn:
        The layered application model, common to every point.
    architectures:
        Named MAMA architecture variants points may select via
        :attr:`SweepPoint.architecture`.  The perfect-knowledge
        analysis (``architecture=None``) is always available.
    base_failure_probs:
        Baseline failure-probability map; each point overlays its own
        entries on top.
    base_common_causes / base_reward:
        Baseline common-cause events and reward function, used by
        points that do not override them.
    lqn_solver:
        Optional :data:`~repro.core.performability.BatchSolver`
        replacing ``solve_lqn_batch`` for every LQN solve issued
        through this engine (the analysis service injects its
        micro-batching queue so concurrent requests coalesce).

    The engine owns three caches, all keyed only by what the cached
    value actually depends on:

    * ``structure`` — one :class:`AnalysisStructure` (fault graph +
      ``know`` table) per architecture key;
    * ``scan`` — one configuration→probability map per (architecture,
      method, effective failure probs, common causes);
    * ``lqn`` — one :class:`~repro.lqn.results.LQNResults` per distinct
      configuration, shared across *all* points and architectures.
    """

    def __init__(
        self,
        ftlqn: FTLQNModel,
        architectures: Mapping[str, MAMAModel] | None = None,
        *,
        base_failure_probs: Mapping[str, float] | None = None,
        base_common_causes: Sequence[CommonCause] = (),
        base_reward: RewardFunction | None = None,
        lqn_solver: BatchSolver | None = None,
    ):
        self._ftlqn = ftlqn.validated()
        self._ftlqn_names = frozenset(ftlqn.component_names())
        self._architectures: dict[str, MAMAModel] = dict(architectures or {})
        self._base_failure_probs = dict(base_failure_probs or {})
        self._base_common_causes = tuple(base_common_causes)
        self._base_reward = base_reward
        self._structures: dict[str | None, AnalysisStructure] = {}
        self._scan_cache: dict[
            _ScanKey, dict[frozenset[str] | None, float]
        ] = {}
        self._lqn_cache: dict[frozenset[str], LQNResults] = {}
        # Thread-safe cache protocol (see the module docstring): one
        # re-entrant engine lock over the structure/scan tables, a
        # single-flight latch table for in-progress scans, and a
        # coordinator playing the same role for the LQN cache.
        self._lock = threading.RLock()
        self._scan_inflight: dict[_ScanKey, threading.Event] = {}
        self._coordinator = LQNCoordinator(
            self._ftlqn, self._lqn_cache, solver=lqn_solver
        )

    @property
    def architectures(self) -> Mapping[str, MAMAModel]:
        return dict(self._architectures)

    def add_architecture(self, name: str, mama: MAMAModel) -> None:
        """Register one more architecture variant after construction.

        Re-registering an existing key with a different model is
        rejected — the structure cache is keyed by name, so silently
        swapping the model would serve stale structures.
        """
        with self._lock:
            if name in self._architectures:
                if self._architectures[name] is not mama:
                    raise ModelError(
                        f"architecture {name!r} is already registered with "
                        "a different model"
                    )
                return
            self._architectures[name] = mama

    @property
    def lqn_cache(self) -> Mapping[frozenset[str], LQNResults]:
        """The shared cross-point configuration→LQN-results cache."""
        return self._lqn_cache

    def cache_stats(self) -> dict[str, int]:
        """Current sizes of the engine's shared caches (a consistent
        snapshot, taken under the engine lock; the ``/stats`` endpoint
        of the analysis service aggregates these per warm engine)."""
        with self._lock:
            return {
                "architectures": len(self._architectures),
                "structures": len(self._structures),
                "scan_entries": len(self._scan_cache),
                "lqn_entries": len(self._lqn_cache),
            }

    def structure_for(self, architecture: str | None) -> AnalysisStructure:
        """The (cached) analysis structure of one architecture key.

        Derivation happens under the engine lock, so concurrent callers
        racing the same uncached architecture derive it once (it is a
        one-off per architecture, so serialising it is cheap and keeps
        the invariant that every caller sees the same instance).
        """
        with self._lock:
            structure = self._structures.get(architecture)
            if structure is None:
                structure = derive_structure(
                    self._ftlqn, self._mama_for(architecture)
                )
                self._structures[architecture] = structure
            return structure

    def _mama_for(self, architecture: str | None) -> MAMAModel | None:
        if architecture is None:
            return None
        try:
            return self._architectures[architecture]
        except KeyError:
            raise ModelError(
                f"unknown architecture {architecture!r}; available: "
                f"{sorted(self._architectures)} (None = perfect knowledge)"
            ) from None

    def effective_failure_probs(self, point: SweepPoint) -> dict[str, float]:
        """The base-plus-overlay failure map a point is solved with
        (public wrapper over the internal overlay logic)."""
        return self._effective_probs(point)

    def _effective_probs(self, point: SweepPoint) -> dict[str, float]:
        """Base map overlaid with the point's overrides.

        The base map may be a superset across architecture variants
        (e.g. name every manager of every variant); entries outside the
        point's component universe are dropped so switching
        architectures never trips the analyzer's unknown-component
        check.  The point's *own* ``failure_probs`` are kept verbatim —
        a typo there still fails loudly.
        """
        structure = self.structure_for(point.architecture)
        universe = (
            self._ftlqn_names
            | structure.mama_names
            | structure.connector_names
        )
        effective = {
            name: probability
            for name, probability in self._base_failure_probs.items()
            if name in universe
        }
        effective.update(point.failure_probs or {})
        return effective

    def analyzer_for(self, point: SweepPoint) -> PerformabilityAnalyzer:
        """A per-point analyzer wired to the engine's shared caches.

        Exposed for equivalence testing and advanced use; :meth:`run`
        is the normal entry point.
        """
        reward = self._base_reward
        if point.weights is not None:
            reward = weighted_throughput_reward(dict(point.weights))
        causes = (
            point.common_causes
            if point.common_causes is not None
            else self._base_common_causes
        )
        return PerformabilityAnalyzer(
            self._ftlqn,
            self._mama_for(point.architecture),
            failure_probs=self._effective_probs(point),
            reward=reward,
            common_causes=causes,
            structure=self.structure_for(point.architecture),
            lqn_coordinator=self._coordinator,
        )

    def scan_for(
        self,
        point: SweepPoint,
        *,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> tuple[dict[frozenset[str] | None, float], bool]:
        """The configuration→probability map of one point, via the
        engine's cross-point scan cache.

        Returns ``(probabilities, scan_cached)`` where ``scan_cached``
        says whether the map came from the cache (in which case
        ``counters.scan_cache_hits`` is incremented) rather than a
        fresh state-space scan.  Used by :meth:`run` for each point and
        by the optimizer's bounds fast path, which needs a candidate's
        configuration support without paying for its LQN solves.

        Scans are single-flight across threads: the first thread to
        miss on a key claims it and scans outside the engine lock;
        threads racing the same key wait on its latch and then take the
        cache hit, so one fresh scan happens per distinct key however
        many threads ask.
        """
        method = normalize_method(method)
        if counters is None:
            counters = ScanCounters()
        key: _ScanKey = (
            point.architecture,
            method,
            epsilon if method == "bounded" else 0.0,
            tuple(sorted(self._effective_probs(point).items())),
            (
                point.common_causes
                if point.common_causes is not None
                else self._base_common_causes
            ),
        )
        while True:
            with self._lock:
                probabilities = self._scan_cache.get(key)
                if probabilities is not None:
                    counters.scan_cache_hits += 1
                    return probabilities, True
                latch = self._scan_inflight.get(key)
                if latch is None:
                    latch = threading.Event()
                    self._scan_inflight[key] = latch
                    break
            # Someone else is scanning this key; wait and re-check.  If
            # their scan failed, the re-check misses and we claim it.
            latch.wait()
        try:
            probabilities = self.analyzer_for(
                point
            ).configuration_probabilities(
                method=method, epsilon=epsilon,
                progress=progress, counters=counters,
            )
            with self._lock:
                self._scan_cache[key] = probabilities
        finally:
            with self._lock:
                self._scan_inflight.pop(key, None)
                latch.set()
        return probabilities, False

    def run(
        self,
        points: Iterable[SweepPoint],
        *,
        method: str = "bdd",
        epsilon: float = DEFAULT_EPSILON,
        progress: ProgressCallback | None = None,
        counters: ScanCounters | None = None,
    ) -> SweepResult:
        """Evaluate every point and return the aggregated result.

        ``method``, ``epsilon`` and ``progress`` behave as in
        :meth:`PerformabilityAnalyzer.solve` and apply to each point's
        scan/LQN phases; between points the callback additionally
        receives coarse phase-``"sweep"`` events.  ``counters``
        (optional) is filled with the sweep-wide aggregate.
        """
        points = list(points)
        names = [point.name for point in points]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ModelError(
                f"sweep point names must be unique; duplicated: {duplicates}"
            )
        # Canonicalise up front so aliases ("interp") share scan-cache
        # entries with their canonical method across run() calls.
        method = normalize_method(method)
        if counters is None:
            counters = ScanCounters()
        reporter = ProgressReporter(progress)
        evaluated: list[SweepPointResult] = []
        distinct: set[frozenset[str] | None] = set()

        for index, point in enumerate(points):
            reporter.emit("sweep", index, len(points), counters, force=True)
            analyzer = self.analyzer_for(point)
            point_counters = ScanCounters()
            probabilities, scan_cached = self.scan_for(
                point, method=method, epsilon=epsilon,
                progress=progress, counters=point_counters,
            )
            result = analyzer.evaluate_probabilities(
                probabilities, method=method, progress=progress,
                counters=point_counters,
            )
            counters.merge(point_counters)
            counters.sweep_points += 1
            distinct.update(probabilities)
            evaluated.append(
                SweepPointResult(
                    point=point,
                    failure_probs=self._effective_probs(point),
                    result=result,
                    scan_cached=scan_cached,
                )
            )

        counters.record_level("distinct_configurations", len(distinct))
        reporter.emit(
            "sweep", len(points), len(points), counters, force=True
        )
        return SweepResult(
            points=tuple(evaluated),
            counters=counters,
            method=method,
        )


# ----------------------------------------------------------------------
# Sweep-spec parsing (the JSON "points"/"base" sections; file loading
# lives in the CLI, which resolves the model/architecture paths).


def causes_from_documents(items: object) -> tuple[CommonCause, ...]:
    """Parse a JSON ``common_causes`` array into events.

    Raises :class:`SerializationError` on any shape problem, so CLI
    users get a one-line message instead of a traceback.
    """
    if not isinstance(items, list):
        raise SerializationError(
            "\"common_causes\" must be an array of "
            "{name, probability, components} objects"
        )
    causes = []
    for item in items:
        if not isinstance(item, dict):
            raise SerializationError(
                f"common cause entries must be objects, got {item!r}"
            )
        missing = [
            key for key in ("name", "probability", "components")
            if key not in item
        ]
        if missing:
            raise SerializationError(
                f"common cause entry is missing {missing}: {item!r}"
            )
        unknown = sorted(
            set(item) - {"name", "probability", "components"}
        )
        if unknown:
            raise SerializationError(
                f"common cause entry has unknown keys {unknown}: {item!r}"
            )
        try:
            causes.append(
                CommonCause(
                    name=str(item["name"]),
                    probability=float(item["probability"]),
                    components=tuple(
                        str(c) for c in item["components"]
                    ),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed common cause {item!r}: {exc}"
            ) from exc
    return tuple(causes)


def probs_from_document(document: object, *, label: str) -> dict[str, float]:
    """Parse a flat ``{"component": probability}`` JSON object."""
    if not isinstance(document, dict):
        raise SerializationError(f"{label} must be a JSON object")
    probs = {}
    for name, value in document.items():
        try:
            probs[str(name)] = float(value)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"{label}: probability of {name!r} must be a number, "
                f"got {value!r}"
            ) from exc
    return probs


_POINT_KEYS = frozenset(
    {"name", "architecture", "failure_probs", "common_causes", "weights"}
)


def points_from_documents(items: object) -> list[SweepPoint]:
    """Parse a sweep spec's JSON ``points`` array.

    Each entry is an object with a required ``name`` and the optional
    override fields of :class:`SweepPoint`; unknown keys are rejected.
    """
    if not isinstance(items, list) or not items:
        raise SerializationError(
            "sweep spec needs a non-empty \"points\" array"
        )
    points = []
    for item in items:
        if not isinstance(item, dict):
            raise SerializationError(
                f"sweep points must be objects, got {item!r}"
            )
        if "name" not in item:
            raise SerializationError(f"sweep point is missing \"name\": {item!r}")
        unknown = sorted(set(item) - _POINT_KEYS)
        if unknown:
            raise SerializationError(
                f"sweep point {item.get('name')!r} has unknown keys "
                f"{unknown}; allowed: {sorted(_POINT_KEYS)}"
            )
        architecture = item.get("architecture")
        if architecture is not None:
            architecture = str(architecture)
        failure_probs = None
        if "failure_probs" in item:
            failure_probs = probs_from_document(
                item["failure_probs"],
                label=f"point {item['name']!r} failure_probs",
            )
        causes = None
        if "common_causes" in item:
            causes = causes_from_documents(item["common_causes"])
        weights = None
        if "weights" in item:
            weights = probs_from_document(
                item["weights"], label=f"point {item['name']!r} weights"
            )
        points.append(
            SweepPoint(
                name=str(item["name"]),
                architecture=architecture,
                failure_probs=failure_probs,
                common_causes=causes,
                weights=weights,
            )
        )
    return points
