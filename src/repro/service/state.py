"""The analysis service: warm shared state behind the HTTP daemon.

:class:`AnalysisService` is the transport-free core of ``repro serve``
— everything except sockets.  It owns:

* one warm :class:`~repro.core.sweep.SweepEngine` per catalog scenario
  (built lazily, kept for the life of the process) plus a bounded pool
  of engines for ad-hoc models posted inline, keyed by content hash;
* one :class:`~repro.service.batching.MicroBatcher` shared by *all*
  engines, so uncached LQN configurations from concurrent requests —
  even requests against different scenarios of the same model — merge
  into single batched solves;
* aggregate request/:class:`~repro.core.progress.ScanCounters`
  statistics served by ``GET /stats``.

Every public method is thread-safe: the HTTP layer calls them from a
bounded worker pool, and the engines' own single-flight caches (PR-10
concurrency hardening) guarantee each distinct scan and configuration
is computed once however the requests race.  Results are bit-identical
to the one-shot CLI on the same inputs — the service benchmark gates
that at 1e-12 on every catalog scenario.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict

from repro.core.bounded import DEFAULT_EPSILON
from repro.core.enumeration import normalize_method
from repro.core.progress import ProgressCallback, ScanCounters
from repro.core.rewards import weighted_throughput_reward
from repro.core.sweep import (
    SweepEngine,
    SweepPoint,
    causes_from_documents,
    points_from_documents,
    probs_from_document,
)
from repro.errors import ModelError, ReproError, SerializationError
from repro.ftlqn.serialize import model_from_json
from repro.mama.serialize import mama_from_json
from repro.service.batching import MicroBatcher
from repro.service.catalog import (
    ScenarioBundle,
    load_scenario,
    scenario_names,
)

#: Cap on concurrently cached ad-hoc (inline-model) engines; least
#: recently used beyond it are evicted.  Catalog engines never expire.
MAX_ADHOC_ENGINES = 8


class ServiceError(ReproError):
    """A request-level error with an HTTP status code."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def resolve_workers(workers: int | str | None) -> int:
    """Resolve a worker-count argument: ``"auto"``/``0``/``None`` (and
    any non-positive count) mean one worker per CPU core."""
    if isinstance(workers, str):
        if workers != "auto":
            raise ServiceError(
                f"workers must be a positive integer or 'auto', "
                f"got {workers!r}"
            )
        workers = 0
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


class _Engines:
    """One warm engine (plus its bundle) per scenario or content hash."""

    def __init__(self, batcher: MicroBatcher) -> None:
        self._batcher = batcher
        self._lock = threading.Lock()
        self._catalog: dict[str, tuple[ScenarioBundle, SweepEngine]] = {}
        self._adhoc: OrderedDict[str, SweepEngine] = OrderedDict()

    def for_scenario(self, name: str) -> tuple[ScenarioBundle, SweepEngine]:
        with self._lock:
            entry = self._catalog.get(name)
            if entry is not None:
                return entry
        # Build outside the lock (validation + reward wiring is pure
        # CPU); publish under it, first build wins.
        try:
            bundle = load_scenario(name)
        except ModelError as exc:
            raise ServiceError(str(exc), status=404) from exc
        engine = SweepEngine(
            bundle.ftlqn,
            dict(bundle.architectures),
            base_failure_probs=dict(bundle.failure_probs),
            base_common_causes=bundle.common_causes,
            base_reward=(
                weighted_throughput_reward(dict(bundle.weights))
                if bundle.weights is not None
                else None
            ),
            lqn_solver=self._batcher.solve,
        )
        with self._lock:
            return self._catalog.setdefault(name, (bundle, engine))

    def for_documents(
        self,
        model_doc: dict,
        architecture_docs: dict,
        *,
        failure_probs: object = None,
        common_causes: object = None,
    ) -> SweepEngine:
        key = hashlib.sha256(
            json.dumps(
                {
                    "model": model_doc,
                    "architectures": architecture_docs,
                    "failure_probs": failure_probs,
                    "common_causes": common_causes,
                },
                sort_keys=True, separators=(",", ":"),
            ).encode()
        ).hexdigest()
        with self._lock:
            engine = self._adhoc.get(key)
            if engine is not None:
                self._adhoc.move_to_end(key)
                return engine
        try:
            ftlqn = model_from_json(json.dumps(model_doc))
            architectures = {
                str(name): mama_from_json(json.dumps(doc))
                for name, doc in architecture_docs.items()
            }
        except ReproError:
            raise
        except Exception as exc:  # malformed documents
            raise ServiceError(f"malformed model document: {exc}") from exc
        # The request's top-level maps are the engine *baseline* —
        # exactly like a named scenario's bundle maps, so they may
        # cover components of every architecture (each point filters
        # the baseline to its own component universe).
        base_probs = (
            probs_from_document(failure_probs, label='"failure_probs"')
            if failure_probs is not None
            else {}
        )
        base_causes = (
            causes_from_documents(common_causes)
            if common_causes is not None
            else ()
        )
        engine = SweepEngine(
            ftlqn, architectures,
            base_failure_probs=base_probs,
            base_common_causes=base_causes,
            lqn_solver=self._batcher.solve,
        )
        with self._lock:
            engine = self._adhoc.setdefault(key, engine)
            self._adhoc.move_to_end(key)
            while len(self._adhoc) > MAX_ADHOC_ENGINES:
                self._adhoc.popitem(last=False)
            return engine

    def loaded(self) -> dict[str, SweepEngine]:
        with self._lock:
            loaded = {
                name: engine
                for name, (_bundle, engine) in self._catalog.items()
            }
            loaded.update(
                {f"adhoc:{key[:12]}": eng for key, eng in self._adhoc.items()}
            )
            return loaded


class AnalysisService:
    """Warm, thread-safe analysis state shared across requests.

    Parameters
    ----------
    workers:
        Size of the daemon's worker pool (``"auto"`` = one per CPU).
        The service itself does not own threads — the HTTP layer sizes
        its executor from this — but the value is reported in stats.
    batch_window / max_batch:
        Forwarded to the shared :class:`MicroBatcher`.
    """

    def __init__(
        self,
        *,
        workers: int | str | None = "auto",
        batch_window: float | None = None,
        max_batch: int | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        batcher_args = {}
        if batch_window is not None:
            batcher_args["batch_window"] = batch_window
        if max_batch is not None:
            batcher_args["max_batch"] = max_batch
        self.batcher = MicroBatcher(**batcher_args)
        self._engines = _Engines(self.batcher)
        self._lock = threading.Lock()
        self._counters = ScanCounters()
        self._requests: dict[str, int] = {}
        self._errors = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Catalog

    def preload(self) -> None:
        """Warm every catalog engine (structure derivation only)."""
        for name in scenario_names():
            bundle, engine = self._engines.for_scenario(name)
            for architecture in (None, *bundle.architectures):
                engine.structure_for(architecture)

    def catalog_document(self) -> dict:
        self._count("catalog")
        return {
            "scenarios": [
                load_scenario(name).summary() for name in scenario_names()
            ]
        }

    def scenario_document(self, name: str) -> dict:
        self._count("scenario")
        bundle, _engine = self._engines.for_scenario(name)
        return bundle.to_document()

    # ------------------------------------------------------------------
    # Analysis endpoints

    def analyze(self, payload: object) -> dict:
        """``POST /analyze``: one scenario point, fully serialized.

        The response's ``result`` is the engine-evaluated
        :meth:`~repro.core.results.PerformabilityResult.to_dict`
        document, bit-identical to the one-shot CLI run over the same
        effective inputs (which the response spells out as
        ``effective_failure_probs`` / ``common_causes`` / ``weights``
        so a client can reproduce it offline).
        """
        payload = _object(payload, "analyze request")
        self._count("analyze")
        engine, bundle, baseline_consumed = self._resolve_engine(payload)
        point = self._point_from(
            payload, bundle, baseline_consumed=baseline_consumed
        )
        method, epsilon = self._method_args(payload)
        counters = ScanCounters()
        started = time.perf_counter()
        sweep = engine.run(
            [point], method=method, epsilon=epsilon,
            counters=counters,
        )
        seconds = time.perf_counter() - started
        self._merge(counters)
        entry = sweep.points[0]
        # The embedded result is the *analytical* payload: counters are
        # per-request instrumentation (a warm repeat legitimately
        # reports zero scan work) and would break the bit-identical
        # contract, so they are served separately (`GET /stats`).
        result_document = entry.result.to_dict()
        result_document.pop("counters", None)
        if point.common_causes is not None:
            causes = point.common_causes
        elif baseline_consumed and payload.get("common_causes") is not None:
            causes = causes_from_documents(payload["common_causes"])
        elif bundle is not None:
            causes = bundle.common_causes
        else:
            causes = ()
        weights = point.weights
        if weights is None and bundle is not None:
            weights = bundle.weights
        return {
            "scenario": bundle.name if bundle is not None else None,
            "architecture": point.architecture,
            "method": method,
            "seconds": seconds,
            "scan_cached": entry.scan_cached,
            "effective_failure_probs": dict(entry.failure_probs),
            "common_causes": [
                {
                    "name": cause.name,
                    "probability": float(cause.probability),
                    "components": list(cause.components),
                }
                for cause in causes
            ],
            "weights": dict(weights) if weights is not None else None,
            "expected_reward": entry.result.expected_reward,
            "failed_probability": entry.result.failed_probability,
            "result": result_document,
        }

    def sweep(
        self, payload: object, progress: ProgressCallback | None = None
    ) -> dict:
        """``POST /sweep``: many points over the warm shared caches."""
        payload = _object(payload, "sweep request")
        self._count("sweep")
        engine, bundle, _baseline_consumed = self._resolve_engine(payload)
        if "points" in payload:
            points = points_from_documents(payload["points"])
        elif bundle is not None and bundle.points:
            points = list(bundle.points)
        else:
            raise ServiceError('sweep request needs a "points" array')
        method, epsilon = self._method_args(payload)
        counters = ScanCounters()
        started = time.perf_counter()
        result = engine.run(
            points, method=method, epsilon=epsilon,
            progress=progress, counters=counters,
        )
        seconds = time.perf_counter() - started
        self._merge(counters)
        document = result.to_json_dict(
            include_records=bool(payload.get("include_records", False))
        )
        document["scenario"] = bundle.name if bundle is not None else None
        document["seconds"] = seconds
        return document

    def optimize(self, payload: object) -> dict:
        """``POST /optimize``: design-space search over a warm model.

        The payload mirrors the optimize-spec file (``space``,
        ``search``, ``weights``, ``budget``) with the model given by
        ``scenario`` or inline documents.  Candidate evaluation runs on
        its own engine (candidate MAMAs are generated, not named) but
        still benefits from the shared micro-batcher.
        """
        from repro.optimize import DesignSpaceSearch, OptimizationReport
        from repro.optimize.spec import (
            search_spec_from_document,
            space_from_document,
        )

        payload = _object(payload, "optimize request")
        self._count("optimize")
        _engine, bundle, _baseline_consumed = self._resolve_engine(payload)
        if bundle is not None:
            ftlqn = bundle.ftlqn
            explicit = dict(bundle.architectures)
            base_probs = dict(bundle.failure_probs)
            base_causes = bundle.common_causes
            weights = (
                dict(bundle.weights) if bundle.weights is not None else None
            )
        else:
            ftlqn = _engine._ftlqn  # noqa: SLF001 - service-internal
            explicit = dict(_engine.architectures)
            base_probs = {}
            base_causes = ()
            weights = None
        if payload.get("failure_probs") is not None:
            base_probs.update(
                probs_from_document(
                    payload["failure_probs"], label='"failure_probs"'
                )
            )
        if payload.get("common_causes") is not None:
            base_causes = causes_from_documents(payload["common_causes"])
        if payload.get("weights") is not None:
            weights = probs_from_document(
                payload["weights"], label='"weights"'
            )
        space = space_from_document(
            payload.get("space"),
            ftlqn,
            explicit=explicit or None,
            base_failure_probs=base_probs,
            common_causes=base_causes,
        )
        spec = search_spec_from_document(payload.get("search"))
        method, epsilon = self._method_args(payload)
        started = time.perf_counter()
        search = DesignSpaceSearch(
            space, weights=weights, method=method, epsilon=epsilon,
            lqn_solver=self.batcher.solve,
        )
        if spec.strategy == "greedy":
            result = search.greedy(
                seed=spec.seed, restarts=spec.restarts,
                max_rounds=spec.max_rounds, move_limit=spec.move_limit,
            )
        else:
            result = search.exhaustive()
        seconds = time.perf_counter() - started
        self._merge(result.counters)
        budget = payload.get("budget", spec.budget)
        report = OptimizationReport.from_search(result, budget=budget)
        document = report.to_json_dict()
        document["scenario"] = bundle.name if bundle is not None else None
        document["seconds"] = seconds
        return document

    def temporal(self, payload: object, on_point=None) -> dict:
        """``POST /temporal``: a transient performability curve over a
        warm engine.

        The request names a scenario (or ships an inline model) exactly
        like ``/analyze``, plus the temporal knobs: ``repair_rate``
        lifts the effective failure probabilities to failure/repair
        rates (explicit per-component ``rates`` pairs override), the
        time grid comes from ``times`` or ``horizon``/``points``, and
        ``latencies`` adds a detection-latency erosion curve.  A named
        scenario's catalog ``temporal`` block provides the defaults.
        ``on_point`` (set by the streaming HTTP route) receives each
        :class:`~repro.core.temporal.TemporalPoint` as it is solved.
        """
        from repro.core.temporal import TemporalAnalyzer, time_grid
        from repro.markov.availability import ComponentAvailability

        payload = _object(payload, "temporal request")
        self._count("temporal")
        engine, bundle, baseline_consumed = self._resolve_engine(payload)
        defaults = (
            dict(bundle.temporal)
            if bundle is not None and bundle.temporal is not None
            else {}
        )
        architecture = payload.get(
            "architecture",
            bundle.default_architecture if bundle is not None else None,
        )
        if architecture is not None:
            architecture = str(architecture)

        overlay = None
        if not baseline_consumed and payload.get("failure_probs") is not None:
            overlay = probs_from_document(
                payload["failure_probs"], label='"failure_probs"'
            )
        effective = engine.effective_failure_probs(
            SweepPoint(
                name="temporal",
                architecture=architecture,
                failure_probs=overlay,
            )
        )
        repair_rate = payload.get(
            "repair_rate", defaults.get("repair_rate", 1.0)
        )
        if not isinstance(repair_rate, (int, float)):
            raise ServiceError('"repair_rate" must be a number')
        rates = {
            name: ComponentAvailability.from_probability(
                probability, repair_rate=float(repair_rate)
            )
            for name, probability in effective.items()
        }
        for name, pair in _object(
            payload.get("rates", {}), '"rates"'
        ).items():
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ServiceError(
                    f'"rates" entry {name!r} must be a '
                    "[failure_rate, repair_rate] pair"
                )
            rates[str(name)] = ComponentAvailability(
                failure_rate=float(pair[0]), repair_rate=float(pair[1])
            )

        if "times" in payload and "horizon" in payload:
            raise ServiceError(
                'give either an explicit "times" array or a "horizon" '
                '(+ "points"), not both'
            )
        if "times" in payload:
            times_doc = payload["times"]
            if not isinstance(times_doc, list):
                raise ServiceError('"times" must be an array of numbers')
            times = [float(value) for value in times_doc]
        else:
            times = list(
                time_grid(
                    float(payload.get(
                        "horizon", defaults.get("horizon", 10.0)
                    )),
                    int(payload.get("points", defaults.get("points", 9))),
                )
            )
        latencies_doc = payload.get(
            "latencies", defaults.get("latencies", [])
        )
        if not isinstance(latencies_doc, list):
            raise ServiceError('"latencies" must be an array of numbers')
        latencies = [float(value) for value in latencies_doc]

        if not baseline_consumed and payload.get("common_causes") is not None:
            causes = causes_from_documents(payload["common_causes"])
        elif bundle is not None:
            causes = bundle.common_causes
        else:
            causes = ()
        cause_repair_rate = payload.get(
            "cause_repair_rate",
            defaults.get("cause_repair_rate", float(repair_rate)),
        )
        if not isinstance(cause_repair_rate, (int, float)):
            raise ServiceError('"cause_repair_rate" must be a number')
        weights = None
        if payload.get("weights") is not None:
            weights = probs_from_document(
                payload["weights"], label='"weights"'
            )
        elif bundle is not None and bundle.weights is not None:
            weights = dict(bundle.weights)

        method, epsilon = self._method_args(payload)
        analyzer = TemporalAnalyzer(
            engine._ftlqn,  # noqa: SLF001 - service-internal
            rates=rates,
            common_causes=causes,
            cause_repair_rate=float(cause_repair_rate),
            weights=weights,
            engine=engine,
        )
        counters = ScanCounters()
        started = time.perf_counter()
        curve = analyzer.evaluate(
            times,
            architecture=architecture,
            method=method,
            epsilon=epsilon,
            counters=counters,
            on_point=on_point,
        )
        erosion = ()
        if latencies:
            erosion = analyzer.erosion_curve(
                latencies,
                method=method,
                epsilon=epsilon,
                counters=counters,
            )
        seconds = time.perf_counter() - started
        self._merge(counters)
        return {
            "scenario": bundle.name if bundle is not None else None,
            "architecture": architecture,
            "method": method,
            "seconds": seconds,
            "repair_rate": float(repair_rate),
            "result": curve.to_json_dict(),
            "erosion": [point.to_dict() for point in erosion],
        }

    # ------------------------------------------------------------------
    # Introspection

    def healthz(self) -> dict:
        return {"status": "ok", "uptime_seconds": self._uptime()}

    def stats(self) -> dict:
        """``GET /stats``: cache sizes, hit rates, counter aggregates."""
        with self._lock:
            requests = dict(self._requests)
            errors = self._errors
            counters = self._counters.as_dict()
            lqn_total = (
                self._counters.lqn_solves + self._counters.lqn_cache_hits
            )
            hit_rate = (
                self._counters.lqn_cache_hits / lqn_total if lqn_total else 0.0
            )
            scan_hits = self._counters.scan_cache_hits
        return {
            "uptime_seconds": self._uptime(),
            "workers": self.workers,
            "requests": requests,
            "errors": errors,
            "engines": {
                name: engine.cache_stats()
                for name, engine in self._engines.loaded().items()
            },
            "batcher": self.batcher.stats(),
            "counters": counters,
            "lqn_cache_hit_rate": hit_rate,
            "scan_cache_hits": scan_hits,
        }

    def record_error(self) -> None:
        """Called by the HTTP layer when a request fails."""
        with self._lock:
            self._errors += 1

    # ------------------------------------------------------------------

    def _uptime(self) -> float:
        return time.monotonic() - self._started

    def _count(self, endpoint: str) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def _merge(self, counters: ScanCounters) -> None:
        with self._lock:
            self._counters.merge(counters)

    def _resolve_engine(
        self, payload: dict
    ) -> tuple[SweepEngine, ScenarioBundle | None, bool]:
        """Returns ``(engine, bundle, baseline_consumed)``.

        For an inline model the payload's top-level ``failure_probs``
        and ``common_causes`` become the engine's *baseline* (filtered
        per-architecture, like a catalog bundle's maps) rather than a
        strict point overlay — so a scenario document echoed back as an
        inline model behaves identically to its named scenario.  The
        flag tells :meth:`_point_from` those keys are already consumed.
        """
        if "scenario" in payload and "model" in payload:
            raise ServiceError(
                'request must give either "scenario" or "model", not both'
            )
        if "scenario" in payload:
            bundle, engine = self._engines.for_scenario(
                str(payload["scenario"])
            )
            return engine, bundle, False
        if "model" in payload:
            model_doc = _object(payload["model"], '"model"')
            architecture_docs = _object(
                payload.get("architectures", {}), '"architectures"'
            )
            engine = self._engines.for_documents(
                model_doc, architecture_docs,
                failure_probs=payload.get("failure_probs"),
                common_causes=payload.get("common_causes"),
            )
            return engine, None, True
        raise ServiceError(
            'request needs a "scenario" name or an inline "model" document'
        )

    def _point_from(
        self,
        payload: dict,
        bundle: ScenarioBundle | None,
        *,
        baseline_consumed: bool = False,
    ) -> SweepPoint:
        architecture = payload.get(
            "architecture",
            bundle.default_architecture if bundle is not None else None,
        )
        if architecture is not None:
            architecture = str(architecture)
        # JSON null on an optional section means "not provided" — the
        # catalog documents serialize absent weights as null, so a
        # client may echo a scenario document straight back.
        failure_probs = None
        if not baseline_consumed and payload.get("failure_probs") is not None:
            failure_probs = probs_from_document(
                payload["failure_probs"], label='"failure_probs"'
            )
        causes = None
        if not baseline_consumed and payload.get("common_causes") is not None:
            causes = causes_from_documents(payload["common_causes"])
        weights = None
        if payload.get("weights") is not None:
            weights = probs_from_document(
                payload["weights"], label='"weights"'
            )
        return SweepPoint(
            name=str(payload.get("name", "analyze")),
            architecture=architecture,
            failure_probs=failure_probs,
            common_causes=causes,
            weights=weights,
        )

    def _method_args(self, payload: dict) -> tuple[str, float]:
        """The scan method and bounded epsilon of a request body.

        Scans always run in-process: the service's concurrency lives
        in its worker pool, so a body cannot size a process pool
        (``"jobs"`` is ignored like any other unknown key)."""
        method = normalize_method(str(payload.get("method", "bdd")))
        epsilon = payload.get("epsilon", DEFAULT_EPSILON)
        if not isinstance(epsilon, (int, float)):
            raise ServiceError('"epsilon" must be a number')
        return method, float(epsilon)


def _object(value: object, label: str) -> dict:
    if not isinstance(value, dict):
        raise ServiceError(f"{label} must be a JSON object")
    return value


def error_status(exc: BaseException) -> int:
    """Map a library exception to an HTTP status code."""
    if isinstance(exc, ServiceError):
        return exc.status
    if isinstance(exc, (ModelError, SerializationError)):
        return 400
    return 500
