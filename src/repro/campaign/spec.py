"""Campaign specifications and workload producers.

A campaign spec names one FTLQN model, a set of MAMA architecture
variants, a base scenario, a scan backend — and a list of *workloads*,
each of which expands into concrete scenario points:

* ``grid`` — a sweep grid: the cartesian product of per-component
  failure-probability axes × architecture variants (the paper's §6
  studies at scale);
* ``points`` — explicit sweep points, in the sweep-spec JSON shape
  (:func:`repro.core.sweep.points_from_documents`);
* ``optimize`` — a design-space candidate set
  (:mod:`repro.optimize.space`): every candidate of the space becomes
  one point, carrying its cost metadata into the store;
* ``fuzz`` — a differential-verification seed range
  (:mod:`repro.verify`): every seed becomes one oracle check;
* ``temporal`` — a transient performability curve per architecture
  variant (:class:`~repro.core.temporal.TemporalAnalyzer`): the base
  scenario lifted to failure/repair rates, evaluated over a time grid
  with an optional detection-latency erosion curve.

:meth:`CampaignSpec.compile` resolves all of it into a flat
:class:`CompiledCampaign`: per-point *effective* inputs (base +
overlay already folded), content-addressed keys
(:mod:`repro.campaign.keys`), and the plain-JSON engine documents a
worker process needs to rebuild a warm
:class:`~repro.core.sweep.SweepEngine` — nothing in a compiled
campaign holds a live model object, so it ships across process
boundaries as data.

The file format (see ``examples/campaign/campaign.json``)::

    {
      "name": "multi-region",
      "model": "model.json",
      "architectures": {"central": "central.json", ...},
      "base": {"failure_probs": {...}, "common_causes": [...]},
      "method": "bits",
      "workloads": [
        {"kind": "grid", "architectures": ["central", null],
         "axes": {"db1": [0.01, 0.05]}, "weights": {"users": 1.0}},
        {"kind": "points", "points": [...]},
        {"kind": "optimize", "space": {...}},
        {"kind": "fuzz", "seeds": 20},
        {"kind": "temporal", "architectures": ["central"],
         "horizon": 20, "points": 9, "latencies": [0.5]}
      ]
    }

``model`` and architecture values are file paths resolved relative to
the spec file, exactly like sweep specs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence

from repro.campaign.keys import (
    fuzz_point_key,
    solve_point_key,
    temporal_point_key,
)
from repro.core.bounded import DEFAULT_EPSILON
from repro.core.dependency import CommonCause
from repro.core.enumeration import normalize_method
from repro.core.sweep import (
    SweepPoint,
    causes_from_documents,
    points_from_documents,
    probs_from_document,
)
from repro.errors import SerializationError
from repro.ftlqn.model import FTLQNModel
from repro.ftlqn.serialize import model_from_json, model_to_json
from repro.mama.model import MAMAModel
from repro.mama.serialize import mama_from_json, mama_to_json


# ----------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class GridWorkload:
    """Cartesian failure-probability grid × architecture variants."""

    label: str
    architectures: tuple[str | None, ...]
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    weights: Mapping[str, float] | None = None

    def sweep_points(self) -> list[SweepPoint]:
        points = []
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        for architecture in self.architectures:
            for combo in itertools.product(*value_lists):
                overlay = dict(zip(names, combo))
                tag = ",".join(
                    f"{name}={value:g}" for name, value in overlay.items()
                )
                points.append(
                    SweepPoint(
                        name=f"{self.label}/{architecture or 'perfect'}"
                        + (f"/{tag}" if tag else ""),
                        architecture=architecture,
                        failure_probs=overlay or None,
                        weights=self.weights,
                    )
                )
        return points


@dataclass(frozen=True)
class PointsWorkload:
    """Explicit sweep points (the sweep-spec ``points`` shape)."""

    label: str
    points: tuple[SweepPoint, ...]

    def sweep_points(self) -> list[SweepPoint]:
        return [
            SweepPoint(
                name=f"{self.label}/{point.name}",
                architecture=point.architecture,
                failure_probs=point.failure_probs,
                common_causes=point.common_causes,
                weights=point.weights,
            )
            for point in self.points
        ]


@dataclass(frozen=True)
class OptimizeWorkload:
    """Every candidate of a design space becomes one campaign point.

    ``space_document`` is the optimize-spec ``space`` object
    (:func:`repro.optimize.spec.space_from_document`);
    ``architectures`` optionally names campaign-level architecture
    variants to include as explicit candidates.
    """

    label: str
    space_document: Mapping | None
    architectures: tuple[str, ...] = ()
    weights: Mapping[str, float] | None = None


@dataclass(frozen=True)
class FuzzWorkload:
    """A differential-verification seed range.

    Check strength is derived from the *seed*, not the position in the
    range (``seed % sim_every``/``% temporal_every``), so a seed's
    content-addressed key means the same thing whatever range it was
    reached through.
    """

    label: str
    seeds: int
    seed_start: int = 0
    backends: tuple[str, ...] | None = None
    sim_every: int = 10
    temporal_every: int = 10


@dataclass(frozen=True)
class TemporalWorkload:
    """A transient performability curve per architecture variant.

    The static base scenario is lifted to failure/repair rates with
    :meth:`~repro.markov.availability.ComponentAvailability
    .from_probability` at ``repair_rate`` (so the curve's ``t → ∞``
    limit reproduces the static point exactly); ``rates`` overrides
    individual components with explicit ``(failure_rate, repair_rate)``
    pairs.  ``latencies`` adds the detection-latency erosion curve to
    every point's stored result.
    """

    label: str
    architectures: tuple[str | None, ...]
    times: tuple[float, ...]
    repair_rate: float = 1.0
    cause_repair_rate: float = 1.0
    latencies: tuple[float, ...] = ()
    rates: Mapping[str, tuple[float, float]] | None = None
    weights: Mapping[str, float] | None = None


Workload = (
    GridWorkload | PointsWorkload | OptimizeWorkload | FuzzWorkload
    | TemporalWorkload
)


# ----------------------------------------------------------------------
# Compiled form


@dataclass(frozen=True)
class CompiledPoint:
    """One content-addressed unit of campaign work.

    ``payload`` is everything a worker needs to execute the point
    (plain JSON data); ``extra`` is metadata stored alongside the
    result (candidate cost, workload label) but *not* part of the key.
    """

    key: str
    kind: str  # "solve" | "fuzz" | "temporal"
    name: str
    workload: str
    payload: dict
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CompiledCampaign:
    """A campaign resolved to plain data: content-addressed points
    plus the engine documents workers rebuild their caches from.

    ``duplicate_points`` counts spec points that collapsed onto an
    earlier point's key (identical analysis content under a different
    name); they are solved and stored once.
    """

    name: str
    engine_documents: dict
    points: tuple[CompiledPoint, ...]
    method: str
    epsilon: float
    duplicate_points: int = 0

    @property
    def solve_points(self) -> tuple[CompiledPoint, ...]:
        return tuple(p for p in self.points if p.kind == "solve")

    @property
    def fuzz_points(self) -> tuple[CompiledPoint, ...]:
        return tuple(p for p in self.points if p.kind == "fuzz")

    @property
    def temporal_points(self) -> tuple[CompiledPoint, ...]:
        return tuple(p for p in self.points if p.kind == "temporal")


# ----------------------------------------------------------------------
# The spec itself


@dataclass
class CampaignSpec:
    """One campaign: models, base scenario, backend, workloads."""

    name: str
    ftlqn: FTLQNModel
    workloads: Sequence[Workload]
    architectures: Mapping[str, MAMAModel] = field(default_factory=dict)
    base_failure_probs: Mapping[str, float] = field(default_factory=dict)
    base_common_causes: tuple[CommonCause, ...] = ()
    method: str = "bdd"
    epsilon: float = DEFAULT_EPSILON

    def compile(
        self,
        *,
        method: str | None = None,
        epsilon: float | None = None,
    ) -> CompiledCampaign:
        """Expand every workload, fold base + overlays into effective
        inputs, and key every point (``method``/``epsilon`` override
        the spec's backend, e.g. from the CLI)."""
        method = normalize_method(method or self.method)
        epsilon = self.epsilon if epsilon is None else float(epsilon)

        architectures = dict(self.architectures)
        ftlqn_document = json.loads(model_to_json(self.ftlqn))
        points: list[CompiledPoint] = []

        for index, workload in enumerate(self.workloads):
            if isinstance(workload, (GridWorkload, PointsWorkload)):
                for point in workload.sweep_points():
                    points.append(
                        self._compile_solve_point(
                            point, architectures, ftlqn_document,
                            method, epsilon, workload.label,
                        )
                    )
            elif isinstance(workload, OptimizeWorkload):
                points.extend(
                    self._compile_optimize(
                        workload, architectures, ftlqn_document,
                        method, epsilon,
                    )
                )
            elif isinstance(workload, TemporalWorkload):
                points.extend(
                    self._compile_temporal(
                        workload, architectures, ftlqn_document,
                        method, epsilon,
                    )
                )
            elif isinstance(workload, FuzzWorkload):
                points.extend(self._compile_fuzz(workload))
            else:  # pragma: no cover - guarded by the parser
                raise SerializationError(
                    f"workload {index} has unknown type {type(workload)!r}"
                )

        names = [point.name for point in points]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise SerializationError(
                f"campaign point names must be unique; duplicated: "
                f"{duplicates[:5]}"
            )
        unique: list[CompiledPoint] = []
        seen: set[str] = set()
        for point in points:
            if point.key in seen:
                continue
            seen.add(point.key)
            unique.append(point)

        return CompiledCampaign(
            name=self.name,
            engine_documents={
                "ftlqn": ftlqn_document,
                "architectures": {
                    key: json.loads(mama_to_json(mama))
                    for key, mama in architectures.items()
                },
            },
            points=tuple(unique),
            method=method,
            epsilon=epsilon,
            duplicate_points=len(points) - len(unique),
        )

    # -- helpers --------------------------------------------------------

    def _effective_probs(
        self,
        point: SweepPoint,
        architectures: Mapping[str, MAMAModel],
    ) -> dict[str, float]:
        """Base + overlay, restricted to the point's component
        universe — the same overlay semantics as
        :meth:`repro.core.sweep.SweepEngine.effective_failure_probs`,
        computed from the models alone (no structure derivation)."""
        universe = set(self.ftlqn.component_names())
        if point.architecture is not None:
            try:
                mama = architectures[point.architecture]
            except KeyError:
                raise SerializationError(
                    f"point {point.name!r} references unknown architecture "
                    f"{point.architecture!r}; available: "
                    f"{sorted(architectures)}"
                ) from None
            universe |= set(mama.components) | set(mama.connectors)
        effective = {
            name: probability
            for name, probability in self.base_failure_probs.items()
            if name in universe
        }
        effective.update(point.failure_probs or {})
        return effective

    def _compile_solve_point(
        self,
        point: SweepPoint,
        architectures: Mapping[str, MAMAModel],
        ftlqn_document: dict,
        method: str,
        epsilon: float,
        workload: str,
        extra: dict | None = None,
    ) -> CompiledPoint:
        effective = self._effective_probs(point, architectures)
        causes = (
            point.common_causes
            if point.common_causes is not None
            else self.base_common_causes
        )
        mama = (
            None if point.architecture is None
            else architectures[point.architecture]
        )
        key = solve_point_key(
            ftlqn_document,
            mama,
            failure_probs=effective,
            common_causes=causes,
            weights=point.weights,
            method=method,
            epsilon=epsilon,
        )
        payload = {
            "name": point.name,
            "architecture": point.architecture,
            "failure_probs": effective,
            "common_causes": [
                {
                    "name": cause.name,
                    "probability": cause.probability,
                    "components": list(cause.components),
                }
                for cause in causes
            ],
            "weights": None if point.weights is None else dict(point.weights),
            "method": method,
            "epsilon": epsilon,
        }
        return CompiledPoint(
            key=key, kind="solve", name=point.name, workload=workload,
            payload=payload, extra=dict(extra or {}),
        )

    def _compile_optimize(
        self,
        workload: OptimizeWorkload,
        architectures: dict[str, MAMAModel],
        ftlqn_document: dict,
        method: str,
        epsilon: float,
    ) -> list[CompiledPoint]:
        # Lazy import: repro.optimize pulls in the search machinery,
        # which campaign specs only need for this workload kind.
        from repro.optimize.spec import space_from_document

        explicit = None
        if workload.architectures:
            missing = [
                name for name in workload.architectures
                if name not in architectures
            ]
            if missing:
                raise SerializationError(
                    f"optimize workload {workload.label!r} references "
                    f"unknown campaign architectures {missing}"
                )
            explicit = {
                name: architectures[name] for name in workload.architectures
            }
        space = space_from_document(
            workload.space_document,
            self.ftlqn,
            explicit=explicit,
            base_failure_probs=dict(self.base_failure_probs),
            common_causes=self.base_common_causes,
        )
        # Register the space's generated architectures under a
        # workload-namespaced key so they cannot collide with (or
        # shadow) campaign-level variants.
        namespace = {}
        for key, mama in space.architectures().items():
            namespaced = f"{workload.label}:{key}"
            if namespaced in architectures:
                raise SerializationError(
                    f"architecture key {namespaced!r} is already taken; "
                    f"rename the optimize workload {workload.label!r}"
                )
            architectures[namespaced] = mama
            namespace[key] = namespaced

        points = []
        for candidate in space.candidates():
            point = SweepPoint(
                name=f"{workload.label}/{candidate.name}",
                architecture=namespace[candidate.architecture],
                failure_probs=candidate.failure_probs,
                weights=workload.weights,
            )
            points.append(
                self._compile_solve_point(
                    point, architectures, ftlqn_document, method, epsilon,
                    workload.label,
                    extra={
                        "candidate": {
                            "name": candidate.name,
                            "architecture": candidate.architecture,
                            "topology": candidate.topology,
                            "style": candidate.style,
                            "upgrades": [
                                upgrade.name for upgrade in candidate.upgrades
                            ],
                            "cost": candidate.cost,
                            "component_count": candidate.component_count,
                        }
                    },
                )
            )
        return points

    def _compile_temporal(
        self,
        workload: TemporalWorkload,
        architectures: Mapping[str, MAMAModel],
        ftlqn_document: dict,
        method: str,
        epsilon: float,
    ) -> list[CompiledPoint]:
        # Lazy: the markov layer is only needed for this workload kind.
        from repro.markov.availability import ComponentAvailability

        points = []
        for architecture in workload.architectures:
            probe = SweepPoint(
                name=f"{workload.label}/{architecture or 'perfect'}",
                architecture=architecture,
            )
            effective = self._effective_probs(probe, architectures)
            rates: dict[str, tuple[float, float]] = {}
            for name, probability in effective.items():
                lifted = ComponentAvailability.from_probability(
                    probability, repair_rate=workload.repair_rate
                )
                rates[name] = (lifted.failure_rate, lifted.repair_rate)
            for name, pair in (workload.rates or {}).items():
                rates[name] = (float(pair[0]), float(pair[1]))
            mama = (
                None if architecture is None else architectures[architecture]
            )
            key = temporal_point_key(
                ftlqn_document,
                mama,
                rates=rates,
                times=workload.times,
                latencies=workload.latencies,
                common_causes=self.base_common_causes,
                cause_repair_rate=workload.cause_repair_rate,
                weights=workload.weights,
                method=method,
                epsilon=epsilon,
            )
            payload = {
                "name": probe.name,
                "architecture": architecture,
                "rates": {
                    name: [pair[0], pair[1]]
                    for name, pair in rates.items()
                },
                "times": list(workload.times),
                "latencies": list(workload.latencies),
                "common_causes": [
                    {
                        "name": cause.name,
                        "probability": cause.probability,
                        "components": list(cause.components),
                    }
                    for cause in self.base_common_causes
                ],
                "cause_repair_rate": workload.cause_repair_rate,
                "weights": (
                    None if workload.weights is None
                    else dict(workload.weights)
                ),
                "method": method,
                "epsilon": epsilon,
            }
            points.append(
                CompiledPoint(
                    key=key, kind="temporal", name=probe.name,
                    workload=workload.label, payload=payload,
                )
            )
        return points

    def _compile_fuzz(self, workload: FuzzWorkload) -> list[CompiledPoint]:
        # Lazy: the verify package imports simulation machinery.
        from dataclasses import asdict

        from repro.verify.generator import DEFAULT_SPACE, generate_scenario
        from repro.verify.oracle import DEFAULT_ORACLE_CONFIG, default_backends

        backends = tuple(default_backends(workload.backends))
        oracle_document = asdict(DEFAULT_ORACLE_CONFIG)
        points = []
        for offset in range(workload.seeds):
            seed = workload.seed_start + offset
            scenario = generate_scenario(seed, DEFAULT_SPACE)
            document = scenario.to_document()
            simulate = (
                workload.sim_every > 0 and seed % workload.sim_every == 0
            )
            temporal = (
                workload.temporal_every > 0
                and seed % workload.temporal_every == 0
            )
            key = fuzz_point_key(
                document,
                backends=backends,
                simulate=simulate,
                temporal=temporal,
                oracle_config=oracle_document,
            )
            points.append(
                CompiledPoint(
                    key=key,
                    kind="fuzz",
                    name=f"{workload.label}/seed-{seed}",
                    workload=workload.label,
                    payload={
                        "seed": seed,
                        "scenario": document,
                        "backends": list(backends),
                        "simulate": simulate,
                        "temporal": temporal,
                    },
                )
            )
        return points


# ----------------------------------------------------------------------
# JSON spec parsing

_SPEC_KEYS = frozenset(
    {"name", "model", "architectures", "base", "method", "epsilon",
     "workloads"}
)
_GRID_KEYS = frozenset(
    {"kind", "label", "architectures", "axes", "weights"}
)
_POINTS_KEYS = frozenset({"kind", "label", "points"})
_OPTIMIZE_KEYS = frozenset(
    {"kind", "label", "space", "architectures", "weights"}
)
_FUZZ_KEYS = frozenset(
    {"kind", "label", "seeds", "seed_start", "backends", "sim_every",
     "temporal_every"}
)
_TEMPORAL_KEYS = frozenset(
    {"kind", "label", "architectures", "times", "horizon", "points",
     "repair_rate", "cause_repair_rate", "latencies", "rates", "weights"}
)


def _check_keys(item: Mapping, allowed: frozenset, what: str) -> None:
    unknown = sorted(set(item) - allowed)
    if unknown:
        raise SerializationError(
            f"{what} has unknown keys {unknown}; allowed: {sorted(allowed)}"
        )


def _workload_from_document(item, index: int) -> Workload:
    if not isinstance(item, Mapping):
        raise SerializationError(
            f"workload {index} must be an object, got {item!r}"
        )
    kind = item.get("kind")
    label = str(item.get("label", f"{kind}{index}"))
    what = f"workload {index} ({label})"
    if kind == "grid":
        _check_keys(item, _GRID_KEYS, what)
        architectures_doc = item.get("architectures", [None])
        if not isinstance(architectures_doc, list) or not architectures_doc:
            raise SerializationError(
                f'{what}: "architectures" must be a non-empty array of '
                "architecture names (null = perfect knowledge)"
            )
        axes_doc = item.get("axes", {})
        if not isinstance(axes_doc, Mapping):
            raise SerializationError(
                f'{what}: "axes" must map component names to value arrays'
            )
        axes = []
        for component, values in axes_doc.items():
            if not isinstance(values, list) or not values:
                raise SerializationError(
                    f"{what}: axis {component!r} must be a non-empty array "
                    "of probabilities"
                )
            try:
                axes.append(
                    (str(component), tuple(float(v) for v in values))
                )
            except (TypeError, ValueError) as exc:
                raise SerializationError(
                    f"{what}: axis {component!r}: {exc}"
                ) from exc
        weights = None
        if "weights" in item:
            weights = probs_from_document(
                item["weights"], label=f"{what} weights"
            )
        return GridWorkload(
            label=label,
            architectures=tuple(
                None if entry is None else str(entry)
                for entry in architectures_doc
            ),
            axes=tuple(axes),
            weights=weights,
        )
    if kind == "points":
        _check_keys(item, _POINTS_KEYS, what)
        return PointsWorkload(
            label=label,
            points=tuple(points_from_documents(item.get("points"))),
        )
    if kind == "optimize":
        _check_keys(item, _OPTIMIZE_KEYS, what)
        architectures = item.get("architectures", [])
        if not isinstance(architectures, list):
            raise SerializationError(
                f'{what}: "architectures" must be an array of campaign '
                "architecture names"
            )
        weights = None
        if "weights" in item:
            weights = probs_from_document(
                item["weights"], label=f"{what} weights"
            )
        return OptimizeWorkload(
            label=label,
            space_document=item.get("space"),
            architectures=tuple(str(name) for name in architectures),
            weights=weights,
        )
    if kind == "fuzz":
        _check_keys(item, _FUZZ_KEYS, what)
        try:
            return FuzzWorkload(
                label=label,
                seeds=int(item.get("seeds", 100)),
                seed_start=int(item.get("seed_start", 0)),
                backends=(
                    tuple(str(b) for b in item["backends"])
                    if "backends" in item else None
                ),
                sim_every=int(item.get("sim_every", 10)),
                temporal_every=int(item.get("temporal_every", 10)),
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"{what}: {exc}") from exc
    if kind == "temporal":
        _check_keys(item, _TEMPORAL_KEYS, what)
        architectures_doc = item.get("architectures", [None])
        if not isinstance(architectures_doc, list) or not architectures_doc:
            raise SerializationError(
                f'{what}: "architectures" must be a non-empty array of '
                "architecture names (null = perfect knowledge)"
            )
        if "times" in item and "horizon" in item:
            raise SerializationError(
                f'{what}: give either an explicit "times" array or a '
                '"horizon" (+ "points"), not both'
            )
        try:
            if "times" in item:
                times = tuple(float(t) for t in item["times"])
            else:
                from repro.core.temporal import time_grid

                times = time_grid(
                    float(item.get("horizon", 10.0)),
                    int(item.get("points", 9)),
                )
            latencies = tuple(
                float(value) for value in item.get("latencies", [])
            )
            repair_rate = float(item.get("repair_rate", 1.0))
            cause_repair_rate = float(item.get("cause_repair_rate", 1.0))
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"{what}: {exc}") from exc
        rates = None
        if "rates" in item:
            rates_doc = item["rates"]
            if not isinstance(rates_doc, Mapping):
                raise SerializationError(
                    f'{what}: "rates" must map component names to '
                    "[failure_rate, repair_rate] pairs"
                )
            rates = {}
            for name, pair in rates_doc.items():
                if not isinstance(pair, Sequence) or len(pair) != 2:
                    raise SerializationError(
                        f"{what}: rate for {name!r} must be a "
                        "[failure_rate, repair_rate] pair"
                    )
                try:
                    rates[str(name)] = (float(pair[0]), float(pair[1]))
                except (TypeError, ValueError) as exc:
                    raise SerializationError(
                        f"{what}: rate for {name!r}: {exc}"
                    ) from exc
        weights = None
        if "weights" in item:
            weights = probs_from_document(
                item["weights"], label=f"{what} weights"
            )
        return TemporalWorkload(
            label=label,
            architectures=tuple(
                None if entry is None else str(entry)
                for entry in architectures_doc
            ),
            times=times,
            repair_rate=repair_rate,
            cause_repair_rate=cause_repair_rate,
            latencies=latencies,
            rates=rates,
            weights=weights,
        )
    raise SerializationError(
        f"{what}: unknown workload kind {kind!r}; expected one of "
        "['grid', 'points', 'optimize', 'fuzz', 'temporal']"
    )


def campaign_spec_from_document(
    document, *, base_dir: str | Path = "."
) -> CampaignSpec:
    """Parse a campaign-spec JSON document (file paths resolved
    relative to ``base_dir``)."""
    if not isinstance(document, Mapping):
        raise SerializationError("campaign spec must be a JSON object")
    _check_keys(document, _SPEC_KEYS, "campaign spec")
    if "model" not in document:
        raise SerializationError(
            'campaign spec needs a "model" entry (FTLQN JSON file path)'
        )
    workloads_doc = document.get("workloads")
    if not isinstance(workloads_doc, list) or not workloads_doc:
        raise SerializationError(
            'campaign spec needs a non-empty "workloads" array'
        )
    base_dir = Path(base_dir)

    def read(entry: object, what: str) -> str:
        if not isinstance(entry, str):
            raise SerializationError(
                f"{what} must be a file-path string, got {entry!r}"
            )
        candidate = Path(entry)
        path = candidate if candidate.is_absolute() else base_dir / candidate
        try:
            return path.read_text()
        except OSError as exc:
            raise SerializationError(f"cannot read {path}: {exc}") from exc

    ftlqn = model_from_json(read(document["model"], '"model"'))
    architectures_doc = document.get("architectures", {})
    if not isinstance(architectures_doc, Mapping):
        raise SerializationError(
            '"architectures" must map names to MAMA JSON file paths'
        )
    architectures = {
        str(name): mama_from_json(read(entry, f"architecture {name!r}"))
        for name, entry in architectures_doc.items()
    }
    base = document.get("base", {})
    if not isinstance(base, Mapping):
        raise SerializationError('"base" must be a JSON object')
    _check_keys(base, frozenset({"failure_probs", "common_causes"}), '"base"')
    try:
        epsilon = float(document.get("epsilon", DEFAULT_EPSILON))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f'"epsilon": {exc}') from exc
    return CampaignSpec(
        name=str(document.get("name", "campaign")),
        ftlqn=ftlqn,
        architectures=architectures,
        base_failure_probs=probs_from_document(
            base.get("failure_probs", {}), label='"base" failure_probs'
        ),
        base_common_causes=causes_from_documents(
            base.get("common_causes", [])
        ),
        method=normalize_method(str(document.get("method", "bdd"))),
        epsilon=epsilon,
        workloads=[
            _workload_from_document(item, index)
            for index, item in enumerate(workloads_doc)
        ],
    )


def load_campaign_spec(path: str | Path) -> CampaignSpec:
    """Load and parse a campaign spec file (paths resolved relative to
    the spec file's directory)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"campaign spec {path} is not valid JSON: {exc}"
        ) from exc
    return campaign_spec_from_document(document, base_dir=path.parent)
