"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``validate``
    Check an FTLQN model file (and optionally a MAMA file) for
    structural well-formedness.
``analyze``
    Run the coverage-aware performability analysis on model files and
    print the configuration table and expected reward.
``temporal``
    Evaluate the transient performability curve R(t) and interval
    availability of a scenario lifted to failure/repair rates, plus the
    detection-latency coverage-erosion curve (see
    :mod:`repro.core.temporal`).
``importance``
    Rank components by Birnbaum reward/failure importance.
``dot``
    Emit Graphviz renderings of a model, its fault propagation graph,
    or a management architecture.
``verify``
    Fuzz randomly generated scenarios through every analytic backend
    plus the Monte-Carlo simulation cross-check,
    shrinking any disagreement to a minimal counterexample (see
    :mod:`repro.verify`).
``paper``
    Regenerate the paper's evaluation artifacts (table1, table2,
    figure11, statespace).
``sweep``
    Evaluate a multi-scenario sweep specification over the shared-cache
    :class:`~repro.core.sweep.SweepEngine` and export JSON/CSV
    artifacts.
``optimize``
    Search a generated design space of management architectures,
    report the Pareto frontier over (expected reward, cost, component
    count) and recommend the best candidate under a cost budget (see
    :mod:`repro.optimize`).
``campaign``
    Run a large point campaign (sweep grids, optimizer candidate sets,
    fuzz seed ranges) against a persistent content-addressed result
    store, sharded over worker processes and resumable after any crash
    (``campaign run``); render offline JSON/CSV reports and Pareto
    frontiers from the store (``campaign report``).  See
    :mod:`repro.campaign`.
``serve``
    Run the warm-cache analysis HTTP daemon: per-scenario sweep
    engines stay warm across requests, concurrent uncached LQN solves
    are micro-batched, and every response is bit-identical to the
    one-shot CLI (see :mod:`repro.service`).

Model files use the JSON formats of :mod:`repro.ftlqn.serialize` and
:mod:`repro.mama.serialize`.  The ``--probs`` file is either a flat
``{"component": probability}`` object or the structured form
``{"failure_probs": {...}, "common_causes": [{"name": ...,
"probability": ..., "components": [...]}]}`` (recognised by either
key).

A sweep specification is one JSON object::

    {
      "model": "figure1.json",
      "architectures": {"centralized": "centralized.json", ...},
      "base": {"failure_probs": {...}, "common_causes": [...]},
      "points": [
        {"name": "c@0.05", "architecture": "centralized",
         "failure_probs": {"m1": 0.05}, "weights": {"UserA": 1.0}},
        ...
      ]
    }

``model`` and the architecture values are file paths resolved relative
to the spec file; every ``points`` entry overlays its optional
``failure_probs``/``common_causes``/``weights`` on the ``base``
scenario (see :class:`repro.core.sweep.SweepPoint`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import (
    DEFAULT_EPSILON,
    PerformabilityAnalyzer,
    ScanCounters,
    SweepEngine,
    console_progress,
    importance_analysis,
    method_choices,
    normalize_method,
    weighted_throughput_reward,
)
from repro.core.sweep import (
    causes_from_documents,
    points_from_documents,
    probs_from_document,
)
from repro.errors import ReproError, SerializationError
from repro.ftlqn import build_fault_graph, model_from_json
from repro.ftlqn.dot import fault_graph_to_dot, model_to_dot
from repro.mama.dot import mama_to_dot
from repro.mama.serialize import mama_from_json

#: Help-text list of the --method/--backend names (validated by
#: normalize_method, not by argparse).
_METHOD_METAVAR = "{" + ",".join(method_choices()) + "}"

#: Removed flags and what to do instead, so a stale script gets a
#: one-line reason (exit status 2) rather than a bare usage error.
_RETIRED_FLAGS = {
    "--jobs": "scans run in one process; for parallelism use "
    "'campaign run --workers'",
    "--parallel-every": "parallel re-runs of the scan were removed",
    "--warm-start": "the LQN warm start was removed; every solve is cold",
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str, what: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"{what} {path} is not valid JSON: {exc}"
        ) from exc


def _load_models(args):
    ftlqn = model_from_json(_read(args.model))
    mama = mama_from_json(_read(args.mama)) if args.mama else None
    return ftlqn, mama


#: Keys that mark a --probs document as the structured form.
_STRUCTURED_PROBS_KEYS = frozenset({"failure_probs", "common_causes"})


def _load_probs(path: str | None):
    if path is None:
        return {}, ()
    document = _load_json(path, "--probs file")
    if not isinstance(document, dict):
        raise SerializationError("--probs file must contain a JSON object")
    # The structured form is recognised by *either* key: a document
    # carrying only "common_causes" must not fall through to the flat
    # branch (where float() on the causes list used to escape as a raw
    # TypeError).
    if _STRUCTURED_PROBS_KEYS & set(document):
        unknown = sorted(set(document) - _STRUCTURED_PROBS_KEYS)
        if unknown:
            raise SerializationError(
                f"--probs file has unknown keys {unknown}; the structured "
                'form allows only "failure_probs" and "common_causes"'
            )
        probs = probs_from_document(
            document.get("failure_probs", {}),
            label='--probs "failure_probs"',
        )
        causes = causes_from_documents(document.get("common_causes", []))
        return probs, causes
    return probs_from_document(document, label="--probs file"), ()


def _parse_weights(text: str | None):
    """``--weights`` JSON → reward function (None when absent)."""
    if not text:
        return None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"--weights is not valid JSON: {exc}"
        ) from exc
    return weighted_throughput_reward(
        probs_from_document(document, label="--weights")
    )


def _resolve_method(args) -> str:
    """The scan method a command should use.

    ``--backend`` (when given) overrides ``--method``; both accept
    every name in :func:`repro.core.method_choices` (``interp``,
    ``enumeration``, ``bits``, ``bdd``, ``bounded``),
    and unknown values are rejected with a
    :class:`~repro.errors.ModelError` — whose message lists the valid
    names dynamically — so ``main`` renders them as a one-line
    ``error:`` message.
    """
    return normalize_method(
        args.backend if args.backend is not None else args.method
    )


def _cmd_validate(args) -> int:
    ftlqn, mama = _load_models(args)
    build_fault_graph(ftlqn)  # also checks service-decider uniqueness
    print(f"ftlqn model {ftlqn.name!r}: "
          f"{len(ftlqn.tasks)} tasks, {len(ftlqn.processors)} processors, "
          f"{len(ftlqn.entries)} entries, {len(ftlqn.services)} services — OK")
    if mama is not None:
        print(f"mama model {mama.name!r}: "
              f"{len(mama.components)} components, "
              f"{len(mama.connectors)} connectors — OK")
    return 0


def _cmd_analyze(args) -> int:
    ftlqn, mama = _load_models(args)
    probs, causes = _load_probs(args.probs)
    reward = _parse_weights(args.weights)
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama, failure_probs=probs, reward=reward,
        common_causes=causes,
    )
    progress = console_progress(sys.stderr) if args.progress else None
    result = analyzer.solve(
        method=_resolve_method(args),
        epsilon=getattr(args, "epsilon", DEFAULT_EPSILON), progress=progress,
    )
    print(f"state space: {result.state_count} states "
          f"({result.method} evaluation)")
    print(f"{'probability':>12}  {'reward':>8}  configuration")
    for record in result.records:
        marker = "" if record.converged else "  [unconverged]"
        print(f"{record.probability:12.6f}  {record.reward:8.4f}  "
              f"{record.label()}{marker}")
    print(f"expected steady-state reward rate: "
          f"{result.expected_reward:.6f}")
    if result.reward_lower is not None:
        lower, upper = result.reward_interval
        print(f"rigorous reward interval: [{lower:.6f}, {upper:.6f}] "
              f"(unexplored probability {result.unexplored_probability:.3e})")
    if result.unconverged_records:
        print(
            f"warning: {len(result.unconverged_records)} configuration(s) "
            "did not meet the LQN convergence tolerance; their rewards "
            "are approximate",
            file=sys.stderr,
        )
    if args.progress and result.counters is not None:
        c = result.counters
        print(
            f"scan: {c.states_visited} states in {c.scan_seconds:.2f}s "
            f"({c.fault_graph_evaluations} fault-graph evaluations, "
            f"{c.knowledge_cache_hits} knowledge-cache hits); "
            f"lqn: {c.lqn_solves} solves, {c.lqn_cache_hits} cache hits, "
            f"{c.lqn_unconverged} unconverged in {c.lqn_seconds:.2f}s",
            file=sys.stderr,
        )
    if getattr(args, "json_out", None):
        # Machine-precision export: counters are stripped so the
        # document depends only on the analytical inputs (the service
        # parity harness diffs this against /analyze responses).
        document = result.to_dict()
        document.pop("counters", None)
        Path(args.json_out).write_text(json.dumps(document, indent=2))
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0


def _cmd_temporal(args) -> int:
    from repro.core.temporal import (
        TemporalAnalyzer,
        architecture_detection_latency,
        time_grid,
    )
    from repro.markov.availability import ComponentAvailability
    from repro.core.sweep import SweepPoint

    if (args.model is None) == (args.scenario is None):
        raise SerializationError(
            "give either a model file or --scenario, not both or neither"
        )
    weights = None
    if args.weights:
        try:
            weights_doc = json.loads(args.weights)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"--weights is not valid JSON: {exc}"
            ) from exc
        weights = probs_from_document(weights_doc, label="--weights")

    defaults: dict = {}
    if args.scenario is not None:
        from repro.service.catalog import load_scenario

        bundle = load_scenario(args.scenario)
        ftlqn = bundle.ftlqn
        architectures = dict(bundle.architectures)
        probs = dict(bundle.failure_probs)
        causes = bundle.common_causes
        if weights is None and bundle.weights is not None:
            weights = dict(bundle.weights)
        if bundle.temporal is not None:
            defaults = dict(bundle.temporal)
        if args.architecture is None:
            architecture = bundle.default_architecture
        elif args.architecture == "none":
            architecture = None
        else:
            architecture = args.architecture
    else:
        ftlqn = model_from_json(_read(args.model))
        mama = mama_from_json(_read(args.mama)) if args.mama else None
        architectures = {} if mama is None else {"mama": mama}
        architecture = "mama" if mama is not None else None
        probs, causes = _load_probs(args.probs)

    repair_rate = (
        args.repair_rate
        if args.repair_rate is not None
        else float(defaults.get("repair_rate", 1.0))
    )
    if args.times is not None and args.horizon is not None:
        raise SerializationError(
            "give either --times or --horizon (+ --points), not both"
        )
    if args.times is not None:
        times = [float(value) for value in args.times.split(",")]
    else:
        horizon = (
            args.horizon
            if args.horizon is not None
            else float(defaults.get("horizon", 10.0))
        )
        points = (
            args.points
            if args.points is not None
            else int(defaults.get("points", 9))
        )
        times = list(time_grid(horizon, points))
    if args.latencies is not None:
        latencies = [float(value) for value in args.latencies.split(",")]
    else:
        latencies = [float(value) for value in defaults.get("latencies", [])]

    engine = SweepEngine(ftlqn, architectures, base_failure_probs=probs)
    effective = engine.effective_failure_probs(
        SweepPoint(name="temporal", architecture=architecture)
    )
    analyzer = TemporalAnalyzer(
        ftlqn,
        rates={
            name: ComponentAvailability.from_probability(
                probability, repair_rate=repair_rate
            )
            for name, probability in effective.items()
        },
        common_causes=causes,
        cause_repair_rate=repair_rate,
        weights=weights,
        engine=engine,
    )
    derived_latency = None
    if args.heartbeat_period is not None:
        from repro.sim.heartbeat import HeartbeatConfig

        mama_model = (
            engine.architectures[architecture]
            if architecture is not None else None
        )
        derived_latency = architecture_detection_latency(
            mama_model,
            HeartbeatConfig(
                period=args.heartbeat_period,
                misses=args.heartbeat_misses,
                hop_delay=args.heartbeat_hop_delay,
            ),
        )
        if derived_latency not in latencies:
            latencies.append(derived_latency)

    method = _resolve_method(args)
    progress = console_progress(sys.stderr) if args.progress else None
    counters = ScanCounters()
    curve = analyzer.evaluate(
        times,
        architecture=architecture,
        method=method,
        epsilon=args.epsilon,
        progress=progress,
        counters=counters,
    )
    erosion = ()
    if latencies:
        erosion = analyzer.erosion_curve(
            sorted(latencies),
            method=method,
            epsilon=args.epsilon,
            progress=progress,
            counters=counters,
        )

    label = architecture if architecture is not None else "perfect knowledge"
    print(f"transient performability ({label}, {method} scan, "
          f"repair rate {repair_rate:g})")
    print(f"{'time':>10}  {'reward':>10}  {'availability':>12}")
    for point in curve.points:
        print(f"{point.time:10.4f}  {point.expected_reward:10.6f}  "
              f"{point.availability:12.6f}")
    print(f"{'steady':>10}  {curve.steady.expected_reward:10.6f}  "
          f"{1.0 - curve.steady.failed_probability:12.6f}")
    print(f"interval availability over [{curve.horizon[0]:g}, "
          f"{curve.horizon[1]:g}]: {curve.interval_availability:.6f}")
    print(f"time-averaged reward: {curve.time_averaged_reward:.6f} "
          f"(integral {curve.reward_integral:.6f})")
    if derived_latency is not None:
        print(f"derived mean detection latency ({label}): "
              f"{derived_latency:.4f}")
    if erosion:
        print("coverage erosion vs. mean detection latency:")
        print(f"{'latency':>10}  {'reward':>10}  {'erosion':>8}  "
              f"{'stale prob':>10}")
        for point in erosion:
            print(f"{point.latency:10.4f}  {point.expected_reward:10.6f}  "
                  f"{point.erosion_factor:8.4f}  "
                  f"{point.stale_probability:10.6f}")
    if getattr(args, "json_out", None):
        document = {
            "scenario": args.scenario,
            "architecture": architecture,
            "repair_rate": repair_rate,
            "result": curve.to_json_dict(),
            "erosion": [point.to_dict() for point in erosion],
            "derived_latency": derived_latency,
        }
        Path(args.json_out).write_text(json.dumps(document, indent=2))
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0


def _cmd_importance(args) -> int:
    ftlqn, mama = _load_models(args)
    probs, causes = _load_probs(args.probs)
    method = _resolve_method(args)
    progress = console_progress(sys.stderr) if args.progress else None
    counters = ScanCounters()
    records = importance_analysis(
        ftlqn, mama, probs, common_causes=causes, method=method,
        progress=progress, counters=counters,
    )
    print(f"{'component':>16} {'reward imp.':>12} {'failure imp.':>13} "
          f"{'potential':>10}")
    for record in records:
        print(f"{record.component:>16} {record.reward_importance:12.4f} "
              f"{record.failure_importance:13.4f} "
              f"{record.improvement_potential:10.4f}")
    if args.json_out:
        document = {
            "method": method,
            "counters": counters.as_dict(),
            "records": [
                {
                    "component": record.component,
                    "reward_importance": record.reward_importance,
                    "failure_importance": record.failure_importance,
                    "improvement_potential": record.improvement_potential,
                    "reward_if_up": record.reward_if_up,
                    "reward_if_down": record.reward_if_down,
                    "failure_if_up": record.failure_if_up,
                    "failure_if_down": record.failure_if_down,
                    "baseline_reward": record.baseline_reward,
                }
                for record in records
            ],
        }
        Path(args.json_out).write_text(json.dumps(document, indent=2))
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0


def _cmd_dot(args) -> int:
    if args.kind == "mama":
        if not args.mama:
            raise SerializationError("dot --kind mama requires --mama FILE")
        print(mama_to_dot(mama_from_json(_read(args.mama))))
        return 0
    ftlqn = model_from_json(_read(args.model))
    if args.kind == "model":
        print(model_to_dot(ftlqn))
    else:
        print(fault_graph_to_dot(build_fault_graph(ftlqn)))
    return 0


_SPEC_KEYS = frozenset({"model", "architectures", "base", "points"})


def _load_sweep_spec(path: str):
    """Parse a sweep-spec file into (engine, points)."""
    document = _load_json(path, "sweep spec")
    if not isinstance(document, dict):
        raise SerializationError("sweep spec must be a JSON object")
    unknown = sorted(set(document) - _SPEC_KEYS)
    if unknown:
        raise SerializationError(
            f"sweep spec has unknown keys {unknown}; allowed: "
            f"{sorted(_SPEC_KEYS)}"
        )
    if "model" not in document:
        raise SerializationError(
            'sweep spec needs a "model" entry (FTLQN JSON file path)'
        )
    base_dir = Path(path).parent

    def resolve(entry: object) -> str:
        if not isinstance(entry, str):
            raise SerializationError(
                f"sweep spec file paths must be strings, got {entry!r}"
            )
        candidate = Path(entry)
        return str(candidate if candidate.is_absolute() else base_dir / candidate)

    ftlqn = model_from_json(_read(resolve(document["model"])))
    architectures_doc = document.get("architectures", {})
    if not isinstance(architectures_doc, dict):
        raise SerializationError(
            '"architectures" must map names to MAMA JSON file paths'
        )
    architectures = {
        str(name): mama_from_json(_read(resolve(entry)))
        for name, entry in architectures_doc.items()
    }
    base = document.get("base", {})
    if not isinstance(base, dict):
        raise SerializationError('"base" must be a JSON object')
    unknown = sorted(set(base) - {"failure_probs", "common_causes"})
    if unknown:
        raise SerializationError(
            f'"base" has unknown keys {unknown}; allowed: '
            '"failure_probs" and "common_causes"'
        )
    engine = SweepEngine(
        ftlqn,
        architectures,
        base_failure_probs=probs_from_document(
            base.get("failure_probs", {}), label='"base" failure_probs'
        ),
        base_common_causes=causes_from_documents(
            base.get("common_causes", [])
        ),
    )
    return engine, points_from_documents(document.get("points"))


def _cmd_sweep(args) -> int:
    engine, points = _load_sweep_spec(args.spec)
    progress = console_progress(sys.stderr) if args.progress else None
    counters = ScanCounters()
    sweep = engine.run(
        points, method=_resolve_method(args),
        epsilon=getattr(args, "epsilon", DEFAULT_EPSILON),
        progress=progress, counters=counters,
    )
    print(f"{'point':>20} {'architecture':>14} {'E[reward]':>10} "
          f"{'P(failed)':>10}  scan")
    for entry in sweep.points:
        print(f"{entry.name:>20} {entry.architecture or 'perfect':>14} "
              f"{entry.expected_reward:10.4f} "
              f"{entry.failed_probability:10.6f}  "
              + ("cached" if entry.scan_cached else "fresh"))
    c = counters
    print(
        f"sweep: {c.sweep_points} points, {c.distinct_configurations} "
        f"distinct configurations, {c.scan_cache_hits} scan-cache hits; "
        f"lqn: {c.lqn_solves} solves, {c.lqn_cache_hits} cache hits "
        f"({100.0 * sweep.lqn_cache_hit_rate:.1f}% hit rate), "
        f"{c.lqn_unconverged} unconverged, "
        f"max batch {c.lqn_batch_max}"
    )
    if args.json_out:
        Path(args.json_out).write_text(sweep.to_json())
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.csv_out:
        Path(args.csv_out).write_text(sweep.to_csv())
        print(f"wrote {args.csv_out}", file=sys.stderr)
    return 0


def _load_optimize_spec(path: str):
    """Parse an optimize-spec file into (space, search spec, weights)."""
    from repro.optimize.spec import (
        SPEC_KEYS,
        search_spec_from_document,
        space_from_document,
    )

    document = _load_json(path, "optimize spec")
    if not isinstance(document, dict):
        raise SerializationError("optimize spec must be a JSON object")
    unknown = sorted(set(document) - SPEC_KEYS)
    if unknown:
        raise SerializationError(
            f"optimize spec has unknown keys {unknown}; allowed: "
            f"{sorted(SPEC_KEYS)}"
        )
    if "model" not in document:
        raise SerializationError(
            'optimize spec needs a "model" entry (FTLQN JSON file path)'
        )
    base_dir = Path(path).parent

    def resolve(entry: object) -> str:
        if not isinstance(entry, str):
            raise SerializationError(
                f"optimize spec file paths must be strings, got {entry!r}"
            )
        candidate = Path(entry)
        return str(candidate if candidate.is_absolute() else base_dir / candidate)

    ftlqn = model_from_json(_read(resolve(document["model"])))
    architectures_doc = document.get("architectures", {})
    if not isinstance(architectures_doc, dict):
        raise SerializationError(
            '"architectures" must map names to MAMA JSON file paths'
        )
    explicit = {
        str(name): mama_from_json(_read(resolve(entry)))
        for name, entry in architectures_doc.items()
    }
    base = document.get("base", {})
    if not isinstance(base, dict):
        raise SerializationError('"base" must be a JSON object')
    unknown = sorted(set(base) - {"failure_probs", "common_causes"})
    if unknown:
        raise SerializationError(
            f'"base" has unknown keys {unknown}; allowed: '
            '"failure_probs" and "common_causes"'
        )
    space = space_from_document(
        document.get("space"),
        ftlqn,
        explicit=explicit or None,
        base_failure_probs=probs_from_document(
            base.get("failure_probs", {}), label='"base" failure_probs'
        ),
        common_causes=causes_from_documents(base.get("common_causes", [])),
    )
    weights = None
    if "weights" in document:
        weights = probs_from_document(document["weights"], label='"weights"')
    return space, search_spec_from_document(document.get("search")), weights


def _cmd_optimize(args) -> int:
    from repro.optimize import DesignSpaceSearch, OptimizationReport

    space, spec, weights = _load_optimize_spec(args.spec)
    progress = console_progress(sys.stderr) if args.progress else None
    budget = args.budget if args.budget is not None else spec.budget
    strategy = args.strategy or spec.strategy
    store = None
    if getattr(args, "store", None):
        from repro.campaign import ResultStore

        store = ResultStore(args.store)
    try:
        search = DesignSpaceSearch(
            space, weights=weights, method=_resolve_method(args),
            progress=progress,
            bounds_fast_path=not args.no_bounds,
            store=store,
        )
        if strategy == "exhaustive":
            result = search.exhaustive()
        else:
            result = search.greedy(
                seed=spec.seed, restarts=spec.restarts,
                max_rounds=spec.max_rounds, move_limit=spec.move_limit,
            )
    finally:
        if store is not None:
            store.close()
    report = OptimizationReport.from_search(result, budget=budget)

    print(f"space: {result.space_size} candidates, "
          f"{len(result.evaluations)} evaluated ({result.strategy}"
          + (f", {result.rounds} accepted moves" if result.strategy == "greedy"
             else "")
          + ")")
    print(f"{'candidate':>36} {'E[reward]':>10} {'P(failed)':>10} "
          f"{'cost':>8} {'comps':>5}  frontier")
    for entry in result.evaluations:
        marks = []
        if entry in report.frontier:
            marks.append("*")
        if entry is report.recommended:
            marks.append("recommended")
        print(f"{entry.name:>36} {entry.expected_reward:10.4f} "
              f"{entry.failed_probability:10.6f} {entry.cost:8.2f} "
              f"{entry.component_count:5d}  {' '.join(marks)}")
    c = result.counters
    stored = (
        f", {result.store_hits} store hits" if result.store_hits else ""
    )
    print(
        f"search: {c.distinct_configurations} distinct configurations, "
        f"{c.scan_cache_hits} scan-cache hits, "
        f"{c.lqn_bounds_skips} bounds skips; "
        f"lqn: {c.lqn_solves} solves, {c.lqn_cache_hits} cache hits "
        f"({100.0 * result.lqn_cache_hit_rate:.1f}% hit rate){stored}"
    )
    if budget is not None:
        if report.recommended is None:
            print(f"no candidate fits budget {budget}")
        else:
            print(f"recommended under budget {budget}: "
                  f"{report.recommended.name} "
                  f"(E[reward] {report.recommended.expected_reward:.4f}, "
                  f"cost {report.recommended.cost:.2f})")
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.csv_out:
        Path(args.csv_out).write_text(report.to_csv())
        print(f"wrote {args.csv_out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import run_fuzz

    def log(outcome):
        if not args.progress:
            return
        status = "ok" if outcome.ok else "COUNTEREXAMPLE"
        suffix = " [sim]" if outcome.simulated else ""
        print(
            f"seed {outcome.seed}: {status} "
            f"({outcome.state_count} states, "
            f"{outcome.distinct_configurations} configurations, "
            f"{outcome.seconds:.2f}s){suffix}",
            file=sys.stderr,
        )

    store = None
    if args.store:
        from repro.campaign import ResultStore

        store = ResultStore(args.store)
    try:
        report = run_fuzz(
            seeds=args.seeds,
            seed_start=args.seed_start,
            time_budget=args.time_budget,
            backends=args.backends.split(",") if args.backends else None,
            sim_every=args.sim_every,
            shrink=not args.no_shrink,
            log=log,
            store=store,
        )
    finally:
        if store is not None:
            store.close()

    document = report.as_dict()
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(document, indent=2))
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.artifacts:
        directory = Path(args.artifacts)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "report.json").write_text(json.dumps(document, indent=2))
        entries = []
        for outcome in report.failures:
            if outcome.script is not None:
                path = directory / f"counterexample-{outcome.seed}.py"
                path.write_text(outcome.script)
            if outcome.corpus is not None:
                entries.append(outcome.corpus)
        if entries:
            (directory / "corpus-entries.json").write_text(
                json.dumps({"version": 1, "entries": entries}, indent=2)
            )
        print(f"wrote artifacts to {directory}", file=sys.stderr)

    budget_note = " (stopped by --time-budget)" if report.stopped_by_budget else ""
    store_note = (
        f", {report.store_hits} store hits" if report.store_hits else ""
    )
    print(
        f"verify: {len(report.outcomes)}/{report.seeds_requested} seeds, "
        f"{document['states_covered']} states covered, "
        f"{document['simulation_checks']} simulation checks, "
        f"{len(report.failures)} counterexample(s) in "
        f"{report.seconds:.1f}s{budget_note}{store_note}"
    )
    for outcome in report.failures:
        print(f"seed {outcome.seed}: "
              + "; ".join(d["detail"] for d in outcome.disagreements[:3]))
        if outcome.shrunken is not None:
            tasks = len(outcome.shrunken["ftlqn"]["tasks"])
            print(f"  shrunk to {tasks} task(s) in "
                  f"{len(outcome.shrink_steps)} step(s)")
    return 0 if report.ok else 1


def _cmd_campaign_run(args) -> int:
    from repro.campaign import (
        ResultStore,
        console_campaign_progress,
        load_campaign_spec,
        run_campaign,
    )

    spec = load_campaign_spec(args.spec)
    method = args.backend if args.backend is not None else args.method
    progress = (
        console_campaign_progress(sys.stderr) if args.progress else None
    )
    with ResultStore(args.store) as store:
        result = run_campaign(
            spec, store,
            workers=args.workers,
            method=method,
            epsilon=args.epsilon,
            progress=progress,
        )
    duplicates = (
        f" ({result.duplicate_points} duplicate spec points collapsed)"
        if result.duplicate_points else ""
    )
    print(
        f"campaign {result.campaign!r}: {result.total} points{duplicates} — "
        f"{result.store_hits} from store, {result.solved} solved in "
        f"{result.seconds:.1f}s"
    )
    if result.failed_checks:
        print(
            f"{len(result.failed_checks)} fuzz check(s) FAILED: "
            + ", ".join(result.failed_checks[:5])
            + ("..." if len(result.failed_checks) > 5 else "")
        )
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(result.to_dict(), indent=2)
        )
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_serve(args) -> int:
    from repro.service import AnalysisService, serve

    service = AnalysisService(
        workers=args.workers,
        batch_window=args.batch_window,
    )
    if args.preload:
        print("preloading catalog engines...", file=sys.stderr)
        service.preload()

    def ready(server) -> None:
        # Printed to stdout on purpose: with --port 0 the bound port is
        # the one piece of output scripts must parse.
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"({service.workers} workers)",
            flush=True,
        )

    serve(service, host=args.host, port=args.port, ready=ready)
    return 0


def _cmd_campaign_report(args) -> int:
    from repro.campaign import CampaignReport, ResultStore

    with ResultStore(args.store) as store:
        report = CampaignReport.from_store(store, campaign=args.campaign)
    summary = report.summary()
    scope = args.campaign or "all campaigns"
    print(
        f"store {args.store} ({scope}): {summary['solve_points']} solve "
        f"points, {summary['fuzz_points']} fuzz checks "
        f"({summary['fuzz_failures']} failed, "
        f"{summary['simulated_checks']} simulated), "
        f"{summary['total_seconds']:.1f} accumulated solve seconds"
    )
    best = summary["best_point"]
    if best is not None:
        print(
            f"best point: {best['name']} "
            f"(E[reward] {best['expected_reward']:.4f}, "
            f"P(failed) {best['failed_probability']:.6f})"
        )
    frontier = report.pareto_reward_failure()
    if frontier:
        print(f"reward/failure frontier ({len(frontier)} points):")
        for row in frontier[:10]:
            print(
                f"  {row.name}: E[reward] {row.expected_reward:.4f}, "
                f"P(failed) {row.failed_probability:.6f}"
            )
        if len(frontier) > 10:
            print(f"  ... and {len(frontier) - 10} more")
    costed = report.pareto_reward_cost()
    if costed:
        print(f"reward/cost frontier ({len(costed)} candidates):")
        for row in costed[:10]:
            print(
                f"  {row.name}: E[reward] {row.expected_reward:.4f}, "
                f"cost {row.cost:.2f}"
            )
    for row in report.failed_fuzz():
        details = "; ".join(
            d.get("detail", "?") for d in row.disagreements[:3]
        )
        print(f"fuzz FAILURE {row.name}: {details}")
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.csv_out:
        Path(args.csv_out).write_text(report.to_csv())
        print(f"wrote {args.csv_out}", file=sys.stderr)
    return 0


def _cmd_paper(args) -> int:
    from repro.experiments.figure11 import run_figure11
    from repro.experiments.reporting import (
        format_figure11,
        format_statespace,
        format_table1,
        format_table2,
    )
    from repro.experiments.selection import format_selection, run_selection
    from repro.experiments.sensitivity import format_sensitivity, run_sensitivity
    from repro.experiments.statespace import run_statespace
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2

    artifacts = {
        "table1": lambda: format_table1(run_table1()),
        "table2": lambda: format_table2(run_table2()),
        "figure11": lambda: format_figure11(run_figure11()),
        "statespace": lambda: format_statespace(run_statespace()),
        "sensitivity": lambda: format_sensitivity(run_sensitivity()),
        "selection": lambda: format_selection(run_selection()),
    }
    names = args.artifacts or list(artifacts)
    unknown = [name for name in names if name not in artifacts]
    if unknown:
        raise SerializationError(
            f"unknown artifact(s) {unknown}; choose from {list(artifacts)}"
        )
    for name in names:
        print(artifacts[name]())
        print()
    return 0


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's
    ``repro.__version__`` when running uninstalled (PYTHONPATH=src)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def _workers_arg(value: str) -> int:
    """``--workers`` parser: a positive integer, or ``auto``/``0`` for
    one worker per CPU core."""
    if value == "auto":
        return 0
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Coverage-aware performability of layered systems "
        "(Das & Woodside, DSN 2002 reproduction).",
        epilog="Scaling: `analyze --progress` streams live progress and "
        "cost counters to stderr; `campaign run --workers N` spreads a "
        "campaign's points over N processes.  See "
        "docs/performance_guide.md for choosing --method.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_model_args(sub, with_probs=True):
        sub.add_argument("model", help="FTLQN model JSON file")
        sub.add_argument("--mama", help="MAMA architecture JSON file")
        if with_probs:
            sub.add_argument("--probs", help="failure-probability JSON file")

    def add_backend_args(sub, with_epsilon=False):
        # No argparse choices= on --method or --backend on purpose:
        # unknown values are rejected by normalize_method with a
        # ModelError, giving the same one-line `error:` rendering as
        # every other model problem, the same dynamically derived list
        # of valid names, and the replacement of a removed method.
        sub.add_argument(
            "--method",
            metavar=_METHOD_METAVAR,
            default="bdd",
            help="state-space scan method (default: bdd)",
        )
        sub.add_argument(
            "--backend",
            metavar=_METHOD_METAVAR,
            default=None,
            help="scan backend; overrides --method (interp = the "
            "paper's literal per-state scan, bits = the compiled "
            "bit-parallel kernel, bdd = exact symbolic evaluation "
            "(the default), "
            "bounded = most-probable states first with a rigorous "
            "reward interval)",
        )
        if with_epsilon:
            sub.add_argument(
                "--epsilon", type=float, default=DEFAULT_EPSILON,
                metavar="E",
                help="bounded backend only: stop once the unexplored "
                f"probability mass is at most E (default {DEFAULT_EPSILON})",
            )

    validate = commands.add_parser(
        "validate", help="validate model files"
    )
    add_model_args(validate, with_probs=False)
    validate.set_defaults(handler=_cmd_validate)

    analyze = commands.add_parser(
        "analyze", help="run the performability analysis",
        epilog="--progress renders scan/lqn phase progress on stderr "
        "and prints the cost counters (states visited, cache hits, "
        "per-phase seconds) afterwards.  docs/performance_guide.md "
        "discusses which backend to choose.",
    )
    add_model_args(analyze)
    add_backend_args(analyze, with_epsilon=True)
    analyze.add_argument(
        "--progress", action="store_true",
        help="stream scan/LQN progress and cost counters to stderr",
    )
    analyze.add_argument(
        "--weights",
        help='reward weights per user group as JSON, e.g. \'{"UserA": 1}\'',
    )
    analyze.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the full-fidelity result document as JSON (machine "
        "precision — the printed table rounds to 6 decimals)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    temporal = commands.add_parser(
        "temporal",
        help="transient performability curve and coverage erosion",
        epilog="The static scenario is lifted to failure/repair rates "
        "with ComponentAvailability.from_probability at --repair-rate, "
        "so the curve's steady-state limit reproduces `repro analyze` "
        "exactly; the transient points are exact product-form CTMC "
        "marginals evaluated through the same scan backends.  "
        "--latencies adds the detection-delay erosion curve (expected "
        "reward vs. mean detection latency); --heartbeat-period derives "
        "an architecture's latency from its notification-hop depth.  "
        "See docs/modeling_guide.md for a walk-through.",
    )
    temporal.add_argument(
        "model", nargs="?",
        help="FTLQN model JSON file (omit when using --scenario)",
    )
    temporal.add_argument("--mama", help="MAMA architecture JSON file")
    temporal.add_argument("--probs", help="failure-probability JSON file")
    temporal.add_argument(
        "--scenario", metavar="NAME",
        help="analyze a catalog scenario (see `repro serve` catalog) "
        "instead of model files; its temporal block supplies defaults",
    )
    temporal.add_argument(
        "--architecture", metavar="KEY",
        help="scenario architecture key (default: the scenario's "
        "default; 'none' = perfect knowledge)",
    )
    add_backend_args(temporal, with_epsilon=True)
    temporal.add_argument(
        "--repair-rate", type=float, default=None, metavar="MU",
        help="repair rate lifting static probabilities to rates "
        "(default 1.0, or the scenario's temporal block)",
    )
    temporal.add_argument(
        "--horizon", type=float, default=None, metavar="T",
        help="time-grid horizon (default 10.0, or the scenario's "
        "temporal block)",
    )
    temporal.add_argument(
        "--points", type=int, default=None, metavar="N",
        help="time-grid size (default 9, or the scenario's temporal "
        "block)",
    )
    temporal.add_argument(
        "--times", metavar="T1,T2,...",
        help="explicit comma-separated time grid (overrides --horizon)",
    )
    temporal.add_argument(
        "--latencies", metavar="L1,L2,...",
        help="mean detection latencies for the erosion curve",
    )
    temporal.add_argument(
        "--heartbeat-period", type=float, default=None, metavar="P",
        help="derive the architecture's detection latency from a "
        "heartbeat protocol with this period (uses the MAMA's "
        "notification-hop depth) and add it to the erosion curve",
    )
    temporal.add_argument(
        "--heartbeat-misses", type=int, default=2, metavar="K",
        help="heartbeat misses before a failure is declared (default 2)",
    )
    temporal.add_argument(
        "--heartbeat-hop-delay", type=float, default=0.0, metavar="D",
        help="per-notification-hop propagation delay (default 0)",
    )
    temporal.add_argument(
        "--weights",
        help='reward weights per user group as JSON, e.g. \'{"UserA": 1}\'',
    )
    temporal.add_argument(
        "--progress", action="store_true",
        help="stream scan/LQN progress to stderr",
    )
    temporal.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the curve, erosion points and aggregates as JSON",
    )
    temporal.set_defaults(handler=_cmd_temporal)

    importance = commands.add_parser(
        "importance", help="rank components by Birnbaum importance",
        epilog="Each component is conditioned up and down over one "
        "shared structure and LQN cache, so the extra cost per "
        "component is two state-space scans; --json exports the full "
        "ranking with the aggregated cost counters.",
    )
    add_model_args(importance)
    add_backend_args(importance)
    importance.add_argument(
        "--progress", action="store_true",
        help="stream scan/LQN progress to stderr",
    )
    importance.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the ranking (records and counters) as JSON",
    )
    importance.set_defaults(handler=_cmd_importance)

    dot = commands.add_parser("dot", help="emit Graphviz renderings")
    dot.add_argument(
        "--kind", choices=("model", "fault-graph", "mama"), default="model"
    )
    add_model_args(dot, with_probs=False)
    dot.set_defaults(handler=_cmd_dot)

    sweep = commands.add_parser(
        "sweep", help="evaluate a multi-scenario sweep over shared caches",
        epilog="The spec file names the FTLQN model, the MAMA "
        "architecture variants, a base scenario, and the points to "
        "evaluate (see the module docstring for the JSON shape).  The "
        "engine shares one fault graph and know table per architecture "
        "and one LQN solution per distinct configuration across the "
        "whole sweep, so a probability sweep costs as many LQN solves "
        "as there are distinct configurations.  "
        "docs/performance_guide.md documents the spec and the caches.",
    )
    sweep.add_argument("spec", help="sweep specification JSON file")
    add_backend_args(sweep, with_epsilon=True)
    sweep.add_argument(
        "--progress", action="store_true",
        help="stream sweep/scan/LQN progress to stderr",
    )
    sweep.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the full sweep result (points, records, counters) "
        "as JSON",
    )
    sweep.add_argument(
        "--csv", dest="csv_out", metavar="FILE",
        help="write one CSV row per point (reward, failure probability, "
        "average throughputs)",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    optimize = commands.add_parser(
        "optimize", help="search a design space of management architectures",
        epilog="The spec file names the FTLQN model, a parametric "
        "candidate space (manager topologies × monitoring styles × "
        "reliability upgrades, each candidate costed), optional "
        "explicit architectures, and the search strategy (see "
        "repro/optimize/spec.py for the JSON shape).  All candidates "
        "are evaluated over one shared sweep engine, so the search "
        "solves one LQN per distinct configuration in the space.  The "
        "report lists every candidate, marks the Pareto frontier over "
        "(reward, cost, component count), and recommends the best "
        "candidate under --budget.  docs/modeling_guide.md documents "
        "the spec, the cost model and the frontier semantics.",
    )
    optimize.add_argument("spec", help="optimize specification JSON file")
    optimize.add_argument(
        "--strategy", choices=("exhaustive", "greedy"),
        help="override the spec's search strategy",
    )
    optimize.add_argument(
        "--budget", type=float, metavar="B",
        help="recommend the best candidate with cost <= B "
        "(overrides the spec's search.budget)",
    )
    add_backend_args(optimize)
    optimize.add_argument(
        "--no-bounds", action="store_true",
        help="disable the greedy bounds fast path (by default, "
        "candidate moves whose guaranteed throughput upper bound "
        "cannot beat the incumbent are skipped without solving)",
    )
    optimize.add_argument(
        "--progress", action="store_true",
        help="stream sweep/scan/LQN progress to stderr",
    )
    optimize.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the full report (candidates, frontier, counters) "
        "as JSON",
    )
    optimize.add_argument(
        "--csv", dest="csv_out", metavar="FILE",
        help="write one CSV row per candidate (reward, cost, frontier "
        "and recommendation flags)",
    )
    optimize.add_argument(
        "--store", metavar="FILE",
        help="memoize candidate evaluations in a campaign result store "
        "(sqlite); re-runs and campaigns sharing the store skip "
        "already-solved candidates",
    )
    optimize.set_defaults(handler=_cmd_optimize)

    campaign = commands.add_parser(
        "campaign",
        help="run resumable point campaigns against a persistent store",
        epilog="A campaign spec names one FTLQN model, MAMA "
        "architecture variants, a base scenario and a list of "
        "workloads (sweep grids, explicit points, design-space "
        "candidate sets, fuzz seed ranges); `campaign run` expands it "
        "into content-addressed points, skips everything the store "
        "already holds, and shards the rest over --workers processes, "
        "committing each result as it lands — kill it anywhere and "
        "rerun to resume with zero recomputation.  `campaign report` "
        "renders JSON/CSV summaries and Pareto frontiers offline from "
        "the store.  See docs/performance_guide.md §11 and "
        "examples/campaign/.",
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_commands.add_parser(
        "run", help="run (or resume) a campaign spec against a store"
    )
    campaign_run.add_argument("spec", help="campaign specification JSON file")
    campaign_run.add_argument(
        "--store", required=True, metavar="FILE",
        help="result-store sqlite file (created if absent)",
    )
    campaign_run.add_argument(
        "--workers", type=_workers_arg, default=1, metavar="N",
        help="worker processes to shard points over "
        "(default 1 = run inline; 'auto' or 0 = all cores)",
    )
    campaign_run.add_argument(
        "--method", metavar=_METHOD_METAVAR, default=None,
        help="override the spec's scan method",
    )
    campaign_run.add_argument(
        "--backend",
        metavar=_METHOD_METAVAR,
        default=None,
        help="scan backend; overrides --method and the spec",
    )
    campaign_run.add_argument(
        "--epsilon", type=float, default=None, metavar="E",
        help="bounded backend only: override the spec's mass bound",
    )
    campaign_run.add_argument(
        "--progress", action="store_true",
        help="stream per-point campaign progress and ETA to stderr",
    )
    campaign_run.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the run summary (hits, solves, counters) as JSON",
    )
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_report = campaign_commands.add_parser(
        "report", help="render offline reports from a result store"
    )
    campaign_report.add_argument(
        "--store", required=True, metavar="FILE",
        help="result-store sqlite file to read",
    )
    campaign_report.add_argument(
        "--campaign", metavar="NAME", default=None,
        help="restrict to one campaign name (default: whole store)",
    )
    campaign_report.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the full report (rows, frontiers, counters) as JSON",
    )
    campaign_report.add_argument(
        "--csv", dest="csv_out", metavar="FILE",
        help="write one CSV row per solve point",
    )
    campaign_report.set_defaults(handler=_cmd_campaign_report)

    serve = commands.add_parser(
        "serve",
        help="run the warm-cache analysis HTTP daemon",
        epilog="The daemon keeps one SweepEngine per catalog scenario "
        "warm across requests (structure, scan and LQN caches) and "
        "coalesces concurrent uncached LQN solves into single batched "
        "calls.  Routes: GET /healthz /stats /catalog "
        "/scenarios/<name>; POST /analyze /sweep /optimize (JSON in, "
        "JSON out; sweep accepts \"stream\": true for NDJSON "
        "progress).  Responses are bit-identical to the one-shot CLI "
        "on the same inputs.  See docs/performance_guide.md §12.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8000, metavar="N",
        help="TCP port (default 8000; 0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--workers", type=_workers_arg, default=0, metavar="N",
        help="solver worker threads (default 'auto' = one per CPU core)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=None, metavar="SECONDS",
        help="micro-batching pile-up window (default 0.002; 0 disables "
        "the wait but still coalesces whatever raced in)",
    )
    serve.add_argument(
        "--preload", action="store_true",
        help="derive every catalog scenario's analysis structures "
        "before accepting requests",
    )
    serve.set_defaults(handler=_cmd_serve)

    verify = commands.add_parser(
        "verify", help="fuzz the analytic backends against each other",
        epilog="Each seed draws a random layered scenario (perfect "
        "components, shared processors, deep backup chains, unreliable "
        "connectors, common causes) and replays it through every "
        "selected backend, demanding 1e-12 agreement with the "
        "interpreted reference scan.  Every --sim-every-th seed "
        "cross-checks availability and expected "
        "reward against the Monte-Carlo simulation inside a Student-t "
        "confidence interval.  Disagreements are shrunk to minimal "
        "counterexamples; exit status is 1 when any were found (see "
        "docs/testing_guide.md for triage).",
    )
    verify.add_argument(
        "--seeds", type=int, default=100, metavar="N",
        help="number of generator seeds to check (default 100)",
    )
    verify.add_argument(
        "--seed-start", type=int, default=0, metavar="S",
        help="first seed of the range (default 0)",
    )
    verify.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new seeds after this much wall-clock time",
    )
    verify.add_argument(
        "--backends", metavar="LIST", default=None,
        help="comma-separated backends to cross-check "
        "(default: interp,bits,bdd)",
    )
    verify.add_argument(
        "--sim-every", type=int, default=10, metavar="K",
        help="run the simulation cross-check every K-th seed "
        "(default 10; 0 disables)",
    )
    verify.add_argument(
        "--no-shrink", action="store_true",
        help="report disagreements without shrinking them",
    )
    verify.add_argument(
        "--progress", action="store_true",
        help="print one line per seed to stderr",
    )
    verify.add_argument(
        "--json", dest="json_out", metavar="FILE",
        help="write the full campaign report as JSON",
    )
    verify.add_argument(
        "--artifacts", metavar="DIR",
        help="write report.json plus repro scripts and corpus entries "
        "for any counterexamples into DIR",
    )
    verify.add_argument(
        "--store", metavar="FILE", default=None,
        help="memoize checks in a campaign result store (sqlite): "
        "already-stored seeds are skipped, fresh checks are committed "
        "as they finish, so an interrupted campaign resumes where it "
        "died",
    )
    verify.set_defaults(handler=_cmd_verify)

    paper = commands.add_parser(
        "paper", help="regenerate the paper's evaluation artifacts"
    )
    paper.add_argument(
        "artifacts", nargs="*",
        help="table1 table2 figure11 statespace sensitivity selection "
        "(default: all)",
    )
    paper.set_defaults(handler=_cmd_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for token in argv:
        flag = token.split("=", 1)[0]
        if flag in _RETIRED_FLAGS:
            print(f"error: option {flag} was removed; {_RETIRED_FLAGS[flag]}",
                  file=sys.stderr)
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
