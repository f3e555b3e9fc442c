"""Metric definitions and the arithmetic behind them.

End-to-end metrics come from an untraced run; per-layer metrics come
from a traced run's spans (see :mod:`spans`).  Per-layer times and
work counts are per op (totals divided by the ops of the traced run);
ratios and the daemon's ``/stats`` figures are reported as they are.
A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics

#: Samples required beyond a reported tail percentile.
TAIL_BEYOND = 10

#: name -> unit, for the untraced run.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: name -> unit, for the traced run.
PER_LAYER = {
    "ftlqn.parse_ms": "ms",
    "ftlqn.fault_graph_ms": "ms",
    "mama.parse_ms": "ms",
    "mama.know_table_ms": "ms",
    "mama.know_pairs": "count",
    "core.derive_structure_ms": "ms",
    "core.prepare_ms": "ms",
    "core.scan_ms": "ms",
    "core.scan_states": "count",
    "core.scan_configurations": "count",
    "core.bdd_nodes": "count",
    "core.scan_cache_ms": "ms",
    "core.scan_cache_hit_ratio": "ratio",
    "core.assemble_ms": "ms",
    "lqn.build_ms": "ms",
    "lqn.solve_ms": "ms",
    "lqn.models_solved": "count",
    "lqn.outer_iterations": "count",
    "lqn.unconverged": "count",
    "lqn.cache_hit_ratio": "ratio",
    "campaign.compile_ms": "ms",
    "campaign.store_put_ms": "ms",
    "campaign.store_known_ms": "ms",
    "campaign.store_get_ms": "ms",
    "campaign.store_bytes": "B",
    "campaign.report_ms": "ms",
    "campaign.readback_s": "s",
    "service.analyze_p50_ms": "ms",
    "service.temporal_p50_ms": "ms",
    "service.lqn_cache_hit_rate": "ratio",
    "service.batcher_max_batch": "count",
    "service.coalesced_requests": "count",
    "markov.temporal_ms": "ms",
    "sim.availability_ms": "ms",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "verify.analytic_ms": "ms",
    "io.write_ms": "ms",
    "trace.ops": "count",
    "trace.op_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_min": "ratio",
}

#: Span name -> per-layer self-time metric.
SELF_TIME = {
    "ftlqn.parse": "ftlqn.parse_ms",
    "ftlqn.fault_graph": "ftlqn.fault_graph_ms",
    "mama.parse": "mama.parse_ms",
    "mama.know_table": "mama.know_table_ms",
    "core.derive_structure": "core.derive_structure_ms",
    "core.prepare": "core.prepare_ms",
    "core.scan": "core.scan_ms",
    "core.scan_cache": "core.scan_cache_ms",
    "core.assemble": "core.assemble_ms",
    "lqn.build": "lqn.build_ms",
    "lqn.solve": "lqn.solve_ms",
    "campaign.compile": "campaign.compile_ms",
    "campaign.store_put": "campaign.store_put_ms",
    "campaign.store_known": "campaign.store_known_ms",
    "campaign.store_get": "campaign.store_get_ms",
    "campaign.report": "campaign.report_ms",
    "markov.temporal": "markov.temporal_ms",
    "sim.availability": "sim.availability_ms",
    "io.write": "io.write_ms",
}

#: (span name, count key) -> per-layer work-count metric.
WORK_COUNTS = {
    ("mama.know_table", "know_pairs"): "mama.know_pairs",
    ("core.scan", "states_visited"): "core.scan_states",
    ("core.scan", "configurations"): "core.scan_configurations",
    ("core.scan", "bdd_nodes"): "core.bdd_nodes",
    ("lqn.solve", "models"): "lqn.models_solved",
    ("lqn.solve", "outer_iterations"): "lqn.outer_iterations",
    ("lqn.solve", "unconverged"): "lqn.unconverged",
    ("sim.availability", "events"): "sim.events",
}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 ≤ q ≤ 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(samples: int, highest: float = 0.9) -> float:
    """The tail percentile a run of ``samples`` ops can report:
    ``highest`` (p90 unless the workload caps it lower) once the run
    has :data:`TAIL_BEYOND` samples beyond it (100 ops for p90), below
    that the highest quantile that has, and never below the median."""
    if samples <= 0:
        return 0.5
    return max(0.5, min(highest, 1.0 - TAIL_BEYOND / samples))


def typical_latencies(outcome) -> list[float] | None:
    """One unit of the run's op mix, each op at the median latency of
    its kind in the run; ``None`` when some kind of the unit was never
    measured (the run failed before finishing a unit)."""
    samples: dict[str, list[float]] = {}
    for kind, seconds in zip(outcome.kinds, outcome.latencies):
        samples.setdefault(kind, []).append(seconds)
    for kind, seconds in outcome.overhead:
        samples.setdefault(kind, []).append(seconds)
    if not outcome.unit or any(k not in samples for k, _ops in outcome.unit):
        return None
    return [statistics.median(samples[kind]) for kind, _ops in outcome.unit]


def end_to_end(outcome, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of an untraced run.

    Throughput and latency percentiles are taken over one unit of the
    workload's op mix with each op at the median latency of its kind in
    the run.  Noise from other processes slows a few ops of a kind, not
    its median, and a percentile that falls between two kinds
    interpolates two steady medians instead of two noisy samples.  The
    tail percentile still follows :func:`tail_quantile` of the ops run.
    """
    typical = typical_latencies(outcome)
    if typical is None:  # fall back to the raw samples
        ops = [outcome.attempted]
        unit_seconds = outcome.latencies + [
            seconds for _kind, seconds in outcome.overhead
        ]
        latencies = outcome.latencies or [0.0]
    else:
        ops = [count for _kind, count in outcome.unit]
        unit_seconds = typical
        latencies = [
            seconds for seconds, (_kind, count) in zip(typical, outcome.unit)
            if count
        ]
    total = sum(unit_seconds)
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(ops) / total if total > 0 else 0.0,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": quantile(
            latencies, tail_quantile(outcome.attempted, outcome.tail)
        ) * 1e3,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(spans, totals, outcome, *, untraced_wall: float,
              self_seconds) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced run.

    ``totals`` is :func:`spans.layer_totals` of ``spans``;
    ``self_seconds`` is :func:`spans.self_times` of ``spans``.
    """
    ops = max(outcome.attempted, 1)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, metric in SELF_TIME.items():
        if name in totals:
            metrics[metric] = totals[name].self_seconds * 1e3 / ops
    for (name, key), metric in WORK_COUNTS.items():
        if name in totals:
            metrics[metric] = totals[name].counts.get(key, 0) / ops
    scan_cache = totals.get("core.scan_cache")
    if scan_cache is not None:
        metrics["core.scan_cache_hit_ratio"] = _ratio(
            scan_cache.counts.get("hits", 0), scan_cache.counts.get("lookups", 0)
        )
    assemble = totals.get("core.assemble")
    if assemble is not None:
        hits = assemble.counts.get("lqn_cache_hits", 0)
        metrics["lqn.cache_hit_ratio"] = _ratio(
            hits, hits + assemble.counts.get("lqn_solves", 0)
        )
    simulation = totals.get("sim.availability")
    if simulation is not None:
        metrics["sim.events_per_s"] = _ratio(
            simulation.counts.get("events", 0), simulation.self_seconds
        )
    checked = sum(s.end - s.start for s in spans if s.name == "verify.check")
    simulated = sum(
        s.end - s.start for s in spans if s.name.startswith("sim.")
    )
    metrics["verify.analytic_ms"] = max(0.0, checked - simulated) * 1e3 / ops
    routes = {}
    for route, latency in zip(outcome.routes, outcome.latencies):
        routes.setdefault(route, []).append(latency)
    for route, latencies in routes.items():
        metric = f"service.{route.strip('/')}_p50_ms"
        if metric in metrics:
            metrics[metric] = statistics.median(latencies) * 1e3
    metrics.update(outcome.layer)
    metrics["trace.ops"] = outcome.attempted
    metrics["trace.op_ms"] = outcome.wall * 1e3 / ops
    metrics["trace.overhead_pct"] = _ratio(
        outcome.wall - untraced_wall, untraced_wall
    ) * 100.0
    coverages = [
        1.0 - own / (span.end - span.start)
        for span, own in zip(spans, self_seconds)
        if span.name == "op" and span.end > span.start
    ]
    metrics["trace.coverage_min"] = min(coverages) if coverages else 0.0
    return metrics
