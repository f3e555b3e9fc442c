"""In-memory span tracer for the benchmark's traced run.

The benchmark does not edit the program to trace it.  Instead
:meth:`Tracer.install` wraps the public functions that form each
layer's boundary (listed in :data:`BOUNDARIES`) for as long as the
tracer is installed, and every call through one of them records a
span: name, start, end, parent span and op id, plus the work counts
the layer reports through its public results (``counters=`` /
:class:`~repro.core.progress.ScanCounters`,
``LQNResults.iterations``/``converged``, ``event_count``).

Spans are kept in memory and written out once, at the end of the run.
Self time is a span's duration minus the part of it that its child
spans cover (:func:`self_times`); per-layer figures are sums of self
time and counts over every span of a layer (:func:`layer_totals`).

A wrapped name is replaced wherever the program holds it: on its
defining module, on every ``repro`` module that imported it by name,
in module-level tables of functions (the oracle's backend table), or
on its class for methods.  A boundary that no longer exists (a
later revision removed or renamed it) is skipped, so the traced run
keeps working and the missing layer simply reports zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Counter fields whose change across a wrapped call is attributed to
#: the call's span (only when the caller passed ``counters=``).
_COUNTER_DELTAS = (
    "states_visited",
    "bdd_nodes",
    "lqn_solves",
    "lqn_cache_hits",
)


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op,
                self.counts]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0
        #: (namespace, key, original): a module or class ``__dict__``
        #: proxy is restored with ``setattr``, a table with ``[key] =``.
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; yields its ``counts`` dict.

        A span opened with no enclosing span on its thread starts a new
        op: it and all its descendants share that op id.
        """
        stack = self._stack()
        with self._lock:
            if stack:
                parent: int | None = stack[-1]
                op = self.spans[parent].op
            else:
                parent = None
                op = self._next_op
                self._next_op += 1
            index = len(self.spans)
            record = Span(name, time.perf_counter(), 0.0, parent, op)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def write(self, path: str) -> None:
        """Dump every span as JSON lists (name, start, end, parent, op,
        counts)."""
        with open(path, "w") as handle:
            json.dump([span.as_list() for span in self.spans], handle)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES` that exists."""
        for target, name, count in BOUNDARIES:
            self._wrap(target, name, count)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, target: str, name: str, count) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attribute not in vars(owner):
                return
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrapper(raw.__func__, name, count)
                )
            else:
                wrapped = self._wrapper(raw, name, count)
            self._patches.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
            return
        original = getattr(module, attribute, None)
        if original is None:
            return
        wrapped = self._wrapper(original, name, count)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)
                elif isinstance(value, dict):
                    for entry, function in list(value.items()):
                        if function is original:
                            self._patches.append((value, entry, original))
                            value[entry] = wrapped

    def _wrapper(self, function, name: str, count):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            counters = kwargs.get("counters")
            before = _snapshot(counters)
            if count is not None and count.before is not None:
                args, kwargs = count.before(args, kwargs)
            with tracer.span(name) as counts:
                result = function(*args, **kwargs)
                for key, value in _delta(counters, before).items():
                    counts[key] = value
                if count is not None and count.after is not None:
                    counts.update(count.after(args, kwargs, result))
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Install ``tracer`` for the body, restoring the program after."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _snapshot(counters) -> dict[str, float] | None:
    if counters is None or not hasattr(counters, "states_visited"):
        return None
    return {key: getattr(counters, key, 0) for key in _COUNTER_DELTAS}


def _delta(counters, before) -> dict[str, float]:
    if before is None:
        return {}
    return {
        key: getattr(counters, key, 0) - value
        for key, value in before.items()
    }


# ----------------------------------------------------------------------
# What each boundary counts


@dataclass(frozen=True)
class Count:
    """Optional hooks of one boundary: ``before`` may rewrite the call
    arguments (e.g. materialise an iterable it needs to count),
    ``after`` returns counts read off the call and its result."""

    before: object = None
    after: object = None


def _materialise_pairs(args, kwargs):
    if len(args) > 1:
        args = (args[0], list(args[1]), *args[2:])
    elif "pairs" in kwargs:
        kwargs = {**kwargs, "pairs": list(kwargs["pairs"])}
    return args, kwargs


def _pairs_count(args, kwargs, result):
    return {"know_pairs": len(result)}


def _scan_count(args, kwargs, result):
    return {"scans": 1, "configurations": len(result)}


def _scan_cache_count(args, kwargs, result):
    _probabilities, cached = result
    return {"lookups": 1, "hits": int(bool(cached))}


def _lqn_count(args, kwargs, result):
    return {
        "models": len(result),
        "outer_iterations": sum(r.iterations for r in result),
        "unconverged": sum(1 for r in result if not r.converged),
    }


def _events_count(args, kwargs, result):
    return {"events": getattr(result, "event_count", 0)}


#: Layer boundaries: ``module:qualname``, span name, what to count.
BOUNDARIES: tuple[tuple[str, str, Count | None], ...] = (
    ("repro.ftlqn.serialize:model_from_json", "ftlqn.parse", None),
    ("repro.ftlqn.fault_graph:build_fault_graph", "ftlqn.fault_graph",
     None),
    ("repro.mama.serialize:mama_from_json", "mama.parse", None),
    ("repro.mama.knowledge:KnowledgeGraph.know_table", "mama.know_table",
     Count(before=_materialise_pairs, after=_pairs_count)),
    ("repro.core.performability:derive_structure", "core.derive_structure",
     None),
    ("repro.core.performability:PerformabilityAnalyzer.__init__",
     "core.prepare", None),
    ("repro.core.enumeration:enumerate_configurations", "core.scan",
     Count(after=_scan_count)),
    ("repro.core.factored:factored_configurations", "core.scan",
     Count(after=_scan_count)),
    ("repro.core.kernel:bitset_configurations", "core.scan",
     Count(after=_scan_count)),
    ("repro.core.symbolic:bdd_configurations", "core.scan",
     Count(after=_scan_count)),
    ("repro.core.bounded:bounded_configurations", "core.scan",
     Count(after=_scan_count)),
    ("repro.core.sweep:SweepEngine.scan_for", "core.scan_cache",
     Count(after=_scan_cache_count)),
    ("repro.core.performability:PerformabilityAnalyzer."
     "evaluate_probabilities", "core.assemble", None),
    ("repro.core.results:PerformabilityResult.to_dict", "core.assemble",
     None),
    ("repro.core.configuration:configuration_to_lqn", "lqn.build", None),
    ("repro.lqn.solver:solve_lqn_batch", "lqn.solve",
     Count(after=_lqn_count)),
    ("repro.campaign.spec:CampaignSpec.compile", "campaign.compile", None),
    ("repro.campaign.store:ResultStore.put", "campaign.store_put", None),
    ("repro.campaign.store:ResultStore.known", "campaign.store_known",
     None),
    ("repro.campaign.store:ResultStore.get", "campaign.store_get", None),
    ("repro.campaign.report:CampaignReport.from_store", "campaign.report",
     None),
    ("repro.campaign.report:CampaignReport.to_json", "campaign.report",
     None),
    ("repro.core.temporal:TemporalAnalyzer.evaluate", "markov.temporal",
     None),
    ("repro.core.temporal:TemporalAnalyzer.erosion_curve",
     "markov.temporal", None),
    ("repro.sim.availability_sim:simulate_availability",
     "sim.availability", Count(after=_events_count)),
    ("repro.sim.availability_sim:simulate_transient", "sim.transient",
     None),
    ("repro.verify.generator:generate_scenario", "verify.generate", None),
    ("repro.verify.oracle:check_scenario", "verify.check", None),
)


# ----------------------------------------------------------------------
# Analysis


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span), in seconds."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


@dataclass
class LayerTotal:
    """Sums over every span of one name."""

    calls: int = 0
    self_seconds: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotal]:
    """Self time, call count and summed counts per span name."""
    totals: dict[str, LayerTotal] = {}
    for span, own in zip(spans, self_times(spans)):
        total = totals.setdefault(span.name, LayerTotal())
        total.calls += 1
        total.self_seconds += own
        for key, value in span.counts.items():
            total.counts[key] = total.counts.get(key, 0) + value
    return totals


def since(spans: list[Span], start: float) -> list[Span]:
    """The spans of the ops whose root span began at or after
    ``start`` (``time.perf_counter`` is one clock for every process of
    the host), with parent indices renumbered."""
    first = {}
    for span in spans:
        first.setdefault(span.op, span.start)
    kept = [i for i, span in enumerate(spans) if first[span.op] >= start]
    index = {old: new for new, old in enumerate(kept)}
    return [
        Span(spans[i].name, spans[i].start, spans[i].end,
             index.get(spans[i].parent), spans[i].op, spans[i].counts)
        for i in kept
    ]


def load_spans(path: str) -> list[Span]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path) as handle:
        return [Span(*row) for row in json.load(handle)]
