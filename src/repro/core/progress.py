"""Progress and cost instrumentation for the state-space engine.

The scans in :mod:`repro.core.enumeration` and
:mod:`repro.core.kernel` can visit hundreds of thousands of states;
:class:`PerformabilityAnalyzer.solve` then runs one LQN solve per
distinct configuration.  This module gives both phases a shared,
cheap-to-update instrumentation layer:

* :class:`ScanCounters` — plain additive counters (states visited,
  knowledge-bit cache hits, fault-graph evaluations, per-phase wall
  time).  Workers of the parallel engine fill a private instance and
  the parent merges them exactly with :meth:`ScanCounters.merge`.
* :class:`ProgressEvent` / :data:`ProgressCallback` — the callback
  protocol.  The engine invokes the callback with monotonically
  non-decreasing ``completed`` values per phase; ``total`` is the known
  amount of work in that phase (2^N states for the scans,
  configuration count for the LQN phase).
* :class:`ProgressReporter` — throttles callback invocations to a
  minimum wall-clock interval so per-state instrumentation stays cheap,
  while guaranteeing that the final event of each phase (``completed ==
  total``) is always delivered.
* :func:`console_progress` — a ready-made callback rendering a
  single-line textual progress display, used by the CLI ``--progress``
  flag.

Counters are pure data (no locks, no callbacks), so campaign workers
ship them back to the parent as :meth:`ScanCounters.to_dict` documents;
callbacks only ever run in the process doing the scan.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields


@dataclass
class ScanCounters:
    """Additive cost counters for one analysis run.

    Attributes
    ----------
    states_visited:
        Up/down states covered so far.  The enumerative scan counts
        every one of the 2^N states individually; the symbolic backend
        reports the 2^N states its diagram covers.
    app_states_visited:
        Application-side (outer-loop) states processed.
    knowledge_cache_hits:
        Management states whose knowledge-bit pattern was already seen
        in the current application state, so the fault graph was *not*
        re-evaluated.  ``states_visited - knowledge_cache_hits -
        skipped`` upper-bounds the fault-graph work; a high hit rate is
        what keeps the literal scan tolerable.
    fault_graph_evaluations:
        Actual evaluations of the fault propagation graph
        (Definition 1/2 walks).
    distinct_configurations:
        Number of distinct operational configurations found.  A *level*
        field: engines assign their snapshot with
        :meth:`record_level` and :meth:`merge` keeps the maximum, so
        repeated scans over one counters object report the size of the
        largest scan rather than a meaningless sum.
    scan_seconds:
        Wall time of the state-space scan phase.
    lqn_seconds:
        Wall time of the per-configuration LQN solve phase.
    lqn_solves:
        LQN models actually solved.
    lqn_cache_hits:
        Configurations whose LQN results were served from the
        analyzer's cache.  With the sweep engine's shared cross-point
        cache, hits span scenario points: a configuration solved for
        one point is a hit for every later point that reaches it.
    lqn_unconverged:
        Configurations whose LQN solve did not meet its convergence
        tolerance (the approximate result is still folded into the
        expected reward, but flagged on its record).
    lqn_batch_max:
        Largest number of configurations solved in one batched LQN
        call (:func:`~repro.lqn.solver.solve_lqn_batch`).  A level
        field (merged by max).
    lqn_bounds_skips:
        Optimizer candidates whose full evaluation was skipped because
        a guaranteed throughput upper bound already proved them no
        better than the incumbent.
    sweep_points:
        Scenario points evaluated by a
        :class:`~repro.core.sweep.SweepEngine` run (0 outside sweeps).
    scan_cache_hits:
        Sweep points whose configuration probabilities were served from
        the engine's cross-point scan cache instead of re-scanned.
    kernel_batches:
        Bit-parallel and bounded backends: evaluation batches executed
        by the compiled kernel (each covers up to 2^batch_bits scanned
        states, or up to one heap flush of enumerated states, with one
        pass over the instruction program).
    kernel_instructions:
        Bit-parallel and bounded backends: length of the compiled
        AND/OR/NOT program after common-subexpression elimination.  A
        level field like ``distinct_configurations``: merged by max,
        so a multi-point sweep reports the (shared) program length
        instead of multiplying it by the number of points.
    bdd_nodes:
        Symbolic (``bdd``) backend only: nodes allocated by the shared
        ROBDD manager after compiling every indicator and splitting the
        configuration signatures — the quantity the backend's cost is
        polynomial in (instead of 2^N).
    bdd_cache_hits:
        Symbolic backend only: apply-cache hits of the ROBDD manager
        (how often a Boolean combination was already computed; the
        memoisation that keeps the symbolic build subexponential).
    enumerated_mass:
        Bounded backend only: total probability mass of the states
        actually enumerated.  ``1 - enumerated_mass`` is the rigorous
        leftover bound the reward interval is built from.
    """

    states_visited: int = 0
    app_states_visited: int = 0
    knowledge_cache_hits: int = 0
    fault_graph_evaluations: int = 0
    distinct_configurations: int = 0
    scan_seconds: float = 0.0
    lqn_seconds: float = 0.0
    lqn_solves: int = 0
    lqn_cache_hits: int = 0
    lqn_unconverged: int = 0
    lqn_batch_max: int = 0
    lqn_bounds_skips: int = 0
    sweep_points: int = 0
    scan_cache_hits: int = 0
    kernel_batches: int = 0
    kernel_instructions: int = 0
    bdd_nodes: int = 0
    bdd_cache_hits: int = 0
    enumerated_mass: float = 0.0

    #: Fields that are snapshots of a shared artefact (a compiled
    #: program, a distinct-configuration set, a batch-size watermark)
    #: rather than per-run work.  They merge by max, never by addition.
    _LEVEL_FIELDS = frozenset(
        {"distinct_configurations", "kernel_instructions", "lqn_batch_max"}
    )

    #: Counters of removed scan backends and of the removed LQN warm
    #: start.  Stored results still carry them, so :meth:`from_dict`
    #: drops them instead of rejecting the row.
    _RETIRED_FIELDS = frozenset(
        {"decision_leaves", "lqn_warm_starts", "lqn_warm_distance"}
    )

    def record_level(self, name: str, value: int) -> None:
        """Raise the level field ``name`` to at least ``value``.

        Backends use this instead of plain assignment so that a shared
        counters object threaded through several scans keeps the
        maximum snapshot instead of whichever scan happened to run
        last."""
        setattr(self, name, max(getattr(self, name), value))

    def merge(self, other: "ScanCounters") -> None:
        """Fold ``other`` into this instance: additive fields are
        summed exactly; level fields (see ``_LEVEL_FIELDS``) keep the
        maximum of the two sides."""
        for f in fields(self):
            if f.name in self._LEVEL_FIELDS:
                setattr(
                    self,
                    f.name,
                    max(getattr(self, f.name), getattr(other, f.name)),
                )
            else:
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )

    def as_dict(self) -> dict[str, int | float]:
        """Plain-dict view, e.g. for benchmark JSON ``extra_info``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict[str, int | float]:
        """Canonical JSON form — the schema campaign-store rows,
        sweep exports and benchmark snapshots all share.  Identical to
        :meth:`as_dict`; the ``to_dict``/``from_dict`` pair is the
        round-trippable interface."""
        return self.as_dict()

    @classmethod
    def from_dict(cls, document: Mapping) -> "ScanCounters":
        """Rebuild counters from :meth:`to_dict` output.

        Missing fields default to zero, so rows written before a
        counter existed still load, and retired counters (see
        ``_RETIRED_FIELDS``) are dropped, so rows written while one
        existed still load too.  Other unknown fields raise
        ``ValueError`` (a row from a *newer* schema should be re-keyed,
        not silently truncated).
        """
        known = {f.name for f in fields(cls)}
        document = {
            name: value
            for name, value in document.items()
            if name not in cls._RETIRED_FIELDS
        }
        unknown = sorted(set(document) - known)
        if unknown:
            raise ValueError(
                f"unknown ScanCounters fields {unknown}; known fields: "
                f"{sorted(known)}"
            )
        return cls(**{name: document[name] for name in document})


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification.

    ``phase`` is ``"scan"``, ``"lqn"`` or ``"sweep"`` (scenario points
    of a :class:`~repro.core.sweep.SweepEngine` run);
    ``completed``/``total`` count phase-specific work units (see the
    module docstring).  ``counters`` is the live counter object — read
    it, do not mutate it.
    """

    phase: str
    completed: int
    total: int
    counters: ScanCounters

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


#: The callback protocol: called from the parent process only, never
#: concurrently.  Exceptions propagate to the caller of the engine.
ProgressCallback = Callable[[ProgressEvent], None]


class ProgressReporter:
    """Throttled dispatcher from engine to a :data:`ProgressCallback`.

    A ``None`` callback makes every method a no-op, so engines can
    instrument unconditionally.  Events closer together than
    ``min_interval`` seconds are dropped, except forced ones (phase
    completion), which are always delivered.
    """

    def __init__(
        self,
        callback: ProgressCallback | None = None,
        *,
        min_interval: float = 0.1,
    ):
        self._callback = callback
        self._min_interval = min_interval
        self._last_emit = float("-inf")

    @property
    def active(self) -> bool:
        return self._callback is not None

    def emit(
        self,
        phase: str,
        completed: int,
        total: int,
        counters: ScanCounters,
        *,
        force: bool = False,
    ) -> None:
        if self._callback is None:
            return
        now = time.monotonic()
        if not force and now - self._last_emit < self._min_interval:
            return
        self._last_emit = now
        self._callback(ProgressEvent(phase, completed, total, counters))


def console_progress(stream=None) -> ProgressCallback:
    """A callback rendering ``[phase] completed/total (pp.p%)`` on one
    carriage-returned line of ``stream`` (default: ``sys.stderr``),
    terminating the line when a phase completes."""
    import sys

    out = stream if stream is not None else sys.stderr

    units = {"scan": "states", "lqn": "configurations", "sweep": "points"}

    def callback(event: ProgressEvent) -> None:
        unit = units.get(event.phase, "units")
        out.write(
            f"\r[{event.phase}] {event.completed}/{event.total} {unit} "
            f"({100.0 * event.fraction:5.1f}%)"
        )
        if event.completed >= event.total:
            out.write("\n")
        out.flush()

    return callback
