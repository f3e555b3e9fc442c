"""Mean Value Analysis for closed multi-class queueing networks.

Two solvers over the same inputs:

* :func:`exact_mva` — the exact recursion over all population vectors;
  cost grows as ∏(N_c + 1), so it is practical only for small
  populations.  Used as the oracle in tests.
* :func:`schweitzer_mva` — the Bard–Schweitzer approximate MVA
  fixed point; cost independent of population sizes.  Used by the
  layered solver.

Inputs
------
``demands[c][k]`` is the total service demand of class *c* at station
*k* (visit count × per-visit service time).  Stations are *queueing*
(single queue, ``multiplicity`` servers) or *delay* (infinite server).
Class *c* has ``populations[c]`` customers and per-cycle think time
``think_times[c]``.

Multi-server queueing stations use the Seidmann transformation: an
m-server station with demand D behaves approximately like a single
server with demand D/m plus a pure delay of D·(m−1)/m.  This is the
standard approximation in layered queueing solvers.

Queueing stations come in two disciplines:

* ``PS`` (processor sharing / product form): residence
  R_c = D_c · (1 + Q̂), the exact BCMP form — also what
  :func:`exact_mva` computes;
* ``FCFS`` with class-dependent service times: the standard
  non-product-form heuristic R_c = v_c · (s_c + Σ_j s_j · Q̂_j), where an
  arriving customer waits for the *actual* work in queue rather than a
  multiple of its own service time.  This matters when a fast class and
  a slow class share one server (the paper's Server1 serves 1 s requests
  from AppA and 0.5 s requests from AppB); PS-style MVA systematically
  overstates the fast class's waiting there.

For FCFS stations pass ``visits`` so per-visit service times can be
recovered from the total demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import ConvergenceError, SolverError


class StationKind(Enum):
    """Structural kind of a station."""

    QUEUE = "queue"
    DELAY = "delay"


class Discipline(Enum):
    """Queueing discipline of a QUEUE station."""

    PS = "ps"
    FCFS = "fcfs"


@dataclass(frozen=True)
class Station:
    """A service station.

    ``multiplicity`` is the number of identical servers for QUEUE
    stations and ignored for DELAY stations; ``discipline`` selects the
    residence-time formula for QUEUE stations.
    """

    name: str
    kind: StationKind = StationKind.QUEUE
    multiplicity: int = 1
    discipline: Discipline = Discipline.PS

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise SolverError(f"station {self.name!r}: multiplicity must be >= 1")


@dataclass(frozen=True)
class MVAResult:
    """Solution of a closed multi-class network.

    Attributes
    ----------
    throughputs:
        Per-class cycle throughput X_c (cycles/second).
    residence_times:
        R[c][k] — total residence (waiting + service, all visits) of
        class c at station k per cycle.
    queue_lengths:
        Q[c][k] — mean number of class-c customers at station k.
    utilizations:
        U[k] — total utilisation of station k (per server).
    cycle_times:
        Per-class mean cycle time including think time.
    """

    throughputs: np.ndarray
    residence_times: np.ndarray
    queue_lengths: np.ndarray
    utilizations: np.ndarray
    cycle_times: np.ndarray


def _validate_inputs(
    stations: list[Station],
    demands: np.ndarray,
    populations: list[int] | list[float],
    think_times: list[float],
) -> None:
    classes = len(populations)
    if demands.shape != (classes, len(stations)):
        raise SolverError(
            f"demands shape {demands.shape} does not match "
            f"{classes} classes x {len(stations)} stations"
        )
    if len(think_times) != classes:
        raise SolverError("think_times length must equal the number of classes")
    if not np.all(np.isfinite(demands)):
        raise SolverError("demands must be finite")
    if not np.all(np.isfinite(np.asarray(populations, dtype=float))):
        raise SolverError("populations must be finite")
    if not np.all(np.isfinite(np.asarray(think_times, dtype=float))):
        raise SolverError("think times must be finite")
    if np.any(demands < 0):
        raise SolverError("demands must be non-negative")
    if any(n < 0 for n in populations):
        raise SolverError("populations must be non-negative")
    if any(z < 0 for z in think_times):
        raise SolverError("think times must be non-negative")


def _seidmann(stations: list[Station], demands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split demands into a queueing part and an additive delay part."""
    queue_demand = demands.astype(float).copy()
    extra_delay = np.zeros_like(queue_demand)
    for k, station in enumerate(stations):
        if station.kind is StationKind.QUEUE and station.multiplicity > 1:
            m = station.multiplicity
            extra_delay[:, k] = queue_demand[:, k] * (m - 1) / m
            queue_demand[:, k] = queue_demand[:, k] / m
    return queue_demand, extra_delay


def exact_mva(
    stations: list[Station],
    demands: np.ndarray,
    populations: list[int],
    think_times: list[float] | None = None,
) -> MVAResult:
    """Exact MVA over all population vectors (small populations only).

    Raises
    ------
    SolverError
        On inconsistent inputs or populations too large to enumerate
        (product of (N_c + 1) above 2_000_000).
    """
    demands = np.asarray(demands, dtype=float)
    classes = len(populations)
    think = list(think_times) if think_times is not None else [0.0] * classes
    _validate_inputs(stations, demands, populations, think)
    if any(int(n) != n for n in populations):
        raise SolverError("exact MVA requires integer populations")
    if any(
        s.kind is StationKind.QUEUE and s.discipline is Discipline.FCFS
        for s in stations
    ):
        raise SolverError(
            "exact MVA supports only PS queueing stations (product form); "
            "use schweitzer_mva for the FCFS heuristic"
        )

    space = 1
    for n in populations:
        space *= n + 1
    if space > 2_000_000:
        raise SolverError(
            f"exact MVA state space {space} too large; use schweitzer_mva"
        )

    queue_demand, extra_delay = _seidmann(stations, demands)
    station_count = len(stations)
    is_queue = np.array([s.kind is StationKind.QUEUE for s in stations])

    # Q[population vector][k] — total queue length at station k.
    queues: dict[tuple[int, ...], np.ndarray] = {
        tuple([0] * classes): np.zeros(station_count)
    }

    def vectors(limits: list[int]):
        if not limits:
            yield ()
            return
        for head in range(limits[0] + 1):
            for tail in vectors(limits[1:]):
                yield (head, *tail)

    throughput = np.zeros(classes)
    residence = np.zeros((classes, station_count))
    per_class_queue = np.zeros((classes, station_count))

    ordered = sorted(vectors(list(populations)), key=sum)
    for vector in ordered:
        if sum(vector) == 0:
            continue
        residence_here = np.zeros((classes, station_count))
        x_here = np.zeros(classes)
        for c in range(classes):
            if vector[c] == 0:
                continue
            lower = list(vector)
            lower[c] -= 1
            q_lower = queues[tuple(lower)]
            for k in range(station_count):
                if is_queue[k]:
                    residence_here[c, k] = (
                        queue_demand[c, k] * (1.0 + q_lower[k]) + extra_delay[c, k]
                    )
                else:
                    residence_here[c, k] = demands[c, k]
            denom = think[c] + residence_here[c].sum()
            if denom <= 0:
                raise SolverError(
                    f"class {c} has zero demand and zero think time"
                )
            x_here[c] = vector[c] / denom
        q_here = np.zeros(station_count)
        for k in range(station_count):
            q_here[k] = float(np.dot(x_here, residence_here[:, k]))
        queues[vector] = q_here
        if vector == tuple(populations):
            throughput = x_here
            residence = residence_here
            for k in range(station_count):
                per_class_queue[:, k] = x_here * residence_here[:, k]

    utilization = np.zeros(station_count)
    for k, station in enumerate(stations):
        if station.kind is StationKind.QUEUE:
            utilization[k] = float(
                np.dot(throughput, demands[:, k]) / station.multiplicity
            )
        else:
            utilization[k] = float(np.dot(throughput, demands[:, k]))
    cycle = np.array(
        [
            think[c] + residence[c].sum() if populations[c] > 0 else 0.0
            for c in range(classes)
        ]
    )
    return MVAResult(
        throughputs=throughput,
        residence_times=residence,
        queue_lengths=per_class_queue,
        utilizations=utilization,
        cycle_times=cycle,
    )


@dataclass(frozen=True)
class BatchMVAResult:
    """Solutions of a batch of closed networks sharing one topology.

    Every per-network array gains a leading batch axis relative to
    :class:`MVAResult`; ``iterations`` counts fixed-point updates per
    element and ``converged`` flags which elements met the tolerance.
    Each element is bit-identical to an independent
    :func:`schweitzer_mva` solve of the same inputs.
    """

    throughputs: np.ndarray
    residence_times: np.ndarray
    queue_lengths: np.ndarray
    utilizations: np.ndarray
    cycle_times: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def element(self, index: int) -> MVAResult:
        """The ``index``-th element as a plain :class:`MVAResult`."""
        return MVAResult(
            throughputs=self.throughputs[index],
            residence_times=self.residence_times[index],
            queue_lengths=self.queue_lengths[index],
            utilizations=self.utilizations[index],
            cycle_times=self.cycle_times[index],
        )


def default_initial_queue(
    demands: np.ndarray, populations: np.ndarray
) -> np.ndarray:
    """The cold-start queue guess: customers spread over demanded stations.

    ``demands`` is ``(batch, classes, stations)``, ``populations``
    ``(batch, classes)``; the result matches ``demands`` in shape.
    """
    positive = demands > 0
    count = positive.sum(axis=2)
    active = (populations > 0) & (count > 0)
    share = np.divide(
        populations, count, out=np.zeros_like(populations, dtype=float),
        where=active,
    )
    return positive * share[:, :, None]


def _validate_batch(
    stations: list[Station],
    demands: np.ndarray,
    populations: np.ndarray,
    think_times: np.ndarray,
) -> None:
    if demands.ndim != 3 or demands.shape[2] != len(stations):
        raise SolverError(
            f"batch demands shape {demands.shape} does not match "
            f"(batch, classes, {len(stations)} stations)"
        )
    if populations.shape != demands.shape[:2]:
        raise SolverError(
            f"populations shape {populations.shape} does not match "
            f"demands shape {demands.shape}"
        )
    if think_times.shape != demands.shape[:2]:
        raise SolverError(
            f"think_times shape {think_times.shape} does not match "
            f"demands shape {demands.shape}"
        )
    if not np.all(np.isfinite(demands)):
        raise SolverError("demands must be finite")
    if not np.all(np.isfinite(populations)):
        raise SolverError("populations must be finite")
    if not np.all(np.isfinite(think_times)):
        raise SolverError("think times must be finite")
    if np.any(demands < 0):
        raise SolverError("demands must be non-negative")
    if np.any(populations < 0):
        raise SolverError("populations must be non-negative")
    if np.any(think_times < 0):
        raise SolverError("think times must be non-negative")


def schweitzer_mva_batch(
    stations: list[Station],
    demands: np.ndarray,
    populations: np.ndarray,
    think_times: np.ndarray,
    *,
    visits: np.ndarray | None = None,
    multiplicities: np.ndarray | None = None,
    initial_queues: np.ndarray | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
    raise_on_failure: bool = True,
) -> BatchMVAResult:
    """Bard–Schweitzer AMVA over a batch of networks at once.

    All elements share the station topology (kinds and disciplines of
    ``stations``) but carry their own demands, populations, think times
    and (optionally) per-station multiplicities.  The fixed point
    iterates every element simultaneously with per-element convergence
    masking: an element that meets ``tolerance`` is frozen while the
    rest keep iterating, so each element's solution is exactly what an
    independent :func:`schweitzer_mva` call would produce — batching is
    a pure wall-time optimisation.

    Parameters
    ----------
    demands:
        ``(batch, classes, stations)`` service demands.
    populations, think_times:
        ``(batch, classes)`` customer counts and per-cycle think times.
    visits:
        Optional ``(batch, classes, stations)`` visit counts (see
        :func:`schweitzer_mva`); defaults to one visit wherever demand
        is positive.
    multiplicities:
        Optional ``(batch, stations)`` per-element server counts for
        QUEUE stations, overriding ``Station.multiplicity``.
    initial_queues:
        Optional ``(batch, classes, stations)`` starting queue lengths
        (warm start).  Defaults to :func:`default_initial_queue`.
    raise_on_failure:
        When true (the sequential contract), raise
        :class:`~repro.errors.ConvergenceError` if any element fails to
        converge; when false, report failures via ``converged``.

    Raises
    ------
    SolverError
        On inconsistent or non-finite inputs, or when a class has zero
        demand and zero think time.
    ConvergenceError
        See ``raise_on_failure``.
    """
    demands = np.asarray(demands, dtype=float)
    populations = np.asarray(populations, dtype=float)
    think_times = np.asarray(think_times, dtype=float)
    _validate_batch(stations, demands, populations, think_times)
    batch, classes, station_count = demands.shape

    if visits is None:
        visits = (demands > 0).astype(float)
    else:
        visits = np.asarray(visits, dtype=float)
        if visits.shape != demands.shape:
            raise SolverError("visits shape must match demands shape")
        if np.any((demands > 0) & (visits <= 0)):
            raise SolverError("positive demand requires positive visits")

    is_queue = np.array([s.kind is StationKind.QUEUE for s in stations])
    is_fcfs = np.array(
        [
            s.kind is StationKind.QUEUE and s.discipline is Discipline.FCFS
            for s in stations
        ]
    )
    if multiplicities is None:
        multiplicities = np.broadcast_to(
            np.array([s.multiplicity for s in stations], dtype=np.int64),
            (batch, station_count),
        )
    else:
        multiplicities = np.asarray(multiplicities, dtype=np.int64)
        if multiplicities.shape != (batch, station_count):
            raise SolverError(
                f"multiplicities shape {multiplicities.shape} does not "
                f"match (batch, stations) = {(batch, station_count)}"
            )
        if np.any(multiplicities < 1):
            raise SolverError("multiplicities must be >= 1")

    # Seidmann split, per element: an m-server queue behaves like a
    # single server with demand D/m plus a pure delay of D(m-1)/m.
    multi = is_queue & (multiplicities > 1)
    m = multiplicities[:, None, :]
    split = multi[:, None, :]
    extra_delay = np.where(split, demands * (m - 1) / m, 0.0)
    queue_demand = np.where(split, demands / m, demands)
    # Per-visit (queueing) service times; zero where a class never visits.
    queue_service = np.divide(
        queue_demand, visits, out=np.zeros_like(queue_demand),
        where=visits > 0,
    )

    pops = populations
    active = pops > 0
    # Schweitzer self-term ratio (N_c - 1)/N_c, clamped at zero.
    ratio = np.maximum(
        0.0,
        np.divide(pops - 1.0, pops, out=np.zeros_like(pops), where=active),
    )

    if initial_queues is None:
        queue = default_initial_queue(demands, pops)
    else:
        initial_queues = np.asarray(initial_queues, dtype=float)
        if initial_queues.shape != demands.shape:
            raise SolverError(
                f"initial_queues shape {initial_queues.shape} does not "
                f"match demands shape {demands.shape}"
            )
        if not np.all(np.isfinite(initial_queues)):
            raise SolverError("initial_queues must be finite")
        if np.any(initial_queues < 0):
            raise SolverError("initial_queues must be non-negative")
        queue = initial_queues.copy()

    residence = np.zeros_like(demands)
    throughput = np.zeros_like(pops)
    iterations = np.full(batch, max(max_iterations, 0), dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    if classes == 0 or station_count == 0 or batch == 0:
        # Degenerate: the sequential loop performs one vacuous update
        # (delta == 0) and stops.
        iterations[:] = 1 if batch else 0
        converged |= True
        return BatchMVAResult(
            throughputs=throughput,
            residence_times=residence,
            queue_lengths=queue,
            utilizations=np.zeros((batch, station_count)),
            cycle_times=np.zeros((batch, classes)),
            iterations=iterations,
            converged=converged,
        )

    # Arrival theorem with the Schweitzer estimate: class c sees every
    # other class's queue plus (N_c-1)/N_c of its own.  ``own[b, c, j]``
    # is that factor for source class j as seen by class c (1 off the
    # diagonal, an exact multiply), so ``q[:, None] * own`` is every
    # class's view of every queue at once.  ``np.add.accumulate`` over
    # the source axis sums strictly in class order, keeping each
    # element's arithmetic identical to a class-by-class loop.
    own = np.where(
        np.eye(classes, dtype=bool), ratio[:, :, None], 1.0
    )[:, :, :, None]
    source_service = queue_service[:, None, :, :]
    is_ps = is_queue & ~is_fcfs
    has_fcfs, has_ps = bool(is_fcfs.any()), bool(is_ps.any())
    has_delay = not is_queue.all()
    # A class without customers has zero residence: zeroing the
    # coefficients of its own residence once makes every formula below
    # yield an exact 0.0 for it, and a unit think time keeps its
    # 0/denominator finite.  Adding an all-zero Seidmann delay is an
    # exact no-op, so it is skipped.
    idle = ~active[:, :, None]
    own_visits = np.where(idle, 0.0, visits)
    own_queue_demand = np.where(idle, 0.0, queue_demand)
    own_demand = np.where(idle, 0.0, demands)
    own_delay = np.where(idle, 0.0, extra_delay) if extra_delay.any() else None
    cycle_base = np.where(active, think_times, 1.0)
    # Residence is positive wherever demand is, so only an active class
    # with zero think time and no demand can reach a zero cycle.
    suspects = active & (think_times <= 0) & ~(demands > 0).any(axis=2)
    check_cycle = bool(suspects.any())
    single = station_count == 1

    # Every element iterates until all have converged.  A converged
    # element's queue stays at the input of its converging update, so
    # each later iteration recomputes exactly that update: when the loop
    # ends, every element's residence, throughput and queue are those of
    # its own last update, and ``live`` only masks bookkeeping and the
    # cycle check, never the arithmetic.
    live = np.ones(batch, dtype=bool)
    frozen = False
    q = queue
    delta = np.zeros(batch)
    for iteration in range(max_iterations):
        seen = q[:, None, :, :] * own
        if has_fcfs:
            backlog = np.add.accumulate(source_service * seen, axis=2)[:, :, -1]
            fcfs_residence = own_visits * (queue_service + backlog)
            if own_delay is not None:
                fcfs_residence = fcfs_residence + own_delay
        if has_ps:
            seen_total = np.add.accumulate(seen, axis=2)[:, :, -1]
            ps_residence = own_queue_demand * (1.0 + seen_total)
            if own_delay is not None:
                ps_residence = ps_residence + own_delay
        if has_fcfs and not (has_ps or has_delay):
            residence = fcfs_residence
        elif has_ps and not (has_fcfs or has_delay):
            residence = ps_residence
        else:
            residence = own_demand
            if has_ps:
                residence = np.where(is_ps, ps_residence, residence)
            if has_fcfs:
                residence = np.where(is_fcfs, fcfs_residence, residence)
        # One station: its residence *is* the sum over stations.
        denom = cycle_base + (
            residence[:, :, 0] if single else residence.sum(axis=2)
        )
        if check_cycle:
            bad = suspects & live[:, None] & (denom <= 0)
            if bad.any():
                c = int(np.argwhere(bad)[0][1])
                raise SolverError(f"class {c} has zero demand and zero think time")
        throughput = pops / denom
        queue = throughput[:, :, None] * residence
        delta = np.abs(queue - q).max(axis=(1, 2))
        done = live & (delta < tolerance)
        if np.count_nonzero(done):
            converged |= done
            iterations[done] = iteration + 1
            live &= ~done
            if not np.count_nonzero(live):
                break
            frozen = True
        q = np.where(live[:, None, None], queue, q) if frozen else queue

    if live.any() and raise_on_failure:
        raise ConvergenceError(
            "Bard-Schweitzer MVA did not converge",
            iterations=max_iterations,
            residual=float(delta[live].max()),
        )

    utilization = np.einsum("bc,bck->bk", throughput, demands)
    utilization = np.where(
        is_queue, utilization / multiplicities, utilization
    )
    cycle = np.where(
        active, think_times + residence.sum(axis=2), 0.0
    )
    return BatchMVAResult(
        throughputs=throughput,
        residence_times=residence,
        queue_lengths=queue,
        utilizations=utilization,
        cycle_times=cycle,
        iterations=iterations,
        converged=converged,
    )


def schweitzer_mva(
    stations: list[Station],
    demands: np.ndarray,
    populations: list[float],
    think_times: list[float] | None = None,
    *,
    visits: np.ndarray | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
) -> MVAResult:
    """Bard–Schweitzer approximate MVA.

    Accepts non-integer populations (useful when a caller class is a
    fractional share of a multi-entry task).  Classes with zero
    population are carried through with zero throughput.  This is the
    batch-of-one view of :func:`schweitzer_mva_batch`.

    Parameters
    ----------
    visits:
        Per-class visit counts, same shape as ``demands``; required when
        any station uses the FCFS discipline, so per-visit service times
        ``demands / visits`` can be formed.  Defaults to one visit
        wherever demand is positive.

    Raises
    ------
    ConvergenceError
        If the fixed point is not reached within ``max_iterations``.
    """
    demands = np.asarray(demands, dtype=float)
    classes = len(populations)
    think = list(think_times) if think_times is not None else [0.0] * classes
    _validate_inputs(stations, demands, populations, think)
    if visits is not None:
        visits = np.asarray(visits, dtype=float)
        if visits.shape != demands.shape:
            raise SolverError("visits shape must match demands shape")
        visits = visits[None]
    result = schweitzer_mva_batch(
        stations,
        demands[None],
        np.asarray(populations, dtype=float)[None],
        np.asarray(think, dtype=float)[None],
        visits=visits,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    return result.element(0)
