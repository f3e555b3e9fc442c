"""Method-of-Layers-style fixed-point solver for LQN models.

The solver alternates three estimates until they agree:

1. **Entry service times** — bottom-up through the (acyclic) call
   graph: an invocation of entry *e* occupies its task thread for
   ``S_e = d_e + W_proc(e) + Σ_f n_ef · (W_task(τ_e → τ_f) + S_f)``,
   i.e. its processor demand plus processor queueing plus, for every
   synchronous call, queueing at the target task plus the target's own
   service time (blocking RPC semantics).
2. **Software submodels** — one closed queueing network per server
   task: the station is the task (``multiplicity`` threads, FCFS), the
   customer classes are its direct caller tasks, each with its thread
   population and a *surrogate think time* equal to the rest of its
   cycle.  Solved with Bard–Schweitzer AMVA; yields the per-visit
   waiting ``W_task``.
3. **Hardware submodels** — one closed network per processor: the
   station is the processor, classes are the hosted tasks, populations
   their thread counts, think times the non-processor part of their
   cycles; yields ``W_proc``.

Waiting-time updates are damped to stabilise the fixed point.  The
approach is the standard decomposition used by LQNS/Method of Layers
[14] (Rolia & Sevcik's MOL; Woodside's SRVN), reimplemented from the
published equations.

Batching
--------
:func:`solve_lqn_batch` first *lowers* every model once into static
index arrays and stacks the batch on flat axes (entries, tasks, caller
→ server pairs, references), so models of different shapes share one
set of arrays:

* entry → task and task → processor indices, demand and phase-2
  vectors;
* the call table grouped by call-graph level (callees first), each
  slot carrying its target entry, ``mean_calls`` and the caller →
  server pair whose waiting time it pays;
* the reference-visit matrix, from one propagation through the call
  table;
* the class layout of every submodel: the caller pairs of each server
  task and the tasks hosted on each processor, each at a fixed slot of
  a padded (submodel × class) grid.

One outer sweep is then a fixed sequence of array operations, whatever
the number of models or entries: entry services level by level, then
reference throughputs, entry and task rates, surrogate think times and
the phase-2 correction; the submodels of every still-iterating model
go to **one** :func:`~repro.lqn.mva.schweitzer_mva_batch` call (seeded
with their previous queue lengths unless their class set changed), and
the damped ``wait_task``/``wait_proc`` updates are applied as masked
array updates.  Within a sweep every submodel is independent, and all
sums run in the order of the model's own entries and calls, so each
model's trajectory, and therefore its result, is exactly what a
sequential :func:`solve_lqn` produces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.lqn.model import LQNModel
from repro.lqn.mva import (
    Discipline,
    Station,
    StationKind,
    default_initial_queue,
    schweitzer_mva_batch,
)
from repro.lqn.results import LQNResults

#: Throughputs below this are treated as "task inactive".
_EPSILON = 1e-12

#: The single shared station template of every submodel network: one
#: FCFS queue; per-submodel multiplicities ride in the batch call.
_SUBMODEL_STATION = Station(
    name="submodel", kind=StationKind.QUEUE, multiplicity=1,
    discipline=Discipline.FCFS,
)


def reference_visits(model: LQNModel) -> dict[str, dict[str, float]]:
    """V[r][e]: invocations of entry e per cycle of reference task r.

    Only entries reachable from r appear.  Linear in the number of
    calls (one propagation through the callers-first call order); the
    model must be valid (see :meth:`LQNModel.validate`).
    """
    lowered = _lower(model)
    return {
        lowered.tasks[reference]: {
            lowered.entries[i]: value
            for i, value in enumerate(table)
            if value
        }
        for reference, table in zip(lowered.references, lowered.visits)
    }


def solve_lqn(
    model: LQNModel,
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    damping: float = 0.5,
    mva_tolerance: float = 1e-10,
    mva_max_iterations: int = 100_000,
) -> LQNResults:
    """Solve an LQN model for steady-state throughputs and delays.

    Parameters
    ----------
    tolerance:
        Outer fixed-point tolerance on throughputs and waiting times.
    max_iterations:
        Outer iteration budget; the result reports ``converged=False``
        if exceeded (it does not raise — a slightly unconverged solution
        is still informative for screening configurations).
    damping:
        Fraction of each newly solved waiting time blended into the
        estimate per outer iteration (0 < damping ≤ 1).
    mva_tolerance, mva_max_iterations:
        Convergence budget of the inner submodel AMVA solves.  An inner
        solve that exhausts its budget is a *soft* failure: the outer
        iteration continues with the best available estimates and the
        result reports ``converged=False``.  Each inner solve starts
        from the same submodel's queue lengths of the previous outer
        iteration when its class set is unchanged.

    Raises
    ------
    ModelError
        If the model fails validation.
    SolverError
        If a reference class has a degenerate (zero-length) cycle.
    """
    return solve_lqn_batch(
        [model],
        tolerance=tolerance,
        max_iterations=max_iterations,
        damping=damping,
        mva_tolerance=mva_tolerance,
        mva_max_iterations=mva_max_iterations,
    )[0]


def solve_lqn_batch(
    models: Sequence[LQNModel],
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    damping: float = 0.5,
    mva_tolerance: float = 1e-10,
    mva_max_iterations: int = 100_000,
) -> list[LQNResults]:
    """Solve several LQN models in lockstep with shared batched AMVA.

    Semantically equivalent to ``[solve_lqn(m, ...) for m in models]``
    — each model follows exactly the trajectory the sequential solver
    would give it — but every outer sweep runs as array operations over
    the whole batch and solves the submodel networks of *all*
    still-active models in one
    :func:`~repro.lqn.mva.schweitzer_mva_batch` call.

    See :func:`solve_lqn` for the parameters.
    """
    if not 0 < damping <= 1:
        raise SolverError("damping must be in (0, 1]")
    models = list(models)
    if not models:
        return []
    lowered = []
    for model in models:
        model.validate()
        lowered.append(_lower(model))
    batch = _Batch(lowered)
    batch.solve(
        tolerance=tolerance,
        max_iterations=max_iterations,
        damping=damping,
        mva_tolerance=mva_tolerance,
        mva_max_iterations=mva_max_iterations,
    )
    return batch.results()


# ----------------------------------------------------------------------
# Lowering: one model's structure as index lists (local numbering)


@dataclass(frozen=True)
class _Lowered:
    """One model's structure in local index form, built once per solve.

    ``calls[e]`` holds ``(target entry, mean_calls, pair)`` per call in
    declaration order; ``pairs`` are the (caller task, server task)
    pairs server-major in task order, callers in order of their first
    call, and ``pair_calls[p]`` their ``(source, target, mean_calls)``
    call slots in entry order.  ``incoming[e]`` lists the calls into
    ``e`` as ``(source, mean_calls, pair)`` in entry order.
    """

    model: LQNModel
    entries: list[str]
    tasks: list[str]
    processors: list[str]
    entry_task: list[int]
    task_processor: list[int]
    task_entries: list[list[int]]
    calls: list[list[tuple[int, float, int]]]
    incoming: list[list[tuple[int, float, int]]]
    levels: list[int]
    pairs: list[tuple[int, int]]
    pair_calls: list[list[tuple[int, int, float]]]
    references: list[int]
    visits: list[list[float]]


def _lower(model: LQNModel) -> _Lowered:
    """Lower one valid model to local index lists (see :class:`_Lowered`)."""
    entries = list(model.entries)
    entry_index = {name: i for i, name in enumerate(entries)}
    tasks = list(model.tasks)
    task_index = {name: i for i, name in enumerate(tasks)}
    processors = list(model.processors)
    processor_index = {name: i for i, name in enumerate(processors)}
    entry_task = [task_index[e.task] for e in model.entries.values()]
    task_processor = [
        processor_index[t.processor] for t in model.tasks.values()
    ]
    task_entries: list[list[int]] = [[] for _ in tasks]
    for i, task in enumerate(entry_task):
        task_entries[task].append(i)

    # Caller pairs per server task, callers in order of their first
    # call, each with its call slots in entry order.
    callers_of: list[dict[int, list[tuple[int, int, float]]]] = [
        {} for _ in tasks
    ]
    raw: list[list[tuple[int, float, int, int]]] = []
    for i, entry in enumerate(model.entries.values()):
        caller = entry_task[i]
        row = []
        for call in entry.calls:
            target = entry_index[call.target]
            server = entry_task[target]
            callers_of[server].setdefault(caller, []).append(
                (i, target, call.mean_calls)
            )
            row.append((target, call.mean_calls, caller, server))
        raw.append(row)
    pairs: list[tuple[int, int]] = []
    pair_calls: list[list[tuple[int, int, float]]] = []
    pair_index: dict[tuple[int, int], int] = {}
    for server, callers in enumerate(callers_of):
        for caller, slots in callers.items():
            pair_index[(caller, server)] = len(pairs)
            pairs.append((caller, server))
            pair_calls.append(slots)
    calls = [
        [(target, mean, pair_index[(caller, server)])
         for target, mean, caller, server in row]
        for row in raw
    ]
    incoming: list[list[tuple[int, float, int]]] = [[] for _ in entries]
    for i, row in enumerate(calls):
        for target, mean, pair in row:
            incoming[target].append((i, mean, pair))

    # Call-graph levels (0 = no calls) and a callees-first order, by an
    # explicit-stack depth-first walk (calls are acyclic).
    levels = [-1] * len(entries)
    order: list[int] = []
    for root in range(len(entries)):
        if levels[root] != -1:
            continue
        levels[root] = -2
        stack = [(root, 0)]
        while stack:
            node, k = stack[-1]
            row = calls[node]
            if k < len(row):
                stack[-1] = (node, k + 1)
                target = row[k][0]
                if levels[target] == -1:
                    levels[target] = -2
                    stack.append((target, 0))
            else:
                stack.pop()
                levels[node] = 1 + max(
                    (levels[t] for t, _, _ in row), default=-1
                )
                order.append(node)

    # Visits: each reference entry once per cycle, pushed down the call
    # table callers-first — linear in calls.
    references = [
        i for i, task in enumerate(model.tasks.values()) if task.is_reference
    ]
    visits = []
    for reference in references:
        table = [0.0] * len(entries)
        for i in task_entries[reference]:
            table[i] += 1.0
        for i in reversed(order):
            value = table[i]
            if value:
                for target, mean, _ in calls[i]:
                    table[target] += value * mean
        visits.append(table)

    return _Lowered(
        model=model,
        entries=entries,
        tasks=tasks,
        processors=processors,
        entry_task=entry_task,
        task_processor=task_processor,
        task_entries=task_entries,
        calls=calls,
        incoming=incoming,
        levels=levels,
        pairs=pairs,
        pair_calls=pair_calls,
        references=references,
        visits=visits,
    )


def _padded(rows: list[list], pad, dtype) -> np.ndarray:
    """Rows of unequal length as one array, right-padded with ``pad``
    (at least one column)."""
    width = max(map(len, rows), default=0) or 1
    filler = [pad] * width
    return np.array(
        [row + filler[len(row):] for row in rows], dtype=dtype
    ).reshape(len(rows), width)


def _accumulated(terms: np.ndarray) -> np.ndarray:
    """Row sums taken strictly left to right (a slot-ordered loop)."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


# ----------------------------------------------------------------------
# The stacked batch


class _Batch:
    """A batch of lowered models on flat axes, and its solver state.

    Axes: entries (E), tasks (T), references (R) and submodel class
    *rows*: one per caller → server pair (software submodels), then one
    per task (hardware submodels).  A hardware row is written in the
    same form as a software one — its call slots are the task's own
    entries with ``mean_calls`` 1 and the entries' host demand in place
    of their busy time — so its visit count is ``x / x``, exactly 1.0,
    and one set of formulas serves every row.

    Per-entry arrays and the waiting-time vector carry one trailing
    *sentinel* slot holding zero; padded table slots point at it, so a
    padded term adds an exact ``0.0``.
    """

    def __init__(self, lowered: list[_Lowered]) -> None:
        self.lowered = lowered
        count = len(lowered)
        sizes = np.array(
            [
                (len(low.entries), len(low.tasks), len(low.processors),
                 len(low.pairs), len(low.references))
                for low in lowered
            ],
            dtype=np.int64,
        )
        base = np.vstack((np.zeros(5, dtype=np.int64), np.cumsum(sizes, axis=0)))
        E, T, n_proc, P, R = (int(v) for v in base[-1])
        self.entry_base, self.task_base = base[:, 0].tolist(), base[:, 1].tolist()
        self.pair_base, self.ref_base = base[:, 3].tolist(), base[:, 4].tolist()
        self.T = T
        n_rows, n_sub = P + T, T + n_proc
        values_host = E + 1  # host demands follow busy times in `values`

        demand, phase2, entry_task, entry_model = [], [], [], []
        task_mult, task_reference, task_model, task_slots = [], [], [], []
        proc_mult: list[int] = []
        ref_think, ref_mult, ref_slots, ref_model = [], [], [], []
        self.ref_names: list[str] = []
        model_refs, visit_rows = [], []
        level_rows: dict[int, list[tuple[int, list]]] = {}
        row_caller, row_src, row_value, row_mean = [], [], [], []
        pair_server, task_proc = [], []
        self.wait = np.zeros(n_rows + 1)

        for m, low in enumerate(lowered):
            model = low.model
            eb, tb, pb, cb, rb = (int(v) for v in base[m])
            for entry in model.entries.values():
                demand.append(entry.demand)
                phase2.append(entry.phase2_demand)
            entry_task.extend(tb + i for i in low.entry_task)
            entry_model.extend([m] * len(low.entries))
            for i, task in enumerate(model.tasks.values()):
                task_mult.append(task.multiplicity)
                task_reference.append(task.is_reference)
                task_model.append(m)
                task_slots.append([eb + j for j in low.task_entries[i]])
                task_proc.append(pb + low.task_processor[i])
            proc_mult.extend(
                model.processors[name].multiplicity for name in low.processors
            )
            model_refs.append(list(range(rb, rb + len(low.references))))
            for reference in low.references:
                task = model.tasks[low.tasks[reference]]
                ref_think.append(task.think_time)
                ref_mult.append(task.multiplicity)
                ref_slots.append([eb + i for i in low.task_entries[reference]])
                ref_model.append(m)
                self.ref_names.append(task.name)
            visit_rows.extend(
                [table[i] for table in low.visits]
                for i in range(len(low.entries))
            )
            # Each level row starts with the entry's own base service as
            # a pseudo-call (mean 1, no wait), then its calls in order.
            for i, row in enumerate(low.calls):
                if row:
                    level_rows.setdefault(low.levels[i], []).append(
                        (eb + i, [(eb + i, 1.0, n_rows)] + [
                            (eb + g, mean, cb + pair) for g, mean, pair in row
                        ])
                    )
            for (caller, server), slots in zip(low.pairs, low.pair_calls):
                row_caller.append(tb + caller)
                row_src.append([eb + s for s, _, _ in slots])
                row_value.append([eb + g for _, g, _ in slots])
                row_mean.append([mean for _, _, mean in slots])
                pair_server.append(tb + server)

        # Hardware rows: each task's own entries at host demand.
        row_caller += list(range(T))
        row_src += task_slots
        row_value += [[values_host + e for e in slots] for slots in task_slots]
        row_mean += [[1.0] * len(slots) for slots in task_slots]
        # Software submodels are numbered by server task, hardware ones
        # follow at T + processor; rows of one submodel take its slots
        # in row order.
        row_sub = pair_server + [T + proc for proc in task_proc]
        filled: dict[int, int] = {}
        row_rank = []
        for sub in row_sub:
            row_rank.append(filled.get(sub, 0))
            filled[sub] = row_rank[-1] + 1

        # Entry arrays (E + 1, sentinel last).
        self.demand = np.array(demand + [0.0], dtype=float)
        self.phase2 = np.array(phase2 + [0.0], dtype=float)
        self.host_demand = self.demand + self.phase2
        self.has_demand = self.demand > 0
        self.has_phase2 = self.phase2 > 0
        self.entry_wait = np.array(
            [P + t for t in entry_task] + [n_rows], dtype=np.int64
        )
        self.entry_model = np.array(entry_model, dtype=np.int64)
        # Per level: its entries, then each slot's target, mean and wait.
        self.levels = []
        for level in sorted(level_rows):
            rows = level_rows[level]
            self.levels.append((
                np.array([i for i, _ in rows], dtype=np.int64),
                _padded([[g for g, _, _ in slots] for _, slots in rows], E, np.int64),
                _padded([[mean for _, mean, _ in slots] for _, slots in rows], 0.0, float),
                _padded([[w for _, _, w in slots] for _, slots in rows], n_rows, np.int64),
            ))
        # Tasks and references.
        self.task_mult = np.array(task_mult, dtype=float)
        self.task_slots = _padded(task_slots, E, np.int64)
        self.ref_think = np.array(ref_think, dtype=float)
        self.ref_mult = np.array(ref_mult, dtype=float)
        self.ref_slots = _padded(ref_slots, E, np.int64)
        self.ref_model = np.array(ref_model, dtype=np.int64)
        refs_of_model = _padded(model_refs, R, np.int64)
        self.entry_refs = np.vstack(
            (refs_of_model[self.entry_model], np.full(refs_of_model.shape[1], R))
        )
        self.visits = np.vstack(
            (_padded(visit_rows, 0.0, float), np.zeros(refs_of_model.shape[1]))
        )

        # Submodel class rows and their cells of the (submodel x slot) grid.
        task_model = np.array(task_model, dtype=np.int64)
        pair_server = np.array(pair_server, dtype=np.int64)
        self.row_caller = np.array(row_caller, dtype=np.int64)
        self.row_src = _padded(row_src, E, np.int64)
        self.row_value = _padded(row_value, E, np.int64)
        self.row_mean = _padded(row_mean, 0.0, float)
        self.row_pop = self.task_mult[self.row_caller]
        self.row_model = np.concatenate((task_model[pair_server], task_model))
        self.row_ok = np.concatenate(
            (~np.array(task_reference, dtype=bool)[pair_server], np.ones(T, dtype=bool))
        )
        self.row_host = np.concatenate((np.zeros(P, dtype=bool), np.ones(T, dtype=bool)))
        self.row_correction = np.concatenate((pair_server, np.full(T, T)))
        self.width = max([1, *filled.values()])
        self.n_sub = n_sub
        self.row_cell = (
            np.array(row_sub, dtype=np.int64) * self.width
            + np.array(row_rank, dtype=np.int64)
        )
        self.sub_model = np.concatenate(
            (task_model, np.repeat(np.arange(count), sizes[:, 2]))
        )
        self.sub_mult = np.array(task_mult + proc_mult, dtype=np.int64)[:, None]

        # Solver state.
        self.service = np.zeros(E + 1)
        self.busy = np.zeros(E + 1)
        self.x_ref = np.zeros(R + 1)
        self.rate = np.zeros(E + 1)
        self.task_rate = np.zeros(T)
        self.inner_queue = np.zeros((n_sub, self.width))
        self.inner_classes = np.zeros((n_sub, self.width), dtype=bool)
        self.inner_seeded = np.zeros(n_sub, dtype=bool)
        self.correction = np.zeros(T + 1)
        self.iterations = np.zeros(count, dtype=np.int64)
        self.converged = np.zeros(count, dtype=bool)
        self.inner_failed = np.zeros(count, dtype=bool)

    def solve(
        self,
        *,
        tolerance: float,
        max_iterations: int,
        damping: float,
        mva_tolerance: float,
        mva_max_iterations: int,
    ) -> None:
        """Run the lockstep outer iteration to convergence or budget."""
        count = len(self.lowered)
        self.iterations[:] = max_iterations
        live = np.ones(count, dtype=bool)
        live_entry = np.ones(len(self.service), dtype=bool)
        live_ref = np.ones(len(self.ref_model), dtype=bool)
        live_row = np.ones(len(self.row_model), dtype=bool)
        all_live = True
        cells = self.n_sub * self.width
        wait = self.wait
        with np.errstate(divide="ignore", invalid="ignore"):
            for iteration in range(max_iterations):
                if not live.any():
                    break

                # 1. Entry services, level by level (callees first).
                proc_wait = wait[self.entry_wait]
                service = self.demand + np.where(self.has_demand, proc_wait, 0.0)
                for index, target, mean, waits in self.levels:
                    service[index] = _accumulated(
                        mean * (wait[waits] + service[target])
                    )
                busy = service + np.where(
                    self.has_phase2, self.phase2 + proc_wait, self.phase2
                )
                if not all_live:
                    service = np.where(live_entry, service, self.service)
                    busy = np.where(live_entry, busy, self.busy)
                self.service, self.busy = service, busy

                # 2. Reference throughputs.
                cycle = self.ref_think + _accumulated(busy[self.ref_slots])
                bad = (cycle <= 0) & live_ref
                if bad.any():
                    name = self.ref_names[int(np.argmax(bad))]
                    raise SolverError(
                        f"reference task {name!r} has a zero-length cycle"
                    )
                throughput = self.ref_mult / cycle
                delta = np.zeros(count)
                np.maximum.at(
                    delta, self.ref_model, np.abs(throughput - self.x_ref[:-1])
                )
                self.x_ref[:-1] = throughput

                # 3. Entry and task rates.
                rate = _accumulated(self.x_ref[self.entry_refs] * self.visits)
                task_rate = _accumulated(rate[self.task_slots])
                phase2_load = _accumulated((rate * (busy - service))[self.task_slots])
                self.rate, self.task_rate = rate, task_rate

                # 4. Submodel classes: call rate and busy time per call of
                # each row, its visits, population and surrogate think.
                stream = rate[self.row_src] * self.row_mean
                call_rate = _accumulated(stream)
                values = np.concatenate((busy, self.host_demand))
                per_call = _accumulated(stream * values[self.row_value]) / call_rate
                caller_rate = task_rate[self.row_caller]
                on = (
                    self.row_ok
                    & live_row
                    & (caller_rate > _EPSILON)
                    & (call_rate > _EPSILON)
                    & ((per_call > _EPSILON) | ~self.row_host)
                )
                visits = call_rate / caller_rate
                surrogate = self.row_pop / caller_rate - visits * (
                    wait[:-1] + per_call
                )
                rows = np.empty((5, len(on)))
                np.multiply(visits, per_call, out=rows[0])
                rows[1] = visits
                rows[2] = self.row_pop
                np.maximum(0.0, surrogate, out=rows[3])
                np.multiply(self.row_pop, surrogate <= 0.0, out=rows[4])
                grid = np.zeros((5, cells))
                grid[:, self.row_cell] = np.where(on, rows, 0.0)
                grid = grid.reshape(5, self.n_sub, self.width)
                classes = grid[2] > 0
                solved = np.flatnonzero(classes.any(axis=1))
                if solved.size:
                    change = self._solve_submodels(
                        grid, classes, solved, on, visits, per_call,
                        phase2_load, task_rate,
                        damping=damping,
                        mva_tolerance=mva_tolerance,
                        mva_max_iterations=mva_max_iterations,
                    )
                    np.maximum.at(delta, self.row_model, change)

                done = live & (delta < tolerance)
                if done.any():
                    self.iterations[done] = iteration + 1
                    self.converged |= done
                    live &= ~done
                    all_live = False
                    live_entry[:-1] = live[self.entry_model]
                    live_ref = live[self.ref_model]
                    live_row = live[self.row_model]

    def _solve_submodels(
        self, grid, classes, solved, on, visits, per_call, phase2_load,
        task_rate, *, damping, mva_tolerance, mva_max_iterations,
    ) -> np.ndarray:
        """One batched AMVA over every active submodel, then the damped
        waiting-time updates.  Returns each row's waiting-time change."""
        T = self.T
        inputs = grid[:, solved, :, None]
        signature = classes[solved]
        seeded = self.inner_seeded[solved] & (
            self.inner_classes[solved] == signature
        ).all(axis=1)
        initial = self.inner_queue[solved][:, :, None]
        if not seeded.all():
            initial = np.where(
                seeded[:, None, None],
                initial,
                default_initial_queue(inputs[0], inputs[2, :, :, 0]),
            )
        result = schweitzer_mva_batch(
            [_SUBMODEL_STATION],
            inputs[0],
            inputs[2, :, :, 0],
            inputs[3, :, :, 0],
            visits=inputs[1],
            multiplicities=self.sub_mult[solved],
            initial_queues=initial,
            tolerance=mva_tolerance,
            max_iterations=mva_max_iterations,
            raise_on_failure=False,
        )
        # Soft failure: keep iterating with the best available estimates
        # and surface it via converged=False at the end.
        if not result.converged.all():
            self.inner_failed[self.sub_model[solved[~result.converged]]] = True
        self.inner_queue[solved] = result.queue_lengths[:, :, 0]
        self.inner_classes[solved] = signature
        self.inner_seeded[solved] = True

        # Ghost-work correction for second phases.  When a software
        # submodel is *saturated* (caller surrogate think times clamp at
        # zero), every service completion is immediately followed by a
        # re-arrival, so the new request always finds the previous
        # customer's phase-2 work still holding the thread — extra
        # waiting the closed MVA cannot see (the owner is no longer a
        # queued customer).  In the fully clamped limit the exact extra
        # wait is the mean second phase; below saturation the surrogate
        # think absorbs the leftover and no correction is due.  Scale by
        # the clamped share of the population.  Hardware rows read the
        # zero sentinel.
        population = grid[2, :T].sum(axis=1)
        clamped_share = np.where(
            population > 0, grid[4, :T].sum(axis=1) / population, 0.0
        )
        mean_phase2 = np.where(task_rate > _EPSILON, phase2_load / task_rate, 0.0)
        correction = self.correction
        correction[:T] = mean_phase2 * clamped_share

        residence = np.zeros((self.n_sub, self.width))
        residence[solved] = result.residence_times[:, :, 0]
        residence = residence.reshape(-1)[self.row_cell]
        target = correction[self.row_correction] + np.maximum(
            0.0, residence / visits - per_call
        )
        old = self.wait[:-1]
        new = np.where(on, (1.0 - damping) * old + damping * target, old)
        change = np.abs(new - old)
        self.wait[:-1] = new
        return change

    def results(self) -> list[LQNResults]:
        """One :class:`LQNResults` per model, in batch order."""
        service = self.service.tolist()
        busy = self.busy.tolist()
        rate = self.rate.tolist()
        task_rate = self.task_rate.tolist()
        x_ref = self.x_ref.tolist()
        wait = self.wait.tolist()
        out = []
        for m, low in enumerate(self.lowered):
            model = low.model
            eb, tb = self.entry_base[m], self.task_base[m]
            cb, rb = self.pair_base[m], self.ref_base[m]
            rates = rate[eb: eb + len(low.entries)]
            waits = wait[cb: cb + len(low.pairs)]

            task_throughputs = dict(zip(low.tasks, task_rate[tb: tb + len(low.tasks)]))
            for j, reference in enumerate(low.references):
                task_throughputs[low.tasks[reference]] = x_ref[rb + j]

            entry_waiting: dict[str, float] = {}
            for i, name in enumerate(low.entries):
                if model.tasks[low.tasks[low.entry_task[i]]].is_reference:
                    entry_waiting[name] = 0.0
                    continue
                # Average waiting over calling streams.
                total = weighted = 0.0
                for source, mean, pair in low.incoming[i]:
                    stream = rates[source] * mean
                    total += stream
                    weighted += stream * waits[pair]
                entry_waiting[name] = weighted / total if total > 0 else 0.0

            task_utilizations = {}
            for i, task in enumerate(model.tasks.values()):
                occupancy = 0.0
                for j in low.task_entries[i]:
                    occupancy += rates[j] * busy[eb + j]
                task_utilizations[task.name] = occupancy / task.multiplicity
            loads = [0.0] * len(low.processors)
            for i, entry in enumerate(model.entries.values()):
                loads[low.task_processor[low.entry_task[i]]] += rates[i] * (
                    entry.demand + entry.phase2_demand
                )
            processor_utilizations = {
                name: load / model.processors[name].multiplicity
                for name, load in zip(low.processors, loads)
            }

            out.append(
                LQNResults(
                    task_throughputs=task_throughputs,
                    entry_throughputs=dict(zip(low.entries, rates)),
                    entry_service_times=dict(
                        zip(low.entries, service[eb: eb + len(low.entries)])
                    ),
                    entry_waiting_times=entry_waiting,
                    task_utilizations=task_utilizations,
                    processor_utilizations=processor_utilizations,
                    iterations=int(self.iterations[m]),
                    converged=bool(self.converged[m] and not self.inner_failed[m]),
                )
            )
        return out
