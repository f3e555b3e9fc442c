"""Asymptotic throughput bounds for layered models.

Classical bounding analysis adapted to layered blocking semantics.  For
each reference class r:

* **population bound** — X_r ≤ N_r / (Z_r + D_r), where D_r is the
  class's zero-contention cycle demand (every wait set to zero): no
  closed class can beat its own no-queueing cycle;
* **bottleneck bounds** — for every server task σ and processor p,
  the class's completions are limited by the resource's capacity share:
  X_r ≤ m / d_r where d_r is the busy time the resource spends per
  class-r cycle.  When several classes share the resource these are
  per-class relaxations (the joint constraint Σ_r X_r·d_r ≤ m is also
  reported).

Because they ignore contention entirely, the bounds are guaranteed
upper bounds on the exact throughputs — used as sanity oracles for the
solver and the simulator (see ``tests/lqn/test_bounds.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.lqn.model import LQNModel
from repro.lqn.solver import reference_visits


@dataclass(frozen=True)
class ClassBounds:
    """Upper bounds for one reference class.

    ``bottlenecks`` maps each resource (task or processor name) to the
    class's capacity bound m / d_r at that resource; ``throughput`` is
    the minimum over all bounds.
    """

    reference: str
    population_bound: float
    bottlenecks: Mapping[str, float]

    @property
    def throughput(self) -> float:
        candidates = [self.population_bound, *self.bottlenecks.values()]
        return min(candidates)


@dataclass(frozen=True)
class UtilizationConstraint:
    """Joint capacity constraint at one resource: Σ_r X_r·d_r ≤ m."""

    resource: str
    capacity: float
    demand_per_class: Mapping[str, float]

    def is_satisfied(self, throughputs: Mapping[str, float], *, slack: float = 1e-6) -> bool:
        load = sum(
            throughputs.get(name, 0.0) * demand
            for name, demand in self.demand_per_class.items()
        )
        return load <= self.capacity + slack


def throughput_bounds(model: LQNModel) -> dict[str, ClassBounds]:
    """Per-reference-class asymptotic upper bounds."""
    model.validate()
    visits = reference_visits(model)

    # Zero-contention service time per entry (no waits anywhere).
    zero_wait: dict[str, float] = {}

    def service(entry_name: str) -> float:
        cached = zero_wait.get(entry_name)
        if cached is not None:
            return cached
        entry = model.entries[entry_name]
        total = entry.demand
        for call in entry.calls:
            total += call.mean_calls * service(call.target)
        zero_wait[entry_name] = total
        return total

    bounds: dict[str, ClassBounds] = {}
    for reference in model.reference_tasks():
        cycle_demand = sum(
            service(entry.name) + model.entries[entry.name].phase2_demand
            for entry in model.entries_of_task(reference.name)
        )
        population = (
            reference.multiplicity / (reference.think_time + cycle_demand)
            if reference.think_time + cycle_demand > 0
            else float("inf")
        )

        bottlenecks: dict[str, float] = {}
        class_visits = visits[reference.name]
        # Server tasks: busy time per class cycle (phase 1 + phase 2,
        # nested waits excluded but nested *service* included via the
        # zero-contention recursion).
        for task in model.server_tasks():
            busy = sum(
                class_visits.get(entry.name, 0.0)
                * (service(entry.name) + entry.phase2_demand)
                for entry in model.entries_of_task(task.name)
            )
            if busy > 0:
                bottlenecks[task.name] = task.multiplicity / busy
        # Processors: pure host demand per class cycle.
        for processor in model.processors.values():
            demand = sum(
                class_visits.get(entry.name, 0.0)
                * (entry.demand + entry.phase2_demand)
                for entry in model.entries.values()
                if model.tasks[entry.task].processor == processor.name
            )
            if demand > 0:
                bottlenecks[processor.name] = processor.multiplicity / demand

        bounds[reference.name] = ClassBounds(
            reference=reference.name,
            population_bound=population,
            bottlenecks=bottlenecks,
        )
    return bounds


def utilization_constraints(model: LQNModel) -> list[UtilizationConstraint]:
    """Joint Σ_r X_r·d_r ≤ m constraints for every shared resource."""
    model.validate()
    visits = reference_visits(model)
    constraints: list[UtilizationConstraint] = []

    for processor in model.processors.values():
        per_class: dict[str, float] = {}
        for reference in model.reference_tasks():
            demand = sum(
                visits[reference.name].get(entry.name, 0.0)
                * (entry.demand + entry.phase2_demand)
                for entry in model.entries.values()
                if model.tasks[entry.task].processor == processor.name
            )
            if demand > 0:
                per_class[reference.name] = demand
        if per_class:
            constraints.append(
                UtilizationConstraint(
                    resource=processor.name,
                    capacity=float(processor.multiplicity),
                    demand_per_class=per_class,
                )
            )
    return constraints
