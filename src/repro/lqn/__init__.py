"""Layered Queueing Network (LQN) modelling and solution.

The paper solves one ordinary LQN per operational configuration with the
LQNS tool [14]; that tool is closed academic software, so this package
implements the substrate from scratch:

* :mod:`repro.lqn.model` — processors, tasks, entries and synchronous
  calls (blocking RPC semantics).
* :mod:`repro.lqn.mva` — exact and approximate (Bard–Schweitzer) Mean
  Value Analysis for closed multi-class queueing networks; the building
  block of the layered solver and independently usable.
* :mod:`repro.lqn.solver` — a Method-of-Layers-style fixed-point solver
  alternating software-contention submodels (one per server task) and
  hardware-contention submodels (one per processor).
* :mod:`repro.lqn.results` — the result container.

The solver is cross-validated against the discrete-event simulator in
:mod:`repro.sim.lqn_sim` (see ``tests/lqn`` and the validation bench).
"""

from repro.lqn.bounds import (
    ClassBounds,
    UtilizationConstraint,
    throughput_bounds,
    utilization_constraints,
)
from repro.lqn.model import LQNCall, LQNEntry, LQNModel, LQNProcessor, LQNTask
from repro.lqn.mva import (
    BatchMVAResult,
    Discipline,
    MVAResult,
    Station,
    StationKind,
    exact_mva,
    schweitzer_mva,
    schweitzer_mva_batch,
)
from repro.lqn.results import LQNResults
from repro.lqn.solver import solve_lqn, solve_lqn_batch

__all__ = [
    "BatchMVAResult",
    "ClassBounds",
    "Discipline",
    "LQNCall",
    "LQNEntry",
    "LQNModel",
    "LQNProcessor",
    "LQNTask",
    "LQNResults",
    "MVAResult",
    "Station",
    "StationKind",
    "UtilizationConstraint",
    "exact_mva",
    "schweitzer_mva",
    "schweitzer_mva_batch",
    "solve_lqn",
    "solve_lqn_batch",
    "throughput_bounds",
    "utilization_constraints",
]
