"""repro — coverage and performability of fault-management architectures.

A from-scratch reproduction of O. Das and C. M. Woodside, *Modeling the
Coverage and Effectiveness of Fault-Management Architectures in Layered
Distributed Systems* (DSN 2002), packaged as a reusable library:

* :mod:`repro.ftlqn` — fault-tolerant layered queueing network models
  and their AND-OR fault propagation graphs;
* :mod:`repro.mama` — management-architecture models (agents, managers,
  watch/notify connectors), knowledge propagation and ``know`` functions;
* :mod:`repro.booleans` — boolean expressions and BDDs for exact
  probabilities;
* :mod:`repro.lqn` — a layered queueing network solver (MVA-based);
* :mod:`repro.core` — the coverage-aware performability algorithm, with
  both the paper's 2^N enumeration and an exact symbolic (BDD) backend;
* :mod:`repro.markov` — CTMC/Markov-reward substrate and the
  detection-delay extension;
* :mod:`repro.sim` — discrete-event simulators validating all of the
  above;
* :mod:`repro.experiments` — one runnable module per table/figure of
  the paper's evaluation.

Quickstart
----------
>>> from repro import PerformabilityAnalyzer
>>> from repro.experiments import figure1_system, centralized_mama
>>> from repro.experiments import figure1_failure_probs
>>> mama = centralized_mama()
>>> analyzer = PerformabilityAnalyzer(
...     figure1_system(), mama, failure_probs=figure1_failure_probs(mama))
>>> result = analyzer.solve()
>>> round(result.failed_probability, 3)
0.354
"""

from repro.core import (
    DEFAULT_EPSILON,
    ConfigurationRecord,
    PerformabilityAnalyzer,
    PerformabilityResult,
    ProgressEvent,
    ScanCounters,
    SweepEngine,
    SweepPoint,
    SweepResult,
    configuration_to_lqn,
    console_progress,
    method_choices,
    total_reference_throughput,
    weighted_throughput_reward,
)
from repro.errors import (
    ConvergenceError,
    ModelError,
    ReproError,
    SerializationError,
    SolverError,
)
from repro.ftlqn import FTLQNModel, build_fault_graph
from repro.lqn import LQNModel, solve_lqn
from repro.mama import KnowledgeGraph, MAMAModel

__version__ = "1.0.0"

__all__ = [
    "ConfigurationRecord",
    "ConvergenceError",
    "DEFAULT_EPSILON",
    "FTLQNModel",
    "KnowledgeGraph",
    "LQNModel",
    "MAMAModel",
    "ModelError",
    "PerformabilityAnalyzer",
    "PerformabilityResult",
    "ProgressEvent",
    "ReproError",
    "ScanCounters",
    "SerializationError",
    "SolverError",
    "SweepEngine",
    "SweepPoint",
    "SweepResult",
    "__version__",
    "build_fault_graph",
    "configuration_to_lqn",
    "console_progress",
    "method_choices",
    "solve_lqn",
    "total_reference_throughput",
    "weighted_throughput_reward",
]
