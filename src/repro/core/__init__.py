"""The paper's primary contribution: coverage-aware performability.

:class:`PerformabilityAnalyzer` wires everything together:

1. derive the fault propagation graph from the FTLQN model (§3);
2. derive the knowledge propagation graph and ``know`` expressions from
   the MAMA model (§4);
3. scan the space of component up/down states, evaluating
   knowledge-gated reconfiguration (Definition 1) in each, to find the
   distinct operational configurations and their probabilities (§5,
   steps 1–4) — by the paper's literal 2^N enumeration
   (:mod:`repro.core.enumeration`), the compiled bit-parallel kernel
   (:mod:`repro.core.kernel`), the fully symbolic ROBDD backend
   (:mod:`repro.core.symbolic`, the default) that realises the §7
   conjecture of a non-state-space-based computation, or the bounded
   most-probable-first enumerator (:mod:`repro.core.bounded`);
4. solve one LQN per configuration and attach rewards (§5, step 5);
5. report the expected steady-state reward rate (§5, step 6).
"""

from repro.core.bounded import (
    DEFAULT_EPSILON,
    bounded_configurations,
    nominal_configuration,
)
from repro.core.dependency import CommonCause
from repro.core.enumeration import method_choices, normalize_method
from repro.core.importance import ImportanceRecord, importance_analysis
from repro.core.kernel import (
    CompiledKernel,
    bitset_configurations,
    compile_problem,
)
from repro.core.symbolic import bdd_configurations, build_indicator_bdd
from repro.core.performability import (
    AnalysisStructure,
    BatchSolver,
    LQNCoordinator,
    PerformabilityAnalyzer,
    derive_structure,
)
from repro.core.sweep import (
    SweepEngine,
    SweepPoint,
    SweepPointResult,
    SweepResult,
)
from repro.core.temporal import (
    EffectiveReward,
    ErosionPoint,
    TemporalAnalyzer,
    TemporalPoint,
    TemporalResult,
    architecture_detection_latency,
    notification_hops,
    time_grid,
)
from repro.core.progress import (
    ProgressCallback,
    ProgressEvent,
    ProgressReporter,
    ScanCounters,
    console_progress,
)
from repro.core.results import ConfigurationRecord, PerformabilityResult
from repro.core.rewards import (
    total_reference_throughput,
    weighted_throughput_reward,
)
from repro.core.configuration import configuration_to_lqn, group_support

__all__ = [
    "AnalysisStructure",
    "BatchSolver",
    "CommonCause",
    "LQNCoordinator",
    "CompiledKernel",
    "DEFAULT_EPSILON",
    "ConfigurationRecord",
    "EffectiveReward",
    "ErosionPoint",
    "ImportanceRecord",
    "PerformabilityAnalyzer",
    "PerformabilityResult",
    "ProgressCallback",
    "ProgressEvent",
    "ProgressReporter",
    "ScanCounters",
    "SweepEngine",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "TemporalAnalyzer",
    "TemporalPoint",
    "TemporalResult",
    "architecture_detection_latency",
    "bdd_configurations",
    "bitset_configurations",
    "bounded_configurations",
    "build_indicator_bdd",
    "compile_problem",
    "configuration_to_lqn",
    "console_progress",
    "derive_structure",
    "group_support",
    "importance_analysis",
    "method_choices",
    "nominal_configuration",
    "normalize_method",
    "notification_hops",
    "time_grid",
    "total_reference_throughput",
    "weighted_throughput_reward",
]
