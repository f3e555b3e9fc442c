"""Differential verification: fuzzer, cross-backend oracle, shrinker.

The subsystem turns backend parity from a fixed test list into a
continuously explored property:

- :mod:`repro.verify.generator` draws random layered scenarios from a
  configurable :class:`ScenarioSpace` (perfect components, zero/one
  failure probabilities, shared processors, deep backup chains,
  unreliable connectors, common causes);
- :mod:`repro.verify.oracle` replays each scenario through every
  analytic backend, demanding 1e-12 agreement,
  and optionally cross-checks availability and expected reward against
  the Monte-Carlo simulation inside a Student-t confidence interval;
- :mod:`repro.verify.shrink` delta-debugs any disagreement down to a
  minimal counterexample and renders it as a standalone repro script
  plus a corpus entry for ``tests/corpus/counterexamples.json``;
- :mod:`repro.verify.fuzz` is the campaign driver behind the
  ``repro verify`` CLI subcommand and ``make fuzz``.
"""

from repro.verify.fuzz import FuzzReport, SeedOutcome, run_fuzz
from repro.verify.generator import (
    DEFAULT_SPACE,
    Scenario,
    ScenarioSpace,
    TemporalSpec,
    generate_scenario,
    random_scenario,
)
from repro.verify.oracle import (
    BACKEND_NAMES,
    DEFAULT_ORACLE_CONFIG,
    Disagreement,
    OracleConfig,
    OracleReport,
    check_scenario,
    default_backends,
)
from repro.verify.shrink import (
    ShrinkResult,
    corpus_entry,
    load_corpus,
    repro_script,
    shrink_scenario,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_ORACLE_CONFIG",
    "DEFAULT_SPACE",
    "Disagreement",
    "FuzzReport",
    "OracleConfig",
    "OracleReport",
    "Scenario",
    "ScenarioSpace",
    "SeedOutcome",
    "ShrinkResult",
    "TemporalSpec",
    "check_scenario",
    "corpus_entry",
    "default_backends",
    "generate_scenario",
    "load_corpus",
    "random_scenario",
    "repro_script",
    "run_fuzz",
    "shrink_scenario",
]
