"""Symbolic (ROBDD) configuration-probability backend: past the 2^N wall.

Every scanning backend — interpreted enumeration, the compiled bit
kernel — ultimately *visits* states: their cost is Θ(2^N) with
different constant factors, which walls the analysis off around
N ≈ 20 unreliable components.  This module evaluates the same §5 step-4 semantics without
visiting any state at all:

1. **Symbolic derivation** reuses
   :func:`repro.core.kernel.derive_indicators` — one Boolean indicator
   expression for "the system works" (Definition 1) plus one
   "this node is part of the configuration in use" expression per
   non-leaf fault-graph node (Definition 2), over the unreliable
   component variables, knowledge gating already substituted in.
   Because expressions are hash-consed the indicator set is a compact
   DAG.

2. **ROBDD compilation** converts that DAG into one shared
   :class:`repro.booleans.bdd.BDD` manager (memoised per DAG node, so
   shared subterms convert once).  The diagram size depends on the
   *structure* of the fault/knowledge logic, not on 2^N — replicated
   and layered topologies compile to polynomially many nodes.

3. **Signature splitting + weighted traversal**
   (:meth:`~repro.booleans.bdd.BDD.signature_masses`) partitions the
   state space by the joint truth signature of all indicators — each
   reachable signature *is* one distinct configuration — and computes
   each part's exact probability by one weighted traversal, linear in
   diagram size.  Work scales with (number of distinct configurations)
   × (diagram size), never with 2^N.

The result is exactly the configuration → probability map of the other
backends (parity-gated at 1e-12 by the differential oracle and
``BENCH_statespace.json``), but a 100-component replicated topology —
2^100 states, forever out of reach of any scanning backend — solves
exactly in a couple of seconds.
"""

from __future__ import annotations

import time

from repro.booleans.bdd import BDD
from repro.core.enumeration import StateSpaceProblem
from repro.core.kernel import SymbolicIndicators, derive_indicators
from repro.core.progress import ProgressCallback, ProgressReporter, ScanCounters


def problem_variables(problem: StateSpaceProblem) -> tuple[str, ...]:
    """The unreliable variables, in the canonical backend order.

    Application components first, then management components — the same
    order the bit kernel packs into state-index bits, so diagnostics
    line up across backends.
    """
    return problem.app_components + problem.mgmt_components


def build_indicator_bdd(
    problem: StateSpaceProblem,
    indicators: SymbolicIndicators | None = None,
) -> tuple[BDD, list[int]]:
    """Compile a problem's indicator DAG into one shared ROBDD.

    Returns the manager and the output node list: outputs[0] is the
    root ("system working") indicator, outputs[1 + i] the in-use
    indicator of the i-th configuration node (sorted by name, matching
    :class:`~repro.core.kernel.SymbolicIndicators`).
    """
    if indicators is None:
        indicators = derive_indicators(problem)
    manager = BDD(problem_variables(problem))
    outputs = [manager.from_expr(indicators.root)]
    outputs.extend(
        manager.from_expr(expr) for _, expr in indicators.in_use
    )
    return manager, outputs


def bdd_configurations(
    problem: StateSpaceProblem,
    *,
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> dict[frozenset[str] | None, float]:
    """Exact configuration probabilities by symbolic ROBDD evaluation.

    Drop-in alternative to the scanning backends: same inputs, same
    configuration → probability map (up to floating-point summation
    order), same ``progress``/``counters`` protocol.  Unlike them its
    cost is polynomial in the shared diagram size — the only backend
    that remains exact when N is in the hundreds.

    Fills ``counters.bdd_nodes`` (total allocated diagram nodes) and
    ``counters.bdd_cache_hits`` (apply-cache hits); ``states_visited``
    advances by the full 2^N covered symbolically, so every exact
    backend ends at the same total.
    """
    if counters is None:
        counters = ScanCounters()
    reporter = ProgressReporter(progress)
    total_states = problem.state_count
    started = time.perf_counter()

    indicators = derive_indicators(problem)
    manager, outputs = build_indicator_bdd(problem, indicators)
    up_probability = {
        name: problem.up_probability[name]
        for name in problem_variables(problem)
    }
    masses = manager.signature_masses(outputs, up_probability)

    config_nodes = tuple(name for name, _ in indicators.in_use)
    accumulator: dict[frozenset[str] | None, float] = {}
    for signature, mass in sorted(masses.items()):
        if not signature[0]:  # root not working
            configuration: frozenset[str] | None = None
        else:
            configuration = frozenset(
                name
                for name, in_use in zip(config_nodes, signature[1:])
                if in_use
            )
        accumulator[configuration] = (
            accumulator.get(configuration, 0.0) + mass
        )

    counters.states_visited += total_states
    counters.bdd_nodes += len(manager)
    counters.bdd_cache_hits += manager.apply_cache_hits
    counters.record_level("distinct_configurations", len(accumulator))
    counters.scan_seconds += time.perf_counter() - started
    reporter.emit(
        "scan", counters.states_visited, total_states, counters, force=True
    )
    return accumulator
