"""The paper's literal state-space scan (§5, step 4).

Enumerates all 2^N up/down states of the unreliable tasks and
processors (application and management alike, plus any connectors given
a failure probability), evaluates knowledge-gated reconfiguration in
each state, and accumulates the probability of every distinct
operational configuration.

The loop is organised application-components-outer /
management-components-inner: the ``know`` expressions are partially
evaluated at the application state once, and the fault graph is
re-evaluated only for distinct knowledge-bit patterns.  This changes
nothing semantically — every one of the 2^N states is still visited —
but keeps the Python constant factor tolerable.

Application state ``i`` (0 ≤ i < 2^a) is decoded by
:func:`app_bits_for_index` in exactly the order
``itertools.product((True, False), repeat=a)`` would produce it, so the
outer loop is a plain index range scanned in order in one process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from collections.abc import Mapping

from repro.booleans.expr import Expr, FALSE, TRUE
from repro.core.progress import ProgressCallback, ProgressReporter, ScanCounters
from repro.errors import ModelError
from repro.ftlqn.fault_graph import FaultPropagationGraph

#: Canonical scan-method names and their accepted aliases.  ``interp``
#: is the CLI backend spelling of the interpreted enumerative scan.
_METHOD_ALIASES = {
    "enumeration": "enumeration",
    "interp": "enumeration",
    "bits": "bits",
    "bdd": "bdd",
    "bounded": "bounded",
}

#: Removed scan methods and the method that replaced each, so a stale
#: script or spec is told what to use instead.
_RETIRED_METHODS = {"factored": "bdd"}


def method_choices() -> tuple[str, ...]:
    """Every accepted scan method/backend spelling, sorted.

    The single source of truth for CLI ``choices=`` lists and error
    messages: adding a backend to :data:`_METHOD_ALIASES` updates every
    user-facing enumeration of valid names automatically.
    """
    return tuple(sorted(_METHOD_ALIASES))


def normalize_method(method: str) -> str:
    """Resolve a scan method/backend name to its canonical form.

    Accepts ``"enumeration"`` (alias ``"interp"``), ``"bits"``,
    ``"bdd"`` and ``"bounded"``; anything else raises
    :class:`~repro.errors.ModelError` (naming the replacement of a
    removed method).  Every entry point that takes a ``method``
    argument normalises through here, so aliases and errors behave
    identically everywhere (including sweep scan-cache keys).
    """
    if method in _RETIRED_METHODS:
        raise ModelError(
            f"method {method!r} was removed; use "
            f"{_RETIRED_METHODS[method]!r} instead"
        )
    canonical = _METHOD_ALIASES.get(method)
    if canonical is None:
        known = list(method_choices())
        raise ModelError(f"unknown method {method!r}; expected one of {known}")
    return canonical


@dataclass(frozen=True)
class StateSpaceProblem:
    """Inputs shared by every state-space scan backend.

    Attributes
    ----------
    graph:
        The fault propagation graph of the application.
    know_exprs:
        ``know[c, t]`` boolean expressions keyed by (component, task);
        empty together with ``perfect=True`` for the idealised analysis.
    perfect:
        If True, every task knows everything (no MAMA model).
    app_components:
        Unreliable FTLQN components (graph leaves), in a fixed order.
    mgmt_components:
        Unreliable management-only variables (agent/manager tasks,
        their processors, and any connectors with a failure
        probability), in a fixed order.
    fixed_up / fixed_down:
        Variables pinned up (perfectly reliable) or down (certain to be
        failed).
    up_probability:
        Probability of being operational for every unreliable variable.
    """

    graph: FaultPropagationGraph
    know_exprs: Mapping[tuple[str, str], Expr]
    perfect: bool
    app_components: tuple[str, ...]
    mgmt_components: tuple[str, ...]
    fixed_up: frozenset[str]
    fixed_down: frozenset[str]
    up_probability: Mapping[str, float]
    #: Common-cause coverage: leaf component -> the event variables that
    #: take it down when they fire (event variable True = event has NOT
    #: occurred, keeping "up" semantics uniform).
    leaf_causes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def state_count(self) -> int:
        """2^N over all unreliable entities (the paper's N)."""
        return 2 ** (len(self.app_components) + len(self.mgmt_components))

    @property
    def app_state_count(self) -> int:
        """2^a over the application-side entities (the outer loop)."""
        return 2 ** len(self.app_components)

    @property
    def mgmt_state_count(self) -> int:
        """2^m over the management-side entities (the inner loop)."""
        return 2 ** len(self.mgmt_components)

    def fixed_assignment(self) -> dict[str, bool]:
        assignment = {name: True for name in self.fixed_up}
        assignment.update({name: False for name in self.fixed_down})
        return assignment

    def _variable_value(self, name: str, app_state: Mapping[str, bool]) -> bool:
        if name in app_state:
            return app_state[name]
        return name not in self.fixed_down

    def leaf_state(self, app_state: Mapping[str, bool]) -> dict[str, bool]:
        """Total up/down state of the fault-graph leaves.

        A leaf is up iff its own variable is up and no common-cause
        event covering it has fired.
        """
        state: dict[str, bool] = {}
        for leaf in self.graph.leaves():
            name = leaf.name
            up = self._variable_value(name, app_state)
            if up:
                for event in self.leaf_causes.get(name, ()):
                    if not self._variable_value(event, app_state):
                        up = False
                        break
            state[name] = up
        return state


def app_bits_for_index(index: int, width: int) -> tuple[bool, ...]:
    """Decode outer-loop state ``index`` into up/down bits.

    Matches ``itertools.product((True, False), repeat=width)`` exactly:
    index 0 is all-up, the last component toggles fastest, and a set
    binary bit means *down* (``False``).
    """
    return tuple(
        (index >> (width - 1 - position)) & 1 == 0
        for position in range(width)
    )


def _state_probability(
    names: tuple[str, ...],
    bits: tuple[bool, ...],
    up_probability: Mapping[str, float],
) -> float:
    probability = 1.0
    for name, up in zip(names, bits):
        p_up = up_probability[name]
        probability *= p_up if up else 1.0 - p_up
    return probability


def _scan_states(
    problem: StateSpaceProblem,
    accumulator: dict[frozenset[str] | None, float],
    counters: ScanCounters,
    tick=None,
) -> None:
    """Scan every application state, in index order, into ``accumulator``.

    ``tick``, if given, is called after each application state with the
    number of raw states just covered (for progress reporting).
    """
    fixed = problem.fixed_assignment()
    pairs = list(problem.know_exprs)
    width = len(problem.app_components)
    mgmt_states = problem.mgmt_state_count

    for index in range(problem.app_state_count):
        app_bits = app_bits_for_index(index, width)
        app_state = dict(zip(problem.app_components, app_bits))
        counters.app_states_visited += 1
        p_app = _state_probability(
            problem.app_components, app_bits, problem.up_probability
        )
        if p_app == 0.0:
            # The whole management slice of this application state
            # contributes nothing; count it as covered.
            counters.states_visited += mgmt_states
            if tick is not None:
                tick(mgmt_states)
            continue
        leaf_state = problem.leaf_state(app_state)

        substitution = {**fixed, **app_state}
        reduced: dict[tuple[str, str], Expr] = {
            pair: expr.substitute(substitution)
            for pair, expr in problem.know_exprs.items()
        }

        config_memo: dict[tuple[bool, ...], frozenset[str] | None] = {}
        for mgmt_bits in product(
            (True, False), repeat=len(problem.mgmt_components)
        ):
            counters.states_visited += 1
            p_mgmt = _state_probability(
                problem.mgmt_components, mgmt_bits, problem.up_probability
            )
            if p_mgmt == 0.0:
                continue
            mgmt_state = dict(zip(problem.mgmt_components, mgmt_bits))
            if problem.perfect:
                bits: tuple[bool, ...] = ()
            else:
                bits = tuple(
                    expr is TRUE
                    or (expr is not FALSE and expr.evaluate(mgmt_state))
                    for expr in (reduced[pair] for pair in pairs)
                )
            configuration = config_memo.get(bits, _UNSET)
            if configuration is _UNSET:
                know_bits = dict(zip(pairs, bits))
                know = (
                    _always_true
                    if problem.perfect
                    else lambda c, t: know_bits[(c, t)]
                )
                configuration = problem.graph.evaluate(
                    leaf_state, know
                ).configuration
                config_memo[bits] = configuration
                counters.fault_graph_evaluations += 1
            else:
                counters.knowledge_cache_hits += 1
            accumulator[configuration] = (
                accumulator.get(configuration, 0.0) + p_app * p_mgmt
            )
        if tick is not None:
            tick(mgmt_states)


def enumerate_configurations(
    problem: StateSpaceProblem,
    *,
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> dict[frozenset[str] | None, float]:
    """Exact configuration probabilities by full 2^N enumeration.

    Parameters
    ----------
    progress:
        Optional :data:`~repro.core.progress.ProgressCallback`; invoked
        with phase ``"scan"`` after each application state.
    counters:
        Optional :class:`~repro.core.progress.ScanCounters` to fill; a
        private instance is used when omitted.
    """
    if counters is None:
        counters = ScanCounters()
    reporter = ProgressReporter(progress)
    total_states = problem.state_count
    started = time.perf_counter()
    accumulator: dict[frozenset[str] | None, float] = {}

    def tick(states_covered: int) -> None:
        reporter.emit("scan", counters.states_visited, total_states, counters)

    _scan_states(
        problem, accumulator, counters, tick=tick if reporter.active else None
    )

    counters.record_level("distinct_configurations", len(accumulator))
    counters.scan_seconds += time.perf_counter() - started
    reporter.emit(
        "scan", counters.states_visited, total_states, counters, force=True
    )
    return accumulator


_UNSET = object()


def _always_true(component: str, task: str) -> bool:
    return True
