"""Bounded most-probable-states-first enumeration with rigorous bounds.

The third way between exact scanning (2^N states) and the fully
symbolic ``bdd`` backend: enumerate individual component states **in
decreasing probability order** and stop once the probability mass left
unexplored drops below a target ε.  Because every state's probability
is known exactly, the leftover mass ``1 - Σ enumerated`` is a rigorous
bound, and downstream reward evaluation can report a guaranteed
``[lower, upper]`` interval (see
:meth:`~repro.core.performability.PerformabilityAnalyzer.evaluate_probabilities`)
that tightens monotonically as ε shrinks — at ε = 0 the enumeration is
exhaustive and the interval collapses to the exact value.

Why it works: with independent per-component up probabilities, each
state's probability is a product of factors.  Start from the *base
state* where every variable sits at its likelier value (probability
``Π max(p, 1-p)``, the global maximum).  Flipping variable ``j`` away
from its likely value multiplies the probability by the flip ratio
``r_j = min(p_j, 1-p_j) / max(p_j, 1-p_j) ≤ 1``, so a state's
probability is the base probability times the product of its flips'
ratios.  With ratios sorted descending, the classic append /
replace-last successor scheme enumerates every flip subset exactly
once, each child no more probable than its parent, so a heap pops
states in globally decreasing probability order — the fewest states
per unit of mass retired.  For highly available components (p_fail ≤
1e-3) the mass collapses onto a tiny neighbourhood of the base state:
a 100-component system covers 1 - 1e-4 of its 2^100 ≈ 1.3e30 states
with a few thousand concrete states.  When failure probabilities are
large the mass spreads binomially and no enumeration order helps —
that regime belongs to the exact ``bdd`` backend (see
``docs/algorithms_guide.md`` for the decision table).

Popped states are evaluated in batches through the same
:class:`~repro.core.kernel.CompiledKernel` bitwise program as the
``bits`` backend — 4096 states per pass, one numpy word-op per
instruction — so the per-state cost is a few hundred nanoseconds
instead of a Python-level fault-graph walk.  The evaluation path is
deliberately unrelated to the ROBDD machinery, so the differential
oracle's bdd/bounded cross-check exercises two independent
implementations of the §5 semantics.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Mapping

import numpy as np

from repro.booleans.expr import FALSE, TRUE, And, Expr, Not, Or, Var
from repro.core.enumeration import StateSpaceProblem
from repro.core.kernel import _AND, _OR, CompiledKernel, compile_problem
from repro.core.kernel import derive_indicators
from repro.core.progress import ProgressCallback, ProgressReporter, ScanCounters

#: Default leftover-mass target: stop once the unexplored states hold
#: less than this much probability.
DEFAULT_EPSILON = 1e-9

#: States evaluated per compiled-kernel pass (64 words of 64 states).
_BATCH_STATES = 4096

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BIT = tuple(np.uint64(1 << b) for b in range(64))


def evaluate_dag(exprs: list[Expr], assignment: Mapping[str, bool]) -> list[bool]:
    """Evaluate several hash-consed expressions under one assignment.

    Unlike :meth:`Expr.evaluate`, which recurses per *path*, this walks
    the shared DAG with a memo, so each distinct subterm is evaluated
    once — essential when the indicator expressions share almost all
    their structure (a service's ``working`` condition is referenced by
    every parent).
    """
    cache: dict[Expr, bool] = {}

    def walk(expr: Expr) -> bool:
        found = cache.get(expr)
        if found is not None:
            return found
        if expr == TRUE:
            value = True
        elif expr == FALSE:
            value = False
        elif isinstance(expr, Var):
            value = bool(assignment[expr.name])
        elif isinstance(expr, Not):
            value = not walk(expr.operand)
        elif isinstance(expr, And):
            value = all(walk(term) for term in expr.terms)
        elif isinstance(expr, Or):
            value = any(walk(term) for term in expr.terms)
        else:
            raise TypeError(f"cannot evaluate {type(expr).__name__}")
        cache[expr] = value
        return value

    return [walk(expr) for expr in exprs]


def nominal_configuration(problem: StateSpaceProblem) -> frozenset[str] | None:
    """The configuration in use when every component is operational.

    This is the natural reward ceiling for well-formed models (repair
    actions reconfigure *around* failures; they do not create capacity
    that the fully-up system lacks), and is what
    ``evaluate_probabilities`` uses to bound the reward of states the
    bounded backend did not enumerate.
    """
    indicators = derive_indicators(problem)
    all_up = {
        name: True
        for name in problem.app_components + problem.mgmt_components
    }
    values = evaluate_dag(
        [indicators.root, *(expr for _, expr in indicators.in_use)], all_up
    )
    if not values[0]:
        return None
    return frozenset(
        name
        for (name, _), in_use in zip(indicators.in_use, values[1:])
        if in_use
    )


class _BatchEvaluator:
    """Evaluate arbitrary sets of states through a compiled kernel.

    The ``bits`` backend's :class:`_KernelRun` walks *consecutive*
    state indices; here the heap hands us an arbitrary set, so each
    batch rebuilds the variable registers from the likely-value base
    pattern and XORs in the flipped bits, then runs the same bitwise
    program and groups states by output signature.
    """

    def __init__(self, kernel: CompiledKernel, likely_up: list[bool]):
        self.kernel = kernel
        self.likely_up = likely_up
        self.words = _BATCH_STATES >> 6
        self.key_columns = (len(kernel.outputs) + 63) // 64
        self._signature_configs: dict[object, frozenset[str] | None] = {}

    def run(
        self, batch: list[tuple[tuple[int, ...], float]],
        flip_register: list[int],
    ) -> dict[frozenset[str] | None, float]:
        """Evaluate ``(flips, mass)`` states; return config → mass."""
        kernel = self.kernel
        count = len(batch)
        registers: list[np.ndarray] = [
            np.full(
                self.words,
                _ALL_ONES if self.likely_up[j] else np.uint64(0),
                dtype=np.uint64,
            )
            for j in range(len(kernel.variables))
        ]
        for index, (flips, _) in enumerate(batch):
            word, bit = index >> 6, _BIT[index & 63]
            for flip in flips:
                registers[flip_register[flip]][word] ^= bit
        registers.append(np.full(self.words, _ALL_ONES, dtype=np.uint64))
        registers.append(np.zeros(self.words, dtype=np.uint64))
        registers.extend(
            np.empty(self.words, dtype=np.uint64)
            for _ in range(kernel.register_count - len(registers))
        )

        bitwise_and, bitwise_or, invert = (
            np.bitwise_and, np.bitwise_or, np.invert
        )
        for op, dst, a, b in kernel.program:
            if op == _AND:
                bitwise_and(registers[a], registers[b], out=registers[dst])
            elif op == _OR:
                bitwise_or(registers[a], registers[b], out=registers[dst])
            else:
                invert(registers[a], out=registers[dst])

        masses = np.array([mass for _, mass in batch], dtype=np.float64)
        if self.key_columns == 1:
            keys = np.zeros(count, dtype=np.uint64)
            for position, register in enumerate(kernel.outputs):
                bits = np.unpackbits(
                    registers[register].view(np.uint8), bitorder="little"
                )[:count]
                keys |= bits.astype(np.uint64) << np.uint64(position)
            signatures, inverse = np.unique(keys, return_inverse=True)
            grouped = np.bincount(
                inverse.ravel(), weights=masses, minlength=len(signatures)
            )
            groups = zip(signatures.tolist(), grouped.tolist())
        else:
            keys = np.zeros((count, self.key_columns), dtype=np.uint64)
            for position, register in enumerate(kernel.outputs):
                bits = np.unpackbits(
                    registers[register].view(np.uint8), bitorder="little"
                )[:count]
                keys[:, position // 64] |= bits.astype(np.uint64) << np.uint64(
                    position % 64
                )
            rows, inverse = np.unique(keys, axis=0, return_inverse=True)
            grouped = np.bincount(
                inverse.ravel(), weights=masses, minlength=len(rows)
            )
            groups = zip((tuple(row) for row in rows.tolist()), grouped.tolist())

        result: dict[frozenset[str] | None, float] = {}
        for signature, mass in groups:
            configuration = self._configuration_of(signature)
            result[configuration] = result.get(configuration, 0.0) + mass
        return result

    def _configuration_of(self, signature) -> frozenset[str] | None:
        found = self._signature_configs.get(signature, _UNSET)
        if found is not _UNSET:
            return found
        words = (signature,) if self.key_columns == 1 else signature
        if not words[0] & 1:  # output 0: root not working
            configuration = None
        else:
            configuration = frozenset(
                name
                for index, name in enumerate(self.kernel.config_nodes)
                if (words[(index + 1) // 64] >> ((index + 1) % 64)) & 1
            )
        self._signature_configs[signature] = configuration
        return configuration


_UNSET = object()


def bounded_configurations(
    problem: StateSpaceProblem,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_states: int | None = None,
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> dict[frozenset[str] | None, float]:
    """Partial configuration probabilities covering mass ≥ 1 - ε.

    Enumerates states in decreasing probability order until the
    leftover mass drops to ``epsilon`` (or ``max_states`` states have
    been visited, if given).  The returned map is exact on every
    enumerated state but *sums to less than one*: the deficit
    ``1 - Σ values`` is precisely the unexplored mass, which
    ``evaluate_probabilities`` turns into a rigorous reward interval.
    With ``epsilon=0.0`` and no ``max_states`` the enumeration is
    exhaustive and the result matches the exact backends.

    ``counters.enumerated_mass`` records the covered mass;
    ``states_visited`` counts only states actually popped (compare with
    the exact backends, which always charge the full 2^N);
    ``kernel_batches``/``kernel_instructions`` count the compiled-
    kernel evaluation passes exactly as for the ``bits`` backend.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if counters is None:
        counters = ScanCounters()
    reporter = ProgressReporter(progress)
    total_states = problem.state_count
    started = time.perf_counter()

    kernel = compile_problem(problem)
    counters.record_level("kernel_instructions", len(kernel.program))

    likely_up: list[bool] = []
    base_probability = 1.0
    ranked: list[tuple[float, int]] = []  # (flip ratio, register index)
    for j, name in enumerate(kernel.variables):
        p = kernel.up_probability[j]
        up_is_likely = p >= 0.5
        likely_up.append(up_is_likely)
        major = p if up_is_likely else 1.0 - p
        base_probability *= major
        ranked.append(((1.0 - major) / major, j))
    ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    ratios = [ratio for ratio, _ in ranked]
    flip_register = [register for _, register in ranked]

    evaluator = _BatchEvaluator(kernel, likely_up)
    accumulator: dict[frozenset[str] | None, float] = {}
    enumerated_mass = 0.0
    popped = 0
    pending: list[tuple[tuple[int, ...], float]] = []
    pending_mass = 0.0

    def flush() -> None:
        nonlocal pending, pending_mass, enumerated_mass, popped
        if not pending:
            return
        for configuration, mass in evaluator.run(pending, flip_register).items():
            accumulator[configuration] = (
                accumulator.get(configuration, 0.0) + mass
            )
        enumerated_mass += pending_mass
        popped += len(pending)
        counters.states_visited += len(pending)
        counters.kernel_batches += 1
        pending = []
        pending_mass = 0.0
        reporter.emit("scan", popped, total_states, counters)

    # Heap of (-probability, flip set) over ranked flip indices; the
    # append / replace-last successor scheme over the descending ratio
    # order generates every flip subset exactly once, children never
    # more probable than their parent.
    heap: list[tuple[float, tuple[int, ...]]] = [(-base_probability, ())]
    while heap:
        if 1.0 - (enumerated_mass + pending_mass) <= epsilon:
            break
        if max_states is not None and popped + len(pending) >= max_states:
            break
        negative, flips = heapq.heappop(heap)
        mass = -negative
        if mass <= 0.0:
            break  # only zero-probability states remain
        pending.append((flips, mass))
        pending_mass += mass
        if len(pending) == _BATCH_STATES:
            flush()
        last = flips[-1] if flips else -1
        succ = last + 1
        if succ < len(ratios) and ratios[succ] > 0.0:
            heapq.heappush(heap, (negative * ratios[succ], flips + (succ,)))
            if flips:
                heapq.heappush(
                    heap,
                    (negative * ratios[succ] / ratios[last], flips[:-1] + (succ,)),
                )
    flush()

    counters.enumerated_mass += enumerated_mass
    counters.record_level("distinct_configurations", len(accumulator))
    counters.scan_seconds += time.perf_counter() - started
    reporter.emit("scan", popped, total_states, counters, force=True)
    return accumulator
