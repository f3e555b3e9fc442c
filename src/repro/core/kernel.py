"""Bit-parallel compiled scan kernel: 64+ states per instruction.

The interpreted evaluators walk Python ``Expr`` trees once per state,
so the per-state constant factor — attribute lookups, dict probes,
recursive calls — dominates the 2^N scan long before the state count
does.  This module removes the interpreter from the hot loop entirely:

1. **Symbolic derivation** (:func:`derive_indicators`) re-runs the
   fault-propagation semantics of
   :meth:`repro.ftlqn.fault_graph.FaultPropagationGraph.evaluate`
   *symbolically*, over :class:`~repro.booleans.expr.Expr` values
   instead of booleans.  The result is one boolean indicator expression
   per observable output — "the system is working" plus, for every
   non-leaf fault-graph node, "this node is part of the configuration
   in use" — over the unreliable component variables.  Because the
   expression constructors hash-cons, shared subterms (a service's
   ``working`` condition, a ``know`` minpath) are shared *nodes*, so
   the expression set is a DAG.

2. **Compilation** (:func:`compile_problem`) lowers that DAG into a
   topologically-ordered straight-line program of AND/OR/NOT
   instructions over virtual registers.  Common subexpressions compile
   exactly once (the memo is keyed by hash-consed node), and registers
   are recycled with a last-use free list, so the register file stays
   small enough to live in cache.

3. **Evaluation** (:func:`bitset_configurations`) runs the program over
   bit-packed state vectors: one ``numpy.uint64`` word holds 64
   consecutive states, a batch holds ``2**batch_bits`` of them, and one
   ``numpy`` array op per instruction evaluates the whole batch.  The
   configuration-indicator outputs of each batch are packed into
   per-state signature keys, grouped with ``numpy.unique``, and each
   group's probability mass is accumulated with one vectorized
   ``bincount`` over the per-state weight products.

The result is numerically equal to the interpreted scan (same states,
same per-state probabilities) up to floating-point summation order —
the parity tests assert agreement within 1e-12 on every experiment
suite — while evaluating tens of thousands of states per Python-level
instruction dispatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.booleans.expr import (
    And,
    Expr,
    FALSE,
    Not,
    Or,
    TRUE,
    Var,
    _Constant,
    all_of,
    any_of,
)
from repro.core.enumeration import StateSpaceProblem
from repro.core.progress import ProgressCallback, ProgressReporter, ScanCounters
from repro.errors import ModelError
from repro.ftlqn.fault_graph import FaultPropagationGraph, NodeKind, ROOT

#: States per evaluation batch is ``2**DEFAULT_BATCH_BITS`` (capped at
#: the model's 2^N): 2^14 states = 256 words = 2 KiB per register, so a
#: few dozen live registers fit comfortably in L1/L2 cache.
DEFAULT_BATCH_BITS = 14

# Instruction opcodes.
_AND, _OR, _NOT = 0, 1, 2

#: ``_LOW_MASKS[j]``: the uint64 whose bit k is set iff state ``k`` of a
#: word has variable ``j`` *up* (a state's variable j is down iff bit j
#: of the state index is set, so "up" selects index bits equal to 0).
_LOW_MASKS = tuple(
    sum(1 << k for k in range(64) if not (k >> j) & 1) for j in range(6)
)


@dataclass(frozen=True)
class SymbolicIndicators:
    """The observable outputs of one scan, as boolean expressions.

    ``root`` is Definition 1 for the whole system ("some reference
    entry works"); ``in_use`` maps every non-leaf fault-graph node to
    Definition 2 membership ("the node is part of the operational
    configuration in use").  All expressions range over the unreliable
    component variables of the :class:`StateSpaceProblem`; fixed
    components are already folded to constants.
    """

    root: Expr
    in_use: tuple[tuple[str, Expr], ...]


def derive_indicators(problem: StateSpaceProblem) -> SymbolicIndicators:
    """Symbolically evaluate the fault graph over expression values.

    This mirrors :meth:`FaultPropagationGraph.evaluate` — Definition 1
    working/selection semantics, ``known_working``/``known_failed``
    knowledge gating, and the Definition 2 configuration extraction —
    but propagates :class:`~repro.booleans.expr.Expr` values instead of
    booleans, with the partially-evaluated ``know`` expressions
    substituted in place of knowledge bits.
    """
    graph: FaultPropagationGraph = problem.graph
    nodes = graph.nodes
    fixed = problem.fixed_assignment()
    app_vars = set(problem.app_components)

    def variable_value(name: str) -> Expr:
        # Mirror of StateSpaceProblem._variable_value: application-side
        # variables stay symbolic, everything else is pinned up unless
        # explicitly fixed down.
        if name in app_vars:
            return Var(name)
        return FALSE if name in problem.fixed_down else TRUE

    def leaf_up(name: str) -> Expr:
        # Mirror of StateSpaceProblem.leaf_state: a leaf is up iff its
        # own variable is up and no covering common-cause event fired.
        terms = [variable_value(name)]
        terms.extend(
            variable_value(event) for event in problem.leaf_causes.get(name, ())
        )
        return all_of(terms)

    if problem.perfect:
        know_of = {}
    else:
        know_of = {
            pair: expr.substitute(fixed)
            for pair, expr in problem.know_exprs.items()
        }

    def know(component: str, task: str) -> Expr:
        if problem.perfect:
            return TRUE
        # A pair never derived from the MAMA model: the task has no way
        # to learn this component's state (same fallback as the
        # enumerative scan).
        return know_of.get((component, task), FALSE)

    working: dict[str, Expr] = {}
    selected: dict[tuple[str, int], Expr] = {}
    kw_memo: dict[tuple[str, str], Expr] = {}
    kf_memo: dict[tuple[str, str], Expr] = {}

    def w(name: str) -> Expr:
        value = working.get(name)
        if value is not None:
            return value
        node = nodes[name]
        if node.is_leaf:
            value = leaf_up(name)
        elif node.kind is NodeKind.ENTRY:
            value = all_of(w(child) for child in node.children)
        elif node.kind is NodeKind.ROOT:
            value = any_of(w(child) for child in node.children)
        else:  # SERVICE
            value = any_of(
                sel(name, index) for index in range(len(node.children))
            )
        working[name] = value
        return value

    def sel(service: str, index: int) -> Expr:
        """Definition 1 target selection: target ``index`` is chosen iff
        it is the highest-priority working alternative, the decider
        knows it works, and the decider knows every higher-priority
        alternative failed."""
        value = selected.get((service, index))
        if value is not None:
            return value
        node = nodes[service]
        decider = node.decider
        target = node.children[index]
        terms = [w(target)]
        terms.extend(~w(node.children[j]) for j in range(index))
        terms.append(kw(target, decider))
        terms.extend(kf(node.children[j], decider) for j in range(index))
        value = all_of(terms)
        selected[(service, index)] = value
        return value

    def kw(name: str, task: str) -> Expr:
        """known_working: the node works and ``task`` can tell."""
        value = kw_memo.get((name, task))
        if value is not None:
            return value
        node = nodes[name]
        if node.is_leaf:
            value = leaf_up(name) & know(name, task)
        elif node.kind is NodeKind.ENTRY:
            value = all_of(
                [w(name)] + [kw(child, task) for child in node.children]
            )
        elif node.kind is NodeKind.SERVICE:
            value = any_of(
                sel(name, index) & kw(node.children[index], task)
                for index in range(len(node.children))
            )
        else:
            raise ModelError(
                f"known_working undefined for node kind {node.kind}"
            )
        kw_memo[(name, task)] = value
        return value

    def kf(name: str, task: str) -> Expr:
        """known_failed: the node failed and ``task`` can tell."""
        value = kf_memo.get((name, task))
        if value is not None:
            return value
        node = nodes[name]
        if node.is_leaf:
            value = ~leaf_up(name) & know(name, task)
        elif node.kind is NodeKind.ENTRY:
            # Knowing any one failed contributor suffices for an AND.
            value = ~w(name) & any_of(
                ~w(child) & kf(child, task) for child in node.children
            )
        elif node.kind is NodeKind.SERVICE:
            # To know an OR failed, every alternative must be known
            # failed.
            value = all_of(
                [~w(name)] + [kf(child, task) for child in node.children]
            )
        else:
            raise ModelError(
                f"known_failed undefined for node kind {node.kind}"
            )
        kf_memo[(name, task)] = value
        return value

    # Definition 2, as forward reachability from the root: a non-leaf
    # node is in use iff some in-use parent reaches it — entries reach
    # every non-leaf child, services reach their selected target only.
    root_children = set(graph.root.children)
    parent_edges: dict[str, list[tuple[str, int | None]]] = {}
    for node in nodes.values():
        if node.kind is NodeKind.ENTRY:
            for child in node.children:
                if not nodes[child].is_leaf:
                    parent_edges.setdefault(child, []).append((node.name, None))
        elif node.kind is NodeKind.SERVICE:
            for index, child in enumerate(node.children):
                parent_edges.setdefault(child, []).append((node.name, index))

    in_use_memo: dict[str, Expr] = {}

    def in_use(name: str) -> Expr:
        value = in_use_memo.get(name)
        if value is not None:
            return value
        terms = []
        if name in root_children:
            terms.append(w(name))
        for parent, index in parent_edges.get(name, ()):
            if index is None:
                terms.append(in_use(parent))
            else:
                terms.append(in_use(parent) & sel(parent, index))
        value = any_of(terms)
        in_use_memo[name] = value
        return value

    config_nodes = sorted(
        node.name
        for node in nodes.values()
        if not node.is_leaf and node.name != ROOT
    )
    return SymbolicIndicators(
        root=w(ROOT),
        in_use=tuple((name, in_use(name)) for name in config_nodes),
    )


@dataclass(frozen=True)
class CompiledKernel:
    """A straight-line bitwise program over the problem's variables.

    Registers ``0..len(variables)-1`` hold the variable bit vectors
    (register ``j`` ↔ ``variables[j]`` ↔ bit ``j`` of the state
    index), ``const_true``/``const_false`` hold all-ones/all-zeros, and
    every instruction ``(op, dst, a, b)`` writes a temporary register
    (possibly recycling one whose last use has passed, including an
    operand of the same instruction — the ops are elementwise, so
    in-place evaluation is safe).

    ``outputs[0]`` is the root ("system working") indicator;
    ``outputs[1 + i]`` is the in-use indicator of ``config_nodes[i]``.
    """

    variables: tuple[str, ...]
    up_probability: tuple[float, ...]
    program: tuple[tuple[int, int, int, int], ...]
    register_count: int
    const_true: int
    const_false: int
    outputs: tuple[int, ...]
    config_nodes: tuple[str, ...]

    @property
    def state_count(self) -> int:
        return 1 << len(self.variables)


def compile_indicators(
    indicators: SymbolicIndicators,
    variables: tuple[str, ...],
    up_probability: tuple[float, ...],
) -> CompiledKernel:
    """Lower indicator expressions to a :class:`CompiledKernel`.

    Performs common-subexpression elimination (one instruction per
    distinct, hash-consed DAG node) and register recycling (a node's
    register is freed at its last use and reused for later results).
    """
    output_exprs = [indicators.root] + [expr for _, expr in indicators.in_use]
    var_register = {name: j for j, name in enumerate(variables)}
    const_true = len(variables)
    const_false = const_true + 1

    # Remaining-use counts per DAG node: one per parent reference plus
    # one per output listing (output registers are thus never freed).
    uses: dict[Expr, int] = {}
    stack = list(output_exprs)
    while stack:
        expr = stack.pop()
        seen = expr in uses
        uses[expr] = uses.get(expr, 0) + 1
        if seen:
            continue
        if isinstance(expr, (Var, _Constant)):
            continue
        stack.extend(
            (expr.operand,) if isinstance(expr, Not) else expr.terms
        )

    program: list[tuple[int, int, int, int]] = []
    memo: dict[Expr, int] = {}
    free: list[int] = []
    next_register = const_false + 1

    def allocate() -> int:
        nonlocal next_register
        if free:
            return free.pop()
        register = next_register
        next_register += 1
        return register

    def release(expr: Expr) -> None:
        uses[expr] -= 1
        if uses[expr] == 0:
            register = memo[expr]
            if register > const_false:  # never recycle inputs/constants
                free.append(register)

    def compile_node(expr: Expr) -> int:
        register = memo.get(expr)
        if register is not None:
            return register
        if isinstance(expr, _Constant):
            register = const_true if expr.value else const_false
        elif isinstance(expr, Var):
            register = var_register[expr.name]
        elif isinstance(expr, (And, Or)):
            op = _AND if isinstance(expr, And) else _OR
            terms = expr.terms
            accumulator = compile_node(terms[0])
            accumulator_expr: Expr | None = terms[0]
            for term in terms[1:]:
                operand = compile_node(term)
                # Free both operands before allocating the destination:
                # reusing an operand register in place is safe.
                if accumulator_expr is not None:
                    release(accumulator_expr)
                else:
                    free.append(accumulator)
                release(term)
                register = allocate()
                program.append((op, register, accumulator, operand))
                accumulator = register
                accumulator_expr = None
            register = accumulator
            if accumulator_expr is not None:
                # Single-term And/Or cannot occur (folded at build
                # time), but keep the invariant: the node must own a
                # fresh register so releases stay balanced.
                register = allocate()
                program.append((_OR, register, accumulator, accumulator))
                release(accumulator_expr)
        else:  # Not
            operand = compile_node(expr.operand)
            release(expr.operand)
            register = allocate()
            program.append((_NOT, register, operand, operand))
        memo[expr] = register
        return register

    outputs = tuple(compile_node(expr) for expr in output_exprs)
    return CompiledKernel(
        variables=variables,
        up_probability=up_probability,
        program=tuple(program),
        register_count=next_register,
        const_true=const_true,
        const_false=const_false,
        outputs=outputs,
        config_nodes=tuple(name for name, _ in indicators.in_use),
    )


def compile_problem(problem: StateSpaceProblem) -> CompiledKernel:
    """Derive indicators and compile them for ``problem``.

    Variable bit order is application components first (fastest-varying
    state-index bits), then management components — the probability
    weight table of the evaluator factors over exactly this order.
    """
    variables = problem.app_components + problem.mgmt_components
    up_probability = tuple(
        problem.up_probability[name] for name in variables
    )
    return compile_indicators(
        derive_indicators(problem), variables, up_probability
    )


class _KernelRun:
    """Register file + weight tables for one scan of a compiled kernel.

    A batch covers ``2**L`` consecutive states (``L = min(N,
    batch_bits)``), i.e. ``max(1, 2**(L-6))`` words.  Variable
    registers for bits below ``L`` never change across batches (their
    patterns repeat every batch); bits at or above ``L`` are constant
    within a batch and refilled per batch.  Per-state probabilities
    factor the same way: a precomputed low-bit weight table times a
    scalar high-bit product per batch.
    """

    def __init__(self, kernel: CompiledKernel, batch_bits: int):
        self.kernel = kernel
        count = len(kernel.variables)
        self.L = min(count, max(batch_bits, 6)) if count else 0
        self.batch_states = 1 << self.L
        self.words = max(1, self.batch_states >> 6)
        self.total_batches = 1 << (count - self.L)

        registers: list[np.ndarray | None] = [None] * kernel.register_count
        relative = np.arange(self.words, dtype=np.uint64)
        for j in range(min(self.L, 6)):
            registers[j] = np.full(
                self.words, _LOW_MASKS[j], dtype=np.uint64
            )
        for j in range(6, self.L):
            # Up iff bit (j-6) of the in-batch word index is clear:
            # 0 - 1 wraps to all-ones, 1 - 1 to all-zeros.
            registers[j] = ((relative >> np.uint64(j - 6)) & np.uint64(1)) - np.uint64(1)
        for j in range(self.L, count):
            registers[j] = np.empty(self.words, dtype=np.uint64)
        registers[kernel.const_true] = np.full(
            self.words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64
        )
        registers[kernel.const_false] = np.zeros(self.words, dtype=np.uint64)
        for index in range(kernel.const_false + 1, kernel.register_count):
            registers[index] = np.empty(self.words, dtype=np.uint64)
        self.registers: list[np.ndarray] = registers  # type: ignore[assignment]

        state = np.arange(self.batch_states, dtype=np.uint64)
        low_weights = np.ones(self.batch_states, dtype=np.float64)
        for j in range(self.L):
            p_up = kernel.up_probability[j]
            down = ((state >> np.uint64(j)) & np.uint64(1)).astype(bool)
            low_weights *= np.where(down, 1.0 - p_up, p_up)
        self.low_weights = low_weights
        self.key_columns = (len(kernel.outputs) + 63) // 64
        self._signature_configs: dict[object, frozenset[str] | None] = {}

    # ------------------------------------------------------------------

    def _fill_batch(self, batch: int) -> float:
        """Set high-bit variable registers for ``batch``; return the
        high-bit probability factor."""
        kernel = self.kernel
        p_high = 1.0
        for j in range(self.L, len(kernel.variables)):
            down = (batch >> (j - self.L)) & 1
            register = self.registers[j]
            if down:
                register.fill(0)
                p_high *= 1.0 - kernel.up_probability[j]
            else:
                register.fill(0xFFFFFFFFFFFFFFFF)
                p_high *= kernel.up_probability[j]
        return p_high

    def _execute(self) -> None:
        registers = self.registers
        bitwise_and = np.bitwise_and
        bitwise_or = np.bitwise_or
        invert = np.invert
        for op, dst, a, b in self.kernel.program:
            if op == _AND:
                bitwise_and(registers[a], registers[b], out=registers[dst])
            elif op == _OR:
                bitwise_or(registers[a], registers[b], out=registers[dst])
            else:
                invert(registers[a], out=registers[dst])

    def _signature_keys(self) -> np.ndarray:
        """Per-state signature keys, shape (batch_states,) when one
        64-bit column suffices, else (batch_states, columns)."""
        kernel = self.kernel
        n = self.batch_states
        if self.key_columns == 1:
            keys = np.zeros(n, dtype=np.uint64)
            for position, register in enumerate(kernel.outputs):
                bits = np.unpackbits(
                    self.registers[register].view(np.uint8),
                    bitorder="little",
                )[:n]
                keys |= bits.astype(np.uint64) << np.uint64(position)
            return keys
        keys = np.zeros((n, self.key_columns), dtype=np.uint64)
        for position, register in enumerate(kernel.outputs):
            bits = np.unpackbits(
                self.registers[register].view(np.uint8), bitorder="little"
            )[:n]
            keys[:, position // 64] |= bits.astype(np.uint64) << np.uint64(
                position % 64
            )
        return keys

    def _configuration_of(self, signature) -> frozenset[str] | None:
        configuration = self._signature_configs.get(signature, _UNSET)
        if configuration is not _UNSET:
            return configuration
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

    def scan(
        self,
        accumulator: dict[frozenset[str] | None, float],
        counters: ScanCounters,
        tick=None,
    ) -> None:
        """Scan every batch, in index order, into ``accumulator``."""
        for batch in range(self.total_batches):
            p_high = self._fill_batch(batch)
            self._execute()
            keys = self._signature_keys()
            weights = (
                self.low_weights if p_high == 1.0 else p_high * self.low_weights
            )
            if self.key_columns == 1:
                signatures, inverse = np.unique(keys, return_inverse=True)
                masses = np.bincount(
                    inverse, weights=weights, minlength=len(signatures)
                )
                groups = zip(signatures.tolist(), masses.tolist())
            else:
                rows, inverse = np.unique(keys, axis=0, return_inverse=True)
                masses = np.bincount(
                    inverse.ravel(), weights=weights, minlength=len(rows)
                )
                groups = zip(
                    (tuple(row) for row in rows.tolist()), masses.tolist()
                )
            for signature, mass in groups:
                configuration = self._configuration_of(signature)
                accumulator[configuration] = (
                    accumulator.get(configuration, 0.0) + mass
                )
            counters.states_visited += self.batch_states
            counters.kernel_batches += 1
            if tick is not None:
                tick()


_UNSET = object()


def bitset_configurations(
    problem: StateSpaceProblem,
    *,
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
    batch_bits: int = DEFAULT_BATCH_BITS,
) -> dict[frozenset[str] | None, float]:
    """Exact configuration probabilities via the compiled bit kernel.

    Drop-in alternative to
    :func:`~repro.core.enumeration.enumerate_configurations`: same inputs,
    same configuration→probability map (up to floating-point summation
    order, ≲ 1e-15 relative), same ``progress``/``counters``
    protocol.  ``batch_bits`` sizes the evaluation batch (``2**batch_bits``
    states per array op, clamped to at least one 64-state word); the
    default keeps the register file cache-resident.
    """
    if counters is None:
        counters = ScanCounters()
    reporter = ProgressReporter(progress)
    total_states = problem.state_count
    started = time.perf_counter()

    kernel = compile_problem(problem)
    run = _KernelRun(kernel, batch_bits)
    counters.record_level("kernel_instructions", len(kernel.program))

    accumulator: dict[frozenset[str] | None, float] = {}

    def tick() -> None:
        reporter.emit("scan", counters.states_visited, total_states, counters)

    run.scan(accumulator, counters, tick=tick if reporter.active else None)

    counters.record_level("distinct_configurations", len(accumulator))
    counters.scan_seconds += time.perf_counter() - started
    reporter.emit(
        "scan", counters.states_visited, total_states, counters, force=True
    )
    return accumulator
