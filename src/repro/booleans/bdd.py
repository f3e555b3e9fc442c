"""Reduced ordered binary decision diagrams (ROBDDs).

A :class:`BDD` manager hash-conses nodes so that equivalent functions are
represented by the same node id, making equality checks O(1) and
probability evaluation linear in diagram size.  This is the workhorse for
exact probability of ``know`` expressions and for the symbolic
performability backend (:mod:`repro.core.symbolic`).

Node encoding
-------------
Terminals are the integers ``0`` and ``1``.  Internal nodes are integer
ids ≥ 2 mapping to ``(level, low, high)`` triples, where ``level`` indexes
into the manager's variable order, ``low`` is the cofactor for the
variable being False and ``high`` for True.  The reduction invariants —
``low != high`` and unique ``(level, low, high)`` triples — are maintained
by :meth:`BDD._mk`.

Thread safety
-------------
Each manager carries one re-entrant lock.  Public operations acquire it
once at the entry point and recurse through unlocked private bodies, so
the per-node cost is unchanged and a manager shared between the analysis
service's worker threads cannot corrupt its unique/apply/negate/from_expr
tables (all four are check-then-insert caches, unsafe under races).
Distinct managers never share state, so single-threaded workloads — one
manager per scan — only pay one uncontended acquire per operation.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence

from repro.booleans.expr import FALSE, TRUE, And, Expr, Not, Or, Var

#: Terminal node ids.
ZERO = 0
ONE = 1


class BDD:
    """A manager for reduced ordered BDDs over a fixed variable order.

    Parameters
    ----------
    order:
        Variable names, outermost (root) first.  Every expression
        converted by this manager may only mention these variables.

    Example
    -------
    >>> manager = BDD(["a", "b"])
    >>> from repro.booleans import Var
    >>> node = manager.from_expr(Var("a") | Var("b"))
    >>> manager.probability(node, {"a": 0.9, "b": 0.9})
    0.99
    """

    def __init__(self, order: Sequence[str]):
        if len(set(order)) != len(order):
            raise ValueError("variable order contains duplicates")
        self._order: tuple[str, ...] = tuple(order)
        self._level: dict[str, int] = {name: i for i, name in enumerate(order)}
        # id -> (level, low, high); ids 0 and 1 are the terminals.
        self._nodes: list[tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[str, int, int], int] = {}
        self._not_cache: dict[int, int] = {}
        # Hash-consed Expr -> node memo for from_expr: shared DAG nodes
        # convert exactly once per manager.
        self._expr_cache: dict[Expr, int] = {}
        self.apply_cache_hits = 0
        # Guards every table above; see "Thread safety" in the module
        # docstring.  Re-entrant so composed public calls stay cheap.
        self._lock = threading.RLock()

    @property
    def order(self) -> tuple[str, ...]:
        """The variable order, root level first."""
        return self._order

    def __len__(self) -> int:
        """Total number of allocated nodes including the two terminals."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Node construction

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node
        return node

    def var(self, name: str) -> int:
        """The BDD for a single variable."""
        with self._lock:
            return self._var(name)

    def _var(self, name: str) -> int:
        try:
            level = self._level[name]
        except KeyError:
            raise KeyError(f"variable {name!r} is not in this manager's order") from None
        return self._mk(level, ZERO, ONE)

    # ------------------------------------------------------------------
    # Boolean operations

    def apply_and(self, u: int, v: int) -> int:
        """Conjunction of two nodes."""
        with self._lock:
            return self._apply("and", u, v)

    def apply_or(self, u: int, v: int) -> int:
        """Disjunction of two nodes."""
        with self._lock:
            return self._apply("or", u, v)

    def negate(self, u: int) -> int:
        """Negation of a node."""
        with self._lock:
            return self._negate(u)

    def _negate(self, u: int) -> int:
        if u == ZERO:
            return ONE
        if u == ONE:
            return ZERO
        cached = self._not_cache.get(u)
        if cached is not None:
            return cached
        level, low, high = self._nodes[u]
        result = self._mk(level, self._negate(low), self._negate(high))
        self._not_cache[u] = result
        return result

    def _apply(self, op: str, u: int, v: int) -> int:
        if op == "and":
            if u == ZERO or v == ZERO:
                return ZERO
            if u == ONE:
                return v
            if v == ONE:
                return u
        else:  # or
            if u == ONE or v == ONE:
                return ONE
            if u == ZERO:
                return v
            if v == ZERO:
                return u
        if u == v:
            return u
        if u > v:
            u, v = v, u  # both ops are commutative; canonicalise the key
        key = (op, u, v)
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.apply_cache_hits += 1
            return cached
        u_level = self._nodes[u][0]
        v_level = self._nodes[v][0]
        level = min(u_level, v_level)
        u_low, u_high = (self._nodes[u][1], self._nodes[u][2]) if u_level == level else (u, u)
        v_low, v_high = (self._nodes[v][1], self._nodes[v][2]) if v_level == level else (v, v)
        result = self._mk(
            level,
            self._apply(op, u_low, v_low),
            self._apply(op, u_high, v_high),
        )
        self._apply_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Conversion and queries

    def from_expr(self, expr: Expr) -> int:
        """Convert an expression AST into a node of this manager.

        Conversions are memoised per manager, keyed by the hash-consed
        expression node: a shared DAG subterm is converted exactly once
        however many indicator expressions reference it.  (Without the
        memo, converting the symbolic-indicator DAGs of
        :func:`repro.core.kernel.derive_indicators` — where a service's
        ``working`` condition is shared by dozens of parents — would
        redo the same apply work once per reference.)
        """
        with self._lock:
            return self._from_expr(expr)

    def _from_expr(self, expr: Expr) -> int:
        cached = self._expr_cache.get(expr)
        if cached is not None:
            return cached
        if expr == TRUE:
            node = ONE
        elif expr == FALSE:
            node = ZERO
        elif isinstance(expr, Var):
            node = self._var(expr.name)
        elif isinstance(expr, Not):
            node = self._negate(self._from_expr(expr.operand))
        elif isinstance(expr, And):
            node = ONE
            for term in expr.terms:
                node = self._apply("and", node, self._from_expr(term))
                if node == ZERO:
                    break
        elif isinstance(expr, Or):
            node = ZERO
            for term in expr.terms:
                node = self._apply("or", node, self._from_expr(term))
                if node == ONE:
                    break
        else:
            raise TypeError(
                f"cannot convert {type(expr).__name__} to a BDD node"
            )
        self._expr_cache[expr] = node
        return node

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate a node under a total variable assignment."""
        with self._lock:
            while node not in (ZERO, ONE):
                level, low, high = self._nodes[node]
                node = high if assignment[self._order[level]] else low
        return node == ONE

    def probability(self, node: int, probs: Mapping[str, float]) -> float:
        """Exact probability that the function is true.

        ``probs[name]`` is the (independent) probability that variable
        ``name`` is True.  Runs in time linear in the number of distinct
        nodes reachable from ``node``.
        """
        cache: dict[int, float] = {ZERO: 0.0, ONE: 1.0}

        def walk(n: int) -> float:
            found = cache.get(n)
            if found is not None:
                return found
            level, low, high = self._nodes[n]
            p = probs[self._order[level]]
            value = (1.0 - p) * walk(low) + p * walk(high)
            cache[n] = value
            return value

        with self._lock:
            return walk(node)

    def support(self, node: int) -> frozenset[str]:
        """Variables the function actually depends on."""
        seen: set[int] = set()
        names: set[str] = set()
        stack = [node]
        with self._lock:
            return self._support(stack, seen, names)

    def _support(self, stack, seen, names) -> frozenset[str]:
        while stack:
            n = stack.pop()
            if n in (ZERO, ONE) or n in seen:
                continue
            seen.add(n)
            level, low, high = self._nodes[n]
            names.add(self._order[level])
            stack.append(low)
            stack.append(high)
        return frozenset(names)

    def satisfying_fraction(self, node: int) -> float:
        """Fraction of the 2^n assignments that satisfy the function."""
        return self.probability(node, {name: 0.5 for name in self._order})

    def signature_masses(
        self, outputs: Sequence[int], probs: Mapping[str, float]
    ) -> dict[tuple[bool, ...], float]:
        """Joint distribution of several functions' truth values.

        Returns ``{(b_0, ..., b_{k-1}): probability}`` over the
        signatures actually reachable — the probability that output
        ``i`` evaluates to ``b_i`` for all ``i`` simultaneously, under
        independent per-variable truth probabilities ``probs``.

        The computation splits a constraint BDD on one output at a
        time, pruning empty branches immediately, so the work is
        proportional to the number of *reachable* signatures (distinct
        configurations, in the performability reading) times the apply
        cost — never to the 2^k signature space, and never to the 2^n
        variable space.  Each leaf's probability is one weighted
        traversal, linear in its diagram size.
        """
        with self._lock:
            branches: list[tuple[tuple[bool, ...], int]] = [((), ONE)]
            for output in outputs:
                negated = self._negate(output)
                split: list[tuple[tuple[bool, ...], int]] = []
                for signature, constraint in branches:
                    high = self._apply("and", constraint, output)
                    if high != ZERO:
                        split.append((signature + (True,), high))
                    low = self._apply("and", constraint, negated)
                    if low != ZERO:
                        split.append((signature + (False,), low))
                branches = split
            return {
                signature: self.probability(constraint, probs)
                for signature, constraint in branches
            }
