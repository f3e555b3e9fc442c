"""Exact probability of boolean expressions over independent variables.

Two methods are provided; they agree exactly (this equality is
property-tested in ``tests/booleans``):

* :func:`probability` — build an ROBDD and evaluate in linear time in
  BDD size; handles arbitrary (non-monotone) expressions.
* :func:`enumeration_probability` — brute force over all 2^n
  assignments; the ground-truth oracle for small n.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product

from repro.booleans.bdd import BDD
from repro.booleans.expr import Expr
from repro.errors import ModelError


def probability(expr: Expr, probs: Mapping[str, float]) -> float:
    """Exact probability that ``expr`` is true.

    ``probs[name]`` is the independent probability that variable ``name``
    is true; every variable of ``expr`` must be present, else
    :class:`~repro.errors.ModelError` is raised (a
    :class:`~repro.errors.ReproError`, so the CLI's error net turns it
    into a one-line message rather than a traceback).  Uses a BDD
    ordered by sorted variable name, which is adequate for the small
    knowledge expressions this library produces.
    """
    names = sorted(expr.variables())
    missing = [name for name in names if name not in probs]
    if missing:
        raise ModelError(f"missing probabilities for variables: {missing}")
    manager = BDD(names)
    node = manager.from_expr(expr)
    return manager.probability(node, probs)


def enumeration_probability(expr: Expr, probs: Mapping[str, float]) -> float:
    """Brute-force probability over all assignments (test oracle)."""
    names = sorted(expr.variables())
    total = 0.0
    for values in product((False, True), repeat=len(names)):
        assignment = dict(zip(names, values))
        if expr.evaluate(assignment):
            weight = 1.0
            for name, value in assignment.items():
                weight *= probs[name] if value else 1.0 - probs[name]
            total += weight
    return total


__all__ = ["enumeration_probability", "probability"]
