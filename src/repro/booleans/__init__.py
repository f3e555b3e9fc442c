"""Boolean expressions over independent component-state variables.

The paper's ``know`` functions — "task *t* learns the operational state of
component *c*" — are monotone boolean functions: unions of *minpath*
conjunctions over component "up" variables.  This package provides:

* :mod:`repro.booleans.expr` — an immutable expression AST
  (:class:`Var`, :class:`Not`, :class:`And`, :class:`Or`, plus the
  constants :data:`TRUE` and :data:`FALSE`) with evaluation and
  substitution.
* :mod:`repro.booleans.bdd` — reduced ordered binary decision diagrams
  with exact probability evaluation in time linear in BDD size.
* :mod:`repro.booleans.probability` — :func:`probability` (exact, on a
  BDD) and the brute-force :func:`enumeration_probability` oracle it is
  property-tested against.
"""

from repro.booleans.expr import (
    FALSE,
    TRUE,
    And,
    Expr,
    Not,
    Or,
    Var,
    all_of,
    any_of,
    path_union,
)
from repro.booleans.bdd import BDD
from repro.booleans.probability import enumeration_probability, probability

__all__ = [
    "And",
    "BDD",
    "Expr",
    "FALSE",
    "Not",
    "Or",
    "TRUE",
    "Var",
    "all_of",
    "any_of",
    "enumeration_probability",
    "path_union",
    "probability",
]
