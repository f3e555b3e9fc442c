"""Property-based tests: the BDD and brute-force probabilities agree."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.booleans import (
    FALSE,
    TRUE,
    Var,
    all_of,
    any_of,
    enumeration_probability,
    path_union,
    probability,
)

_NAMES = ["a", "b", "c", "d", "e"]

paths_strategy = st.lists(
    st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=5,
)

probs_strategy = st.fixed_dictionaries(
    {name: st.floats(min_value=0.0, max_value=1.0) for name in _NAMES}
)


@st.composite
def expressions(draw, depth=3):
    """Random boolean expressions over the fixed variable pool."""
    if depth == 0:
        return draw(
            st.one_of(
                st.sampled_from([TRUE, FALSE]),
                st.sampled_from(_NAMES).map(Var),
            )
        )
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return draw(expressions(depth=0))
    if kind == 1:
        return ~draw(expressions(depth=depth - 1))
    terms = draw(
        st.lists(expressions(depth=depth - 1), min_size=1, max_size=3)
    )
    return all_of(terms) if kind == 2 else any_of(terms)


@given(paths=paths_strategy, probs=probs_strategy)
@settings(max_examples=150, deadline=None)
def test_monotone_unions_all_methods_agree(paths, probs):
    expr = path_union(paths)
    via_bdd = probability(expr, probs)
    via_enum = enumeration_probability(expr, probs)
    assert via_bdd == pytest.approx(via_enum, abs=1e-9)


@given(expr=expressions(), probs=probs_strategy)
@settings(max_examples=150, deadline=None)
def test_bdd_matches_enumeration_on_arbitrary_expressions(expr, probs):
    assert probability(expr, probs) == pytest.approx(
        enumeration_probability(expr, probs), abs=1e-9
    )


@given(expr=expressions(), probs=probs_strategy)
@settings(max_examples=100, deadline=None)
def test_probability_of_negation_complements(expr, probs):
    p = probability(expr, probs)
    q = probability(~expr, probs)
    assert p + q == pytest.approx(1.0, abs=1e-9)


@given(paths=paths_strategy)
@settings(max_examples=80, deadline=None)
def test_monotone_union_is_monotone_in_component_reliability(paths):
    expr = path_union(paths)
    low = probability(expr, {name: 0.3 for name in _NAMES})
    high = probability(expr, {name: 0.7 for name in _NAMES})
    assert high >= low - 1e-12


@given(expr=expressions())
@settings(max_examples=80, deadline=None)
def test_substitute_then_evaluate_matches_direct_evaluate(expr):
    names = sorted(expr.variables())
    if not names:
        return
    half = {name: (index % 2 == 0) for index, name in enumerate(names)}
    rest = {name: True for name in names}
    reduced = expr.substitute(half)
    full = {**rest, **half}
    assert reduced.evaluate(full) == expr.evaluate(full)
