"""Reporting edge cases and small experiment helpers."""

import math

import pytest

from repro.experiments.figure11 import Figure11, Figure11Series
from repro.experiments.reporting import format_statespace
from repro.experiments.statespace import (
    StateSpaceCase,
    StateSpaceReport,
    run_statespace,
)


def test_statespace_without_enumeration_has_nan_times():
    report = run_statespace(include_enumeration=False)
    for case in report.cases:
        assert math.isnan(case.enumeration_seconds)
        assert case.bdd_seconds > 0
    # The formatter must still render.
    assert "hierarchical" in format_statespace(report)


def test_statespace_case_lookup():
    case = StateSpaceCase(
        name="x", state_count=4, enumeration_seconds=0.1,
        bdd_seconds=0.1, configuration_count=2,
    )
    report = StateSpaceReport(cases=(case,))
    assert report.case("x") is case
    with pytest.raises(KeyError):
        report.case("missing")


def make_figure11():
    series = [
        Figure11Series("perfect", (1.0, 2.0), (1.0, 2.0)),
        Figure11Series("centralized", (1.0, 2.0), (0.8, 1.5)),
        Figure11Series("network", (1.0, 2.0), (0.9, 1.6)),
    ]
    return Figure11(series=tuple(series))


def test_figure11_ordering_excludes_perfect():
    figure = make_figure11()
    assert figure.ordering_at(2.0) == ["network", "centralized"]


def test_figure11_series_lookup():
    figure = make_figure11()
    assert figure.series_for("network").architecture == "network"
    with pytest.raises(KeyError):
        figure.series_for("ghost")


def test_figure11_unknown_weight_raises():
    figure = make_figure11()
    with pytest.raises(ValueError):
        figure.ordering_at(3.0)
