"""Golden parity: the layered solver against its pinned full results.

``golden_lqn.json`` (written by ``tests/lqn/make_golden.py``) holds the
complete :class:`~repro.lqn.results.LQNResults` of every configuration
LQN of the Figure-1 architectures, the Figure-11 grid, the catalog
scenarios and the counterexample corpus, plus seeded random layered
models with second phases and several reference classes.  Every float
must stay within 1e-12 relative of the pin, and iteration counts and
convergence flags must match exactly, so any change to the solver's
arithmetic or its iterate path shows here.
"""

import json
import math

import pytest

from repro.core.configuration import configuration_to_lqn
from repro.lqn import solve_lqn_batch
from tests.lqn.make_golden import (
    FIXTURE,
    model_sources,
    random_models,
    results_document,
)

REL_TOL = 1e-12

_GOLDEN = json.loads(FIXTURE.read_text())
_FTLQNS = {
    json.dumps(source, sort_keys=True): ftlqn
    for source, ftlqn in model_sources()
}


def _models(case):
    source = case["source"]
    if source["kind"] == "random":
        return random_models(source["seed"], source["count"])
    ftlqn = _FTLQNS[json.dumps(source, sort_keys=True)]
    return [
        configuration_to_lqn(ftlqn, frozenset(item["configuration"]))
        for item in case["models"]
    ]


def _case_id(case):
    return "/".join(str(v) for v in case["source"].values())


def _label(item):
    return str(item.get("configuration", item.get("index")))


def _assert_matches(actual: dict, expected: dict, where: str) -> None:
    assert actual["iterations"] == expected["iterations"], where
    assert actual["converged"] == expected["converged"], where
    for field in (
        "task_throughputs", "entry_throughputs", "entry_service_times",
        "entry_waiting_times", "task_utilizations", "processor_utilizations",
    ):
        assert actual[field].keys() == expected[field].keys(), (where, field)
        for key, value in expected[field].items():
            assert math.isclose(actual[field][key], value, rel_tol=REL_TOL), (
                where, field, key, actual[field][key], value,
            )


def test_fixture_covers_every_model_source():
    cases = _GOLDEN["cases"]
    kinds = [case["source"]["kind"] for case in cases]
    assert kinds.count("figure1") == 1
    assert kinds.count("catalog") == 3
    assert kinds.count("corpus") >= 1
    assert kinds.count("random") == 1
    assert all(case["models"] for case in cases)


@pytest.mark.parametrize("case", _GOLDEN["cases"], ids=_case_id)
def test_case_matches_golden(case):
    solved = solve_lqn_batch(_models(case))
    for item, results in zip(case["models"], solved):
        _assert_matches(
            json.loads(json.dumps(results_document(results))),
            item["results"],
            f"{_case_id(case)} {_label(item)}",
        )


def test_mixed_batch_of_every_model_matches_golden():
    """All models of all scenarios in one heterogeneous batch, as the
    service's micro-batcher mixes them."""
    models, expected = [], []
    for case in _GOLDEN["cases"]:
        models.extend(_models(case))
        expected.extend(case["models"])
    solved = solve_lqn_batch(models)
    for item, results in zip(expected, solved):
        _assert_matches(
            json.loads(json.dumps(results_document(results))),
            item["results"],
            _label(item),
        )
