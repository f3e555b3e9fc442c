"""Golden parity: the Monte-Carlo simulators against their pinned outputs.

``golden_sim.json`` (written by ``tests/sim/make_golden.py``) holds the
exact configuration fractions, average rewards and event counts of
``simulate_availability`` in its three detection modes, and the raw
samples of ``simulate_transient``, on the Figure-1 architectures and
fuzz seeds 41-50.  Everything is compared with ``==``: sampling is
fixed by the seed, so a change to how states are evaluated must leave
every float and count bitwise unchanged.
"""

import json

import pytest

from tests.sim.make_golden import (
    FIXTURE,
    MODES,
    availability_document,
    group_rewards,
    lifted,
    model_sources,
    run_availability,
    run_transient,
    transient_document,
)

_GOLDEN = json.loads(FIXTURE.read_text())
_SCENARIOS = {
    json.dumps(source, sort_keys=True): scenario
    for source, scenario in model_sources()
}


def _case_id(case):
    return "/".join(str(v) for v in case["source"].values())


@pytest.mark.parametrize("case", _GOLDEN["cases"], ids=_case_id)
def test_simulators_match_golden(case):
    scenario = _SCENARIOS[json.dumps(case["source"], sort_keys=True)]
    rewards = group_rewards(scenario)
    for label, delay, mode in MODES:
        actual = availability_document(
            run_availability(scenario, rewards, delay, mode)
        )
        assert actual == case["availability"][label], label
    scenario = lifted(scenario)
    actual = transient_document(run_transient(scenario, group_rewards(scenario)))
    assert actual == case["transient"]


def test_fixture_covers_the_pinned_models():
    sources = [case["source"] for case in _GOLDEN["cases"]]
    assert sources == [source for source, _ in model_sources()]
    assert {"kind": "fuzz", "seed": 50} in sources
