"""The fuzz campaign driver: sampling cadence, budget, failure path.

The failure path is exercised by monkeypatching the driver's backend
table to include the op-table mutant from the mutation self-test: the
campaign must record the disagreement, shrink it, and attach a repro
script plus a corpus entry to the outcome.
"""

import pytest

from repro.verify import run_fuzz
from repro.verify.fuzz import FuzzReport
from repro.verify.shrink import load_corpus
from tests.verify.test_mutation import TABLE as MUTANT_TABLE


def test_campaign_cadence_and_report_shape():
    events = []
    report = run_fuzz(
        seeds=6,
        sim_every=3,
        log=events.append,
    )
    assert isinstance(report, FuzzReport)
    assert report.ok
    assert len(report.outcomes) == 6
    assert [o.seed for o in report.outcomes] == list(range(6))
    # Simulation cross-check on seeds 0 and 3 only.
    simulated = [o.seed for o in report.outcomes if o.simulated]
    assert simulated == [0, 3]
    assert [e.seed for e in events] == list(range(6))
    document = report.as_dict()
    assert document["seeds_checked"] == 6
    assert "parallel_checks" not in document
    assert document["simulation_checks"] == 2
    assert document["states_covered"] == sum(
        o.state_count for o in report.outcomes
    )


def test_seed_start_offsets_the_range():
    report = run_fuzz(seeds=2, seed_start=7, sim_every=0)
    assert [o.seed for o in report.outcomes] == [7, 8]


def test_parallel_every_is_retired():
    """Only the retired keyword's one legal value, 0, is accepted."""
    with pytest.raises(ValueError, match="parallel re-runs of the scan "
                       "were removed"):
        run_fuzz(seeds=1, parallel_every=25)
    report = run_fuzz(seeds=1, sim_every=0, parallel_every=0, shrink=False)
    assert report.ok and len(report.outcomes) == 1


def test_time_budget_stops_the_campaign():
    report = run_fuzz(seeds=1000, time_budget=0.0, sim_every=0)
    assert report.stopped_by_budget
    assert len(report.outcomes) < 1000


def test_failure_is_shrunk_into_artifacts(monkeypatch, tmp_path):
    import repro.verify.fuzz as fuzz_module

    monkeypatch.setattr(
        fuzz_module, "default_backends", lambda names=None: dict(MUTANT_TABLE)
    )
    report = run_fuzz(seeds=20, sim_every=0)
    assert not report.ok
    failure = report.failures[0]
    assert failure.disagreements
    assert failure.shrunken is not None
    assert len(failure.shrunken["ftlqn"]["tasks"]) <= 4
    assert failure.shrink_steps
    assert failure.script is not None
    assert f"counterexample-{failure.seed}.py" in failure.script
    assert failure.corpus is not None
    assert failure.corpus["id"] == f"fuzz-seed-{failure.seed}"
    # The corpus entry is loadable by the committed-corpus loader.
    path = tmp_path / "corpus.json"
    path.write_text(
        __import__("json").dumps({"version": 1, "entries": [failure.corpus]})
    )
    assert [e["id"] for e in load_corpus(path)] == [failure.corpus["id"]]


def test_no_shrink_flag_skips_artifacts(monkeypatch):
    import repro.verify.fuzz as fuzz_module

    monkeypatch.setattr(
        fuzz_module, "default_backends", lambda names=None: dict(MUTANT_TABLE)
    )
    report = run_fuzz(seeds=20, sim_every=0, shrink=False)
    assert not report.ok
    assert all(o.shrunken is None for o in report.failures)
    assert all(o.script is None for o in report.failures)
