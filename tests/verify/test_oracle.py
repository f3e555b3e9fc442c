"""The differential oracle: agreement, injected faults, sim cross-check.

Healthy backends must pass; a backend returning perturbed
probabilities, a missing/extra configuration, or non-unit total mass
must be flagged with the right ``Disagreement.kind``; and the
Monte-Carlo cross-check must accept the analytic answer on a healthy
scenario while rejecting a deliberately wrong one.
"""

import pytest

from repro.core.enumeration import enumerate_configurations
from repro.errors import ModelError
from repro.verify import (
    OracleConfig,
    check_scenario,
    default_backends,
    generate_scenario,
)

#: Fast simulation settings for tests (the default horizon is sized
#: for fuzzing campaigns, not unit tests).
FAST_SIM = OracleConfig(
    sim_replications=3, sim_horizon=800.0, sim_bias_allowance=30.0
)


def test_default_backend_table():
    table = default_backends()
    assert tuple(table) == ("interp", "bits", "bdd")
    restricted = default_backends(["interp", "bits"])
    assert tuple(restricted) == ("interp", "bits")
    # CLI spellings normalise onto the oracle names.
    assert tuple(default_backends(["enumeration"])) == ("interp",)
    assert tuple(default_backends(["bdd"])) == ("bdd",)
    with pytest.raises(ModelError):
        default_backends(["quantum"])
    with pytest.raises(ModelError, match="method 'factored' was removed; use 'bdd'"):
        default_backends(["factored"])
    with pytest.raises(ModelError):
        default_backends([])
    # Interval-valued: containment-checked, never parity-checked.
    with pytest.raises(ModelError):
        default_backends(["bounded"])


def test_healthy_scenarios_pass():
    for seed in (2, 5, 11):
        scenario = generate_scenario(seed)
        report = check_scenario(scenario)
        assert report.ok, report.summary()
        assert report.reference_backend == "interp"
        assert report.state_count == scenario.analyzer().problem.state_count
        assert report.distinct_configurations >= 1
        assert "agree" in report.summary()


def _broken(perturb):
    """A backend that post-processes the interpreted scan's output."""

    def backend(problem, *, progress=None, counters=None):
        return perturb(
            enumerate_configurations(
                problem, progress=progress, counters=counters
            )
        )

    return backend


def test_probability_perturbation_is_detected():
    scenario = generate_scenario(5)

    def nudge(result):
        key = next(iter(result))
        result = dict(result)
        result[key] += 1e-9
        return result

    table = {"interp": enumerate_configurations, "bad": _broken(nudge)}
    report = check_scenario(scenario, backends=table)
    assert not report.ok
    kinds = {d.kind for d in report.disagreements}
    assert "probability" in kinds
    assert any(d.backend == "bad" for d in report.disagreements)
    assert all(d.magnitude >= 9e-10 for d in report.disagreements
               if d.kind == "probability")


def test_missing_and_extra_configurations_are_detected():
    scenario = generate_scenario(1)

    def drop_and_add(result):
        result = dict(result)
        dropped = next(iter(result))
        del result[dropped]
        result[frozenset({"phantom"})] = 0.25
        return result

    table = {"interp": enumerate_configurations, "bad": _broken(drop_and_add)}
    report = check_scenario(scenario, backends=table)
    kinds = [d.kind for d in report.disagreements]
    assert kinds.count("configuration-set") == 2
    details = " ".join(d.detail for d in report.disagreements)
    assert "missing configuration" in details
    assert "extra configuration" in details


def test_total_mass_violation_is_detected():
    scenario = generate_scenario(2)

    def scale(result):
        return {key: value * 1.5 for key, value in result.items()}

    # The *reference* backend itself leaks mass.
    table = {"bad": _broken(scale)}
    report = check_scenario(scenario, backends=table)
    assert [d.kind for d in report.disagreements] == ["total-mass"]
    assert report.disagreements[0].magnitude == pytest.approx(0.5, abs=1e-6)


def test_simulation_cross_check_accepts_healthy_scenario():
    report = check_scenario(
        generate_scenario(0), simulate=True, config=FAST_SIM
    )
    assert report.simulated
    assert report.ok, report.summary()
    assert report.expected_reward is not None
    assert report.failed_probability is not None


def test_simulation_cross_check_rejects_wrong_analytics():
    # Feed the sim phase reference probabilities that are badly wrong:
    # every backend consistently claims the system never fails by
    # piling all failure mass onto the all-up configuration.

    def deny_failure(result):
        result = dict(result)
        failed = result.pop(None, 0.0)
        best = max(result, key=result.get)
        result[best] += failed
        return result

    # Pick a scenario that can fail *and* can survive, else moving the
    # failure mass is impossible or vacuous.
    scenario = None
    for seed in range(20):
        candidate = generate_scenario(seed)
        probabilities = candidate.analyzer().configuration_probabilities(
            method="bdd"
        )
        if 0.05 < probabilities.get(None, 0.0) < 0.95 and len(probabilities) > 1:
            scenario = candidate
            break
    assert scenario is not None, "no suitable scenario in seed range"

    table = {"lying": _broken(deny_failure)}
    report = check_scenario(
        scenario, backends=table, simulate=True, config=FAST_SIM
    )
    assert not report.ok
    assert any(d.kind == "simulation" for d in report.disagreements)


def test_bounded_containment_runs_by_default():
    report = check_scenario(generate_scenario(4))
    assert report.bounded_checked
    assert report.ok, report.summary()
    skipped = check_scenario(
        generate_scenario(4), config=OracleConfig(bounded_epsilon=None)
    )
    assert not skipped.bounded_checked
    assert skipped.ok, skipped.summary()


def test_bounded_violation_is_detected(monkeypatch):
    from repro.core.bounded import bounded_configurations
    from repro.verify import oracle as oracle_module

    def inflated(problem, *, epsilon, progress=None, counters=None):
        result = dict(
            bounded_configurations(
                problem, epsilon=epsilon, counters=counters
            )
        )
        key = max(result, key=result.get)
        result[key] += 1e-6
        result[frozenset({"phantom"})] = 0.125
        return result

    monkeypatch.setattr(
        oracle_module, "bounded_configurations", inflated
    )
    report = check_scenario(generate_scenario(4))
    assert report.bounded_checked
    assert not report.ok
    kinds = {d.kind for d in report.disagreements}
    assert kinds == {"bounded-containment"}
    details = " ".join(d.detail for d in report.disagreements)
    assert "phantom configuration" in details
    assert "above the exact" in details


def test_invalid_scenario_raises():
    scenario = generate_scenario(6)
    broken = type(scenario)(
        ftlqn=scenario.ftlqn,
        mama=scenario.mama,
        failure_probs={"no-such-component": 0.5},
        common_causes=(),
    )
    with pytest.raises(ModelError):
        check_scenario(broken)


def test_student_quantile_matches_scipy_stats():
    """The oracle's intervals take the Student-t quantile from
    ``scipy.special.stdtrit``; it must be bitwise the value
    ``scipy.stats.t.ppf`` gives at every replication count and
    confidence the oracle can be configured with."""
    import math

    from scipy.special import stdtrit
    from scipy.stats import t as student_t

    from repro.verify.oracle import _student_interval

    for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999):
        q = 1.0 - (1.0 - confidence) / 2.0
        for df in range(1, 200):
            assert float(stdtrit(df, q)) == float(student_t.ppf(q, df)), (
                df, confidence,
            )
    samples = [0.25, 0.5, 0.75, 1.0]
    mean, half = _student_interval(samples, 0.999)
    variance = sum((s - mean) ** 2 for s in samples) / 3
    assert mean == 0.625
    assert half == float(student_t.ppf(0.9995, 3)) * math.sqrt(variance / 4)
    assert _student_interval([0.5], 0.999) == (0.5, 0.0)
