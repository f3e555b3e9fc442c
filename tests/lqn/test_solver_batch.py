"""Batched layered solves: parity with the sequential path and soft
inner-submodel failure."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lqn import (
    LQNCall,
    LQNModel,
    LQNResults,
    solve_lqn,
    solve_lqn_batch,
)
from tests.lqn.test_solver import figure1_lqn


def _two_tier_model(server_demand: float = 0.2) -> LQNModel:
    """A small client/server model, parameterisable for batch tests."""
    m = LQNModel(name="two-tier")
    m.add_processor("p_client")
    m.add_processor("p_server")
    m.add_task(
        "client", processor="p_client", multiplicity=3,
        is_reference=True, think_time=1.0,
    )
    m.add_task("server", processor="p_server")
    m.add_entry("server_e", task="server", demand=server_demand)
    m.add_entry(
        "client_e", task="client", demand=0.1,
        calls=[LQNCall("server_e", mean_calls=2.0)],
    )
    return m


def _assert_results_equal(a: LQNResults, b: LQNResults) -> None:
    assert set(a.task_throughputs) == set(b.task_throughputs)
    for key in a.task_throughputs:
        assert a.task_throughputs[key] == b.task_throughputs[key]
    for key in a.entry_waiting_times:
        assert a.entry_waiting_times[key] == b.entry_waiting_times[key]
    for key in a.task_utilizations:
        assert a.task_utilizations[key] == b.task_utilizations[key]
    for key in a.processor_utilizations:
        assert a.processor_utilizations[key] == b.processor_utilizations[key]
    assert a.iterations == b.iterations
    assert a.converged == b.converged


class TestSoftInnerFailure:
    """Regression: an inner-submodel ConvergenceError used to escape
    solve_lqn uncaught, killing whole sweeps — contradicting the
    documented contract that non-convergence is reported via
    ``converged=False``."""

    def test_inner_mva_budget_exhaustion_is_soft(self):
        results = solve_lqn(figure1_lqn(), mva_max_iterations=1)
        assert isinstance(results, LQNResults)
        assert results.converged is False

    def test_inner_failure_still_returns_throughputs(self):
        results = solve_lqn(figure1_lqn(), mva_max_iterations=1)
        for value in results.task_throughputs.values():
            assert np.isfinite(value)

    def test_batch_inner_failure_is_soft(self):
        batch = solve_lqn_batch([figure1_lqn()], mva_max_iterations=1)
        assert len(batch) == 1
        assert batch[0].converged is False


class TestBatchMatchesSequential:
    def test_identical_models_match_solo(self):
        model = figure1_lqn()
        solo = solve_lqn(model)
        batch = solve_lqn_batch([model, model, model])
        for entry in batch:
            _assert_results_equal(entry, solo)

    def test_heterogeneous_batch_matches_each_solo(self):
        demands = [0.05, 0.2, 0.45, 0.8]
        models = [_two_tier_model(d) for d in demands]
        models.append(figure1_lqn())
        models.append(figure1_lqn(use_b=False))
        batch = solve_lqn_batch(models)
        assert len(batch) == len(models)
        for model, entry in zip(models, batch):
            _assert_results_equal(entry, solve_lqn(model))

    def test_empty_batch(self):
        assert solve_lqn_batch([]) == []

    def test_batch_respects_tolerance_and_damping(self):
        model = _two_tier_model()
        solo = solve_lqn(model, tolerance=1e-4, damping=0.3)
        batch = solve_lqn_batch([model], tolerance=1e-4, damping=0.3)
        _assert_results_equal(batch[0], solo)

    def test_invalid_damping_rejected(self):
        with pytest.raises(SolverError, match=r"damping must be in \(0, 1\]"):
            solve_lqn_batch([figure1_lqn()], damping=1.5)
