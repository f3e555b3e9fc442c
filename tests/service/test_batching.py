"""The micro-batching queue: coalescing, slicing, error propagation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import PerformabilityAnalyzer
from repro.experiments.architectures import centralized_mama
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.lqn.solver import solve_lqn_batch
from repro.service.batching import MicroBatcher


class RecordingSolver:
    """Counts calls and batch sizes; delegates to the real solver."""

    def __init__(self):
        self.calls: list[int] = []
        self.lock = threading.Lock()

    def __call__(self, models):
        with self.lock:
            self.calls.append(len(models))
        return solve_lqn_batch(models)


def lqn_models(count):
    """Distinct single-configuration LQN models from figure 1."""
    mama = centralized_mama()
    analyzer = PerformabilityAnalyzer(
        figure1_system(), mama, failure_probs=figure1_failure_probs(mama)
    )
    result = analyzer.solve()
    configurations = [
        record.configuration
        for record in result.records
        if record.configuration is not None
    ]
    from repro.core.configuration import configuration_to_lqn

    models = [
        configuration_to_lqn(figure1_system(), configuration)
        for configuration in configurations
    ]
    assert len(models) >= count
    return models[:count]


class TestMicroBatcher:
    def test_single_caller_passthrough(self):
        solver = RecordingSolver()
        batcher = MicroBatcher(batch_window=0.0, solver=solver)
        models = lqn_models(3)
        results = batcher.solve(models)
        assert len(results) == 3
        assert solver.calls == [3]
        assert batcher.stats()["coalesced_requests"] == 1

    def test_results_bitwise_match_direct_solve(self):
        models = lqn_models(4)
        direct = solve_lqn_batch(models)
        batcher = MicroBatcher(batch_window=0.0)
        batched = batcher.solve(models)
        for left, right in zip(direct, batched):
            assert left.task_throughputs == right.task_throughputs
            assert left.iterations == right.iterations

    def test_concurrent_callers_coalesce(self):
        solver = RecordingSolver()
        batcher = MicroBatcher(batch_window=0.05, solver=solver)
        models = lqn_models(6)
        barrier = threading.Barrier(3)
        outputs = [None] * 3

        def worker(index):
            barrier.wait()
            outputs[index] = batcher.solve(models[index * 2:(index + 1) * 2])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(len(out) == 2 for out in outputs)
        stats = batcher.stats()
        assert stats["coalesced_requests"] == 3
        # The window is long enough that at least two of the three
        # requests must have shared a solver call.
        assert stats["batches"] < 3
        assert stats["batched_models"] == 6
        assert sum(solver.calls) == 6
        # Each requester got exactly its own slice, bitwise.
        direct = solve_lqn_batch(models)
        flattened = [result for out in outputs for result in out]
        for left, right in zip(direct, flattened):
            assert left.task_throughputs == right.task_throughputs

    def test_max_batch_splits_along_request_boundaries(self):
        solver = RecordingSolver()
        batcher = MicroBatcher(batch_window=0.05, max_batch=3, solver=solver)
        models = lqn_models(6)
        barrier = threading.Barrier(3)

        def worker(index):
            barrier.wait()
            batcher.solve(models[index * 2:(index + 1) * 2])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 3 requests × 2 models with a cap of 3: no call may exceed the
        # cap, and slices never straddle calls.
        assert all(size <= 3 for size in solver.calls)
        assert sum(solver.calls) == 6

    def test_error_propagates_to_every_requester(self):
        def broken(models):
            raise RuntimeError("boom")

        batcher = MicroBatcher(batch_window=0.05, solver=broken)
        models = lqn_models(2)
        errors = []
        barrier = threading.Barrier(2)

        def worker(index):
            barrier.wait()
            try:
                batcher.solve([models[index]])
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == ["boom", "boom"]
        # The batcher recovered: the next solve works.
        fixed = MicroBatcher(batch_window=0.0)
        assert len(fixed.solve(models)) == 2

    def test_empty_request(self):
        batcher = MicroBatcher(batch_window=0.0)
        assert batcher.solve([]) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(batch_window=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)

    def test_leader_drains_late_arrivals(self):
        """Work enqueued while the leader drains is picked up, not
        stranded waiting for a leader that already stepped down."""
        release = threading.Event()
        entered = threading.Event()
        calls = []

        def slow(models):
            calls.append(len(models))
            if len(calls) == 1:
                entered.set()
                release.wait(5)
            return solve_lqn_batch(models)

        batcher = MicroBatcher(batch_window=0.0, solver=slow)
        models = lqn_models(2)
        first = threading.Thread(target=lambda: batcher.solve([models[0]]))
        first.start()
        assert entered.wait(5)
        # The leader is now blocked inside the solver; this second
        # request lands in the queue with no leader to adopt it yet.
        second_result = []
        second = threading.Thread(
            target=lambda: second_result.append(batcher.solve([models[1]]))
        )
        second.start()
        time.sleep(0.05)
        release.set()
        first.join(10)
        second.join(10)
        assert len(second_result) == 1 and len(second_result[0]) == 1
        assert sum(calls) == 2
