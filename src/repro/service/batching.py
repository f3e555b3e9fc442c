"""Micro-batching queue: coalesce concurrent LQN solves into one batch.

The batched AMVA of :mod:`repro.lqn.solver` iterates every model in
lockstep NumPy operations with per-element convergence masking, so one
``solve_lqn_batch`` over N models costs far less than N separate solves
— and is *bitwise identical* per model regardless of what else rides in
the batch.  That guarantee is what makes cross-request batching safe:
the :class:`MicroBatcher` may merge the uncached configurations of
several concurrent HTTP requests into one call without perturbing any
request's result by a single bit.

The scheme is leader/follower.  The first thread to arrive at an idle
batcher becomes the *leader*: it publishes its work, sleeps for one
short batch window so concurrent requests can pile up, then drains the
whole queue into as few ``solve_lqn_batch`` calls as the batch-size cap
allows and distributes each requester's slice back.  Threads arriving
while a leader is active are *followers*: they enqueue and block on a
latch until the leader hands them their results.  Before stepping down
the leader re-checks the queue under the lock, so work enqueued during
its final drain is never stranded.

A batcher is a plain :data:`~repro.core.performability.BatchSolver` —
plug it into :class:`~repro.core.sweep.SweepEngine` via ``lqn_solver=``
(the analysis service does exactly that for every warm engine).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

from repro.lqn.results import LQNResults
from repro.lqn.solver import solve_lqn_batch

#: Default pile-up window, seconds.  Long enough for a thread pool's
#: concurrent requests to reach the queue, short enough to be noise
#: next to a single layered solve (typically ≥ 10 ms).
DEFAULT_BATCH_WINDOW = 0.002

#: Default cap on models per underlying ``solve_lqn_batch`` call.
DEFAULT_MAX_BATCH = 256


class _Pending:
    """One requester's enqueued work and its result latch."""

    __slots__ = ("models", "done", "results", "error")

    def __init__(self, models: Sequence[object]) -> None:
        self.models = list(models)
        self.done = threading.Event()
        self.results: list[LQNResults] | None = None
        self.error: BaseException | None = None


class MicroBatcher:
    """Thread-safe coalescing wrapper around ``solve_lqn_batch``.

    Parameters
    ----------
    batch_window:
        Seconds the leader waits for followers before draining.  ``0``
        disables the wait (still coalesces whatever raced in).
    max_batch:
        Upper bound on models per underlying solver call; a drain
        exceeding it is split into consecutive calls along requester
        boundaries (slices never straddle a call).
    solver:
        Injection point for tests; defaults to
        :func:`~repro.lqn.solver.solve_lqn_batch`.
    """

    def __init__(
        self,
        *,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        solver=None,
    ) -> None:
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._window = batch_window
        self._max_batch = max_batch
        self._solver = solver or solve_lqn_batch
        self._lock = threading.Lock()
        self._queue: list[_Pending] = []
        self._leader_active = False
        # Stats (guarded by the lock; served by the /stats endpoint).
        self.batches = 0
        self.batched_models = 0
        self.coalesced_requests = 0
        self.max_batch_seen = 0

    # ------------------------------------------------------------------

    def solve(self, models: Sequence[object]) -> list[LQNResults]:
        """Solve ``models``, possibly batched with concurrent callers.

        Blocks until this caller's results are available; exceptions
        from the underlying solver propagate to every requester whose
        work was in the failing call.
        """
        if not models:
            return []
        pending = _Pending(models)
        with self._lock:
            self._queue.append(pending)
            lead = not self._leader_active
            if lead:
                self._leader_active = True
        if lead:
            self._lead()
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.results is not None
        return pending.results

    def stats(self) -> dict[str, int]:
        """Counters snapshot: calls issued, models per call, coalescing."""
        with self._lock:
            return {
                "batches": self.batches,
                "batched_models": self.batched_models,
                "coalesced_requests": self.coalesced_requests,
                "max_batch_seen": self.max_batch_seen,
            }

    # ------------------------------------------------------------------

    def _lead(self) -> None:
        if self._window > 0:
            time.sleep(self._window)
        while True:
            with self._lock:
                batch: list[_Pending] = []
                size = 0
                while self._queue:
                    nxt = self._queue[0]
                    if batch and size + len(nxt.models) > self._max_batch:
                        break
                    batch.append(self._queue.pop(0))
                    size += len(nxt.models)
                if not batch:
                    # Re-checked under the lock: nothing new arrived
                    # during the last drain, so it is safe to step down.
                    self._leader_active = False
                    return
                self.batches += 1
                self.batched_models += size
                self.coalesced_requests += len(batch)
                self.max_batch_seen = max(self.max_batch_seen, size)
            self._drain(batch)

    def _drain(self, batch: list[_Pending]) -> None:
        models = [model for pending in batch for model in pending.models]
        try:
            results = self._solver(models)
            offset = 0
            for pending in batch:
                pending.results = list(
                    results[offset:offset + len(pending.models)]
                )
                offset += len(pending.models)
        except BaseException as exc:
            for pending in batch:
                pending.error = exc
        finally:
            for pending in batch:
                pending.done.set()
