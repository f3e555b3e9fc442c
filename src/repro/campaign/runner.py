"""The multi-process campaign dispatcher.

:func:`run_campaign` takes a compiled campaign and a
:class:`~repro.campaign.store.ResultStore` and drives it to
completion:

1. **Memo query** — one :meth:`~repro.campaign.store.ResultStore.known`
   call partitions the points into store hits (done forever, zero
   work) and pending;
2. **Dispatch** — pending points are sharded over ``workers``
   processes, each hosting a warm :class:`~repro.core.sweep.SweepEngine`
   rebuilt from the campaign's plain-JSON engine documents (workers
   receive *data*, never live model objects, so the pool works under
   both fork and spawn start methods);
3. **Streaming commit** — results stream back incrementally; the
   parent commits each one to the store the moment it arrives and
   emits a :class:`CampaignProgress` event with a measured ETA.

Because every finished point is committed before the next one is
awaited, the dispatcher is crash-resumable by construction: SIGKILL it
anywhere, rerun the same spec against the same store, and the second
run completes from the store with zero recomputation — the property
``tests/campaign/test_runner.py`` proves by actually killing it.

Campaign parallelism is across points, which scales embarrassingly;
each point's scan runs in its worker process.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

from repro.campaign.spec import CampaignSpec, CompiledCampaign, CompiledPoint
from repro.campaign.store import ResultStore
from repro.core.dependency import CommonCause
from repro.core.progress import ScanCounters
from repro.core.sweep import SweepPoint

#: Per-worker state, initialised once per process by
#: :func:`_worker_init` and grown lazily: the engine documents arrive
#: eagerly (cheap JSON), the deserialized models and the warm
#: :class:`~repro.core.sweep.SweepEngine` are built on first use.
_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class CampaignProgress:
    """One dispatcher progress notification (parent process only).

    ``completed`` counts points finished *this run* (store hits count
    immediately); ``eta_seconds`` is measured from the solve rate so
    far, ``None`` until at least one fresh point has finished.
    """

    campaign: str
    completed: int
    total: int
    hits: int
    solved: int
    failed: int
    elapsed: float
    eta_seconds: float | None

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


CampaignProgressCallback = Callable[[CampaignProgress], None]


def console_campaign_progress(stream=None) -> CampaignProgressCallback:
    """A callback rendering one carriage-returned status line
    (``done/total, hits, solved, ETA``) on ``stream`` (default:
    ``sys.stderr``)."""
    import sys

    out = stream if stream is not None else sys.stderr

    def callback(event: CampaignProgress) -> None:
        eta = (
            "--" if event.eta_seconds is None
            else f"{event.eta_seconds:.0f}s"
        )
        out.write(
            f"\r[{event.campaign}] {event.completed}/{event.total} points "
            f"({100.0 * event.fraction:5.1f}%) "
            f"hits={event.hits} solved={event.solved} "
            f"failed={event.failed} eta={eta}"
        )
        if event.completed >= event.total:
            out.write("\n")
        out.flush()

    return callback


@dataclass(frozen=True)
class CampaignResult:
    """The outcome of one :func:`run_campaign` call.

    ``store_hits``/``solved`` partition the campaign's points into
    memoized and freshly computed; ``failed_checks`` names the fuzz
    points whose oracle check found a disagreement (whether this run
    found it or the store remembered it).  ``counters`` aggregates the
    scan counters of the *fresh* solves only — a fully memoized rerun
    reports all-zero counters, which is exactly the claim it makes.
    ``keys`` maps every point name to its content address, for
    store lookups after the run.
    """

    campaign: str
    total: int
    store_hits: int
    solved: int
    failed_checks: tuple[str, ...]
    duplicate_points: int
    seconds: float
    counters: ScanCounters
    keys: Mapping[str, str] = field(default_factory=dict)
    store_path: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failed_checks

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "total": self.total,
            "store_hits": self.store_hits,
            "solved": self.solved,
            "failed_checks": list(self.failed_checks),
            "duplicate_points": self.duplicate_points,
            "seconds": self.seconds,
            "counters": self.counters.to_dict(),
            "store_path": self.store_path,
        }


# ----------------------------------------------------------------------
# Point execution (runs inside workers — module-level for picklability)


def _worker_init(engine_documents: dict) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE["documents"] = engine_documents


def _worker_engine():
    engine = _WORKER_STATE.get("engine")
    if engine is None:
        import json

        from repro.core.sweep import SweepEngine
        from repro.ftlqn.serialize import model_from_json
        from repro.mama.serialize import mama_from_json

        documents = _WORKER_STATE["documents"]
        ftlqn = model_from_json(json.dumps(documents["ftlqn"]))
        architectures = {
            name: mama_from_json(json.dumps(doc))
            for name, doc in documents["architectures"].items()
        }
        # No base failure probs: compiled payloads carry the already
        # effective map, so base + overlay resolution happened exactly
        # once, in the parent, at compile time.
        engine = SweepEngine(ftlqn, architectures)
        _WORKER_STATE["engine"] = engine
        _WORKER_STATE["ftlqn"] = ftlqn
    return engine


def _execute_solve(payload: Mapping) -> dict:
    engine = _worker_engine()
    point = SweepPoint(
        name=payload["name"],
        architecture=payload["architecture"],
        failure_probs=payload["failure_probs"],
        common_causes=tuple(
            CommonCause(
                name=cause["name"],
                probability=cause["probability"],
                components=tuple(cause["components"]),
            )
            for cause in payload["common_causes"]
        ),
        weights=payload["weights"],
    )
    counters = ScanCounters()
    sweep = engine.run(
        [point],
        method=payload["method"],
        epsilon=payload["epsilon"],
        counters=counters,
    )
    return {
        "kind": "solve",
        "record": sweep.points[0].to_dict(),
        "counters": counters.to_dict(),
    }


def _execute_temporal(payload: Mapping) -> dict:
    from repro.core.temporal import TemporalAnalyzer
    from repro.markov.availability import ComponentAvailability

    engine = _worker_engine()
    analyzer = TemporalAnalyzer(
        _WORKER_STATE["ftlqn"],
        rates={
            name: ComponentAvailability(
                failure_rate=pair[0], repair_rate=pair[1]
            )
            for name, pair in payload["rates"].items()
        },
        common_causes=tuple(
            CommonCause(
                name=cause["name"],
                probability=cause["probability"],
                components=tuple(cause["components"]),
            )
            for cause in payload["common_causes"]
        ),
        cause_repair_rate=payload["cause_repair_rate"],
        weights=payload["weights"],
        engine=engine,
    )
    counters = ScanCounters()
    curve = analyzer.evaluate(
        payload["times"],
        architecture=payload["architecture"],
        method=payload["method"],
        epsilon=payload["epsilon"],
        counters=counters,
    )
    erosion = ()
    if payload["latencies"]:
        erosion = analyzer.erosion_curve(
            payload["latencies"],
            method=payload["method"],
            epsilon=payload["epsilon"],
            counters=counters,
        )
    return {
        "kind": "temporal",
        "result": curve.to_json_dict(),
        "erosion": [point.to_dict() for point in erosion],
        "counters": counters.to_dict(),
    }


def _execute_fuzz(payload: Mapping) -> dict:
    from repro.verify.generator import Scenario
    from repro.verify.oracle import check_scenario, default_backends

    scenario = Scenario.from_document(payload["scenario"])
    report = check_scenario(
        scenario,
        backends=default_backends(payload["backends"]),
        simulate=payload["simulate"],
        temporal=payload.get("temporal", False),
    )
    return {
        "kind": "fuzz",
        "seed": payload["seed"],
        "ok": report.ok,
        "reference_backend": report.reference_backend,
        "backends_checked": list(report.backends_checked),
        "simulated": report.simulated,
        "temporal_checked": report.temporal_checked,
        "bounded_checked": report.bounded_checked,
        "state_count": report.state_count,
        "distinct_configurations": report.distinct_configurations,
        "expected_reward": report.expected_reward,
        "failed_probability": report.failed_probability,
        "disagreements": [d.as_dict() for d in report.disagreements],
    }


def _execute_point(kind: str, name: str, workload: str, payload: dict):
    """Worker entry: execute one point, return (document, seconds)."""
    start = time.perf_counter()
    if kind == "solve":
        document = _execute_solve(payload)
    elif kind == "temporal":
        document = _execute_temporal(payload)
    elif kind == "fuzz":
        document = _execute_fuzz(payload)
    else:  # pragma: no cover - compile() only emits known kinds
        raise ValueError(f"unknown point kind {kind!r}")
    document["workload"] = workload
    return document, time.perf_counter() - start


# ----------------------------------------------------------------------
# The dispatcher


def _fold_result(
    point: CompiledPoint,
    document: Mapping,
    counters: ScanCounters,
    failed: list[str],
) -> None:
    if point.kind in ("solve", "temporal"):
        counters.merge(ScanCounters.from_dict(document["counters"]))
    elif point.kind == "fuzz" and not document.get("ok", True):
        failed.append(point.name)


def run_campaign(
    campaign: CampaignSpec | CompiledCampaign,
    store: ResultStore,
    *,
    workers: int = 1,
    method: str | None = None,
    epsilon: float | None = None,
    progress: CampaignProgressCallback | None = None,
) -> CampaignResult:
    """Drive a campaign to completion against a result store.

    ``campaign`` may be a :class:`~repro.campaign.spec.CampaignSpec`
    (compiled here, with ``method``/``epsilon`` as backend overrides)
    or an already compiled campaign (``method``/``epsilon`` must then
    be ``None`` — a compiled campaign's keys already fix its backend).
    ``workers=1`` executes inline in this process; ``workers<=0``
    means one worker per CPU.
    """
    if isinstance(campaign, CampaignSpec):
        compiled = campaign.compile(method=method, epsilon=epsilon)
    else:
        if method is not None or epsilon is not None:
            raise ValueError(
                "method/epsilon overrides apply at compile time; pass the "
                "CampaignSpec instead of a CompiledCampaign"
            )
        compiled = campaign
    if workers <= 0:
        workers = os.cpu_count() or 1

    start = time.perf_counter()
    known = store.known(point.key for point in compiled.points)
    pending = [p for p in compiled.points if p.key not in known]
    hits = len(compiled.points) - len(pending)

    counters = ScanCounters()
    failed: list[str] = []
    # A hit's verdict still counts: a fuzz failure remembered by the
    # store must fail the rerun too, not vanish into the memo.
    for point in compiled.points:
        if point.key in known and point.kind == "fuzz":
            stored = store.get(point.key)
            if stored is not None and not stored.document.get("ok", True):
                failed.append(point.name)

    completed = hits
    solved = 0
    solve_seconds = 0.0

    def emit(force: bool = False) -> None:
        if progress is None:
            return
        elapsed = time.perf_counter() - start
        eta = None
        if solved and completed < len(compiled.points):
            eta = (
                (len(compiled.points) - completed)
                * (solve_seconds / solved)
                / max(1, min(workers, len(pending)))
            )
        progress(
            CampaignProgress(
                campaign=compiled.name,
                completed=completed,
                total=len(compiled.points),
                hits=hits,
                solved=solved,
                failed=len(failed),
                elapsed=elapsed,
                eta_seconds=eta,
            )
        )

    emit(force=True)

    def commit(point: CompiledPoint, document: dict, seconds: float) -> None:
        nonlocal completed, solved, solve_seconds
        if point.extra:
            document = {**document, "extra": point.extra}
        store.put(
            point.key,
            kind=point.kind,
            name=point.name,
            document=document,
            seconds=seconds,
            campaign=compiled.name,
        )
        _fold_result(point, document, counters, failed)
        completed += 1
        solved += 1
        solve_seconds += seconds
        emit()

    if pending and workers == 1:
        _worker_init(compiled.engine_documents)
        for point in pending:
            document, seconds = _execute_point(
                point.kind, point.name, point.workload, point.payload
            )
            commit(point, document, seconds)
    elif pending:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_worker_init,
            initargs=(compiled.engine_documents,),
        ) as pool:
            futures = {
                pool.submit(
                    _execute_point,
                    point.kind, point.name, point.workload, point.payload,
                ): point
                for point in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    document, seconds = future.result()
                    commit(futures[future], document, seconds)

    emit(force=True)
    return CampaignResult(
        campaign=compiled.name,
        total=len(compiled.points),
        store_hits=hits,
        solved=solved,
        failed_checks=tuple(failed),
        duplicate_points=compiled.duplicate_points,
        seconds=time.perf_counter() - start,
        counters=counters,
        keys={point.name: point.key for point in compiled.points},
        store_path=store.path,
    )
