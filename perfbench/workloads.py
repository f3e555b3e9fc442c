"""The four benchmark workloads.

Each workload turns a seed into its inputs (:meth:`Workload.generate`,
before any timing), sets itself up (:meth:`Workload.setup`, timed as
``setup_s``), then runs ops in a closed loop until a deadline or an op
budget (:meth:`Workload.run`).  The program sees only the generated
inputs and is driven only through its public API and ``repro serve``.
Every op's output is checked (:mod:`checks`); a mismatch or exception
makes the op failed, with its cause recorded.

Workloads never name a scan backend, ``jobs`` or a warm-start flag:
they take the program's defaults, as a user would.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks
from calibrate import Clock, held

HERE = Path(__file__).resolve().parent

#: Figure-1 architectures in the order the paper lists them.
FIGURE1_ARCHITECTURES = (
    None, "centralized", "distributed", "hierarchical", "network",
)


@dataclass
class Outcome:
    """What one measured run produced."""

    #: Op seconds, parallel to ``kinds``; filled by :meth:`settle`.
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    wall: float = 0.0
    #: Per-op kind, parallel to ``latencies``: ops of one kind do the
    #: same work (one case, one grid point, one request kind, one seed).
    kinds: list[str] = field(default_factory=list)
    #: (kind, seconds) of measured work outside any op (a campaign
    #: round's compile, re-run and read-back); filled by :meth:`settle`.
    overhead: list[tuple[str, float]] = field(default_factory=list)
    #: Raw ``(start, end)`` ``time.perf_counter()`` interval of each op.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: (kind, raw intervals) of each piece of work outside the ops.
    overhead_intervals: list[tuple[str, list[tuple[float, float]]]] = field(
        default_factory=list)
    #: One unit of the workload's op mix, as (kind, ops) pairs: a cycle
    #: of cases, a campaign round (its overhead counts 0 ops), a block
    #: of requests, a window of fuzz seeds.  A run completes at least
    #: one unit; the end-to-end figures weigh kinds by this mix.
    unit: list[tuple[str, int]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Highest tail percentile reported (see ``metrics.tail_quantile``).
    #: A workload whose runs fall short of the ops p90 needs caps it
    #: where they all reach, so the tail does not move with the op count.
    tail: float = 0.9
    #: ``time.perf_counter()`` when the run began.
    started: float = field(default_factory=time.perf_counter)
    #: Workload-specific per-layer figures (already in their units).
    layer: dict[str, float] = field(default_factory=dict)
    #: Per-op route label (service-mix), parallel to ``latencies``.
    routes: list[str] = field(default_factory=list)

    def fail(self, cause: str) -> None:
        self.failures.append(cause)

    def settle(self, clock: Clock | None = None) -> None:
        """Fill ``latencies`` and ``overhead`` from the raw intervals:
        raw seconds (as every run leaves them), or seconds at reference
        speed by the clock that sampled the run (see :mod:`calibrate`)."""
        if clock is None:
            seconds = lambda start, end: end - start  # noqa: E731
        else:
            seconds = clock.scaled
        self.latencies = [seconds(*pair) for pair in self.intervals]
        self.overhead = [
            (kind, sum(seconds(*pair) for pair in pairs))
            for kind, pairs in self.overhead_intervals
        ]


class Limit:
    """Stop condition of a run: a wall-clock deadline or an op budget."""

    def __init__(self, seconds: float | None = None,
                 ops: int | None = None) -> None:
        self.deadline = (
            None if seconds is None else time.perf_counter() + seconds
        )
        self.ops = ops

    def done(self, completed: int) -> bool:
        if self.ops is not None:
            return completed >= self.ops
        return time.perf_counter() >= self.deadline


def _span(tracer, name: str):
    return nullcontext({}) if tracer is None else tracer.span(name)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def perturb(probs: dict[str, float], rng: random.Random) -> dict[str, float]:
    """Scale each non-zero failure probability by a log-normal factor,
    kept inside (0, 0.5] so every op stays a valid analysis."""
    return {
        name: (
            p if p == 0.0
            else min(0.5, max(1e-4, p * math.exp(rng.gauss(0.0, 0.3))))
        )
        for name, p in sorted(probs.items())
    }


def import_probe(src: Path, modules: tuple[str, ...]) -> None:
    """Import ``modules`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=env, check=True,
    )


# ----------------------------------------------------------------------
# Analysis cases shared by the workloads


@dataclass(frozen=True)
class Case:
    """One pinned analysis: models as JSON documents plus its inputs."""

    label: str
    model_json: str
    mama_json: str | None
    failure_probs: dict[str, float]
    common_causes: list[dict]
    weights: dict[str, float] | None


def figure1_cases() -> list[Case]:
    """The five Figure-1 architectures at the §6.1 probabilities."""
    from repro.experiments import (
        ARCHITECTURE_BUILDERS,
        figure1_failure_probs,
        figure1_system,
    )
    from repro.ftlqn.serialize import model_to_json
    from repro.mama.serialize import mama_to_json

    model_json = model_to_json(figure1_system())
    cases = []
    for name in FIGURE1_ARCHITECTURES:
        mama = ARCHITECTURE_BUILDERS[name]() if name else None
        cases.append(Case(
            label=f"figure1/{name or 'perfect'}",
            model_json=model_json,
            mama_json=mama_to_json(mama) if mama else None,
            failure_probs=figure1_failure_probs(mama),
            common_causes=[],
            weights=None,
        ))
    return cases


def catalog_cases() -> list[Case]:
    """The seven catalog scenario/architecture cases at their
    defaults: every architecture, plus the perfect-knowledge baseline
    where no common cause names a management component."""
    from repro.ftlqn.serialize import model_to_json
    from repro.mama.serialize import mama_to_json
    from repro.service.catalog import load_scenario, scenario_names

    cases = []
    for scenario in scenario_names():
        bundle = load_scenario(scenario)
        application = set(bundle.ftlqn.component_names())
        causes = [
            {"name": c.name, "probability": float(c.probability),
             "components": list(c.components)}
            for c in bundle.common_causes
        ]
        names: list[str | None] = sorted(bundle.architectures)
        if all(set(c["components"]) <= application for c in causes):
            names.insert(0, None)
        for name in names:
            mama = bundle.architectures[name] if name else None
            universe = application | (
                set(mama.components) | set(mama.connectors) if mama else set()
            )
            cases.append(Case(
                label=f"{scenario}/{name or 'perfect'}",
                model_json=model_to_json(bundle.ftlqn),
                mama_json=mama_to_json(mama) if mama else None,
                failure_probs={
                    k: float(v) for k, v in sorted(bundle.failure_probs.items())
                    if k in universe
                },
                common_causes=causes,
                weights=(
                    None if bundle.weights is None else dict(bundle.weights)
                ),
            ))
    return cases


def analyze_case(case: Case, failure_probs: dict[str, float]):
    """One cold analysis the way ``repro analyze --json`` does it:
    parse the documents, solve on a fresh analyzer."""
    from repro import PerformabilityAnalyzer
    from repro.core.rewards import weighted_throughput_reward
    from repro.core.sweep import causes_from_documents
    from repro.ftlqn.serialize import model_from_json
    from repro.mama.serialize import mama_from_json

    ftlqn = model_from_json(case.model_json)
    mama = mama_from_json(case.mama_json) if case.mama_json else None
    analyzer = PerformabilityAnalyzer(
        ftlqn, mama,
        failure_probs=failure_probs,
        reward=(
            weighted_throughput_reward(case.weights) if case.weights else None
        ),
        common_causes=causes_from_documents(case.common_causes),
    )
    return analyzer.solve()


# ----------------------------------------------------------------------


class Workload:
    """Base class: ``generate`` → ``setup`` (timed) → ``run`` → ``close``."""

    name = ""
    #: Modules a fresh interpreter imports before the workload can run.
    modules: tuple[str, ...] = ("repro",)

    def __init__(self, root: Path, out: Path, reference: dict) -> None:
        self.root = root
        self.src = root / "src"
        self.out = out
        self.reference = reference

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Per-run set-up beyond imports; may be called repeatedly."""

    def warm_up(self) -> None:
        """Untimed work between the last set-up and the measured run."""

    def prepare(self) -> None:
        """What ``setup_s`` times: a fresh interpreter importing
        :attr:`modules` (when there are any), then :meth:`setup`."""
        if self.modules:
            import_probe(self.src, self.modules)
        self.setup()

    def run(self, limit: Limit, tracer=None) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdAnalyze(Workload):
    """Each op is one cold ``repro analyze --json``: parse the JSON
    documents, solve on a fresh analyzer, write the result document.

    Ops cycle over the five Figure-1 architectures, each twice, and
    the seven catalog cases.  The first cycle uses the pinned
    probabilities (checked against the committed reference rewards),
    every later cycle perturbs them from the seed.  Nothing is cached
    between ops.  Figure 1 appears twice per cycle so that the median op
    is a Figure-1 analysis rather than the jump between the cheap
    Figure-1 and the costlier catalog analyses, where it would swing
    from run to run.
    """

    name = "cold-analyze"
    modules = ("repro", "repro.experiments", "repro.service.catalog")
    cycles_generated = 100
    #: A 20 s run makes 37-50 ops: p70 has ten beyond it from 34, and
    #: falls among the multi-region-ecommerce cases, not on the jump
    #: from the cheaper cases below them.
    tail = 0.7

    def generate(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        figure1 = figure1_cases()
        cases = figure1 + figure1 + catalog_cases()
        rng = random.Random(self.seed)
        cycles = [[(case, dict(case.failure_probs), True) for case in cases]]
        for _ in range(self.cycles_generated):
            order = list(cases)
            rng.shuffle(order)
            cycles.append([
                (case, perturb(case.failure_probs, rng), False)
                for case in order
            ])
        self.cycles = cycles
        self.document_path = self.out / "cold-analyze-result.json"

    def run(self, limit: Limit, tracer=None) -> Outcome:
        outcome = Outcome(
            unit=[(case.label, 1) for case, *_ in self.cycles[0]],
            tail=self.tail,
        )
        ops = itertools.chain.from_iterable(itertools.cycle(self.cycles))
        for case, probs, pinned in ops:
            if outcome.attempted >= len(outcome.unit) and limit.done(
                outcome.attempted
            ):
                break
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                with _span(tracer, "op"):
                    result = analyze_case(case, probs)
                    with _span(tracer, "io.write"):
                        document = result.to_dict()
                        document.pop("counters", None)
                        self.document_path.write_text(
                            json.dumps(document, indent=2)
                        )
            except Exception as exc:  # a failed op, not a crash
                finished = time.perf_counter()
                outcome.fail(f"{case.label}: {exc!r}")
            else:
                finished = time.perf_counter()
                problem = checks.check_result(
                    document, self.reference[case.label], pinned=pinned,
                )
                if problem:
                    outcome.fail(f"{case.label}: {problem}")
            outcome.wall += finished - started
            outcome.intervals.append((started, finished))
            outcome.kinds.append(case.label)
        outcome.settle()
        outcome.peak_rss_mb = _self_peak_rss_mb()
        return outcome


class CampaignGrid(Workload):
    """Each op is one point of a seeded grid campaign over the Figure-1
    architectures, run by ``run_campaign(workers=1)`` into a fresh
    sqlite store.  A round is one campaign of
    ``points_per_architecture`` points per architecture, each with its
    own failure-probability vector (the first per architecture is the
    pinned §6.1 point).  After the last point the same campaign is
    re-run against the full store (it must recompute nothing), every
    point is read back and checked, and the report is rendered; that
    read-back is timed with the round."""

    name = "campaign-grid"
    modules = ("repro", "repro.campaign", "repro.experiments")
    points_per_architecture = 16
    rounds_generated = 30

    def generate(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.campaign import CampaignSpec, ResultStore
        from repro.campaign.spec import PointsWorkload
        from repro.core.sweep import SweepPoint
        from repro.experiments import (
            ARCHITECTURE_BUILDERS,
            figure1_failure_probs,
            figure1_system,
        )

        ftlqn = figure1_system()
        architectures = {
            name: build() for name, build in ARCHITECTURE_BUILDERS.items()
        }
        rng = random.Random(self.seed)
        self.specs = []
        for round_index in range(self.rounds_generated):
            points = []
            for name in FIGURE1_ARCHITECTURES:
                mama = architectures[name] if name else None
                pinned = figure1_failure_probs(mama)
                for index in range(self.points_per_architecture):
                    probs = pinned if index == 0 else perturb(pinned, rng)
                    points.append(SweepPoint(
                        name=f"figure1/{name or 'perfect'}/{index}",
                        architecture=name,
                        failure_probs=probs,
                    ))
            self.specs.append(CampaignSpec(
                name=f"grid-{self.seed}-{round_index}",
                ftlqn=ftlqn,
                architectures=architectures,
                workloads=(PointsWorkload(label="grid",
                                          points=tuple(points)),),
            ))
        self.stores = self.out / "campaign"
        shutil.rmtree(self.stores, ignore_errors=True)
        self.stores.mkdir(parents=True)
        ResultStore(str(self.stores / "probe.sqlite")).close()

    @staticmethod
    def kind(name: str) -> str:
        """Points of one architecture do the same work, except the first
        of a round, which also solves the architecture's LQNs."""
        architecture, index = name.rsplit("/", 1)
        return f"{architecture} {'first' if index == '0' else 'rest'}"

    def run(self, limit: Limit, tracer=None) -> Outcome:
        from repro.campaign import CampaignReport, ResultStore, run_campaign
        from repro.core.sweep import SweepPointResult

        outcome = Outcome(unit=[
            (self.kind(point.name), 1)
            for point in self.specs[0].workloads[0].points
        ] + [("round", 0)])
        readbacks: list[float] = []
        store_bytes = 0
        for round_index, spec in enumerate(itertools.cycle(self.specs)):
            if limit.done(outcome.attempted):
                break
            path = self.stores / f"round-{round_index}.sqlite"
            progress = _PointMarks()
            started = time.perf_counter()
            store = ResultStore(str(path))
            try:
                result = run_campaign(spec, store, workers=1,
                                      progress=progress)
                written = time.perf_counter()
                rerun = run_campaign(spec, store, workers=1)
                records = {
                    name: store.get(key) for name, key in result.keys.items()
                }
                report = CampaignReport.from_store(store, campaign=spec.name)
                report.to_json()
            except Exception as exc:  # the whole round failed
                outcome.attempted += len(progress.ops) or 1
                outcome.fail(f"round {round_index}: {exc!r}")
                continue
            finally:
                store.close()
            finished = time.perf_counter()
            store_bytes += sum(
                candidate.stat().st_size
                for candidate in self.stores.glob(f"round-{round_index}.*")
            )
            outcome.intervals.extend(progress.ops)
            outcome.attempted += result.total
            outcome.wall += finished - started
            outcome.kinds.extend(self.kind(name) for name in result.keys)
            outcome.overhead_intervals.append(("round", [
                (started, progress.first), (progress.last, finished),
            ]))
            readbacks.append(finished - written)
            if (len(progress.ops) != result.total
                    or result.solved != result.total):
                outcome.fail(
                    f"round {round_index}: {result.solved}/{result.total} "
                    "points solved"
                )
            if rerun.solved or rerun.store_hits != rerun.total:
                outcome.fail(
                    f"round {round_index}: re-run recomputed {rerun.solved} "
                    "points"
                )
            for name, stored in records.items():
                label = name.split("/", 1)[1].rsplit("/", 1)[0]
                if stored is None:
                    outcome.fail(f"{name}: not in the store")
                    continue
                document = SweepPointResult.from_dict(
                    stored.document["record"]
                ).result.to_dict()
                problem = checks.check_result(
                    document, self.reference[label],
                    pinned=name.endswith("/0"),
                )
                if problem:
                    outcome.fail(f"{name}: {problem}")
        outcome.settle()
        outcome.peak_rss_mb = _self_peak_rss_mb()
        if readbacks:
            outcome.layer["campaign.readback_s"] = sorted(readbacks)[
                len(readbacks) // 2
            ]
        if outcome.attempted:
            outcome.layer["campaign.store_bytes"] = (
                store_bytes / outcome.attempted
            )
        return outcome


class _PointMarks:
    """Progress callback of one campaign round: records each point's
    raw ``(start, end)``."""

    def __init__(self) -> None:
        self.ops: list[tuple[float, float]] = []
        #: When the first event came (the points start) and when the
        #: latest point ended (the next one starts).
        self.first = self.last = 0.0

    def __call__(self, event) -> None:
        now = time.perf_counter()
        if not self.first:
            self.first = now
        elif event.completed > len(self.ops):
            self.ops.append((self.last, now))
        else:
            return
        self.last = now


class Daemon:
    """One ``repro serve --port 0`` subprocess.

    With ``spans`` set, the daemon is started through
    ``traced_serve.py``, which installs the benchmark's tracer in the
    daemon process and writes its spans to that path on shutdown.
    """

    def __init__(self, root: Path, spans: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(spans), "--port", "0"]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=root,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"daemon did not announce a port: {line!r}")
        from repro.service.client import ServiceClient

        self.client = ServiceClient(port=int(match.group(1)), timeout=170)
        self.client.healthz()

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServiceMix(Workload):
    """A ``repro serve --port 0`` daemon (default worker count, one per
    CPU) takes requests from one client in a closed loop: the client
    sends its next request when the previous reply arrives.  One client
    keeps the latencies free of interpreter-lock contention between
    concurrent requests, which on a two-CPU host swung the median
    request by a fifth from run to run.

    Set-up boots the daemon and fills its caches with one default
    ``/analyze`` per catalog scenario, as a long-running daemon's are;
    an untimed warm-up then sends one ``/temporal`` per scenario.
    Every block of requests then holds, in a seeded order, for each
    catalog scenario: 9 repeated ``/analyze`` (warm hits), 8
    ``/analyze`` with perturbed failure probabilities (scan miss, LQN
    hit), 1 ``/analyze`` with an inline model not seen before (structure
    and LQN miss, through the micro-batcher) and 1 ``/temporal`` (the
    markov layer: a three-point curve plus the scenario's first
    detection latency).  Every block costs the same work.

    The mix puts both reported percentiles inside a request kind with
    many samples per run.  Warm hits are a little under half, so the
    median request is a perturbed scan, not the long garbage-collection
    tail of the warm hits (which a heavy request's garbage lands on) nor
    the jump between the two.  The inline and ``/temporal`` requests,
    the slowest kinds with a few samples each per run, are 5 of 57, so
    the 90th percentile is the costliest scenario's perturbed scan
    rather than the jump between two of those rare kinds.
    """

    name = "service-mix"
    modules = ()
    blocks_generated = 40
    #: (kind, route, requests per scenario in a block).
    MIX = (("repeat", "/analyze", 9), ("perturbed", "/analyze", 8),
           ("inline", "/analyze", 1), ("temporal", "/temporal", 1))

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: Where a traced daemon writes its spans; ``None`` = untraced.
        self.spans: Path | None = None
        self.daemon: Daemon | None = None

    def generate(self, seed: int) -> None:
        from repro.service.catalog import load_scenario, scenario_names

        rng = random.Random(seed)
        bundles = [load_scenario(name) for name in scenario_names()]
        self.scenarios = [bundle.name for bundle in bundles]
        self.block_size = len(bundles) * sum(
            count for _kind, _route, count in self.MIX
        )
        documents = {b.name: b.to_document() for b in bundles}
        self.warm_ups = [
            ("/temporal", self._payload("temporal", b, documents, rng))
            for b in bundles
        ]
        requests = []
        for index in range(self.blocks_generated):
            block = []
            for bundle in bundles:
                label = f"{bundle.name}/{bundle.default_architecture}"
                for kind, route, count in self.MIX:
                    for _ in range(count):
                        payload = self._payload(kind, bundle, documents, rng)
                        block.append((kind, route, payload, label))
            # The first block keeps one fixed order: the daemon's peak
            # memory, read after it, depends on the order of requests.
            if index:
                rng.shuffle(block)
            requests.extend(block)
        self.requests = requests

    @staticmethod
    def _payload(kind, bundle, documents, rng) -> dict:
        if kind == "repeat":
            return {"scenario": bundle.name}
        if kind == "temporal":
            # A three-point curve and one detection latency: the markov
            # layer's work without letting /temporal take most of the
            # daemon's time.
            return {"scenario": bundle.name, "points": 3,
                    "latencies": list(bundle.temporal["latencies"][:1])}
        mama = bundle.architectures[bundle.default_architecture]
        universe = set(bundle.ftlqn.component_names()) | set(
            mama.components) | set(mama.connectors)
        if kind == "perturbed":
            return {
                "scenario": bundle.name,
                "failure_probs": perturb(
                    {k: v for k, v in bundle.failure_probs.items()
                     if k in universe}, rng),
            }
        document = dict(documents[bundle.name])
        document["failure_probs"] = perturb(document["failure_probs"], rng)
        document["architecture"] = bundle.default_architecture
        return document

    def setup(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        self.daemon = Daemon(self.root, self.spans)
        for name in self.scenarios:
            self.daemon.client.analyze({"scenario": name})

    def warm_up(self) -> None:
        for route, payload in self.warm_ups:
            self.daemon.client.post(route, payload)

    def run(self, limit: Limit, tracer=None) -> Outcome:
        from repro.service.client import ServiceClientError

        outcome = Outcome(unit=[
            (f"{kind} {label}", 1)
            for kind, _route, _payload, label in
            self.requests[:self.block_size]
        ])
        client = self.daemon.client
        for kind, route, payload, label in itertools.cycle(self.requests):
            if outcome.attempted >= self.block_size and limit.done(
                outcome.attempted
            ):
                break
            outcome.attempted += 1
            started = time.perf_counter()
            problem = None
            try:
                with held():  # the daemon does the work, on this CPU
                    document = client.post(route, payload)
            except ServiceClientError as exc:
                problem = f"HTTP {exc.status}: {exc}"
            except OSError as exc:  # connection failures
                problem = repr(exc)
            finished = time.perf_counter()
            if problem is None:
                problem = checks.check_response(
                    kind, document, self.reference[label]
                )
            if problem:
                outcome.fail(f"{kind} {label}: {problem}")
            outcome.intervals.append((started, finished))
            outcome.routes.append(route)
            outcome.kinds.append(f"{kind} {label}")
            outcome.wall += finished - started
            if outcome.attempted == self.block_size:
                # The daemon's caches keep growing with the requests it
                # has served; read its peak after the same work, in the
                # same order, in every run.
                outcome.peak_rss_mb = self.daemon.peak_rss_mb()
        outcome.settle()
        stats = client.stats()
        batcher = stats.get("batcher", {})
        outcome.layer.update({
            "service.lqn_cache_hit_rate": stats.get("lqn_cache_hit_rate", 0.0),
            "service.batcher_max_batch": batcher.get("max_batch_seen", 0),
            "service.coalesced_requests": batcher.get(
                "coalesced_requests", 0),
        })
        if stats.get("errors"):
            outcome.fail(f"daemon counted {stats['errors']} errors")
        return outcome

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


class VerifyFuzz(Workload):
    """Each op is one seed of ``run_fuzz`` over a contiguous range of
    fuzz seeds, with ``repro verify`` defaults except that shrinking is
    off and there are no parallel re-runs.  Every tenth seed carries the
    Monte-Carlo cross-check, so the simulator does most of the work.  An
    oracle disagreement is a failed op.

    The range is the fixed :data:`WINDOW` of fuzz seeds
    :data:`FIRST`..``FIRST + WINDOW - 1``, walked again and again until
    the deadline; the benchmark seed picks where in the window the walk
    starts.  Fuzz scenarios differ widely in cost, and the simulated
    seed of a window takes from 2 to 18 s (on a 2-vCPU host), so a range
    that moved with the benchmark seed would give every run a different
    op population and spreads of a fifth to a half with no change to the
    program.  This window's simulated seed (50) takes about 2 s, so a
    20 s run walks the window about six times and every seed's median
    has several samples; windows with an 8-18 s simulated seed give one
    or two.
    """

    name = "verify-fuzz"
    modules = ("repro", "repro.verify")
    FIRST = 41
    WINDOW = 10
    #: A 20 s run makes 31-60 ops: p60 has ten beyond it from 25.
    tail = 0.6

    def generate(self, seed: int) -> None:
        offset = seed % self.WINDOW
        #: One pass over the window as contiguous ``(first, count)``
        #: ranges, starting ``offset`` seeds in.
        self.segments = [
            (first, count) for first, count in (
                (self.FIRST + offset, self.WINDOW - offset),
                (self.FIRST, offset),
            ) if count
        ]

    def run(self, limit: Limit, tracer=None) -> Outcome:
        from repro.verify import run_fuzz

        outcome = Outcome(
            unit=[
                (f"seed {seed}", 1)
                for seed in range(self.FIRST, self.FIRST + self.WINDOW)
            ],
            tail=self.tail,
        )
        resume = time.perf_counter()

        def log(seed_outcome) -> None:
            nonlocal resume
            now = time.perf_counter()
            outcome.intervals.append((resume, now))
            outcome.wall += now - resume
            resume = now
            outcome.attempted += 1
            outcome.kinds.append(f"seed {seed_outcome.seed}")
            if not seed_outcome.ok:
                details = "; ".join(
                    d.get("detail", "") for d in seed_outcome.disagreements
                )
                outcome.fail(f"seed {seed_outcome.seed}: {details}")

        def finished() -> bool:
            if limit.ops is not None:
                return limit.done(outcome.attempted)
            # A timed run always completes one pass of the window.
            return (outcome.attempted >= self.WINDOW
                    and limit.done(outcome.attempted))

        for first, count in itertools.cycle(self.segments):
            if finished():
                break
            budget = None
            if limit.ops is not None:
                count = min(count, limit.ops - outcome.attempted)
            elif outcome.attempted >= self.WINDOW:
                budget = limit.deadline - time.perf_counter()
            run_fuzz(seeds=count, seed_start=first, time_budget=budget,
                     parallel_every=0, shrink=False, log=log)
        outcome.settle()
        outcome.peak_rss_mb = _self_peak_rss_mb()
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (ColdAnalyze, CampaignGrid, ServiceMix,
                              VerifyFuzz)
}
