"""The HTTP daemon: routes, parity with direct engines, streaming, errors."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceClientError,
    load_scenario,
    resolve_workers,
    scenario_names,
    serve,
)
from repro.service.state import ServiceError


def _start(service: AnalysisService) -> ServiceClient:
    """Serve ``service`` from a daemon thread on a free port."""
    captured = {}
    ready = threading.Event()

    def on_ready(server):
        captured["server"] = server
        ready.set()

    thread = threading.Thread(
        target=serve, args=(service,), kwargs={"port": 0, "ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "daemon did not come up"
    return ServiceClient(port=captured["server"].port)


@pytest.fixture(scope="module")
def running_service():
    """One daemon on a free port, shared by the module's tests."""
    service = AnalysisService(workers=4, batch_window=0.005)
    yield service, _start(service)


class TestRoutes:
    def test_healthz(self, running_service):
        _service, client = running_service
        document = client.healthz()
        assert document["status"] == "ok"
        assert document["uptime_seconds"] >= 0.0

    def test_catalog_and_scenario_documents(self, running_service):
        _service, client = running_service
        catalog = client.catalog()
        names = [entry["name"] for entry in catalog["scenarios"]]
        assert names == scenario_names()
        document = client.scenario("datacenter-risk")
        assert document["name"] == "datacenter-risk"
        assert "model" in document and "architectures" in document

    def test_analyze_matches_direct_service(self, running_service):
        """The HTTP round-trip adds nothing and loses nothing: the
        response equals a direct in-process call after JSON transport
        (which is exact for these documents)."""
        service, client = running_service
        payload = {"scenario": "datacenter-risk", "architecture": "centralized"}
        over_http = client.analyze(payload)
        direct = json.loads(json.dumps(service.analyze(payload)))
        for document in (over_http, direct):
            # Timing and cache-warmth fields legitimately differ
            # between the two calls; the analytical payload must not.
            document.pop("seconds")
            document.pop("scan_cached")
        assert over_http == direct

    def test_analyze_is_deterministic_across_requests(self, running_service):
        _service, client = running_service
        payload = {"scenario": "cdn-failover"}
        first = client.analyze(payload)
        second = client.analyze(payload)
        assert first["result"] == second["result"]
        assert first["expected_reward"] == second["expected_reward"]

    def test_analyze_uses_scenario_default_architecture(
        self, running_service
    ):
        _service, client = running_service
        bundle = load_scenario("cdn-failover")
        response = client.analyze({"scenario": "cdn-failover"})
        assert response["architecture"] == bundle.default_architecture

    def test_sweep_default_points(self, running_service):
        _service, client = running_service
        document = client.sweep({"scenario": "multi-region-ecommerce"})
        bundle = load_scenario("multi-region-ecommerce")
        assert [p["name"] for p in document["points"]] == [
            point.name for point in bundle.points
        ]
        assert document["scenario"] == "multi-region-ecommerce"

    def test_sweep_streaming_ndjson(self, running_service):
        _service, client = running_service
        events = list(
            client.sweep_stream({"scenario": "datacenter-risk"})
        )
        assert events[-1]["event"] == "result"
        assert any(event["event"] == "progress" for event in events[:-1])
        final = events[-1]
        streamed_rewards = [
            point["expected_reward"] for point in final["points"]
        ]
        plain = client.sweep({"scenario": "datacenter-risk"})
        assert streamed_rewards == [
            point["expected_reward"] for point in plain["points"]
        ]

    def test_optimize_over_http(self, running_service):
        _service, client = running_service
        document = client.optimize(
            {"scenario": "datacenter-risk",
             "search": {"strategy": "exhaustive"}}
        )
        assert document["evaluated"] >= 1
        assert document["recommended"] is not None

    def test_optimize_honours_bounded_epsilon(self, running_service):
        """A bounded search's candidates are read at the body's epsilon:
        a loose epsilon leaves a visibly lower guaranteed reward than a
        tight one, which meets the exact ``bdd`` reward."""
        _service, client = running_service

        def rewards(body):
            document = client.optimize(
                {"scenario": "datacenter-risk",
                 "search": {"strategy": "exhaustive"}, **body}
            )
            return [c["expected_reward"] for c in document["candidates"]]

        exact = rewards({"method": "bdd"})
        loose = rewards({"method": "bounded", "epsilon": 0.5})
        tight = rewards({"method": "bounded", "epsilon": 1e-9})
        assert loose != tight
        for low, high, reference in zip(loose, tight, exact):
            assert low < high
            assert high == pytest.approx(reference, rel=1e-9)

    def test_inline_model_round_trip(self, running_service):
        """A scenario document posted back as an inline model gives the
        identical answer — the serializers are lossless."""
        _service, client = running_service
        document = client.scenario("multi-region-ecommerce")
        named = client.analyze(
            {"scenario": "multi-region-ecommerce",
             "architecture": "centralized"}
        )
        inline = client.analyze(
            {"model": document["model"],
             "architectures": document["architectures"],
             "architecture": "centralized",
             "failure_probs": document["failure_probs"],
             "weights": document["weights"]}
        )
        assert inline["expected_reward"] == named["expected_reward"]
        assert inline["result"] == named["result"]

    def test_stats_accumulate(self, running_service):
        _service, client = running_service
        client.analyze({"scenario": "datacenter-risk"})
        stats = client.stats()
        assert stats["requests"]["analyze"] >= 1
        assert stats["workers"] == 4
        assert "batcher" in stats and "counters" in stats
        for engine_stats in stats["engines"].values():
            assert set(engine_stats) == {
                "architectures", "structures", "scan_entries", "lqn_entries",
            }

    def test_concurrent_burst_is_consistent(self, running_service):
        _service, client = running_service
        reference = client.analyze({"scenario": "cdn-failover"})
        outputs = [None] * 6
        barrier = threading.Barrier(6)

        def worker(index):
            barrier.wait()
            outputs[index] = client.analyze({"scenario": "cdn-failover"})

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for response in outputs:
            assert response["result"] == reference["result"]


class TestErrors:
    def test_unknown_scenario_is_404(self, running_service):
        _service, client = running_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze({"scenario": "nope"})
        assert excinfo.value.status == 404

    def test_malformed_request_is_400(self, running_service):
        _service, client = running_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze({})
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, running_service):
        _service, client = running_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.get("/no-such-route")
        assert excinfo.value.status == 404

    def test_unsupported_method_is_405(self, running_service):
        _service, client = running_service
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("DELETE", "/healthz", None)
        assert excinfo.value.status == 405

    def test_non_json_body_is_400(self, running_service):
        import http.client

        _service, client = running_service
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            connection.request("POST", "/analyze", body=b"not json {")
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_removed_factored_method_is_400(self, running_service):
        _service, client = running_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze({"scenario": "cdn-failover", "method": "factored"})
        assert excinfo.value.status == 400
        assert "method 'factored' was removed; use 'bdd' instead" in str(
            excinfo.value
        )

    def test_errors_counted_in_stats(self, running_service):
        _service, client = running_service
        before = client.stats()["errors"]
        with pytest.raises(ServiceClientError):
            client.analyze({"scenario": "nope"})
        assert client.stats()["errors"] == before + 1


class TestInProcessScans:
    def test_body_jobs_is_ignored(self):
        """A body cannot size a process pool: ``jobs`` is an unknown key
        like any other, and scans always run in-process."""
        # A fresh daemon, so neither request can be a scan-cache hit
        # left behind by another test.
        client = _start(AnalysisService(workers=2, batch_window=0.005))
        body = {"scenario": "cdn-failover", "method": "bits"}
        with_jobs = client.analyze(dict(body, jobs=64))
        without = client.analyze(body)
        assert with_jobs["result"] == without["result"]
        assert "jobs" not in with_jobs["result"]


class TestWorkers:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(None) == (os.cpu_count() or 1)
        with pytest.raises(ServiceError):
            resolve_workers("three")


class TestServeSubprocess:
    def test_port_zero_prints_bound_port(self):
        """``repro serve --port 0`` announces the actual port on stdout."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no port announcement in {line!r}"
            port = int(match.group(1))
            assert port != 0
            client = ServiceClient(port=port, timeout=30)
            assert client.healthz()["status"] == "ok"
        finally:
            process.terminate()
            process.wait(timeout=10)
