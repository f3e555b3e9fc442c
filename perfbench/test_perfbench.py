"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def make(cls, tmp_path, seed):
    workload = cls(ROOT, tmp_path, REFERENCE)
    workload.generate(seed)
    return workload


# -- generator hygiene --------------------------------------------------


def cold_inputs(tmp_path, seed):
    workload = make(workloads.ColdAnalyze, tmp_path, seed)
    workload.cycles_generated = 3
    workload.setup()
    return [
        [(case.label, probs, pinned) for case, probs, pinned in cycle]
        for cycle in workload.cycles
    ]


def test_cold_analyze_inputs_follow_the_seed(tmp_path):
    first = cold_inputs(tmp_path, 7)
    assert first == cold_inputs(tmp_path, 7)
    assert first != cold_inputs(tmp_path, 8)
    # The first cycle is the pinned one, whatever the seed.
    assert first[0] == cold_inputs(tmp_path, 8)[0]
    assert all(pinned for _label, _probs, pinned in first[0])


def grid_inputs(tmp_path, seed):
    workload = make(workloads.CampaignGrid, tmp_path, seed)
    workload.rounds_generated = 2
    workload.setup()
    return [
        [(p.name, p.architecture, dict(p.failure_probs))
         for p in spec.workloads[0].points]
        for spec in workload.specs
    ]


def test_campaign_grid_inputs_follow_the_seed(tmp_path):
    first = grid_inputs(tmp_path, 3)
    assert first == grid_inputs(tmp_path, 3)
    assert first != grid_inputs(tmp_path, 4)
    vectors = [json.dumps(p[2], sort_keys=True) + str(p[1]) for p in first[0]]
    assert len(set(vectors)) == len(vectors)


def test_verify_fuzz_seed_picks_where_the_window_walk_starts(tmp_path):
    fuzz = workloads.VerifyFuzz
    first, window = fuzz.FIRST, fuzz.WINDOW
    assert make(fuzz, tmp_path, 3).segments == [
        (first + 3, window - 3), (first, 3),
    ]
    assert make(fuzz, tmp_path, 20).segments == [(first, window)]


def test_service_mix_inputs_follow_the_seed(tmp_path):
    def requests(seed):
        workload = make(workloads.ServiceMix, tmp_path, seed)
        return json.dumps(workload.requests, sort_keys=True)

    assert requests(5) == requests(5)
    assert requests(5) != requests(6)


def test_service_mix_blocks_hold_the_stated_mix(tmp_path):
    workload = make(workloads.ServiceMix, tmp_path, 1)
    block = workload.requests[:workload.block_size]
    mix = {}
    for kind, _route, _payload, label in block:
        mix[label, kind] = mix.get((label, kind), 0) + 1
    scenarios = {label for label, _kind in mix}
    assert len(scenarios) == 3
    for label in scenarios:
        assert {kind: n for (lbl, kind), n in mix.items() if lbl == label} == {
            "repeat": 9, "perturbed": 8, "inline": 1, "temporal": 1,
        }


# -- the tail-percentile rule -------------------------------------------


def test_tail_is_p90_from_100_samples():
    assert metrics.tail_quantile(100) == pytest.approx(0.9)
    assert metrics.tail_quantile(5000) == pytest.approx(0.9)
    assert metrics.tail_quantile(99) < 0.9


@pytest.mark.parametrize("samples", range(20, 400, 7))
def test_tail_leaves_ten_samples_beyond_it(samples):
    values = [float(i) for i in range(samples)]
    tail = metrics.quantile(values, metrics.tail_quantile(samples))
    assert sum(1 for v in values if v > tail) >= metrics.TAIL_BEYOND


def test_tail_falls_back_to_the_median_on_short_runs():
    assert metrics.tail_quantile(12) == 0.5


def test_tail_stays_at_a_workloads_cap_once_reached():
    assert metrics.tail_quantile(40, highest=0.75) == pytest.approx(0.75)
    assert metrics.tail_quantile(57, highest=0.75) == pytest.approx(0.75)
    assert metrics.tail_quantile(30, highest=0.75) < 0.75


def test_end_to_end_weighs_kind_medians_by_the_unit_mix():
    outcome = workloads.Outcome(
        latencies=[0.1, 0.1, 0.9, 0.3, 0.2, 0.2],
        kinds=["a", "a", "a", "b", "b", "b"],
        overhead=[("round", 0.5)],
        unit=[("a", 1), ("a", 1), ("b", 1), ("round", 0)],
        attempted=6,
    )
    values = metrics.end_to_end(outcome, setup_s=1.0)
    # One unit: a, a, b at their medians (0.1, 0.1, 0.2) plus 0.5 s of
    # overhead, for three ops; the outlier 0.9 and 0.3 do not count.
    assert values["ops_per_s"] == pytest.approx(3 / 0.9)
    assert values["latency_p50_ms"] == pytest.approx(100.0)


def test_end_to_end_falls_back_to_raw_samples_without_a_full_unit():
    outcome = workloads.Outcome(
        latencies=[0.1, 0.3], kinds=["a", "a"], unit=[("a", 1), ("b", 1)],
        attempted=2,
    )
    values = metrics.end_to_end(outcome, setup_s=1.0)
    assert values["ops_per_s"] == pytest.approx(5.0)
    assert values["latency_p50_ms"] == pytest.approx(200.0)


# -- calibration --------------------------------------------------------


def calibrated_clock(samples):
    """A clock holding ``(start, seconds)`` kernel samples."""
    clock = calibrate.Clock()
    for start, seconds in samples:
        clock.starts.append(start)
        clock.ends.append(start + seconds)
        clock.kernel_seconds.append(seconds)
    return clock


def test_clock_scales_by_the_samples_around_an_op():
    reference = calibrate.REFERENCE_SECONDS
    clock = calibrated_clock([
        (0.0, reference), (1.0, 2 * reference), (2.0, 4 * reference),
    ])
    # An op inside (1, 2) is scaled by the median of the samples at 1
    # and 2; one spanning a sample by that and its neighbours outside,
    # and the sample's own time does not count as the op's.
    assert clock.scaled(1.2, 1.8) == pytest.approx(0.6 / 3.0)
    assert clock.scaled(0.5, 1.5) == pytest.approx(
        (1.0 - 2 * reference) / 2.0
    )
    # Past the last sample only the last one counts.
    assert clock.scaled(2.5, 3.0) == pytest.approx(0.5 / 4.0)


def test_clock_takes_the_median_of_the_samples_near_an_op():
    reference = calibrate.REFERENCE_SECONDS
    near = [(0.1 * i, reference) for i in range(10)]
    clock = calibrated_clock(near[:5] + [(0.5, 9 * reference)] + near[6:])
    # One slow sample among ten within the window does not count.
    assert clock.scaled(0.42, 0.48) == pytest.approx(0.06)


def test_clock_takes_samples_inside_an_op_out_of_its_time():
    clock = calibrated_clock([(0.0, 0.01), (1.0, 0.01), (1.5, 0.01)])
    assert clock.own_seconds(0.5, 2.0) == pytest.approx(1.48)
    # A sample cut by the op's ends counts only inside it.
    assert clock.own_seconds(1.005, 1.505) == pytest.approx(0.49)


def test_clock_samples_from_a_timer_while_entered():
    with calibrate.Clock(every=0.02) as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(clock.starts) >= 5
    assert clock.starts == sorted(clock.starts)
    assert all(e > s for s, e in zip(clock.starts, clock.ends))


def test_settle_scales_ops_and_overhead_with_a_clock():
    reference = calibrate.REFERENCE_SECONDS
    clock = calibrated_clock([(0.0, 2 * reference)])
    outcome = workloads.Outcome(
        intervals=[(1.0, 1.5)], overhead_intervals=[("round", [(2.0, 3.0)])]
    )
    outcome.settle(clock)
    assert outcome.latencies == pytest.approx([0.25])
    assert outcome.overhead == [("round", pytest.approx(0.5))]
    outcome.settle()
    assert outcome.latencies == pytest.approx([0.5])


def test_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.kernel()


# -- output checks ------------------------------------------------------


def result_document(reward, probabilities=(0.25, 0.75)):
    return {
        "records": [{"probability": p} for p in probabilities],
        "expected_reward": reward,
    }


def test_check_accepts_the_reference_reward():
    reference = REFERENCE["figure1/centralized"]
    document = result_document(reference["expected_reward"])
    assert checks.check_result(document, reference, pinned=True) is None


def test_check_catches_a_reward_perturbed_by_1e_9():
    reference = REFERENCE["figure1/centralized"]
    document = result_document(reference["expected_reward"] + 1e-9)
    assert "differs from the reference" in checks.check_result(
        document, reference, pinned=True
    )


def test_check_catches_lost_probability_mass_and_excess_reward():
    reference = REFERENCE["figure1/centralized"]
    lost = result_document(0.5, probabilities=(0.25, 0.75 - 1e-9))
    assert "sum to" in checks.check_result(lost, reference, pinned=False)
    excess = result_document(reference["nominal_reward"] * 1.001)
    assert "outside" in checks.check_result(excess, reference, pinned=False)


class _Failing(BaseHTTPRequestHandler):
    """Answers every POST with HTTP 500 and GET /stats with ``{}``."""

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._reply(500, {"error": "boom"})

    def do_GET(self):  # noqa: N802 - http.server API
        self._reply(200, {})

    def _reply(self, status, document):
        body = json.dumps(document).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _StubDaemon:
    def __init__(self, port):
        from repro.service.client import ServiceClient

        self.client = ServiceClient(port=port, timeout=10)

    def peak_rss_mb(self):
        return 1.0

    def stop(self):
        pass


def test_service_mix_counts_a_non_200_response_as_failed(tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Failing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        workload = make(workloads.ServiceMix, tmp_path, 1)
        workload.daemon = _StubDaemon(server.server_address[1])
        outcome = workload.run(workloads.Limit(ops=workload.block_size))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert outcome.attempted == workload.block_size
    assert len(outcome.failures) == outcome.attempted
    assert all("HTTP 500" in cause for cause in outcome.failures)


# -- span arithmetic ----------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    recorded = [
        spans.Span("op", 0.0, 10.0, None, 0),
        spans.Span("core.scan", 1.0, 3.0, 0, 0),
        spans.Span("lqn.solve", 2.0, 4.0, 0, 0),  # overlaps its sibling
        spans.Span("lqn.build", 8.0, 12.0, 0, 0),  # runs past the parent
        spans.Span("lqn.build", 2.5, 3.0, 2, 0),  # grandchild
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [10.0 - 3.0 - 2.0, 2.0, 1.5, 4.0, 0.5]
    )


def test_layer_totals_sum_self_time_calls_and_counts():
    recorded = [
        spans.Span("op", 0.0, 4.0, None, 0),
        spans.Span("core.scan", 0.0, 1.0, 0, 0, {"states_visited": 8}),
        spans.Span("core.scan", 2.0, 3.5, 0, 0, {"states_visited": 4}),
    ]
    totals = spans.layer_totals(recorded)
    assert totals["core.scan"].calls == 2
    assert totals["core.scan"].self_seconds == pytest.approx(2.5)
    assert totals["core.scan"].counts == {"states_visited": 12}
    assert totals["op"].self_seconds == pytest.approx(1.5)


def test_since_keeps_whole_ops_that_began_after_the_cut():
    recorded = [
        spans.Span("op", 0.0, 2.0, None, 0),
        spans.Span("core.scan", 0.5, 1.0, 0, 0),
        spans.Span("op", 3.0, 5.0, None, 1),
        spans.Span("core.scan", 3.5, 4.0, 2, 1),
        spans.Span("lqn.solve", 3.6, 3.9, 3, 1),
    ]
    kept = spans.since(recorded, 2.5)
    assert [(s.name, s.parent) for s in kept] == [
        ("op", None), ("core.scan", 0), ("lqn.solve", 1),
    ]


def test_tracer_nests_spans_and_shares_the_op_id():
    tracer = spans.Tracer()
    with tracer.span("op"):
        with tracer.span("core.scan") as counts:
            counts["states_visited"] = 3
    with tracer.span("op"):
        pass
    first, child, second = tracer.spans
    assert child.parent == 0 and child.op == first.op
    assert second.parent is None and second.op != first.op
    assert child.counts == {"states_visited": 3}


def test_installed_tracer_wraps_layers_and_restores_them():
    from repro.core import performability
    from repro.experiments import centralized_mama, figure1_failure_probs
    from repro.experiments import figure1_system

    original = performability.solve_lqn_batch
    tracer = spans.Tracer()
    mama = centralized_mama()
    with spans.installed(tracer):
        performability.PerformabilityAnalyzer(
            figure1_system(), mama, failure_probs=figure1_failure_probs(mama)
        ).solve()
    assert performability.solve_lqn_batch is original
    totals = spans.layer_totals(tracer.spans)
    assert totals["lqn.solve"].counts["models"] == 6
    assert totals["core.scan"].counts["states_visited"] > 0
    assert totals["mama.know_table"].counts["know_pairs"] > 0


# -- the contract file --------------------------------------------------


def test_benchmark_json_names_every_metric_and_workload():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in contract["workloads"]} == set(
        workloads.WORKLOADS
    )
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == (
        metrics.PER_LAYER
    )
