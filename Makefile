# Developer conveniences; the test suite needs src/ on PYTHONPATH.
PY := PYTHONPATH=src python

.PHONY: test bench bench-snapshot bench-snapshot-lqn \
	bench-snapshot-campaign bench-snapshot-service \
	bench-snapshot-temporal docs-check fuzz

test:
	$(PY) -m pytest -x -q

# Differential fuzzing campaign: random scenarios through every
# analytic backend with the Monte-Carlo cross-check; counterexamples
# are shrunk and dropped into fuzz-artifacts/ (see
# docs/testing_guide.md for triage).
FUZZ_SEEDS ?= 200
fuzz:
	$(PY) -m repro verify --seeds $(FUZZ_SEEDS) --progress \
		--json fuzz-report.json --artifacts fuzz-artifacts

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# Machine-readable perf trajectory: backend x case wall-clock and
# speedup, parity-checked, written to BENCH_statespace.json (CI
# uploads it as an artifact).
bench-snapshot:
	$(PY) benchmarks/snapshot.py --out BENCH_statespace.json

# Same idea for the LQN layer: batched solver, shared caches and the
# optimizer's bounds fast path, parity- and speedup-gated, written to
# BENCH_lqn.json (CI artifact).
bench-snapshot-lqn:
	$(PY) benchmarks/snapshot_lqn.py --out BENCH_lqn.json

# Campaign layer: multi-process dispatcher speedup (enforced on >=4
# CPU hosts), store-resume zero-recompute and 1e-12 parallel/sequential
# parity gates, written to BENCH_campaign.json (CI artifact).
bench-snapshot-campaign:
	$(PY) benchmarks/snapshot_campaign.py --out BENCH_campaign.json

# Analysis service: CLI/daemon 1e-12 parity on every catalog scenario,
# warm-cache >=10x cold latency (always enforced) and concurrent
# micro-batched throughput (enforced on >=4 CPU hosts), written to
# BENCH_service.json (CI artifact).
bench-snapshot-service:
	$(PY) benchmarks/snapshot_service.py --out BENCH_service.json

# Temporal layer: uniformization scaling + accuracy vs a dense expm
# reference, steady-state 1e-12 parity on every Figure-1 case, and the
# analytic-curve-inside-the-simulator's-confidence-interval gate,
# written to BENCH_temporal.json (CI artifact).
bench-snapshot-temporal:
	$(PY) benchmarks/snapshot_temporal.py --out BENCH_temporal.json

# Verify that every ```python block in docs/*.md and README.md parses,
# so guide snippets cannot rot into syntax errors.
docs-check:
	$(PY) -m pytest tests/test_docs_snippets.py -q
