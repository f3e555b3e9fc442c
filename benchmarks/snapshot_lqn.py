"""Write a machine-readable perf snapshot of the LQN solving layer.

Companion of ``snapshot.py`` (which tracks the state-space backends):
this file tracks the *LQN side* of the pipeline — the batched
Bard–Schweitzer/Method-of-Layers solver, the sweep engine's shared
LQN cache and the optimizer's bounds fast path — and writes one JSON
document mapping the perf trajectory across PRs::

    python benchmarks/snapshot_lqn.py --out BENCH_lqn.json

The ``make bench-snapshot-lqn`` target invokes exactly that; CI uploads
the file as an artifact.  Every entry is parity-gated before anything
is written:

* the engine runs must agree with fresh per-point/per-candidate
  analyzers to 1e-12 (they are bit-identical by construction: every
  LQN solve is cold, whatever the cache history);
* the batched solver must agree with the sequential solver *bitwise*
  (``solve_lqn`` is a batch-of-one wrapper, so this checks the batch
  composition itself);
* every bounds skip of the greedy fast path must carry its proof
  (``upper_bound + slack <= incumbent_reward``) and leave the greedy
  outcome unchanged;
* the headline speedups are gated at ``SPEEDUP_FLOOR`` — the whole
  figure11 grid, and the LQN phase of the sensitivity sweep and the
  exhaustive optimizer search (their scan phases are per-point work
  this suite does not claim to accelerate).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

from repro.core import PerformabilityAnalyzer, ScanCounters
from repro.core.configuration import configuration_to_lqn
from repro.core.rewards import weighted_throughput_reward
from repro.experiments.architectures import (
    ARCHITECTURE_BUILDERS,
    centralized_mama,
)
from repro.experiments.figure1 import figure1_failure_probs, figure1_system
from repro.experiments.figure11 import run_figure11
from repro.experiments.sensitivity import run_sensitivity
from repro.lqn import solve_lqn, solve_lqn_batch
from repro.optimize import DesignSpace, DesignSpaceSearch, UpgradeOption

PARITY_TOLERANCE = 1e-12
SPEEDUP_FLOOR = 5.0
#: Matches ``repro.optimize.search._BOUNDS_SLACK``.
BOUNDS_SLACK = 1e-6

WEIGHTS_B = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)
SENSITIVITY_PROBABILITIES = (0.0, 0.05, 0.1, 0.2, 0.3)
BATCH_REPLICATION = 16


def git_revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def gate_parity(label: str, worst: float) -> None:
    if worst > PARITY_TOLERANCE:
        raise SystemExit(
            f"parity failure: {label} differs from the fresh-analyzer "
            f"baseline by {worst:.3e}"
        )


def gate_speedup(label: str, speedup: float) -> None:
    if speedup < SPEEDUP_FLOOR:
        raise SystemExit(
            f"speedup regression: {label} at {speedup:.2f}x, "
            f"floor is {SPEEDUP_FLOOR:.1f}x"
        )


def report(entry: dict) -> dict:
    print(
        f"{entry['case']:>22}  total {entry['speedup_total']:6.1f}x  "
        f"lqn {entry['speedup_lqn_phase']:6.1f}x  "
        f"batch {entry['lqn_batch_max']}",
        file=sys.stderr,
    )
    return entry


def figure11_entry() -> dict:
    """The Figure 11 grid: batched shared-cache engine vs one fresh
    analyzer per (architecture, weight) point.  Weight-only points
    share one scan, so the whole-run speedup is gated here."""
    counters = ScanCounters()
    started = time.perf_counter()
    figure = run_figure11(weights_b=WEIGHTS_B, counters=counters)
    engine_wall = time.perf_counter() - started

    ftlqn = figure1_system()
    builders = {"perfect": None, **ARCHITECTURE_BUILDERS}
    baseline: dict[tuple[str, float], float] = {}
    baseline_lqn = 0.0
    started = time.perf_counter()
    for name, builder in builders.items():
        mama = builder() if builder is not None else None
        probs = figure1_failure_probs(mama)
        for w_b in WEIGHTS_B:
            solved = PerformabilityAnalyzer(
                ftlqn, mama, failure_probs=probs,
                reward=weighted_throughput_reward(
                    {"UserA": 1.0, "UserB": w_b}
                ),
            ).solve()
            baseline[(name, w_b)] = solved.expected_reward
            baseline_lqn += solved.counters.lqn_seconds
    baseline_wall = time.perf_counter() - started

    worst = max(
        abs(reward - baseline[(series.architecture, w_b)])
        for series in figure.series
        for w_b, reward in zip(series.weights_b, series.expected_rewards)
    )
    gate_parity("figure11", worst)
    gate_speedup("figure11 (total)", baseline_wall / engine_wall)
    return report({
        "case": "figure11",
        "points": counters.sweep_points,
        "engine_seconds": engine_wall,
        "baseline_seconds": baseline_wall,
        "speedup_total": baseline_wall / engine_wall,
        "engine_lqn_seconds": counters.lqn_seconds,
        "baseline_lqn_seconds": baseline_lqn,
        "speedup_lqn_phase": baseline_lqn / counters.lqn_seconds,
        "max_parity_diff": worst,
        "lqn_solves": counters.lqn_solves,
        "lqn_cache_hits": counters.lqn_cache_hits,
        "lqn_batch_max": counters.lqn_batch_max,
        "scan_cache_hits": counters.scan_cache_hits,
    })


def sensitivity_entry() -> dict:
    """The §6 sensitivity ablation: every point has distinct failure
    probabilities, so scans cannot be shared — the LQN phase (batched,
    cached) is what this suite accelerates and gates."""
    counters = ScanCounters()
    started = time.perf_counter()
    sensitivity = run_sensitivity(
        probabilities=SENSITIVITY_PROBABILITIES, counters=counters
    )
    engine_wall = time.perf_counter() - started

    ftlqn = figure1_system()
    started = time.perf_counter()
    baseline_lqn = 0.0
    perfect = PerformabilityAnalyzer(
        ftlqn, None, failure_probs=figure1_failure_probs()
    ).solve()
    baseline_lqn += perfect.counters.lqn_seconds
    baseline: dict[tuple[str, float], float] = {}
    for name, builder in ARCHITECTURE_BUILDERS.items():
        mama = builder()
        for probability in SENSITIVITY_PROBABILITIES:
            solved = PerformabilityAnalyzer(
                ftlqn, mama,
                failure_probs=figure1_failure_probs(
                    mama, management=probability
                ),
            ).solve()
            baseline[(name, probability)] = solved.expected_reward
            baseline_lqn += solved.counters.lqn_seconds
    baseline_wall = time.perf_counter() - started

    worst = abs(sensitivity.perfect_reward - perfect.expected_reward)
    for series in sensitivity.series:
        for probability, point in zip(
            SENSITIVITY_PROBABILITIES, series.points
        ):
            worst = max(
                worst,
                abs(
                    point.expected_reward
                    - baseline[(series.architecture, probability)]
                ),
            )
    gate_parity("sensitivity", worst)
    gate_speedup(
        "sensitivity (lqn phase)", baseline_lqn / counters.lqn_seconds
    )
    return report({
        "case": "sensitivity",
        "points": counters.sweep_points,
        "engine_seconds": engine_wall,
        "baseline_seconds": baseline_wall,
        "speedup_total": baseline_wall / engine_wall,
        "engine_lqn_seconds": counters.lqn_seconds,
        "baseline_lqn_seconds": baseline_lqn,
        "speedup_lqn_phase": baseline_lqn / counters.lqn_seconds,
        "max_parity_diff": worst,
        "lqn_solves": counters.lqn_solves,
        "lqn_cache_hits": counters.lqn_cache_hits,
        "lqn_batch_max": counters.lqn_batch_max,
        "scan_cache_hits": counters.scan_cache_hits,
    })


def build_space() -> DesignSpace:
    """The bench_optimize design space (kept in sync by hand)."""
    return DesignSpace(
        figure1_system(),
        tasks={"AppA": "proc1", "AppB": "proc2",
               "Server1": "proc3", "Server2": "proc4"},
        topologies=("none", "centralized", "distributed"),
        styles=("agents-status", "direct"),
        upgrades=(
            UpgradeOption("Server1", 0.01, cost=3.0, name="raid1"),
            UpgradeOption("Server2", 0.01, cost=3.0, name="raid2"),
        ),
        base_failure_probs=figure1_failure_probs(),
        explicit={"figure7": centralized_mama()},
    )


def optimize_exhaustive_entry() -> dict:
    """Exhaustive search vs per-candidate fresh analyzers.  Upgrades
    change failure probabilities, so every candidate scans on its own;
    the gated claim is the LQN phase, which collapses onto the distinct
    configurations and solves them in batches."""
    counters = ScanCounters()
    space = build_space()
    started = time.perf_counter()
    result = DesignSpaceSearch(space, counters=counters).exhaustive()
    engine_wall = time.perf_counter() - started

    space = build_space()
    ftlqn = figure1_system()
    started = time.perf_counter()
    baseline_lqn = 0.0
    worst = 0.0
    for candidate in space.candidates():
        mama = space.architectures()[candidate.architecture]
        probs = dict(space.base_failure_probs)
        probs.update(candidate.failure_probs)
        solved = PerformabilityAnalyzer(
            ftlqn, mama, failure_probs=probs
        ).solve()
        baseline_lqn += solved.counters.lqn_seconds
        worst = max(
            worst,
            abs(
                result.evaluation(candidate.name).expected_reward
                - solved.expected_reward
            ),
        )
    baseline_wall = time.perf_counter() - started

    gate_parity("optimize-exhaustive", worst)
    gate_speedup(
        "optimize-exhaustive (lqn phase)",
        baseline_lqn / counters.lqn_seconds,
    )
    return report({
        "case": "optimize-exhaustive",
        "points": result.space_size,
        "engine_seconds": engine_wall,
        "baseline_seconds": baseline_wall,
        "speedup_total": baseline_wall / engine_wall,
        "engine_lqn_seconds": counters.lqn_seconds,
        "baseline_lqn_seconds": baseline_lqn,
        "speedup_lqn_phase": baseline_lqn / counters.lqn_seconds,
        "max_parity_diff": worst,
        "lqn_solves": counters.lqn_solves,
        "lqn_cache_hits": counters.lqn_cache_hits,
        "lqn_batch_max": counters.lqn_batch_max,
        "scan_cache_hits": counters.scan_cache_hits,
    })


def optimize_greedy_entry() -> dict:
    """The greedy bounds fast path: every skip must carry its proof, and
    the search outcome must be identical to the unscreened run."""
    fast_counters = ScanCounters()
    started = time.perf_counter()
    fast = DesignSpaceSearch(
        build_space(), counters=fast_counters,
    ).greedy(restarts=2)
    fast_wall = time.perf_counter() - started

    started = time.perf_counter()
    plain = DesignSpaceSearch(
        build_space(), bounds_fast_path=False,
    ).greedy(restarts=2)
    plain_wall = time.perf_counter() - started

    for skip in fast.bounds_skips:
        if skip.upper_bound + BOUNDS_SLACK > skip.incumbent_reward:
            raise SystemExit(
                f"unproven bounds skip: {skip.name} ub={skip.upper_bound!r} "
                f"vs incumbent {skip.incumbent_reward!r}"
            )
    if fast.best().name != plain.best().name:
        raise SystemExit(
            "bounds fast path changed the greedy outcome: "
            f"{fast.best().name} != {plain.best().name}"
        )
    worst = abs(fast.best().expected_reward - plain.best().expected_reward)
    gate_parity("optimize-greedy best reward", worst)
    counters = fast_counters
    entry = {
        "case": "optimize-greedy",
        "points": len(fast.evaluations),
        "engine_seconds": fast_wall,
        "baseline_seconds": plain_wall,
        "speedup_total": plain_wall / fast_wall,
        "engine_lqn_seconds": counters.lqn_seconds,
        "baseline_lqn_seconds": None,
        "speedup_lqn_phase": None,
        "max_parity_diff": worst,
        "lqn_solves": counters.lqn_solves,
        "lqn_cache_hits": counters.lqn_cache_hits,
        "lqn_batch_max": counters.lqn_batch_max,
        "lqn_bounds_skips": counters.lqn_bounds_skips,
        "evaluations_screened_run": len(fast.evaluations),
        "evaluations_plain_run": len(plain.evaluations),
    }
    print(
        f"{entry['case']:>22}  total {entry['speedup_total']:6.1f}x  "
        f"skips {entry['lqn_bounds_skips']}",
        file=sys.stderr,
    )
    return entry


def batched_solver_entry() -> dict:
    """The batched layered solver against a sequential loop over the
    same models — the micro-benchmark of the batch composition itself,
    with bitwise parity required."""
    ftlqn = figure1_system()
    analyzer = PerformabilityAnalyzer(
        ftlqn, None, failure_probs=figure1_failure_probs()
    )
    configurations = [
        configuration
        for configuration in analyzer.configuration_probabilities()
        if configuration is not None
    ]
    models = [
        configuration_to_lqn(ftlqn, configuration)
        for configuration in configurations
    ] * BATCH_REPLICATION

    solve_lqn_batch(models[:2])  # warm the code paths
    started = time.perf_counter()
    batch = solve_lqn_batch(models)
    batch_wall = time.perf_counter() - started

    solve_lqn(models[0])
    started = time.perf_counter()
    sequential = [solve_lqn(model) for model in models]
    sequential_wall = time.perf_counter() - started

    worst = 0.0
    for ours, reference in zip(batch, sequential):
        if ours.iterations != reference.iterations:
            raise SystemExit("batched solver diverged in iteration count")
        worst = max(
            worst,
            max(
                abs(ours.task_throughputs[task] - value)
                for task, value in reference.task_throughputs.items()
            ),
        )
    if worst != 0.0:
        raise SystemExit(
            f"batched solver is not bitwise identical (diff {worst:.3e})"
        )
    entry = {
        "case": "batched-solver",
        "points": len(models),
        "engine_seconds": batch_wall,
        "baseline_seconds": sequential_wall,
        "speedup_total": sequential_wall / batch_wall,
        "engine_lqn_seconds": batch_wall,
        "baseline_lqn_seconds": sequential_wall,
        "speedup_lqn_phase": sequential_wall / batch_wall,
        "max_parity_diff": worst,
        "lqn_solves": len(models),
        "lqn_cache_hits": 0,
        "lqn_batch_max": len(models),
        "scan_cache_hits": 0,
    }
    return report(entry)


def snapshot() -> dict:
    entries = [
        figure11_entry(),
        sensitivity_entry(),
        optimize_exhaustive_entry(),
        optimize_greedy_entry(),
        batched_solver_entry(),
    ]
    return {
        "suite": "lqn",
        "revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "speedup_floor": SPEEDUP_FLOOR,
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_lqn.json",
        help="output JSON path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    document = snapshot()
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out} ({len(document['entries'])} entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
