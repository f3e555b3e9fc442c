"""Write a machine-readable perf snapshot of the state-space backends.

Runs every backend (interpreted enumeration, bits, bdd, and
bounded at ε = 0, i.e. exhaustive and therefore exact) over the
paper's §6.3 cases, plus the two
beyond-2^N backends over a synthetic 100-server replicated service
(2^100 states — unreachable by any scanning backend), and writes one
JSON document mapping the perf trajectory across PRs::

    python benchmarks/snapshot.py --out BENCH_statespace.json

The ``make bench-snapshot`` target invokes exactly that; CI uploads the
file as an artifact so regressions are visible between revisions.  Each
entry records backend, case, state count, wall-clock seconds and
speedup relative to the interpreted scan of the same case;
parity across backends is asserted (1e-12) wherever the computation is
exact before anything is written, and the bounded backend's
containment contract (subset, pointwise ≤, deficit ≤ ε) is asserted
against the symbolic result on the large-N case.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

from repro.core import PerformabilityAnalyzer, ScanCounters
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import figure1_failure_probs, figure1_system

CASES = ("perfect", "centralized", "distributed", "hierarchical", "network")
BACKENDS = ("enumeration", "bits", "bdd", "bounded")
PARITY_TOLERANCE = 1e-12

#: The large-N demonstration: 100 servers (2^100 states), per-server
#: failure probability in the high-availability regime where the
#: bounded enumerator's mass concentration argument holds.
LARGESCALE_SERVERS = 100
LARGESCALE_FAILURE_PROBABILITY = 1e-3
LARGESCALE_EPSILON = 1e-4


def build_cases():
    table = {"perfect": (None, figure1_failure_probs())}
    for name, builder in ARCHITECTURE_BUILDERS.items():
        mama = builder()
        table[name] = (mama, figure1_failure_probs(mama))
    return table


def git_revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure(analyzer, backend: str, epsilon: float = 0.0):
    counters = ScanCounters()
    started = time.perf_counter()
    result = analyzer.configuration_probabilities(
        method=backend, counters=counters, epsilon=epsilon
    )
    wall = time.perf_counter() - started
    return result, wall, counters


def snapshot() -> dict:
    ftlqn = figure1_system()
    entries = []
    for case_name, (mama, probs) in build_cases().items():
        analyzer = PerformabilityAnalyzer(ftlqn, mama, failure_probs=probs)
        reference, baseline_wall, _ = measure(analyzer, "enumeration")
        for backend in BACKENDS:
            result, wall, counters = measure(analyzer, backend)
            worst = max(
                abs(result.get(k, 0.0) - reference.get(k, 0.0))
                for k in set(result) | set(reference)
            )
            if worst > PARITY_TOLERANCE:
                raise SystemExit(
                    f"parity failure: {backend}/{case_name} differs "
                    f"from interpreted scan by {worst:.3e}"
                )
            entries.append({
                "case": case_name,
                "backend": backend,
                "states": analyzer.problem.state_count,
                "configurations": len(result),
                "wall_seconds": wall,
                "speedup_vs_interp_sequential": baseline_wall / wall,
                "max_parity_diff": worst,
                "kernel_instructions": counters.kernel_instructions,
                "kernel_batches": counters.kernel_batches,
                "bdd_nodes": counters.bdd_nodes,
                "enumerated_mass": counters.enumerated_mass,
            })
            print(
                f"{case_name:>13} {backend:>11}  "
                f"{wall:8.4f}s  {baseline_wall / wall:7.1f}x",
                file=sys.stderr,
            )
    entries.extend(largescale_entries())
    return {
        "suite": "statespace",
        "revision": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "entries": entries,
    }


def largescale_entries() -> list[dict]:
    """The 2^100-state case only the new backends can touch.

    The symbolic result is exact; the bounded run at ε must satisfy
    its containment contract against it.  No scanning baseline exists
    here (it would need ~1.3e30 state visits), so the speedup field is
    null.
    """
    from repro.experiments.largescale import replicated_service_model

    ftlqn, probs = replicated_service_model(
        LARGESCALE_SERVERS,
        failure_probability=LARGESCALE_FAILURE_PROBABILITY,
    )
    analyzer = PerformabilityAnalyzer(ftlqn, None, failure_probs=probs)
    case_name = f"replicated-{LARGESCALE_SERVERS}"

    exact, bdd_wall, bdd_counters = measure(analyzer, "bdd")
    total = sum(exact.values())
    if abs(total - 1.0) > 1e-9:
        raise SystemExit(
            f"bdd probabilities on {case_name} sum to {total!r}, not 1"
        )

    partial, bounded_wall, bounded_counters = measure(
        analyzer, "bounded", epsilon=LARGESCALE_EPSILON
    )
    deficit = 1.0 - sum(partial.values())
    if not set(partial) <= set(exact):
        raise SystemExit(f"bounded found phantom configurations on {case_name}")
    excess = max(
        (partial[c] - exact[c] for c in partial), default=0.0
    )
    if excess > PARITY_TOLERANCE:
        raise SystemExit(
            f"bounded exceeds the exact probability on {case_name} "
            f"by {excess:.3e}"
        )
    if deficit < -1e-9 or deficit > LARGESCALE_EPSILON + 1e-9:
        raise SystemExit(
            f"bounded deficit {deficit!r} outside [0, ε] on {case_name}"
        )

    entries = []
    for backend, result, wall, counters, parity in (
        ("bdd", exact, bdd_wall, bdd_counters, abs(total - 1.0)),
        ("bounded", partial, bounded_wall, bounded_counters, max(excess, 0.0)),
    ):
        entries.append({
            "case": case_name,
            "backend": backend,
            "states": analyzer.problem.state_count,
            "configurations": len(result),
            "wall_seconds": wall,
            "speedup_vs_interp_sequential": None,
            "max_parity_diff": parity,
            "kernel_instructions": counters.kernel_instructions,
            "kernel_batches": counters.kernel_batches,
            "bdd_nodes": counters.bdd_nodes,
            "enumerated_mass": counters.enumerated_mass,
        })
        print(
            f"{case_name:>13} {backend:>11}  {wall:8.4f}s  "
            "(no scanning baseline)",
            file=sys.stderr,
        )
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_statespace.json",
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
