"""Repository benchmark: run one workload for one seed and report.

Run from the repository root::

    python3 perfbench/run.py --workload cold-analyze --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, every
time scaled to a reference machine speed (see ``calibrate.py``).
``--trace 1`` is the traced run: it runs the workload for half the
time with a span around every call into a layer, replays the same ops
untraced in a fresh process to measure the tracing overhead, and
reports the per-layer metrics.  Both print one ``name = value unit``
line per metric, the error rate and the cause of every failed op, and
end with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.

The program is imported from ``src/`` under the current directory;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Calibration samples taken right before and right after a set-up,
#: which holds the timer's back (it starts other processes).
SETUP_SAMPLES = 3
#: Failed-op causes printed in full (the rest are counted).
SHOWN_FAILURES = 50


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--replay-ops", type=int, default=None,
        help="internal: run exactly this many ops untraced and print the "
        "wall time (the traced run's overhead baseline)",
    )
    return parser.parse_args(argv)


def source_revision(root: Path) -> dict:
    """The git revision when available, and always a digest of the
    program's sources (a benchmark checkout need not be a git tree)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    revision = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"revision": revision, "source_sha256": digest.hexdigest()[:16]}


def run_metadata(root: Path, args: argparse.Namespace) -> dict:
    import numpy

    return {
        **source_revision(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def make_workload(args, root: Path, out: Path, *, traced: bool):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}"
        )
    reference = json.loads((HERE / "reference.json").read_text())
    workload = workloads.WORKLOADS[args.workload](root, out, reference)
    if traced and isinstance(workload, workloads.ServiceMix):
        workload.spans = out / "daemon-spans.json"
    workload.generate(args.seed)
    for module in workload.modules:
        importlib.import_module(module)
    return workload


def freeze_inputs() -> None:
    """Move everything allocated so far (the generated inputs, the
    imported program) out of the collector's reach, so collections
    during the measured ops do not rescan it."""
    gc.collect()
    gc.freeze()


def timed_setup(workload, clock) -> float:
    """Seconds of one set-up at reference speed."""
    from calibrate import held

    for _ in range(SETUP_SAMPLES):
        clock.sample()
    started = time.perf_counter()
    with held():
        workload.prepare()
    finished = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    return clock.scaled(started, finished)


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def handle_signals() -> None:
    """Let an interrupt or a termination unwind through the workloads'
    clean-up, which stops the daemon and waits for it.  Handling SIGINT
    here also matters to the daemon: a child starts with a handled
    signal at its default, but inherits an ignored one, and a benchmark
    started in the background of a shell has SIGINT ignored; the daemon
    would then ignore the SIGINT that stops it."""
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, the
    one the calibration kernel times (see ``calibrate.py``)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def untraced(args, root: Path, out: Path):
    from calibrate import Clock, held
    from workloads import Limit
    import metrics

    workload = make_workload(args, root, out, traced=False)
    clock = Clock()
    try:
        with clock:
            setups = [
                timed_setup(workload, clock) for _ in range(SETUP_REPEATS)
            ]
            with held():
                workload.warm_up()
            freeze_inputs()
            outcome = workload.run(Limit(seconds=args.seconds))
    finally:
        workload.close()
    outcome.settle(clock)
    return outcome, metrics.end_to_end(outcome, statistics.median(setups))


def replay(args, root: Path, out: Path) -> None:
    from workloads import Limit

    workload = make_workload(args, root, out, traced=False)
    try:
        workload.setup()
        workload.warm_up()
        freeze_inputs()
        outcome = workload.run(Limit(ops=args.replay_ops))
    finally:
        workload.close()
    print(json.dumps({"wall": outcome.wall, "attempted": outcome.attempted}))


def traced(args, root: Path, out: Path):
    from workloads import Limit
    import metrics
    import spans as spanlib

    workload = make_workload(args, root, out, traced=True)
    tracer = spanlib.Tracer()
    try:
        workload.setup()
        workload.warm_up()
        freeze_inputs()
        with spanlib.installed(tracer):
            outcome = workload.run(Limit(seconds=args.seconds / 2), tracer)
    finally:
        workload.close()
    recorded = tracer.spans
    daemon_spans = getattr(workload, "spans", None)
    if daemon_spans is not None:
        # The daemon also traced the set-up's cache-filling requests.
        recorded = spanlib.since(
            spanlib.load_spans(str(daemon_spans)), outcome.started
        )
    else:
        tracer.write(str(out / "spans.json"))
    baseline = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--replay-ops", str(outcome.attempted)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    untraced_wall = json.loads(baseline.stdout.strip().splitlines()[-1])["wall"]
    self_seconds = spanlib.self_times(recorded)
    totals = spanlib.layer_totals(recorded)
    layer = metrics.per_layer(
        recorded, totals, outcome,
        untraced_wall=untraced_wall, self_seconds=self_seconds,
    )
    return outcome, layer, totals


def print_breakdown(totals, wall: float) -> None:
    """Self time per span name, largest first, as a share of the wall."""
    print(f"self time by span (traced wall {wall:.3f} s):")
    for name, total in sorted(
        totals.items(), key=lambda item: -item[1].self_seconds
    ):
        share = 100.0 * total.self_seconds / wall if wall else 0.0
        print(f"  {name:24s} {total.self_seconds * 1e3:11.1f} ms "
              f"{share:6.1f}%  ({total.calls} calls)")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    handle_signals()
    pin_to_one_cpu()
    out = root / ".perfbench-out" / f"{args.workload}-{args.seed}-{args.trace}"
    if args.replay_ops is not None:
        out = out.with_name(out.name + "-replay")
    out.mkdir(parents=True, exist_ok=True)

    if args.replay_ops is not None:
        replay(args, root, out)
        return 0

    import metrics

    metadata = run_metadata(root, args)
    print(json.dumps({"run": metadata}))
    if args.trace:
        outcome, values, totals = traced(args, root, out)
        units = metrics.PER_LAYER
        print_breakdown(totals, outcome.wall)
    else:
        outcome, values = untraced(args, root, out)
        units = metrics.END_TO_END
        quantile = metrics.tail_quantile(outcome.attempted, outcome.tail)
        print(f"latency_tail_ms is p{quantile * 100:.1f}; "
              f"{outcome.attempted} ops")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    failed = len(outcome.failures)
    print(f"error_rate = {failed}/{outcome.attempted} = "
          f"{failed / max(outcome.attempted, 1):.6g}")
    for cause in outcome.failures[:SHOWN_FAILURES]:
        print(f"failed op: {cause}")
    if failed > SHOWN_FAILURES:
        print(f"... and {failed - SHOWN_FAILURES} more failed ops")
    result = {
        "correct": failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    (out / "run.json").write_text(json.dumps(
        {"run": metadata, "failures": outcome.failures, **result}, indent=2
    ))
    print(json.dumps(result))
    return 0


def write_reference() -> None:
    """Regenerate ``reference.json``: each pinned case's expected reward
    and its nominal (every component up) reward.  Run from the
    repository root: ``python3 perfbench/run.py --write-reference``."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import analyze_case, catalog_cases, figure1_cases

    reference = {}
    for case in figure1_cases() + catalog_cases():
        nominal = dataclasses.replace(case, common_causes=[])
        reference[case.label] = {
            "expected_reward": analyze_case(
                case, case.failure_probs).expected_reward,
            "nominal_reward": analyze_case(nominal, {}).expected_reward,
        }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-reference"]:
        write_reference()
        raise SystemExit(0)
    raise SystemExit(main(sys.argv[1:]))
