"""Plain-text renderings of the reproduced tables and figures.

Each ``format_*`` function takes the dataclass produced by the matching
``run_*`` function and returns a string table comparing our values with
the paper's published ones where applicable.
"""

from __future__ import annotations

from repro.experiments.figure11 import Figure11
from repro.experiments.statespace import (
    PAPER_STATE_COUNTS,
    PAPER_TIMES_SECONDS,
    StateSpaceReport,
)
from repro.experiments.table1 import PAPER_TABLE1, Table1
from repro.experiments.table2 import (
    PAPER_AVERAGE_THROUGHPUT,
    PAPER_TABLE2,
    Table2,
)


def format_table1(table: Table1) -> str:
    """Render Table 1 with paper-vs-measured probability columns."""
    lines = [
        "Table 1: configuration probabilities (perfect vs centralized) and rewards",
        f"{'config':>8} {'P(perfect)':>12} {'paper':>7} {'P(central)':>12} "
        f"{'paper':>7} {'reward':>8}",
    ]
    for row in table.rows:
        paper_p = PAPER_TABLE1["perfect"].get(row.label, 0.0)
        paper_c = PAPER_TABLE1["centralized"].get(row.label, 0.0)
        lines.append(
            f"{row.label:>8} {row.probability_perfect:>12.3f} {paper_p:>7.3f} "
            f"{row.probability_centralized:>12.3f} {paper_c:>7.3f} "
            f"{row.reward:>8.3f}"
        )
    lines.append(
        f"expected reward: perfect {table.expected_perfect:.3f}/s "
        "(paper 0.85/s with its Table-2 C3/C4 throughput of 0.5), "
        f"centralized {table.expected_centralized:.3f}/s (paper 0.55/s)"
    )
    return "\n".join(lines)


def format_table2(table: Table2) -> str:
    """Render Table 2 with per-case paper-vs-measured columns."""
    labels = ["C1", "C2", "C3", "C4", "C5", "C6", "failed"]
    lines = ["Table 2: configuration probabilities across the five cases"]
    header = f"{'config':>8}" + "".join(
        f" {case.name[:12]:>12} {'paper':>7}" for case in table.cases
    )
    lines.append(header)
    for label in labels:
        cells = []
        for case in table.cases:
            ours = case.probabilities.get(label, 0.0)
            paper = PAPER_TABLE2[case.name].get(label, 0.0)
            cells.append(f" {ours:>12.3f} {paper:>7.3f}")
        lines.append(f"{label:>8}" + "".join(cells))
    for group in ("UserA", "UserB"):
        cells = []
        for case in table.cases:
            ours = (
                case.average_throughput_a
                if group == "UserA"
                else case.average_throughput_b
            )
            paper = PAPER_AVERAGE_THROUGHPUT[case.name][group]
            cells.append(f" {ours:>12.3f} {paper:>7.3f}")
        lines.append(f"{'avg ' + group:>8}" + "".join(cells))
    lines.append(
        "per-config throughputs (f_UserA, f_UserB): "
        + ", ".join(
            f"{label}=({a:.2f}, {b:.2f})"
            for label, (a, b) in sorted(table.throughputs.items())
        )
    )
    return "\n".join(lines)


def format_figure11(figure: Figure11) -> str:
    """Render Figure 11 as a text table of reward-vs-weight curves."""
    lines = [
        "Figure 11: expected reward rate vs weight of UserB (w_A = 1)",
    ]
    weights = figure.series[0].weights_b
    header = f"{'architecture':>14}" + "".join(f" {w:>7.2f}" for w in weights)
    lines.append(header)
    for entry in figure.series:
        row = f"{entry.architecture:>14}" + "".join(
            f" {value:>7.3f}" for value in entry.expected_rewards
        )
        lines.append(row)
    lines.append(
        "ordering at max weight: " + " > ".join(figure.ordering_at(weights[-1]))
    )
    return "\n".join(lines)


def format_statespace(report: StateSpaceReport) -> str:
    """Render the §6.3 state-count and timing comparison."""
    lines = [
        "State-space sizes and solution times",
        f"{'case':>14} {'states':>8} {'paper':>8} {'enum[s]':>9} "
        f"{'bdd[s]':>9} {'paper-Java[s]':>14} {'configs':>8}",
    ]
    for case in report.cases:
        lines.append(
            f"{case.name:>14} {case.state_count:>8d} "
            f"{PAPER_STATE_COUNTS[case.name]:>8d} "
            f"{case.enumeration_seconds:>9.3f} {case.bdd_seconds:>9.3f} "
            f"{PAPER_TIMES_SECONDS[case.name]:>14.1f} "
            f"{case.configuration_count:>8d}"
        )
    return "\n".join(lines)
