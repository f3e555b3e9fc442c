"""Architecture selection — the Figure-1 comparison as a design-space search.

The paper's evaluation hand-builds four management architectures
(Figures 7–10) and compares their expected rewards in Table 2.  This
experiment poses the same question to the optimizer: the four exact
paper architectures enter a :class:`~repro.optimize.DesignSpace` as
explicit candidates next to the generated no-management baseline, every
candidate is costed by the default :class:`~repro.optimize.CostModel`,
and the search reports the Pareto frontier over (expected reward, cost,
component count) plus the best candidate under a cost budget.

Two structural facts the test suite pins:

* every *managed* architecture strictly beats the no-management
  baseline (which has reward 0: with no knowledge path to the deciding
  tasks, Definition 1 never lets them select a target), and none beats
  the perfect-knowledge reference;
* the whole comparison costs one LQN solve per distinct operational
  configuration — the candidates share the sweep engine's caches.

Note on the paper's Table 2: our faithful reproduction ranks
centralized above distributed at equal weights (the paper's
distributed-on-top conclusion rests on its anomalous Table 2 column;
see EXPERIMENTS.md), so the ranking asserted here is the reproduction's,
not the paper's typography.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ScanCounters, SweepPoint
from repro.core.progress import ProgressCallback
from repro.experiments.architectures import ARCHITECTURE_BUILDERS
from repro.experiments.figure1 import (
    MANAGEMENT_FAILURE_PROBABILITY,
    figure1_failure_probs,
    figure1_system,
)
from repro.optimize import (
    CandidateEvaluation,
    DesignSpace,
    DesignSpaceSearch,
    OptimizationReport,
)

#: The paper's monitored application tasks and their processors.
FIGURE1_TASKS = {
    "AppA": "proc1",
    "AppB": "proc2",
    "Server1": "proc3",
    "Server2": "proc4",
}

#: Default recommendation budget: enough for the centralized
#: architecture (cost 20.0 under the default cost model) but not the
#: larger organisations.
DEFAULT_BUDGET = 25.0


def selection_space() -> DesignSpace:
    """The Figure-1 comparison space: the paper's four architectures as
    explicit candidates plus the generated no-management baseline."""
    return DesignSpace(
        figure1_system(),
        tasks=FIGURE1_TASKS,
        topologies=("none",),
        management_failure_prob=MANAGEMENT_FAILURE_PROBABILITY,
        base_failure_probs=figure1_failure_probs(),
        explicit={
            name: builder() for name, builder in ARCHITECTURE_BUILDERS.items()
        },
    )


@dataclass(frozen=True)
class SelectionReport:
    """The optimizer's view of the Figure-1 architecture choice."""

    report: OptimizationReport
    perfect_reward: float
    perfect_failed: float

    @property
    def evaluations(self) -> tuple[CandidateEvaluation, ...]:
        return self.report.search.evaluations

    @property
    def frontier(self) -> tuple[CandidateEvaluation, ...]:
        return self.report.frontier

    @property
    def recommended(self) -> CandidateEvaluation | None:
        return self.report.recommended

    def evaluation(self, name: str) -> CandidateEvaluation:
        return self.report.search.evaluation(name)

    def ranking(self) -> list[str]:
        """Candidate names by decreasing expected reward (ties by cost,
        then name — the search's preference order)."""
        ordered = sorted(
            self.evaluations,
            key=lambda e: (-e.expected_reward, e.cost, e.name),
        )
        return [entry.name for entry in ordered]


def run_selection(
    *,
    budget: float = DEFAULT_BUDGET,
    method: str = "bdd",
    progress: ProgressCallback | None = None,
    counters: ScanCounters | None = None,
) -> SelectionReport:
    """Exhaustively evaluate the Figure-1 space and build the report.

    All candidates run through one shared
    :class:`~repro.core.sweep.SweepEngine`; pass ``counters`` to
    observe the cache effectiveness (``lqn_solves`` collapses to the
    distinct-configuration count).  The perfect-knowledge reference is
    evaluated on the same engine, so it costs no extra LQN solves.
    """
    search = DesignSpaceSearch(
        selection_space(), method=method, progress=progress,
        counters=counters,
    )
    result = search.exhaustive()
    report = OptimizationReport.from_search(result, budget=budget)
    perfect = search.engine.run(
        [SweepPoint(name="perfect")], method=method,
    ).point("perfect")
    return SelectionReport(
        report=report,
        perfect_reward=perfect.expected_reward,
        perfect_failed=perfect.failed_probability,
    )


def format_selection(report: SelectionReport) -> str:
    """Text rendering of the selection report."""
    lines = [
        "Architecture selection on the Figure-1 system "
        f"(perfect knowledge: {report.perfect_reward:.3f})",
        f"{'candidate':>14} {'E[reward]':>10} {'P(failed)':>10} "
        f"{'cost':>7} {'comps':>5}  frontier",
    ]
    for name in report.ranking():
        entry = report.evaluation(name)
        marks = []
        if entry in report.frontier:
            marks.append("*")
        if entry is report.recommended:
            marks.append("recommended")
        lines.append(
            f"{entry.name:>14} {entry.expected_reward:10.4f} "
            f"{entry.failed_probability:10.6f} {entry.cost:7.2f} "
            f"{entry.component_count:5d}  {' '.join(marks)}"
        )
    budget = report.report.budget
    if budget is not None and report.recommended is not None:
        lines.append(
            f"best under cost {budget:g}: {report.recommended.name}"
        )
    return "\n".join(lines)
