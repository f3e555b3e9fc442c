"""Pareto frontier and budgeted recommendation over search results.

The design question the paper leaves to the reader — *which*
architecture should you build — rarely has a single answer: more
management buys more expected reward at more cost and more moving
parts.  This module reduces a :class:`~repro.optimize.search.SearchResult`
to the decisions that matter:

* the **Pareto frontier** over (expected reward ↑, cost ↓, component
  count ↓): every candidate not dominated by another on all three
  axes;
* **budgeted recommendation**: the highest-reward candidate with
  ``cost <= budget`` (ties break to lower cost, then fewer components,
  then name);
* JSON/CSV export mirroring the
  :class:`~repro.core.sweep.SweepResult` conventions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from collections.abc import Sequence

from repro.optimize.search import (
    CandidateEvaluation,
    SearchResult,
    _preference_key,
)


def dominates(a: CandidateEvaluation, b: CandidateEvaluation) -> bool:
    """True when ``a`` is at least as good as ``b`` on every axis
    (reward no lower, cost and component count no higher) and strictly
    better on at least one."""
    if (
        a.expected_reward < b.expected_reward
        or a.cost > b.cost
        or a.component_count > b.component_count
    ):
        return False
    return (
        a.expected_reward > b.expected_reward
        or a.cost < b.cost
        or a.component_count < b.component_count
    )


def pareto_frontier(
    evaluations: Sequence[CandidateEvaluation],
) -> tuple[CandidateEvaluation, ...]:
    """The non-dominated candidates, ordered by decreasing reward
    (ties: cheaper, smaller, then name).

    Of several candidates with *identical* (reward, cost, component
    count) none dominates another, so all of them stay on the frontier.
    """
    frontier = [
        entry
        for entry in evaluations
        if not any(dominates(other, entry) for other in evaluations)
    ]
    frontier.sort(key=_preference_key)
    return tuple(frontier)


def best_under_budget(
    evaluations: Sequence[CandidateEvaluation], budget: float
) -> CandidateEvaluation | None:
    """The highest-reward candidate with ``cost <= budget``; ties break
    to lower cost, then fewer components, then name.  ``None`` when the
    budget admits no candidate."""
    feasible = [entry for entry in evaluations if entry.cost <= budget]
    if not feasible:
        return None
    return min(feasible, key=_preference_key)


@dataclass(frozen=True)
class OptimizationReport:
    """A search result reduced to its decision surface.

    ``recommended`` is the budget-constrained pick when ``budget`` was
    given (``None`` if infeasible), otherwise the overall best
    candidate.  Build with :meth:`from_search`.
    """

    search: SearchResult
    frontier: tuple[CandidateEvaluation, ...]
    budget: float | None
    recommended: CandidateEvaluation | None

    @classmethod
    def from_search(
        cls, search: SearchResult, *, budget: float | None = None
    ) -> "OptimizationReport":
        frontier = pareto_frontier(search.evaluations)
        recommended = search.best(budget)
        return cls(
            search=search,
            frontier=frontier,
            budget=budget,
            recommended=recommended,
        )

    # ------------------------------------------------------------------
    # Export

    def _candidate_document(self, entry: CandidateEvaluation) -> dict:
        candidate = entry.candidate
        return {
            "name": entry.name,
            "architecture": candidate.architecture,
            "topology": candidate.topology,
            "style": candidate.style,
            "upgrades": [upgrade.name for upgrade in candidate.upgrades],
            "expected_reward": float(entry.expected_reward),
            "failed_probability": float(entry.failed_probability),
            "cost": float(entry.cost),
            "component_count": entry.component_count,
            "scan_cached": entry.scan_cached,
            "on_frontier": entry in self.frontier,
        }

    def to_json_dict(self) -> dict:
        """Plain-data rendering for ``json.dump`` (artifact export)."""
        return {
            "strategy": self.search.strategy,
            "method": self.search.method,
            "rounds": self.search.rounds,
            "space_size": self.search.space_size,
            "evaluated": len(self.search.evaluations),
            "budget": self.budget,
            "recommended": (
                self.recommended.name if self.recommended else None
            ),
            "counters": self.search.counters.as_dict(),
            "lqn_cache_hit_rate": self.search.lqn_cache_hit_rate,
            "frontier": [entry.name for entry in self.frontier],
            "candidates": [
                self._candidate_document(entry)
                for entry in self.search.evaluations
            ],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_csv(self) -> str:
        """One row per evaluated candidate, frontier membership and the
        recommendation flagged in-line."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([
            "name", "architecture", "topology", "style", "upgrades",
            "expected_reward", "failed_probability", "cost",
            "component_count", "on_frontier", "recommended",
        ])
        for entry in self.search.evaluations:
            candidate = entry.candidate
            writer.writerow([
                entry.name,
                candidate.architecture,
                candidate.topology,
                candidate.style or "",
                "+".join(u.name for u in candidate.upgrades),
                repr(float(entry.expected_reward)),
                repr(float(entry.failed_probability)),
                repr(float(entry.cost)),
                entry.component_count,
                int(entry in self.frontier),
                int(entry is self.recommended),
            ])
        return buffer.getvalue()
