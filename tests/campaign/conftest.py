"""Shared fixtures: a tiny primary/backup system and campaign specs.

The model mirrors ``tests/optimize/conftest.py``'s shape (users → app →
replicated service) but carries its own centralized MAMA so campaign
points exercise both architecture-bearing and perfect-knowledge scans.
``kill_campaign_main`` is the entry point the SIGKILL-resume test runs
in a subprocess: it drives a campaign and shoots itself after N fresh
commits, leaving a partially filled store behind.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.spec import FuzzWorkload, GridWorkload, PointsWorkload
from repro.core.sweep import SweepPoint
from repro.ftlqn import FTLQNModel, Request
from repro.mama.architectures import centralized_architecture


def tiny_system() -> FTLQNModel:
    """Users -> app -> service with primary s1 and backup s2."""
    model = FTLQNModel(name="tiny")
    for processor in ("pu", "pa", "p1", "p2"):
        model.add_processor(processor)
    model.add_task("users", processor="pu", multiplicity=2,
                   is_reference=True)
    model.add_task("app", processor="pa")
    model.add_task("s1", processor="p1")
    model.add_task("s2", processor="p2")
    model.add_entry("e1", task="s1", demand=1.0)
    model.add_entry("e2", task="s2", demand=1.0)
    model.add_service("svc", targets=["e1", "e2"])
    model.add_entry("ea", task="app", demand=0.5, requests=[Request("svc")])
    model.add_entry("u", task="users", requests=[Request("ea")])
    return model.validated()


TINY_TASKS = {"app": "pa", "s1": "p1", "s2": "p2"}

#: Base scenario shared by the campaign fixtures; includes management
#: components so the base map exercises per-point universe filtering.
TINY_PROBS = {
    "app": 0.05, "s1": 0.1, "s2": 0.1,
    "m1": 0.04, "ag.app": 0.02, "ag.s1": 0.02, "ag.s2": 0.02,
}


def tiny_mama():
    return centralized_architecture(
        tasks=TINY_TASKS, subscribers=["app"], manager_processor="pm"
    )


def make_spec(workloads, **overrides) -> CampaignSpec:
    settings = dict(
        name="unit",
        ftlqn=tiny_system(),
        architectures={"central": tiny_mama()},
        base_failure_probs=dict(TINY_PROBS),
        workloads=list(workloads),
    )
    settings.update(overrides)
    return CampaignSpec(**settings)


def small_grid_workload() -> GridWorkload:
    return GridWorkload(
        label="grid",
        architectures=("central", None),
        axes=(("s1", (0.05, 0.2)),),
        weights={"users": 1.0},
    )


def mixed_spec() -> CampaignSpec:
    """4 grid solves + 1 explicit drill + 2 fuzz checks = 7 points."""
    return make_spec([
        small_grid_workload(),
        PointsWorkload(
            label="drills",
            points=(
                SweepPoint(
                    name="both-degraded",
                    architecture="central",
                    failure_probs={"s1": 0.3, "s2": 0.3},
                ),
            ),
        ),
        FuzzWorkload(label="fuzz", seeds=2, sim_every=0),
    ])


def kill_spec() -> CampaignSpec:
    """A solve-only campaign with enough points to die in the middle."""
    return make_spec([
        GridWorkload(
            label="grid",
            architectures=("central", None),
            axes=(("s1", (0.05, 0.1, 0.2)), ("s2", (0.1, 0.3))),
            weights={"users": 1.0},
        ),
    ])


def kill_campaign_main(store_path: str, kill_after: int) -> None:
    """Run :func:`kill_spec` against ``store_path`` and SIGKILL
    ourselves once ``kill_after`` fresh points have been committed."""
    import os
    import signal

    from repro.campaign import ResultStore, run_campaign

    def assassin(event):
        if event.solved >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    with ResultStore(store_path) as store:
        run_campaign(kill_spec(), store, workers=1, progress=assassin)
    raise SystemExit("campaign survived the assassin")  # pragma: no cover


@pytest.fixture(scope="module")
def ftlqn():
    return tiny_system()


@pytest.fixture(scope="module")
def mama():
    return tiny_mama()
