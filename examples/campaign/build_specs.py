"""Regenerate the multi-region example campaign's JSON files.

The scenario is a production-shaped two-region replicated service:
shoppers enter through a global frontend service that can land on
either region's web tier; each web tier reads a storage service that
prefers its local database replica but can fail over to the remote
one.  Two fault-management designs compete — one central manager
watching both regions versus per-region managers — across a grid of
database failure probabilities, a couple of named disaster scenarios,
a small design-space search and a fuzz seed range.

Run from the repository root::

    PYTHONPATH=src python examples/campaign/build_specs.py

and commit the regenerated ``model.json``, ``central.json``,
``regional.json`` and ``campaign.json``.  All four are generated, so
the CI ``campaign-smoke`` job's ``git diff --exit-code`` check catches
drift in any of them; edit the campaign in :data:`CAMPAIGN` below.  The
same job runs this campaign, SIGKILLs the dispatcher mid-run, reruns
it, and asserts that the resume recomputes nothing.
"""

import json
from pathlib import Path

from repro.ftlqn import FTLQNModel, Request
from repro.ftlqn.serialize import model_to_json
from repro.mama.architectures import (
    Domain,
    centralized_architecture,
    distributed_architecture,
)
from repro.mama.serialize import mama_to_json

HERE = Path(__file__).parent


def build_model() -> FTLQNModel:
    model = FTLQNModel(name="multi-region-store")
    for processor in (
        "p.users", "p.web-east", "p.web-west", "p.db-east", "p.db-west",
    ):
        model.add_processor(processor)

    model.add_task("users", processor="p.users", multiplicity=60,
                   is_reference=True, think_time=4.0)
    model.add_task("web-east", processor="p.web-east", multiplicity=3)
    model.add_task("web-west", processor="p.web-west", multiplicity=3)
    model.add_task("db-east", processor="p.db-east", multiplicity=2)
    model.add_task("db-west", processor="p.db-west", multiplicity=2)

    # Storage: each region prefers its local replica; the remote one is
    # the (slower) failover target of the same service.
    model.add_entry("q-east-local", task="db-east", demand=0.020)
    model.add_entry("q-east-remote", task="db-west", demand=0.050)
    model.add_service("storage-east",
                      targets=["q-east-local", "q-east-remote"])
    model.add_entry("q-west-local", task="db-west", demand=0.020)
    model.add_entry("q-west-remote", task="db-east", demand=0.050)
    model.add_service("storage-west",
                      targets=["q-west-local", "q-west-remote"])

    model.add_entry("page-east", task="web-east", demand=0.010,
                    requests=[Request("storage-east", mean_calls=2.0)])
    model.add_entry("page-west", task="web-west", demand=0.012,
                    requests=[Request("storage-west", mean_calls=2.0)])
    model.add_service("frontend", targets=["page-east", "page-west"])
    model.add_entry("shop", task="users", requests=[Request("frontend")])
    return model.validated()


#: Application tasks each architecture monitors, task → host processor.
#: ``users`` decides the global frontend service (it issues the
#: requests), so every architecture must observe it.
MONITORED = {
    "users": "p.users",
    "web-east": "p.web-east",
    "web-west": "p.web-west",
    "db-east": "p.db-east",
    "db-west": "p.db-west",
}


def build_architectures() -> dict:
    central = centralized_architecture(
        tasks=MONITORED,
        subscribers=["users", "web-east", "web-west"],
        manager_processor="p.mgmt",
    )
    regional = distributed_architecture(
        domains=[
            Domain(
                manager="dm.east",
                manager_processor="p.mgmt-east",
                tasks={"users": "p.users",
                       "web-east": "p.web-east", "db-east": "p.db-east"},
                subscribers=("users", "web-east"),
            ),
            Domain(
                manager="dm.west",
                manager_processor="p.mgmt-west",
                tasks={"web-west": "p.web-west", "db-west": "p.db-west"},
                subscribers=("web-west",),
            ),
        ]
    )
    return {"central": central, "regional": regional}


#: The campaign spec (``campaign.json``): a database-probability grid
#: over both architectures and perfect knowledge, three named drills and
#: a small fuzz seed range.
CAMPAIGN = {
    "name": "multi-region",
    "model": "model.json",
    "architectures": {
        "central": "central.json",
        "regional": "regional.json",
    },
    "base": {
        "failure_probs": {
            "web-east": 0.02, "web-west": 0.02,
            "db-east": 0.03, "db-west": 0.03,
            "p.web-east": 0.01, "p.web-west": 0.01,
            "p.db-east": 0.01, "p.db-west": 0.01,
            "ag.users": 0.02,
            "ag.web-east": 0.02, "ag.web-west": 0.02,
            "ag.db-east": 0.02, "ag.db-west": 0.02,
            "m1": 0.03, "p.mgmt": 0.01,
            "dm.east": 0.03, "dm.west": 0.03,
            "p.mgmt-east": 0.01, "p.mgmt-west": 0.01,
        },
    },
    "method": "bdd",
    "workloads": [
        {
            "kind": "grid",
            "label": "db-grid",
            "architectures": ["central", "regional", None],
            "axes": {
                "db-east": [0.01, 0.05, 0.15],
                "db-west": [0.01, 0.05, 0.15],
            },
            "weights": {"users": 1.0},
        },
        {
            "kind": "points",
            "label": "drills",
            "points": [
                {"name": "east-region-loss", "architecture": "regional",
                 "failure_probs": {"db-east": 0.5, "web-east": 0.5}},
                {"name": "east-region-loss-central",
                 "architecture": "central",
                 "failure_probs": {"db-east": 0.5, "web-east": 0.5}},
                {"name": "correlated-db-outage", "architecture": "central",
                 "common_causes": [
                     {"name": "shared-san", "probability": 0.02,
                      "components": ["db-east", "db-west"]},
                 ]},
            ],
        },
        {"kind": "fuzz", "label": "fuzz", "seeds": 4, "sim_every": 0},
    ],
}


def main() -> None:
    (HERE / "model.json").write_text(model_to_json(build_model()) + "\n")
    for name, mama in build_architectures().items():
        (HERE / f"{name}.json").write_text(mama_to_json(mama) + "\n")
    (HERE / "campaign.json").write_text(json.dumps(CAMPAIGN, indent=2) + "\n")
    print(f"wrote model.json, central.json, regional.json and "
          f"campaign.json under {HERE}")


if __name__ == "__main__":
    main()
