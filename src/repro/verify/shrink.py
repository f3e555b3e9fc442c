"""Delta-debugging shrinker for disagreeing scenarios.

Given a scenario on which the differential oracle found a disagreement
and a ``predicate`` deciding whether a candidate still reproduces it,
:func:`shrink_scenario` greedily applies structure- and
probability-level reductions until none applies:

* drop the whole management architecture (perfect knowledge),
* drop a backup target from a service (cascading: the target's entry,
  task and processor are garbage-collected from both models),
* drop a request from an entry (removes whole application tiers),
* drop a common cause, or one member of a multi-member cause,
* drop a management connector or a management component,
* make a component perfectly reliable (delete its failure probability),
* simplify a probability to 0.5.

Every candidate is rebuilt from its JSON document form, so model
validity is re-checked from scratch; candidates that no longer form a
well-formed (FTLQN, MAMA) pair — or on which the predicate raises a
:class:`~repro.errors.ReproError` — count as *not reproducing* and are
discarded.  The result is a local minimum: removing any single listed
element makes the disagreement disappear.

:func:`repro_script` renders a shrunken scenario as a standalone
Python reproduction script, and :func:`corpus_entry` as a JSON object
for the committed seed corpus (``tests/corpus/counterexamples.json``)
that the tier-1 suite replays forever.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterator

from repro.errors import ReproError, SerializationError
from repro.verify.generator import Scenario

#: Decides whether a candidate scenario still reproduces the failure.
ShrinkPredicate = Callable[[Scenario], bool]

#: Hard cap on predicate evaluations per shrink run.
DEFAULT_BUDGET = 400


# ---------------------------------------------------------------------------
# Document-level reductions


def _gc_document(document: dict) -> dict:
    """Remove application/management elements unreachable from the
    reference tasks, and prune probabilities/causes accordingly."""
    ftlqn = document["ftlqn"]
    entries = {e["name"]: e for e in ftlqn.get("entries", [])}
    services = {s["name"]: s for s in ftlqn.get("services", [])}
    tasks = {t["name"]: t for t in ftlqn.get("tasks", [])}

    # Reachability from reference-task entries through requests and
    # service targets.
    reachable: set[str] = set()
    frontier = [
        e["name"]
        for e in entries.values()
        if tasks.get(e["task"], {}).get("is_reference")
    ]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        if name in entries:
            frontier.extend(r["target"] for r in entries[name].get("requests", []))
        elif name in services:
            frontier.extend(services[name].get("targets", []))

    ftlqn["entries"] = [e for e in ftlqn.get("entries", []) if e["name"] in reachable]
    ftlqn["services"] = [
        s for s in ftlqn.get("services", []) if s["name"] in reachable
    ]
    kept_tasks = {e["task"] for e in ftlqn["entries"]}
    kept_tasks |= {t["name"] for t in tasks.values() if t.get("is_reference")}
    ftlqn["tasks"] = [t for t in ftlqn.get("tasks", []) if t["name"] in kept_tasks]
    kept_processors = {t["processor"] for t in ftlqn["tasks"]}
    ftlqn["processors"] = [
        p for p in ftlqn.get("processors", []) if p["name"] in kept_processors
    ]
    kept_links = set()
    for entry in ftlqn["entries"]:
        kept_links.update(entry.get("depends_on", []))
    ftlqn["links"] = [
        link for link in ftlqn.get("links", []) if link["name"] in kept_links
    ]

    ftlqn_names = (
        {t["name"] for t in ftlqn["tasks"]}
        | kept_processors
        | {link["name"] for link in ftlqn["links"]}
    )

    mama = document.get("mama")
    if mama is not None:
        # Application tasks that left the FTLQN model leave the MAMA
        # model too, with every connector touching them.
        mama["components"] = [
            c
            for c in mama.get("components", [])
            if c["kind"] != "AT" or c["name"] in ftlqn_names
        ]
        component_names = {c["name"] for c in mama["components"]}
        mama["connectors"] = [
            c
            for c in mama.get("connectors", [])
            if c["source"] in component_names and c["target"] in component_names
        ]
        # Drop task components whose host processor disappeared, then
        # processors hosting nothing and watched by nothing.
        hosts = {
            c.get("processor")
            for c in mama["components"]
            if c.get("processor") is not None
        }
        endpoint_names = set()
        for connector in mama["connectors"]:
            endpoint_names.add(connector["source"])
            endpoint_names.add(connector["target"])
        mama["components"] = [
            c
            for c in mama["components"]
            if c["kind"] != "Proc"
            or c["name"] in hosts
            or c["name"] in endpoint_names
        ]
        component_names = {c["name"] for c in mama["components"]}
        mama["connectors"] = [
            c
            for c in mama["connectors"]
            if c["source"] in component_names and c["target"] in component_names
        ]

    universe = set(ftlqn_names)
    if mama is not None:
        universe |= {c["name"] for c in mama["components"]}
        universe |= {c["name"] for c in mama["connectors"]}
    document["failure_probs"] = {
        name: p
        for name, p in document.get("failure_probs", {}).items()
        if name in universe
    }
    causes = []
    for cause in document.get("common_causes", []):
        members = [m for m in cause.get("components", []) if m in universe]
        if members:
            causes.append({**cause, "components": members})
    document["common_causes"] = causes
    return document


def _candidates(document: dict) -> Iterator[tuple[str, dict]]:
    """Yield (description, candidate document) single-step reductions,
    most aggressive first."""

    def fresh() -> dict:
        return copy.deepcopy(document)

    if document.get("mama") is not None:
        candidate = fresh()
        candidate["mama"] = None
        yield "drop management architecture", _gc_document(candidate)

    ftlqn = document["ftlqn"]
    for s_index, service in enumerate(ftlqn.get("services", [])):
        targets = service.get("targets", [])
        if len(targets) > 1:
            for t_index in reversed(range(len(targets))):
                candidate = fresh()
                candidate["ftlqn"]["services"][s_index]["targets"] = [
                    t for i, t in enumerate(targets) if i != t_index
                ]
                yield (
                    f"drop target {targets[t_index]!r} of service "
                    f"{service['name']!r}",
                    _gc_document(candidate),
                )

    for e_index, entry in enumerate(ftlqn.get("entries", [])):
        for r_index, request in enumerate(entry.get("requests", [])):
            candidate = fresh()
            del candidate["ftlqn"]["entries"][e_index]["requests"][r_index]
            yield (
                f"drop request {request['target']!r} of entry "
                f"{entry['name']!r}",
                _gc_document(candidate),
            )

    for c_index, cause in enumerate(document.get("common_causes", [])):
        candidate = fresh()
        del candidate["common_causes"][c_index]
        yield f"drop common cause {cause['name']!r}", candidate
        members = cause.get("components", [])
        if len(members) > 1:
            for m_index in range(len(members)):
                candidate = fresh()
                del candidate["common_causes"][c_index]["components"][m_index]
                yield (
                    f"drop member {members[m_index]!r} of cause "
                    f"{cause['name']!r}",
                    candidate,
                )

    mama = document.get("mama")
    if mama is not None:
        for c_index, connector in enumerate(mama.get("connectors", [])):
            candidate = fresh()
            del candidate["mama"]["connectors"][c_index]
            yield (
                f"drop connector {connector['name']!r}",
                _gc_document(candidate),
            )
        for c_index, component in enumerate(mama.get("components", [])):
            candidate = fresh()
            del candidate["mama"]["components"][c_index]
            yield (
                f"drop management component {component['name']!r}",
                _gc_document(candidate),
            )

    for name in sorted(document.get("failure_probs", {})):
        candidate = fresh()
        del candidate["failure_probs"][name]
        yield f"make {name!r} perfectly reliable", candidate

    for name, probability in sorted(document.get("failure_probs", {}).items()):
        if probability not in (0.0, 0.5, 1.0):
            candidate = fresh()
            candidate["failure_probs"][name] = 0.5
            yield f"simplify probability of {name!r} to 0.5", candidate
    for c_index, cause in enumerate(document.get("common_causes", [])):
        if cause.get("probability") not in (0.0, 0.5, 1.0):
            candidate = fresh()
            candidate["common_causes"][c_index]["probability"] = 0.5
            yield (
                f"simplify probability of cause {cause['name']!r} to 0.5",
                candidate,
            )


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    scenario: Scenario
    steps: list[str]
    candidates_tried: int

    @property
    def minimal(self) -> Scenario:
        return self.scenario


def shrink_scenario(
    scenario: Scenario,
    predicate: ShrinkPredicate,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ShrinkResult:
    """Greedily minimise ``scenario`` while ``predicate`` holds.

    ``predicate`` receives a rebuilt candidate :class:`Scenario` and
    returns True when the failure still reproduces; candidates that
    fail to rebuild, or on which the predicate raises
    :class:`~repro.errors.ReproError`, are treated as not reproducing.
    At most ``budget`` predicate evaluations are spent; each accepted
    reduction restarts the pass list, so the result is 1-minimal with
    respect to the reduction set when the budget suffices.
    """
    current = scenario.to_document()
    steps: list[str] = []
    tried = 0

    def reproduces(document: dict) -> Scenario | None:
        nonlocal tried
        tried += 1
        try:
            candidate = Scenario.from_document(document)
            return candidate if predicate(candidate) else None
        except ReproError:
            return None

    progress = True
    while progress and tried < budget:
        progress = False
        for description, candidate_doc in _candidates(current):
            if tried >= budget:
                break
            candidate = reproduces(candidate_doc)
            if candidate is not None:
                current = candidate_doc
                steps.append(description)
                progress = True
                break

    return ShrinkResult(
        scenario=Scenario.from_document(current),
        steps=steps,
        candidates_tried=tried,
    )


# ---------------------------------------------------------------------------
# Counterexample artifacts


_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Standalone reproduction of a differential-oracle disagreement.

{header}

Run with the repository's ``src`` directory on PYTHONPATH::

    PYTHONPATH=src python {filename}

Exits 0 when the disagreement is gone (bug fixed), 1 while it
reproduces.
"""

import json

from repro.verify.generator import Scenario
from repro.verify.oracle import check_scenario, default_backends

DOCUMENT = json.loads(r"""
{document}
""")

scenario = Scenario.from_document(DOCUMENT)
report = check_scenario(scenario, backends=default_backends({backends!r}))
print(report.summary())
raise SystemExit(0 if report.ok else 1)
'''


def repro_script(
    scenario: Scenario,
    *,
    note: str = "",
    backends: tuple[str, ...] = ("interp", "bits", "bdd"),
    filename: str = "counterexample.py",
) -> str:
    """Render ``scenario`` as a standalone reproduction script."""
    header = note or "Shrunken counterexample from the model fuzzer."
    document = json.dumps(scenario.to_document(), indent=2, sort_keys=True)
    return _SCRIPT_TEMPLATE.format(
        header=header,
        filename=filename,
        document=document,
        backends=list(backends),
    )


def corpus_entry(
    scenario: Scenario,
    *,
    identifier: str,
    description: str,
    disagreements: list[dict] | None = None,
) -> dict:
    """One seed-corpus object for ``tests/corpus/counterexamples.json``.

    The committed corpus replays every entry through the analytic
    oracle in the tier-1 suite; entries are expected to *pass* once the
    underlying bug is fixed, pinning the regression forever.
    """
    return {
        "id": identifier,
        "description": description,
        "scenario": scenario.to_document(),
        "disagreements": disagreements or [],
    }


def load_corpus(path: str | Path) -> list[dict]:
    """Load and schema-check the committed counterexample corpus."""
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"corpus {path} is not valid JSON: {exc}")
    if not isinstance(document, dict) or "entries" not in document:
        raise SerializationError(
            f'corpus {path} must be an object with an "entries" array'
        )
    entries = document["entries"]
    if not isinstance(entries, list):
        raise SerializationError(f'corpus {path}: "entries" must be an array')
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise SerializationError(
                f"corpus {path}: entries must be objects, got {entry!r}"
            )
        missing = [k for k in ("id", "description", "scenario") if k not in entry]
        if missing:
            raise SerializationError(
                f"corpus {path}: entry is missing {missing}: "
                f"{entry.get('id', entry)!r}"
            )
        if entry["id"] in seen:
            raise SerializationError(
                f"corpus {path}: duplicate entry id {entry['id']!r}"
            )
        seen.add(entry["id"])
    return entries
