"""Content-addressed point keys.

A campaign point's key is the SHA-256 of a *canonical* JSON rendering
of everything its result depends on:

* the FTLQN model and MAMA architecture documents (via the stable
  serializers of :mod:`repro.ftlqn.serialize` /
  :mod:`repro.mama.serialize`; FTLQN documents are hashed verbatim —
  their entity order is semantics, e.g. failover priority — while MAMA
  component/connector lists are sorted first, since a MAMA is a set);
* the *effective* failure-probability map, common-cause events and
  reward weights the point is solved with;
* the scan backend and, for the ``bounded`` backend, its ε (pinned to
  0.0 for exact backends, which ignore it, so exact points share keys
  across differing ε arguments — mirroring the sweep engine's
  scan-cache key);
* the layered solver's tolerances (read from
  :func:`repro.lqn.solver.solve_lqn`'s signature, so a tolerance
  change invalidates stored rewards automatically);
* :data:`CODE_SCHEMA_VERSION` — bump it whenever the *semantics* of
  the analysis change (a bug fix that moves rewards, a new reward
  convention), and every store silently becomes a miss instead of
  serving stale results.

Keys deliberately hash serialized documents, never in-memory objects:
hash-consed expression interning (``booleans/expr.py``) makes object
identities and Python ``hash()`` values process-specific, while the
canonical JSON is identical across processes, interpreter runs and
machines.  ``tests/campaign/test_keys.py`` proves the round trip by
building the same model in separate interpreter processes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections.abc import Mapping, Sequence

from repro.core.dependency import CommonCause
from repro.core.enumeration import normalize_method
from repro.ftlqn.model import FTLQNModel
from repro.ftlqn.serialize import model_to_json
from repro.mama.model import MAMAModel
from repro.mama.serialize import mama_to_json

#: Version of the analysis semantics baked into every key.  Bump on
#: any change that alters stored results (reward conventions, scan
#: semantics, solver algorithm changes beyond tolerance values).
CODE_SCHEMA_VERSION = 1


def canonical_json(value) -> str:
    """Canonical JSON: sorted keys, no whitespace, shortest-repr
    floats.  The same value always renders to the same byte string, on
    any machine — the property every content address rests on."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint(document) -> str:
    """SHA-256 hex digest of the canonical JSON of ``document``."""
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()


def solver_tolerances() -> dict[str, float | int]:
    """The layered solver's convergence knobs, read from
    :func:`repro.lqn.solver.solve_lqn`'s own defaults so the key
    tracks the code instead of a copy that could drift."""
    from repro.lqn.solver import solve_lqn

    signature = inspect.signature(solve_lqn)
    return {
        name: signature.parameters[name].default
        for name in (
            "tolerance", "max_iterations", "mva_tolerance",
            "mva_max_iterations",
        )
    }


def _canonical_mama_document(document: Mapping) -> dict:
    """Order-normalize a MAMA document for hashing.

    A MAMA is a *set* of components and connectors — insertion order
    carries no semantics — but the serializer emits them in build
    order, and a JSON round trip regroups them by kind.  Sorting both
    lists makes "built in code" and "loaded from the file that build
    wrote" key identically.  (FTLQN documents are hashed verbatim:
    there, order *is* semantics — service targets are a failover
    priority list.)"""
    document = dict(document)
    document["components"] = sorted(
        document.get("components", ()), key=canonical_json
    )
    document["connectors"] = sorted(
        document.get("connectors", ()), key=canonical_json
    )
    return document


def _causes_document(causes: Sequence[CommonCause]) -> list[dict]:
    return [
        {
            "name": cause.name,
            "probability": float(cause.probability),
            "components": list(cause.components),
        }
        for cause in causes
    ]


def solve_point_document(
    ftlqn: FTLQNModel | Mapping,
    mama: MAMAModel | Mapping | None,
    *,
    failure_probs: Mapping[str, float],
    common_causes: Sequence[CommonCause] = (),
    weights: Mapping[str, float] | None = None,
    method: str = "bdd",
    epsilon: float = 0.0,
) -> dict:
    """The canonical fingerprint document of one solve point.

    ``ftlqn``/``mama`` accept either model objects (serialized here)
    or already-serialized documents (so workers and parents fingerprint
    identically without re-building models).  ``failure_probs`` must be
    the *effective* map the point is solved with — overlay resolution
    happens before keying, so "base + override" and "explicit full
    map" spellings of the same scenario share one key.
    """
    method = normalize_method(method)
    ftlqn_doc = (
        json.loads(model_to_json(ftlqn))
        if isinstance(ftlqn, FTLQNModel) else ftlqn
    )
    if isinstance(mama, MAMAModel):
        mama_doc = _canonical_mama_document(json.loads(mama_to_json(mama)))
    elif mama is not None:
        mama_doc = _canonical_mama_document(mama)
    else:
        mama_doc = None
    return {
        "schema": CODE_SCHEMA_VERSION,
        "kind": "solve",
        "ftlqn": ftlqn_doc,
        "mama": mama_doc,
        "failure_probs": {
            str(name): float(value)
            for name, value in failure_probs.items()
        },
        "common_causes": _causes_document(common_causes),
        "weights": (
            None if weights is None
            else {str(name): float(value) for name, value in weights.items()}
        ),
        "method": method,
        "epsilon": float(epsilon) if method == "bounded" else 0.0,
        "solver": solver_tolerances(),
    }


def solve_point_key(
    ftlqn: FTLQNModel | Mapping,
    mama: MAMAModel | Mapping | None,
    **kwargs,
) -> str:
    """Content address of one solve point (see
    :func:`solve_point_document` for the hashed fields)."""
    return fingerprint(solve_point_document(ftlqn, mama, **kwargs))


def temporal_point_document(
    ftlqn: FTLQNModel | Mapping,
    mama: MAMAModel | Mapping | None,
    *,
    rates: Mapping[str, Sequence[float]],
    times: Sequence[float],
    latencies: Sequence[float] = (),
    common_causes: Sequence[CommonCause] = (),
    cause_repair_rate: float = 1.0,
    weights: Mapping[str, float] | None = None,
    method: str = "bdd",
    epsilon: float = 0.0,
) -> dict:
    """The canonical fingerprint document of one temporal point.

    ``rates`` maps component names to ``(failure_rate, repair_rate)``
    pairs — the *effective* rates the transient curve is evaluated
    with, mirroring the effective-probability convention of solve
    points.  ``times`` is the transient grid and ``latencies`` the
    detection latencies of the erosion curve solved alongside it;
    both are part of the key because both decide the stored numbers.
    """
    method = normalize_method(method)
    ftlqn_doc = (
        json.loads(model_to_json(ftlqn))
        if isinstance(ftlqn, FTLQNModel) else ftlqn
    )
    if isinstance(mama, MAMAModel):
        mama_doc = _canonical_mama_document(json.loads(mama_to_json(mama)))
    elif mama is not None:
        mama_doc = _canonical_mama_document(mama)
    else:
        mama_doc = None
    return {
        "schema": CODE_SCHEMA_VERSION,
        "kind": "temporal",
        "ftlqn": ftlqn_doc,
        "mama": mama_doc,
        "rates": {
            str(name): [float(pair[0]), float(pair[1])]
            for name, pair in rates.items()
        },
        "times": [float(value) for value in times],
        "latencies": [float(value) for value in latencies],
        "common_causes": _causes_document(common_causes),
        "cause_repair_rate": float(cause_repair_rate),
        "weights": (
            None if weights is None
            else {str(name): float(value) for name, value in weights.items()}
        ),
        "method": method,
        "epsilon": float(epsilon) if method == "bounded" else 0.0,
        "solver": solver_tolerances(),
    }


def temporal_point_key(
    ftlqn: FTLQNModel | Mapping,
    mama: MAMAModel | Mapping | None,
    **kwargs,
) -> str:
    """Content address of one temporal point (see
    :func:`temporal_point_document` for the hashed fields)."""
    return fingerprint(temporal_point_document(ftlqn, mama, **kwargs))


def fuzz_point_document(
    scenario_document: Mapping,
    *,
    backends: Sequence[str],
    simulate: bool = False,
    temporal: bool = False,
    oracle_config: Mapping | None = None,
) -> dict:
    """The canonical fingerprint document of one differential-oracle
    check: the scenario itself (minus its provenance seed — two seeds
    that generate the same scenario share one check) plus everything
    that decides what the check *proves* (backend set, simulation and
    temporal cross-checks, oracle tolerances)."""
    scenario = dict(scenario_document)
    scenario.pop("seed", None)
    return {
        "schema": CODE_SCHEMA_VERSION,
        "kind": "fuzz",
        "scenario": scenario,
        "backends": [str(name) for name in backends],
        "simulate": bool(simulate),
        "temporal": bool(temporal),
        "oracle": dict(oracle_config or {}),
        "solver": solver_tolerances(),
    }


def fuzz_point_key(scenario_document: Mapping, **kwargs) -> str:
    """Content address of one fuzz check (see
    :func:`fuzz_point_document`)."""
    return fingerprint(fuzz_point_document(scenario_document, **kwargs))
