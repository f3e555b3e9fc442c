"""Content-addressed point keys: cross-process stability and
sensitivity to every analysis-relevant input.

The stability test is the load-bearing one: keys must be identical
across separate interpreter processes (fresh ``PYTHONHASHSEED``, fresh
hash-consed expression tables) or the store could never be shared
between runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.keys import (
    CODE_SCHEMA_VERSION,
    canonical_json,
    fingerprint,
    fuzz_point_key,
    solve_point_document,
    solve_point_key,
    solver_tolerances,
)
from repro.errors import ModelError
from tests.campaign.conftest import TINY_PROBS, tiny_mama, tiny_system

REPO_ROOT = Path(__file__).resolve().parents[2]

_KEY_SCRIPT = """
from tests.campaign.conftest import TINY_PROBS, tiny_mama, tiny_system
from repro.campaign.keys import solve_point_key

print(solve_point_key(
    tiny_system(), tiny_mama(),
    failure_probs=TINY_PROBS,
    weights={"users": 1.0},
    method="bdd",
))
"""

#: ``solve_point_key`` of the ``_reference_key`` point, pinned so that a
#: change to the key document (which would orphan every stored ``bdd``
#: row) fails here instead of silently recomputing campaigns.
PINNED_BDD_KEY = (
    "13f4c191429e8e2cc96c5a54e66b41af5eab4611c408d9054c5e5a6191d90033"
)


def _reference_key() -> str:
    return solve_point_key(
        tiny_system(), tiny_mama(),
        failure_probs=TINY_PROBS,
        weights={"users": 1.0},
        method="bdd",
    )


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_no_whitespace(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"p": float("nan")})

    def test_fingerprint_is_sha256_hex(self):
        digest = fingerprint({"a": 1})
        assert len(digest) == 64
        assert int(digest, 16) >= 0


class TestCrossProcessStability:
    def test_separate_interpreters_agree(self):
        """The same model built in two fresh processes (randomized
        ``PYTHONHASHSEED``, fresh expression interning) keys
        identically — and identically to this process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        env.pop("PYTHONHASHSEED", None)
        keys = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _KEY_SCRIPT],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT,
                check=True,
            )
            keys.append(proc.stdout.strip())
        assert keys[0] == keys[1] == _reference_key()

    def test_rebuilt_model_keys_identically_in_process(self):
        assert _reference_key() == _reference_key()

    def test_bdd_key_is_pinned(self):
        assert _reference_key() == PINNED_BDD_KEY

    def test_removed_factored_method_is_rejected(self):
        with pytest.raises(ModelError, match="method 'factored' was removed; use 'bdd'"):
            solve_point_key(
                tiny_system(), tiny_mama(), failure_probs=TINY_PROBS,
                method="factored",
            )


class TestKeySensitivity:
    def test_probability_change_changes_key(self):
        base = _reference_key()
        mutated = dict(TINY_PROBS)
        mutated["s1"] = mutated["s1"] + 1e-6
        assert solve_point_key(
            tiny_system(), tiny_mama(),
            failure_probs=mutated, weights={"users": 1.0},
        ) != base

    def test_backend_changes_key(self):
        kwargs = dict(failure_probs=TINY_PROBS, weights={"users": 1.0})
        assert solve_point_key(
            tiny_system(), tiny_mama(), method="bdd", **kwargs
        ) != solve_point_key(
            tiny_system(), tiny_mama(), method="bits", **kwargs
        )

    def test_weights_change_key(self):
        assert solve_point_key(
            tiny_system(), tiny_mama(), failure_probs=TINY_PROBS,
            weights={"users": 2.0},
        ) != _reference_key()

    def test_architecture_presence_changes_key(self):
        probs = {"app": 0.05, "s1": 0.1, "s2": 0.1}
        assert solve_point_key(
            tiny_system(), None, failure_probs=probs
        ) != solve_point_key(
            tiny_system(), tiny_mama(), failure_probs=probs
        )

    def test_epsilon_ignored_unless_bounded(self):
        kwargs = dict(failure_probs=TINY_PROBS)
        assert solve_point_key(
            tiny_system(), tiny_mama(), method="bdd",
            epsilon=0.1, **kwargs
        ) == solve_point_key(
            tiny_system(), tiny_mama(), method="bdd",
            epsilon=0.2, **kwargs
        )
        assert solve_point_key(
            tiny_system(), tiny_mama(), method="bounded",
            epsilon=0.1, **kwargs
        ) != solve_point_key(
            tiny_system(), tiny_mama(), method="bounded",
            epsilon=0.2, **kwargs
        )

    def test_schema_version_is_in_the_document(self):
        document = solve_point_document(
            tiny_system(), tiny_mama(), failure_probs=TINY_PROBS
        )
        assert document["schema"] == CODE_SCHEMA_VERSION

    def test_document_accepts_serialized_models(self):
        """Workers fingerprint pre-serialized documents; the key must
        match the one computed from live model objects."""
        import json

        from repro.ftlqn.serialize import model_to_json
        from repro.mama.serialize import mama_to_json

        assert solve_point_key(
            json.loads(model_to_json(tiny_system())),
            json.loads(mama_to_json(tiny_mama())),
            failure_probs=TINY_PROBS,
            weights={"users": 1.0},
        ) == _reference_key()


class TestSolverTolerances:
    def test_tracks_solver_signature(self):
        knobs = solver_tolerances()
        assert set(knobs) == {
            "tolerance", "max_iterations", "mva_tolerance",
            "mva_max_iterations",
        }
        assert all(value > 0 for value in knobs.values())


class TestFuzzKeys:
    SCENARIO = {"seed": 7, "model": {"tasks": ["a"]}, "probs": {"a": 0.5}}

    def test_seed_is_not_part_of_the_key(self):
        other = dict(self.SCENARIO, seed=99)
        assert fuzz_point_key(
            self.SCENARIO, backends=("interp", "bdd")
        ) == fuzz_point_key(other, backends=("interp", "bdd"))

    def test_scenario_content_is(self):
        other = dict(self.SCENARIO, probs={"a": 0.6})
        assert fuzz_point_key(
            self.SCENARIO, backends=("interp",)
        ) != fuzz_point_key(other, backends=("interp",))

    def test_check_strength_is(self):
        base = fuzz_point_key(self.SCENARIO, backends=("interp",))
        assert fuzz_point_key(
            self.SCENARIO, backends=("interp", "bits")
        ) != base
        assert fuzz_point_key(
            self.SCENARIO, backends=("interp",), simulate=True
        ) != base
        assert fuzz_point_key(
            self.SCENARIO, backends=("interp",), temporal=True
        ) != base
