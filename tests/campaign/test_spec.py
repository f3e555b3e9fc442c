"""Campaign specs: workload expansion, effective-input folding,
key-level deduplication and the JSON file format."""

import json

import pytest

from repro.campaign import CampaignSpec, campaign_spec_from_document
from repro.campaign.spec import (
    FuzzWorkload,
    GridWorkload,
    PointsWorkload,
    load_campaign_spec,
)
from repro.core.sweep import SweepPoint
from repro.errors import ModelError, SerializationError
from repro.ftlqn.serialize import model_to_json
from repro.mama.serialize import mama_to_json
from tests.campaign.conftest import (
    TINY_PROBS,
    make_spec,
    mixed_spec,
    small_grid_workload,
    tiny_mama,
    tiny_system,
)


class TestGridExpansion:
    def test_names_and_count(self):
        compiled = make_spec([small_grid_workload()]).compile()
        assert [point.name for point in compiled.points] == [
            "grid/central/s1=0.05",
            "grid/central/s1=0.2",
            "grid/perfect/s1=0.05",
            "grid/perfect/s1=0.2",
        ]
        assert all(point.kind == "solve" for point in compiled.points)

    def test_overlay_wins_over_base(self):
        compiled = make_spec([small_grid_workload()]).compile()
        point = compiled.points[1]
        assert point.payload["failure_probs"]["s1"] == 0.2
        assert point.payload["failure_probs"]["s2"] == TINY_PROBS["s2"]

    def test_base_is_filtered_to_the_point_universe(self):
        """Management-component probabilities must not leak into
        perfect-knowledge (no-architecture) points."""
        compiled = make_spec([small_grid_workload()]).compile()
        with_arch = compiled.points[0].payload["failure_probs"]
        perfect = compiled.points[2].payload["failure_probs"]
        assert "m1" in with_arch and "ag.app" in with_arch
        assert "m1" not in perfect and "ag.app" not in perfect

    def test_unknown_architecture_rejected(self):
        spec = make_spec([
            GridWorkload(
                label="grid", architectures=("nope",),
                axes=(("s1", (0.1,)),),
            ),
        ])
        with pytest.raises(SerializationError, match="unknown architecture"):
            spec.compile()


class TestCompile:
    def test_mixed_spec_shape(self):
        compiled = mixed_spec().compile()
        assert len(compiled.solve_points) == 5
        assert len(compiled.fuzz_points) == 2
        assert compiled.duplicate_points == 0
        assert compiled.method == "bdd"
        assert set(compiled.engine_documents) == {"ftlqn", "architectures"}
        assert set(compiled.engine_documents["architectures"]) == {"central"}

    def test_identical_points_deduplicate_by_key(self):
        """Two spellings of the same analysis collapse to one point."""
        compiled = make_spec([
            small_grid_workload(),
            PointsWorkload(
                label="again",
                points=(
                    SweepPoint(
                        name="same-as-grid",
                        architecture="central",
                        failure_probs={"s1": 0.05},
                        weights={"users": 1.0},
                    ),
                ),
            ),
        ]).compile()
        assert compiled.duplicate_points == 1
        assert len(compiled.points) == 4

    def test_duplicate_names_rejected(self):
        spec = make_spec([small_grid_workload(), small_grid_workload()])
        with pytest.raises(SerializationError, match="unique"):
            spec.compile()

    def test_method_override_changes_keys(self):
        spec = make_spec([small_grid_workload()])
        symbolic = spec.compile(method="bdd")
        bits = spec.compile(method="bits")
        assert [p.name for p in symbolic.points] == [
            p.name for p in bits.points
        ]
        assert all(
            a.key != b.key
            for a, b in zip(symbolic.points, bits.points)
        )

    def test_fuzz_schedule_is_seed_based(self):
        compiled = make_spec([
            FuzzWorkload(label="f", seeds=4, seed_start=9,
                         sim_every=10, temporal_every=11),
        ]).compile()
        by_seed = {p.payload["seed"]: p.payload for p in compiled.points}
        assert sorted(by_seed) == [9, 10, 11, 12]
        assert [by_seed[s]["simulate"] for s in (9, 10, 11, 12)] == [
            False, True, False, False,
        ]
        assert [by_seed[s]["temporal"] for s in (9, 10, 11, 12)] == [
            False, False, True, False,
        ]

    def test_fuzz_keys_do_not_depend_on_range_position(self):
        first = make_spec(
            [FuzzWorkload(label="f", seeds=3, seed_start=0,
                          sim_every=0)]
        ).compile()
        offset = make_spec(
            [FuzzWorkload(label="f", seeds=1, seed_start=2,
                          sim_every=0)]
        ).compile()
        assert offset.points[0].key == first.points[2].key


class TestJsonFormat:
    def write_files(self, tmp_path, spec_document):
        (tmp_path / "model.json").write_text(model_to_json(tiny_system()))
        (tmp_path / "central.json").write_text(mama_to_json(tiny_mama()))
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec_document))
        return path

    def document(self):
        return {
            "name": "json-unit",
            "model": "model.json",
            "architectures": {"central": "central.json"},
            "base": {"failure_probs": dict(TINY_PROBS)},
            "method": "bdd",
            "workloads": [
                {"kind": "grid", "label": "grid",
                 "architectures": ["central", None],
                 "axes": {"s1": [0.05, 0.2]},
                 "weights": {"users": 1.0}},
            ],
        }

    def test_file_round_trip_matches_programmatic_spec(self, tmp_path):
        path = self.write_files(tmp_path, self.document())
        loaded = load_campaign_spec(path).compile()
        programmatic = make_spec(
            [small_grid_workload()], name="json-unit"
        ).compile()
        assert [p.key for p in loaded.points] == [
            p.key for p in programmatic.points
        ]

    def test_unknown_spec_key_rejected(self, tmp_path):
        document = self.document()
        document["worloads"] = document.pop("workloads")
        path = self.write_files(tmp_path, document)
        with pytest.raises(SerializationError, match="unknown keys"):
            load_campaign_spec(path)

    @pytest.mark.parametrize(
        "retired", [{"jobs": 2}, {"parallel_every": 25}, {"parallel_every": 0}]
    )
    def test_retired_fuzz_keys_rejected(self, tmp_path, retired):
        """A fuzz workload cannot ask for parallel re-runs any more; the
        strict key check names the key instead of silently ignoring it."""
        document = self.document()
        document["workloads"] = [
            dict({"kind": "fuzz", "label": "f", "seeds": 2}, **retired)
        ]
        path = self.write_files(tmp_path, document)
        (key,) = retired
        with pytest.raises(
            SerializationError, match=rf"unknown keys \['{key}'\]"
        ):
            load_campaign_spec(path)

    def test_unknown_workload_kind_rejected(self, tmp_path):
        document = self.document()
        document["workloads"] = [{"kind": "mystery"}]
        path = self.write_files(tmp_path, document)
        with pytest.raises(SerializationError, match="unknown workload kind"):
            load_campaign_spec(path)

    def test_removed_factored_method_rejected(self, tmp_path):
        document = self.document()
        document["method"] = "factored"
        path = self.write_files(tmp_path, document)
        with pytest.raises(ModelError, match="method 'factored' was removed; use 'bdd'"):
            load_campaign_spec(path)

    def test_missing_model_rejected(self):
        document = self.document()
        del document["model"]
        with pytest.raises(SerializationError, match='"model"'):
            campaign_spec_from_document(document)

    def test_unreadable_model_path_rejected(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.document()))
        with pytest.raises(SerializationError, match="cannot read"):
            load_campaign_spec(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_campaign_spec(path)
