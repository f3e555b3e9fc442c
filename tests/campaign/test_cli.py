"""The ``repro campaign`` CLI and the store-backed ``verify`` flags."""

import json

import pytest

from repro.cli import main
from repro.ftlqn.serialize import model_to_json
from repro.mama.serialize import mama_to_json
from tests.campaign.conftest import TINY_PROBS, tiny_mama, tiny_system


@pytest.fixture
def spec_files(tmp_path):
    (tmp_path / "model.json").write_text(model_to_json(tiny_system()))
    (tmp_path / "central.json").write_text(mama_to_json(tiny_mama()))
    spec = {
        "name": "cli-unit",
        "model": "model.json",
        "architectures": {"central": "central.json"},
        "base": {"failure_probs": dict(TINY_PROBS)},
        "workloads": [
            {"kind": "grid", "label": "grid",
             "architectures": ["central", None],
             "axes": {"s1": [0.05, 0.2]},
             "weights": {"users": 1.0}},
        ],
    }
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path), str(tmp_path / "store.sqlite")


class TestCampaignRun:
    def test_run_then_memoized_rerun(self, spec_files, capsys):
        spec, store = spec_files
        assert main(["campaign", "run", spec, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 points" in out
        assert "0 from store" in out
        assert main(["campaign", "run", spec, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 from store" in out
        assert "0 solved" in out

    def test_json_summary(self, spec_files, tmp_path):
        spec, store = spec_files
        out_path = tmp_path / "summary.json"
        assert main([
            "campaign", "run", spec, "--store", store,
            "--json", str(out_path),
        ]) == 0
        summary = json.loads(out_path.read_text())
        assert summary["campaign"] == "cli-unit"
        assert summary["total"] == 4
        assert summary["solved"] == 4
        assert summary["store_path"] == store

    def test_backend_override(self, spec_files, capsys):
        spec, store = spec_files
        assert main([
            "campaign", "run", spec, "--store", store, "--backend", "bits",
        ]) == 0
        capsys.readouterr()
        # Different backend, different keys: nothing is shared.
        assert main(["campaign", "run", spec, "--store", store]) == 0
        assert "0 from store" in capsys.readouterr().out

    def test_broken_spec_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main([
            "campaign", "run", str(bad),
            "--store", str(tmp_path / "s.sqlite"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignReport:
    def test_report_text_json_csv(self, spec_files, tmp_path, capsys):
        spec, store = spec_files
        assert main(["campaign", "run", spec, "--store", store]) == 0
        capsys.readouterr()
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert main([
            "campaign", "report", "--store", store,
            "--campaign", "cli-unit",
            "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "4 solve points" in out
        assert "best point" in out
        document = json.loads(json_path.read_text())
        assert len(document["solve"]) == 4
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 5

    def test_report_on_missing_store_fails(self, tmp_path, capsys):
        code = main([
            "campaign", "report",
            "--store", str(tmp_path / "absent" / "s.sqlite"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyStore:
    def test_verify_memoizes_through_the_store(self, tmp_path, capsys):
        store = str(tmp_path / "fuzz.sqlite")
        args = [
            "verify", "--seeds", "2", "--sim-every", "0",
            "--store", store,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 seeds" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 store hits" in second
