"""The ``python -m repro`` command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.ftlqn import model_to_json
from repro.mama.serialize import mama_to_json
from repro.experiments.architectures import centralized_mama, network_mama
from repro.experiments.figure1 import figure1_failure_probs, figure1_system


@pytest.fixture
def model_files(tmp_path):
    mama = centralized_mama()
    ftlqn_path = tmp_path / "figure1.json"
    mama_path = tmp_path / "centralized.json"
    probs_path = tmp_path / "probs.json"
    ftlqn_path.write_text(model_to_json(figure1_system()))
    mama_path.write_text(mama_to_json(mama))
    probs_path.write_text(json.dumps(figure1_failure_probs(mama)))
    return str(ftlqn_path), str(mama_path), str(probs_path)


class TestValidate:
    def test_valid_models(self, model_files, capsys):
        ftlqn, mama, _ = model_files
        assert main(["validate", ftlqn, "--mama", mama]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "6 tasks" in out

    def test_broken_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestAnalyze:
    def test_full_analysis(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        code = main(["analyze", ftlqn, "--mama", mama, "--probs", probs])
        assert code == 0
        out = capsys.readouterr().out
        assert "state space: 16384 states" in out
        assert "System Failed" in out
        assert "expected steady-state reward rate" in out

    def test_perfect_knowledge(self, model_files, capsys):
        ftlqn, _, _ = model_files
        probs_path = ftlqn.replace("figure1.json", "app_probs.json")
        with open(probs_path, "w") as handle:
            json.dump(figure1_failure_probs(), handle)
        assert main(["analyze", ftlqn, "--probs", probs_path]) == 0
        assert "state space: 256 states" in capsys.readouterr().out

    def test_weights_change_reward(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        main(["analyze", ftlqn, "--mama", mama, "--probs", probs])
        flat = capsys.readouterr().out
        main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--weights", '{"UserA": 1.0, "UserB": 5.0}',
        ])
        weighted = capsys.readouterr().out
        flat_reward = float(flat.rsplit(":", 1)[1])
        weighted_reward = float(weighted.rsplit(":", 1)[1])
        assert weighted_reward > flat_reward

    def test_structured_probs_with_common_causes(self, model_files, capsys):
        ftlqn, mama, _ = model_files
        structured = ftlqn.replace("figure1.json", "structured.json")
        with open(structured, "w") as handle:
            json.dump(
                {
                    "failure_probs": figure1_failure_probs(centralized_mama()),
                    "common_causes": [
                        {"name": "rack", "probability": 0.05,
                         "components": ["proc3", "proc4"]}
                    ],
                },
                handle,
            )
        code = main(["analyze", ftlqn, "--mama", mama, "--probs", structured])
        assert code == 0
        assert "state space: 32768 states" in capsys.readouterr().out

    def test_enumeration_method(self, model_files, capsys):
        ftlqn, _, _ = model_files
        probs_path = ftlqn.replace("figure1.json", "p.json")
        with open(probs_path, "w") as handle:
            json.dump(figure1_failure_probs(), handle)
        assert main([
            "analyze", ftlqn, "--probs", probs_path, "--method", "enumeration"
        ]) == 0
        assert "enumeration evaluation" in capsys.readouterr().out

    def test_default_method_is_bdd(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        assert main(["analyze", ftlqn, "--mama", mama, "--probs", probs]) == 0
        assert "bdd evaluation" in capsys.readouterr().out

    def test_removed_factored_method_rejected(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        for flag in ("--method", "--backend"):
            assert main([
                "analyze", ftlqn, "--mama", mama, "--probs", probs,
                flag, "factored",
            ]) == 2
            err = capsys.readouterr().err
            assert "error: method 'factored' was removed; use 'bdd' instead" in err
        assert main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--method", "magic",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown method 'magic'" in err
        for name in ("bdd", "bits", "bounded", "enumeration", "interp"):
            assert name in err


class TestRetiredFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "m.json", "--jobs", "2"],
            ["importance", "m.json", "--jobs=0"],
            ["sweep", "spec.json", "--jobs", "4"],
            ["optimize", "spec.json", "--jobs", "2"],
            ["temporal", "m.json", "--jobs", "2"],
            ["verify", "--seeds", "1", "--jobs", "2"],
        ],
    )
    def test_jobs_names_campaign_workers(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: option --jobs was removed" in err
        assert "'campaign run --workers'" in err

    def test_parallel_every_was_removed(self, capsys):
        assert main(["verify", "--seeds", "1", "--parallel-every", "0"]) == 2
        err = capsys.readouterr().err
        assert ("error: option --parallel-every was removed; parallel "
                "re-runs of the scan were removed") in err

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_warm_start_was_removed(self, command, capsys):
        assert main([command, "spec.json", "--warm-start"]) == 2
        err = capsys.readouterr().err
        assert ("error: option --warm-start was removed; the LQN warm "
                "start was removed") in err

    def test_help_no_longer_offers_retired_flags(self, capsys):
        for command in ("analyze", "sweep", "optimize", "verify"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helptext = capsys.readouterr().out
            for flag in ("--jobs", "--parallel-every", "--warm-start"):
                assert flag not in helptext, (command, flag)


class TestProbsFileShapes:
    def test_common_causes_only_structured_file(self, model_files, capsys):
        # Regression: the structured form used to be recognised only by
        # its "failure_probs" key, so a causes-only file was misread as
        # a flat component→probability map.
        ftlqn, mama, _ = model_files
        causes_only = ftlqn.replace("figure1.json", "causes_only.json")
        with open(causes_only, "w") as handle:
            json.dump(
                {
                    "common_causes": [
                        {"name": "rack", "probability": 0.05,
                         "components": ["proc3", "proc4"]}
                    ]
                },
                handle,
            )
        code = main(["analyze", ftlqn, "--mama", mama,
                     "--probs", causes_only])
        assert code == 0
        # Components without probabilities are pinned up, so only the
        # cause variable is stochastic — and the failure probability is
        # exactly the cause's.
        out = capsys.readouterr().out
        assert "state space: 2 states" in out
        assert "0.050000" in out

    def test_unknown_keys_rejected(self, model_files, capsys):
        ftlqn, _, _ = model_files
        bad = ftlqn.replace("figure1.json", "bad_keys.json")
        with open(bad, "w") as handle:
            json.dump({"failure_probs": {}, "typo_key": 1}, handle)
        assert main(["analyze", ftlqn, "--probs", bad]) == 2
        err = capsys.readouterr().err
        assert "unknown keys" in err
        assert "typo_key" in err

    def test_malformed_json_is_a_one_line_error(self, model_files, capsys):
        ftlqn, _, _ = model_files
        broken = ftlqn.replace("figure1.json", "broken.json")
        with open(broken, "w") as handle:
            handle.write("{not json")
        assert main(["analyze", ftlqn, "--probs", broken]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err

    def test_malformed_weights_exit_2(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        code = main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--weights", "{not json",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--weights" in err

    def test_missing_probability_is_a_repro_error(self):
        # Regression: ``probability()`` used to leak a bare KeyError on
        # unpriced variables; it must raise a ReproError subtype so the
        # CLI error net turns it into a one-line exit-2 message.
        from repro.booleans import probability
        from repro.booleans.expr import Var
        from repro.errors import ModelError, ReproError

        with pytest.raises(ModelError, match="missing probabilities"):
            probability(Var("a"), {})
        assert issubclass(ModelError, ReproError)


class TestSweep:
    @pytest.fixture
    def spec_files(self, tmp_path):
        centralized = centralized_mama()
        network = network_mama()
        (tmp_path / "figure1.json").write_text(
            model_to_json(figure1_system())
        )
        (tmp_path / "centralized.json").write_text(
            mama_to_json(centralized)
        )
        (tmp_path / "network.json").write_text(mama_to_json(network))
        spec = {
            "model": "figure1.json",
            "architectures": {
                "centralized": "centralized.json",
                "network": "network.json",
            },
            "base": {"failure_probs": figure1_failure_probs()},
            "points": [
                {"name": "perfect"},
                {"name": "c@0.1", "architecture": "centralized",
                 "failure_probs": figure1_failure_probs(centralized)},
                {"name": "c@again", "architecture": "centralized",
                 "failure_probs": figure1_failure_probs(centralized)},
                {"name": "n@0.1", "architecture": "network",
                 "failure_probs": figure1_failure_probs(network)},
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        return tmp_path, str(spec_path)

    def test_sweep_end_to_end(self, spec_files, capsys):
        tmp_path, spec = spec_files
        json_out = tmp_path / "out.json"
        csv_out = tmp_path / "out.csv"
        code = main([
            "sweep", spec, "--json", str(json_out), "--csv", str(csv_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: 4 points" in out
        assert "cache hits" in out
        assert "cached" in out  # the repeated centralized point

        document = json.loads(json_out.read_text())
        assert document["counters"]["lqn_solves"] == 6
        assert document["counters"]["distinct_configurations"] == 7
        assert document["counters"]["scan_cache_hits"] == 1
        assert [p["name"] for p in document["points"]] == [
            "perfect", "c@0.1", "c@again", "n@0.1",
        ]
        lines = csv_out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("name,architecture,expected_reward")

    def test_sweep_progress_flag(self, spec_files, capsys):
        _, spec = spec_files
        assert main(["sweep", spec, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[sweep]" in err
        assert "points" in err

    def test_sweep_missing_spec_file(self, capsys):
        assert main(["sweep", "/nonexistent/spec.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_sweep_rejects_unknown_spec_keys(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "x.json", "points": [],
                                    "bogus": 1}))
        assert main(["sweep", str(spec)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_sweep_rejects_unknown_architecture_reference(
        self, spec_files, capsys
    ):
        tmp_path, _ = spec_files
        spec = {
            "model": "figure1.json",
            "points": [{"name": "p", "architecture": "galactic"}],
        }
        path = tmp_path / "spec2.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", str(path)]) == 2
        assert "unknown architecture" in capsys.readouterr().err


class TestUnconvergedReporting:
    def test_analyze_marks_unconverged_records(
        self, model_files, capsys, monkeypatch
    ):
        from repro.core import performability as mod

        real = mod.solve_lqn_batch

        def unconverged_batch(models, **kwargs):
            return [
                dataclasses.replace(r, converged=False)
                for r in real(models, **kwargs)
            ]

        monkeypatch.setattr(mod, "solve_lqn_batch", unconverged_batch)
        ftlqn, mama, probs = model_files
        code = main(["analyze", ftlqn, "--mama", mama, "--probs", probs,
                     "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        assert "[unconverged]" in captured.out
        assert "did not meet the LQN convergence" in captured.err
        assert "6 unconverged" in captured.err


class TestImportance:
    def test_ranking_printed(self, model_files, capsys):
        ftlqn, _, _ = model_files
        probs_path = ftlqn.replace("figure1.json", "p.json")
        with open(probs_path, "w") as handle:
            json.dump(figure1_failure_probs(), handle)
        assert main(["importance", ftlqn, "--probs", probs_path]) == 0
        out = capsys.readouterr().out
        assert "reward imp." in out
        assert "AppB" in out

    def test_json_export(self, model_files, tmp_path, capsys):
        ftlqn, _, _ = model_files
        probs_path = ftlqn.replace("figure1.json", "p.json")
        with open(probs_path, "w") as handle:
            json.dump(figure1_failure_probs(), handle)
        json_out = tmp_path / "importance.json"
        code = main([
            "importance", ftlqn, "--probs", probs_path,
            "--json", str(json_out), "--progress",
        ])
        assert code == 0
        assert "[scan]" in capsys.readouterr().err
        document = json.loads(json_out.read_text())
        assert document["method"] == "bdd"
        assert document["counters"]["lqn_solves"] > 0
        names = [record["component"] for record in document["records"]]
        assert len(names) == 8 and "AppB" in names
        top = document["records"][0]
        for key in ("reward_importance", "failure_importance",
                    "improvement_potential", "reward_if_up",
                    "reward_if_down", "baseline_reward"):
            assert key in top


class TestOptimize:
    @pytest.fixture
    def optimize_spec(self, tmp_path):
        (tmp_path / "figure1.json").write_text(
            model_to_json(figure1_system())
        )
        (tmp_path / "centralized.json").write_text(
            mama_to_json(centralized_mama())
        )
        spec = {
            "model": "figure1.json",
            "space": {
                "tasks": {"AppA": "proc1", "AppB": "proc2",
                          "Server1": "proc3", "Server2": "proc4"},
                "topologies": ["none", "centralized"],
                "styles": ["direct"],
                "upgrades": [
                    {"component": "Server1", "probability": 0.01,
                     "cost": 3.0, "name": "raid"}
                ],
            },
            "architectures": {"figure7": "centralized.json"},
            "base": {"failure_probs": figure1_failure_probs()},
            "search": {"budget": 25.0},
        }
        spec_path = tmp_path / "optimize.json"
        spec_path.write_text(json.dumps(spec))
        return tmp_path, str(spec_path)

    def test_optimize_end_to_end(self, optimize_spec, capsys):
        tmp_path, spec = optimize_spec
        json_out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code = main([
            "optimize", spec, "--json", str(json_out),
            "--csv", str(csv_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # (none | centralized@direct | figure7) x (raid?) = 6 candidates
        assert "space: 6 candidates, 6 evaluated (exhaustive)" in out
        assert "recommended under budget 25.0:" in out
        assert "lqn:" in out

        document = json.loads(json_out.read_text())
        assert document["strategy"] == "exhaustive"
        assert document["space_size"] == 6
        assert document["budget"] == 25.0
        assert document["recommended"] is not None
        assert document["counters"]["lqn_solves"] <= \
            document["counters"]["distinct_configurations"]
        by_name = {c["name"]: c for c in document["candidates"]}
        assert by_name["none"]["expected_reward"] == 0.0
        assert by_name["figure7"]["expected_reward"] > 0.5
        assert by_name["figure7+raid"]["cost"] == \
            by_name["figure7"]["cost"] + 3.0

        lines = csv_out.read_text().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("name,architecture,topology")

    def test_optimize_new_flags(self, optimize_spec, capsys):
        _, spec = optimize_spec
        assert main(
            ["optimize", spec, "--strategy", "greedy"]
        ) == 0
        out = capsys.readouterr().out
        assert "bounds skips" in out
        assert main(
            ["optimize", spec, "--strategy", "greedy", "--no-bounds"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 bounds skips" in out

    def test_strategy_and_budget_overrides(self, optimize_spec, capsys):
        _, spec = optimize_spec
        code = main([
            "optimize", spec, "--strategy", "greedy", "--budget", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out
        assert "accepted moves" in out
        # budget 0 only admits the free no-management candidate
        assert "recommended under budget 0.0: none" in out

    def test_optimize_rejects_unknown_spec_keys(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "x.json", "bogus": 1}))
        assert main(["optimize", str(spec)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_optimize_missing_spec_file(self, capsys):
        assert main(["optimize", "/nonexistent/spec.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_optimize_spec_needs_space_or_architectures(
        self, tmp_path, capsys
    ):
        (tmp_path / "figure1.json").write_text(
            model_to_json(figure1_system())
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "figure1.json"}))
        assert main(["optimize", str(spec)]) == 2
        assert "explicit" in capsys.readouterr().err


class TestDot:
    def test_model_dot(self, model_files, capsys):
        ftlqn, _, _ = model_files
        assert main(["dot", ftlqn]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_fault_graph_dot(self, model_files, capsys):
        ftlqn, _, _ = model_files
        assert main(["dot", "--kind", "fault-graph", ftlqn]) == 0
        assert "__root__" in capsys.readouterr().out

    def test_mama_dot(self, model_files, capsys):
        ftlqn, mama, _ = model_files
        assert main(["dot", "--kind", "mama", ftlqn, "--mama", mama]) == 0
        assert "digraph mama" in capsys.readouterr().out

    def test_mama_dot_requires_mama_file(self, model_files, capsys):
        ftlqn, _, _ = model_files
        assert main(["dot", "--kind", "mama", ftlqn]) == 2


class TestPaper:
    def test_unknown_artifact_rejected(self, capsys):
        assert main(["paper", "tableX"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_table1_runs(self, capsys):
        assert main(["paper", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestVerify:
    def test_small_campaign_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--seeds", "6", "--sim-every", "0",
            "--json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6/6 seeds" in out
        assert "0 counterexample(s)" in out
        document = json.loads(report_path.read_text())
        assert document["failures"] == 0
        assert document["seeds_checked"] == 6
        assert document["backends"] == ["interp", "bits", "bdd"]
        assert len(document["outcomes"]) == 6

    def test_backend_selection_and_progress(self, capsys):
        code = main([
            "verify", "--seeds", "2", "--sim-every", "0",
            "--backends", "interp,bits",
            "--progress",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "seed 0: ok" in captured.err
        assert "seed 1: ok" in captured.err

    def test_unknown_backend_rejected(self, capsys):
        assert main(["verify", "--seeds", "1", "--backends", "quantum"]) == 2
        assert "unknown method" in capsys.readouterr().err
        assert main(["verify", "--seeds", "1", "--backends", "factored"]) == 2
        assert "method 'factored' was removed" in capsys.readouterr().err

    def test_artifacts_directory(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        code = main([
            "verify", "--seeds", "2", "--sim-every", "0",
            "--artifacts", str(artifacts),
        ])
        assert code == 0
        report = json.loads((artifacts / "report.json").read_text())
        assert report["failures"] == 0
        # No counterexamples on a healthy tree: no scripts, no corpus.
        assert not list(artifacts.glob("counterexample-*.py"))
        assert not (artifacts / "corpus-entries.json").exists()

    def test_time_budget_stops_early(self, capsys):
        code = main([
            "verify", "--seeds", "500", "--time-budget", "0.0",
            "--sim-every", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stopped by --time-budget" in out

    def test_help_mentions_testing_guide(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        helptext = capsys.readouterr().out
        assert "--seeds" in helptext
        assert "--time-budget" in helptext
        assert "testing_guide" in helptext


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Either the installed distribution version or the source
        # tree's __version__ — both follow X.Y.Z.
        assert out.split()[1].count(".") >= 1


class TestAnalyzeJsonExport:
    def test_json_export_has_machine_precision(
        self, model_files, tmp_path, capsys
    ):
        ftlqn, mama, probs = model_files
        out_path = tmp_path / "result.json"
        code = main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--json", str(out_path),
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        # Counters are stripped: the document depends only on the
        # analytical inputs, so repeated runs diff clean.
        assert "counters" not in document
        assert document["expected_reward"] > 0.0
        printed = capsys.readouterr().out
        # The printed table rounds; the export must not.
        assert f"{document['expected_reward']:.6f}" in printed
        rerun_path = tmp_path / "again.json"
        assert main([
            "analyze", ftlqn, "--mama", mama, "--probs", probs,
            "--json", str(rerun_path),
        ]) == 0
        assert json.loads(rerun_path.read_text()) == document


class TestServeParser:
    def test_serve_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        helptext = capsys.readouterr().out
        assert "--port" in helptext
        assert "--workers" in helptext
        assert "--batch-window" in helptext

    def test_campaign_workers_accepts_auto(self, capsys):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["campaign", "run", "spec.json", "--store", "s.db",
             "--workers", "auto"]
        )
        assert args.workers == 0
        args = build_parser().parse_args(
            ["serve", "--workers", "auto"]
        )
        assert args.workers == 0

    def test_campaign_workers_rejects_garbage(self, capsys):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "spec.json", "--store", "s.db",
                 "--workers", "lots"]
            )


class TestTemporal:
    def test_model_file_curve_and_erosion(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        code = main([
            "temporal", ftlqn, "--mama", mama, "--probs", probs,
            "--horizon", "2", "--points", "3", "--latencies", "0.5,1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "transient performability" in out
        assert "steady" in out
        assert "interval availability over" in out
        assert "coverage erosion vs. mean detection latency:" in out

    def test_heartbeat_derives_a_latency(self, model_files, capsys):
        ftlqn, mama, probs = model_files
        code = main([
            "temporal", ftlqn, "--mama", mama, "--probs", probs,
            "--horizon", "2", "--points", "3",
            "--heartbeat-period", "0.1", "--heartbeat-hop-delay", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "derived mean detection latency" in out
        # Centralized = 3 notification hops: (2 - 0.5)*0.1 + 3*0.2.
        assert "0.75" in out

    def test_json_export(self, model_files, tmp_path, capsys):
        ftlqn, mama, probs = model_files
        out_path = tmp_path / "curve.json"
        code = main([
            "temporal", ftlqn, "--mama", mama, "--probs", probs,
            "--times", "0,1,2", "--latencies", "0.5",
            "--json", str(out_path),
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["repair_rate"] == 1.0
        result = document["result"]
        assert [p["time"] for p in result["points"]] == [0.0, 1.0, 2.0]
        assert result["steady_state"]["expected_reward"] > 0
        (erosion,) = document["erosion"]
        assert erosion["latency"] == 0.5

    def test_scenario_mode_uses_catalog_defaults(self, capsys):
        code = main([
            "temporal", "--scenario", "multi-region-ecommerce",
            "--points", "3", "--horizon", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # The catalog temporal block's repair rate, not the CLI default.
        assert "repair rate 4" in out

    def test_model_and_scenario_are_mutually_exclusive(
        self, model_files, capsys
    ):
        ftlqn, _, _ = model_files
        assert main([
            "temporal", ftlqn, "--scenario", "multi-region-ecommerce",
        ]) == 2
        assert "not both or neither" in capsys.readouterr().err
        assert main(["temporal"]) == 2
        assert "not both or neither" in capsys.readouterr().err
