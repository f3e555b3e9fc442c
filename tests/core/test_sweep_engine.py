"""SweepEngine — shared-cache multi-scenario sweeps.

The engine's contract is *exact* equivalence: every point must
reproduce, bit for bit, what a fresh per-point
``PerformabilityAnalyzer`` computes for the same scenario, while the
shared caches collapse the LQN work onto the distinct configurations.
"""

import dataclasses
import json
import pickle

import pytest

from repro.core import (
    PerformabilityAnalyzer,
    ScanCounters,
    SweepEngine,
    SweepPoint,
)
from repro.core.dependency import CommonCause
from repro.core.enumeration import enumerate_configurations
from repro.core.symbolic import bdd_configurations
from repro.core.rewards import weighted_throughput_reward
from repro.core.sweep import (
    causes_from_documents,
    points_from_documents,
    probs_from_document,
)
from repro.errors import ModelError, SerializationError
from repro.experiments.figure1 import figure1_failure_probs


def make_engine(figure1, centralized, network, **kwargs):
    return SweepEngine(
        figure1,
        {"centralized": centralized, "network": network},
        **kwargs,
    )


def standard_points(centralized, network):
    return [
        SweepPoint(name="perfect", failure_probs=figure1_failure_probs()),
        SweepPoint(
            name="c@0.1",
            architecture="centralized",
            failure_probs=figure1_failure_probs(centralized),
        ),
        SweepPoint(
            name="c@weights",
            architecture="centralized",
            failure_probs=figure1_failure_probs(centralized),
            weights={"UserA": 1.0, "UserB": 3.0},
        ),
        SweepPoint(
            name="c@cc",
            architecture="centralized",
            failure_probs=figure1_failure_probs(centralized),
            common_causes=(
                CommonCause(
                    name="rack",
                    probability=0.05,
                    components=("proc3", "proc4"),
                ),
            ),
        ),
        SweepPoint(
            name="n@0.1",
            architecture="network",
            failure_probs=figure1_failure_probs(network),
        ),
    ]


class TestExactEquivalence:
    @pytest.mark.parametrize("method", ["bdd", "enumeration"])
    def test_engine_matches_per_point_analyzer(
        self, figure1, centralized, network, method
    ):
        engine = make_engine(figure1, centralized, network)
        points = standard_points(centralized, network)
        sweep = engine.run(points, method=method)

        mamas = {"centralized": centralized, "network": network, None: None}
        for point in points:
            reference = PerformabilityAnalyzer(
                figure1,
                mamas[point.architecture],
                failure_probs=point.failure_probs,
                reward=(
                    weighted_throughput_reward(dict(point.weights))
                    if point.weights is not None
                    else None
                ),
                common_causes=point.common_causes or (),
            ).solve(method=method)
            got = sweep.point(point.name).result
            assert got.records == reference.records, point.name
            assert got.expected_reward == reference.expected_reward
            assert got.failed_probability == reference.failed_probability

    def test_methods_agree_closely(self, figure1, centralized, network):
        engine = make_engine(figure1, centralized, network)
        points = standard_points(centralized, network)
        symbolic = engine.run(points, method="bdd")
        enumerated = engine.run(points, method="enumeration")
        for a, b in zip(symbolic.points, enumerated.points):
            assert a.expected_reward == pytest.approx(
                b.expected_reward, abs=1e-12
            ), a.name


class TestSharedCaches:
    def test_lqn_solves_collapse_to_distinct_configurations(
        self, figure1, centralized, network
    ):
        engine = make_engine(figure1, centralized, network)
        counters = ScanCounters()
        sweep = engine.run(
            standard_points(centralized, network), counters=counters
        )
        # Figure 1: six operational configurations plus System Failed,
        # identical across architectures — one LQN solve each, ever.
        assert counters.distinct_configurations == 7
        assert counters.lqn_solves == 6
        assert counters.lqn_solves == len(engine.lqn_cache)
        assert counters.sweep_points == 5
        assert counters.lqn_cache_hits > 0
        assert sweep.lqn_cache_hit_rate > 0.5
        assert sweep.counters is counters

    def test_scan_cache_hits_identical_scenarios(
        self, figure1, centralized, network
    ):
        engine = make_engine(figure1, centralized, network)
        probs = figure1_failure_probs(centralized)
        counters = ScanCounters()
        sweep = engine.run(
            [
                SweepPoint(
                    name="a", architecture="centralized", failure_probs=probs
                ),
                SweepPoint(
                    name="b", architecture="centralized", failure_probs=probs
                ),
                # Same scan key again — weights only change the reward.
                SweepPoint(
                    name="c",
                    architecture="centralized",
                    failure_probs=probs,
                    weights={"UserA": 2.0, "UserB": 1.0},
                ),
            ],
            counters=counters,
        )
        assert [entry.scan_cached for entry in sweep.points] == [
            False, True, True,
        ]
        assert counters.scan_cache_hits == 2
        # The cached-scan points still reproduce the fresh-scan numbers.
        assert (
            sweep.point("a").result.records
            == sweep.point("b").result.records
        )

    def test_different_probabilities_rescan(self, figure1, centralized, network):
        engine = make_engine(figure1, centralized, network)
        sweep = engine.run(
            [
                SweepPoint(
                    name="p1",
                    architecture="centralized",
                    failure_probs=figure1_failure_probs(centralized),
                ),
                SweepPoint(
                    name="p2",
                    architecture="centralized",
                    failure_probs=figure1_failure_probs(
                        centralized, management=0.2
                    ),
                ),
            ]
        )
        assert [entry.scan_cached for entry in sweep.points] == [False, False]

    def test_base_probs_filtered_to_point_universe(
        self, figure1, centralized, network
    ):
        # A base map naming centralized management components must not
        # leak into the perfect-knowledge point's analyzer.
        engine = make_engine(
            figure1,
            centralized,
            network,
            base_failure_probs=figure1_failure_probs(centralized),
        )
        sweep = engine.run([SweepPoint(name="perfect")])
        effective = sweep.point("perfect").failure_probs
        assert set(effective) == set(figure1_failure_probs())
        reference = PerformabilityAnalyzer(
            figure1, None, failure_probs=figure1_failure_probs()
        ).solve()
        assert (
            sweep.point("perfect").result.expected_reward
            == reference.expected_reward
        )

    def test_point_override_typo_still_fails(
        self, figure1, centralized, network
    ):
        engine = make_engine(figure1, centralized, network)
        with pytest.raises(ModelError, match="unknown components"):
            engine.run(
                [
                    SweepPoint(
                        name="typo",
                        failure_probs={
                            **figure1_failure_probs(), "AppZ": 0.1,
                        },
                    )
                ]
            )


class TestValidation:
    def test_duplicate_point_names_rejected(
        self, figure1, centralized, network
    ):
        engine = make_engine(figure1, centralized, network)
        probs = figure1_failure_probs()
        with pytest.raises(ModelError, match="unique"):
            engine.run(
                [
                    SweepPoint(name="p", failure_probs=probs),
                    SweepPoint(name="p", failure_probs=probs),
                ]
            )

    def test_unknown_architecture_rejected(
        self, figure1, centralized, network
    ):
        engine = make_engine(figure1, centralized, network)
        with pytest.raises(ModelError, match="unknown architecture"):
            engine.run([SweepPoint(name="x", architecture="galactic")])

    def test_point_lookup_raises_for_unknown_name(
        self, figure1, centralized, network
    ):
        engine = make_engine(figure1, centralized, network)
        sweep = engine.run(
            [SweepPoint(name="only", failure_probs=figure1_failure_probs())]
        )
        with pytest.raises(KeyError):
            sweep.point("missing")
        assert sweep.series(None)[0].name == "only"
        assert sweep.series("centralized") == ()


class TestProgressAndExport:
    def test_sweep_phase_events(self, figure1, centralized, network):
        engine = make_engine(figure1, centralized, network)
        events = []
        engine.run(
            standard_points(centralized, network)[:2],
            progress=events.append,
        )
        phases = {event.phase for event in events}
        assert phases == {"sweep", "scan", "lqn"}
        sweep_events = [e for e in events if e.phase == "sweep"]
        assert sweep_events[0].completed == 0
        assert sweep_events[-1].completed == sweep_events[-1].total == 2

    def test_json_export_shape(self, figure1, centralized, network):
        engine = make_engine(figure1, centralized, network)
        sweep = engine.run(standard_points(centralized, network)[:3])
        document = json.loads(sweep.to_json())
        assert document["method"] == "bdd"
        assert [p["name"] for p in document["points"]] == [
            "perfect", "c@0.1", "c@weights",
        ]
        assert 0.0 < document["lqn_cache_hit_rate"] < 1.0
        assert document["counters"]["sweep_points"] == 3
        first = document["points"][0]
        assert first["architecture"] is None
        assert isinstance(first["expected_reward"], float)
        assert first["records"][-1]["configuration"] is None
        assert all(
            record["converged"] for record in first["records"]
        )
        lean = sweep.to_json_dict(include_records=False)
        assert "records" not in lean["points"][0]

    def test_csv_export_shape(self, figure1, centralized, network):
        engine = make_engine(figure1, centralized, network)
        sweep = engine.run(standard_points(centralized, network)[:2])
        lines = sweep.to_csv().splitlines()
        header = lines[0].split(",")
        assert header[:5] == [
            "name", "architecture", "expected_reward",
            "failed_probability", "scan_cached",
        ]
        assert "avg_throughput_UserA" in header
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "perfect"
        assert row[1] == "perfect"
        # Full-precision floats, parseable straight back.
        assert float(row[2]) == sweep.point("perfect").expected_reward


class TestSpecParsing:
    def test_points_from_documents_roundtrip(self):
        points = points_from_documents(
            [
                {"name": "a"},
                {
                    "name": "b",
                    "architecture": "c",
                    "failure_probs": {"AppA": 0.2},
                    "common_causes": [
                        {"name": "rack", "probability": 0.05,
                         "components": ["x", "y"]}
                    ],
                    "weights": {"UserA": 1.0},
                },
            ]
        )
        assert points[0] == SweepPoint(name="a")
        assert points[1].architecture == "c"
        assert points[1].failure_probs == {"AppA": 0.2}
        assert points[1].common_causes == (
            CommonCause(name="rack", probability=0.05,
                        components=("x", "y")),
        )
        assert points[1].weights == {"UserA": 1.0}

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            "not a list",
            [{"architecture": "c"}],          # missing name
            [{"name": "a", "bogus": 1}],      # unknown key
            [{"name": "a", "weights": "x"}],  # weights not an object
        ],
    )
    def test_points_from_documents_rejects(self, bad):
        with pytest.raises(SerializationError):
            points_from_documents(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "not a list",
            [["rack"]],
            [{"name": "rack"}],
            [{"name": "rack", "probability": 0.05, "components": ["x"],
              "extra": 1}],
            [{"name": "rack", "probability": "high", "components": ["x"]}],
        ],
    )
    def test_causes_from_documents_rejects(self, bad):
        with pytest.raises(SerializationError):
            causes_from_documents(bad)

    def test_probs_from_document(self):
        assert probs_from_document({"a": "0.5"}, label="probs") == {"a": 0.5}
        with pytest.raises(SerializationError):
            probs_from_document(["a"], label="probs")
        with pytest.raises(SerializationError):
            probs_from_document({"a": "lots"}, label="probs")


class TestUnconverged:
    def test_unconverged_solutions_counted_and_flagged(
        self, figure1, centralized, monkeypatch
    ):
        from repro.core import performability as mod

        real = mod.solve_lqn_batch

        def unconverged_batch(models, **kwargs):
            return [
                dataclasses.replace(r, converged=False)
                for r in real(models, **kwargs)
            ]

        monkeypatch.setattr(mod, "solve_lqn_batch", unconverged_batch)
        analyzer = PerformabilityAnalyzer(
            figure1,
            centralized,
            failure_probs=figure1_failure_probs(centralized),
        )
        result = analyzer.solve()
        assert result.counters.lqn_unconverged == result.counters.lqn_solves
        flagged = result.unconverged_records
        assert flagged
        assert all(not record.converged for record in flagged)
        # The failed configuration needs no solve and stays converged.
        operational = [
            record for record in result.records
            if record.configuration is not None
        ]
        assert len(flagged) == len(operational)


class TestPickledProblemScans:
    def test_bdd_matches_enumeration_after_pickle(
        self, figure1, centralized
    ):
        """Regression: the scans must recognise the TRUE/FALSE
        singletons by identity even on a problem that crossed a pickle
        boundary."""
        analyzer = PerformabilityAnalyzer(
            figure1,
            centralized,
            failure_probs=figure1_failure_probs(centralized),
        )
        problem = pickle.loads(pickle.dumps(analyzer.problem))
        symbolic = bdd_configurations(problem)
        enumerated = enumerate_configurations(problem)
        assert set(symbolic) == set(enumerated)
        for configuration, probability in enumerated.items():
            assert symbolic[configuration] == pytest.approx(
                probability, abs=1e-12
            ), configuration
        # And the pickled problem agrees with the original analyzer.
        direct = analyzer.configuration_probabilities(
            method="enumeration"
        )
        for configuration, probability in direct.items():
            assert symbolic[configuration] == pytest.approx(
                probability, abs=1e-12
            )
