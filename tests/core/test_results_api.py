"""Result-container behaviour not covered by the integration tests."""

import pytest

from repro.core.results import ConfigurationRecord, PerformabilityResult


def record(config, probability, reward=0.0, throughputs=None):
    return ConfigurationRecord(
        configuration=config,
        probability=probability,
        reward=reward,
        throughputs=throughputs or {},
    )


@pytest.fixture
def result():
    records = (
        record(frozenset({"a", "b"}), 0.6, 1.5, {"users": 1.0}),
        record(frozenset({"a"}), 0.3, 0.5, {"users": 0.4}),
        record(None, 0.1),
    )
    return PerformabilityResult(
        records=records,
        expected_reward=0.6 * 1.5 + 0.3 * 0.5,
        state_count=16,
        method="bdd",
    )


class TestConfigurationRecord:
    def test_failed_flag(self):
        assert record(None, 0.1).is_failed
        assert not record(frozenset({"x"}), 0.9).is_failed

    def test_label_sorted(self):
        assert record(frozenset({"b", "a"}), 1.0).label() == "{a, b}"

    def test_failed_label(self):
        assert record(None, 0.1).label() == "System Failed"


class TestPerformabilityResult:
    def test_failed_probability(self, result):
        assert result.failed_probability == pytest.approx(0.1)

    def test_failed_probability_defaults_to_zero(self):
        only = PerformabilityResult(
            records=(record(frozenset({"x"}), 1.0),),
            expected_reward=0.0,
            state_count=1,
            method="bdd",
        )
        assert only.failed_probability == 0.0

    def test_operational_records(self, result):
        assert len(result.operational_records) == 2
        assert all(not r.is_failed for r in result.operational_records)

    def test_probability_of(self, result):
        assert result.probability_of(frozenset({"a"})) == pytest.approx(0.3)
        assert result.probability_of(None) == pytest.approx(0.1)
        assert result.probability_of(frozenset({"zz"})) == 0.0

    def test_total_probability(self, result):
        assert result.total_probability() == pytest.approx(1.0)

    def test_average_throughput(self, result):
        assert result.average_throughput("users") == pytest.approx(
            0.6 * 1.0 + 0.3 * 0.4
        )

    def test_average_throughput_unknown_group_is_zero(self, result):
        assert result.average_throughput("nobody") == 0.0
