"""Unit and integration tests for scenario grids and the experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import KNNLocalizer
from repro.data.devices import device_acronyms
from repro.eval import (
    AttackScenario,
    EvaluationConfig,
    EvaluationRecord,
    ResultSet,
    error_stats,
)

from eval.legacy_oracle import LegacySerialRunner


class TestAttackScenario:
    def test_clean_detection(self):
        assert AttackScenario(epsilon=0.0).is_clean
        assert AttackScenario(phi_percent=0.0).is_clean
        assert not AttackScenario(epsilon=0.1, phi_percent=10.0).is_clean

    def test_label(self):
        assert AttackScenario(epsilon=0.0).label() == "clean"
        assert "FGSM" in AttackScenario(method="FGSM", epsilon=0.2, phi_percent=30).label()


class TestEvaluationConfig:
    def test_profiles_have_increasing_scope(self):
        quick = EvaluationConfig.quick()
        full = EvaluationConfig.full()
        assert len(quick.buildings) < len(full.buildings)
        assert quick.rp_granularity_m > full.rp_granularity_m

    def test_full_profile_covers_paper_grid(self):
        full = EvaluationConfig.full()
        assert len(full.buildings) == 5
        assert set(full.devices) == set(device_acronyms())
        assert full.epsilons == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_scenario_expansion_size(self):
        config = EvaluationConfig.quick()
        scenarios = config.scenarios()
        expected = (
            len(config.attack_methods)
            * len(config.epsilons)
            * len(config.phi_percents)
            * len(config.attack_seeds)
        )
        assert len(scenarios) == expected

    def test_scenario_expansion_with_overrides(self):
        config = EvaluationConfig.quick()
        scenarios = config.scenarios(methods=("FGSM",), epsilons=(0.1,), phi_percents=(50.0,))
        assert len(scenarios) == len(config.attack_seeds)
        assert all(s.method == "FGSM" for s in scenarios)


class TestResultSet:
    def _record(self, model="KNN", attack="FGSM", epsilon=0.1, phi=10.0, errors=(1.0, 2.0)):
        scenario = AttackScenario(method=attack, epsilon=epsilon, phi_percent=phi)
        return EvaluationRecord(
            model=model,
            building="Building 1",
            device="OP3",
            scenario=scenario,
            stats=error_stats(list(errors)),
        )

    def test_filter_by_model_and_epsilon(self):
        results = ResultSet([self._record(model="A", epsilon=0.1), self._record(model="B", epsilon=0.3)])
        assert len(results.filter(model="A")) == 1
        assert len(results.filter(epsilon=0.3)) == 1
        assert len(results.filter(model="A", epsilon=0.3)) == 0

    def test_mean_error_is_sample_weighted(self):
        results = ResultSet(
            [self._record(errors=(1.0,)), self._record(errors=(3.0, 3.0, 3.0))]
        )
        assert results.mean_error() == pytest.approx(2.5)

    def test_worst_case(self):
        results = ResultSet([self._record(errors=(1.0, 9.0)), self._record(errors=(2.0,))])
        assert results.worst_case_error() == pytest.approx(9.0)

    def test_empty_resultset_raises(self):
        with pytest.raises(ValueError):
            ResultSet().mean_error()

    def test_models_and_rows(self):
        results = ResultSet([self._record(model="A"), self._record(model="B")])
        assert results.models() == ["A", "B"]
        rows = results.to_rows()
        assert rows[0]["building"] == "Building 1"


@pytest.fixture(scope="module")
def tiny_runner_config():
    return EvaluationConfig(
        buildings=("Building 3",),
        devices=("OP3", "MOTO"),
        attack_methods=("FGSM",),
        epsilons=(0.2,),
        phi_percents=(50.0,),
        rp_granularity_m=8.0,
        attack_seeds=(5,),
        epochs_per_lesson=2,
        baseline_epochs=15,
    )


class TestExperimentRunner:
    def test_campaign_is_cached(self, tiny_runner_config):
        runner = LegacySerialRunner(tiny_runner_config)
        assert runner.campaign("Building 3") is runner.campaign("Building 3")

    def test_evaluate_knn_under_attack(self, tiny_runner_config):
        runner = LegacySerialRunner(tiny_runner_config)
        scenarios = [
            AttackScenario(epsilon=0.0, phi_percent=0.0),
            AttackScenario(method="FGSM", epsilon=0.3, phi_percent=50.0, seed=5),
        ]
        results = runner.evaluate_model("KNN", lambda: KNNLocalizer(k=3), scenarios)
        # 1 building x 2 devices x 2 scenarios
        assert len(results) == 4
        clean = results.filter(attack="clean").mean_error()
        attacked = results.filter(attack="FGSM").mean_error()
        assert attacked > clean

    def test_surrogate_is_reused_for_non_differentiable_victims(self, tiny_runner_config):
        runner = LegacySerialRunner(tiny_runner_config)
        campaign = runner.campaign("Building 3")
        knn = KNNLocalizer(k=3).fit(campaign.train)
        first = runner._gradient_provider(knn, campaign)
        second = runner._gradient_provider(knn, campaign)
        assert first is second

    def test_attacked_dataset_clean_scenario_passthrough(self, tiny_runner_config):
        runner = LegacySerialRunner(tiny_runner_config)
        campaign = runner.campaign("Building 3")
        knn = KNNLocalizer(k=3).fit(campaign.train)
        test = campaign.test_for("OP3")
        result = runner.attacked_dataset(knn, test, AttackScenario(epsilon=0.0), campaign)
        assert result is test
