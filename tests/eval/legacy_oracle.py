"""The pre-engine serial evaluation loops, kept as a test oracle.

:class:`LegacySerialRunner` trains each model once per building and scores
it at every operating point with plain nested loops, attacking
non-differentiable victims through one surrogate per model.  It shares no
execution code with :mod:`repro.eval.engine`, so a grid the engine computes
must match it record for record.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.attacks.base import GradientProvider, ThreatModel
from repro.attacks.mitm import SignalSpoofingAttack, attack_dataset, replay_survey
from repro.attacks.surrogate import SurrogateGradientModel
from repro.data.campaign import CampaignConfig, LocalizationCampaign, collect_campaign
from repro.data.fingerprint import FingerprintDataset
from repro.data.floorplan import paper_building
from repro.eval.metrics import error_stats
from repro.eval.runner import EvaluationRecord, ResultSet
from repro.eval.scenarios import AttackScenario, EvaluationConfig
from repro.interfaces import Localizer
from repro.registry import make_attack


class LegacySerialRunner:
    """Serial reference path: nested loops over buildings, devices, scenarios."""

    def __init__(self, config: Optional[EvaluationConfig] = None) -> None:
        self.config = config or EvaluationConfig.quick()
        self._campaigns: Dict[str, LocalizationCampaign] = {}
        self._surrogates: Dict[int, SurrogateGradientModel] = {}

    # ------------------------------------------------------------------
    def campaign(self, building_name: str) -> LocalizationCampaign:
        """Return (and cache) the simulated campaign for a building."""
        if building_name not in self._campaigns:
            building = paper_building(
                building_name, rp_granularity_m=self.config.rp_granularity_m
            )
            self._campaigns[building_name] = collect_campaign(
                building, CampaignConfig(seed=self.config.campaign_seed)
            )
        return self._campaigns[building_name]

    def train(self, factory: Callable[[], Localizer], building_name: str) -> Localizer:
        """Instantiate and fit a localizer on a building's offline database."""
        campaign = self.campaign(building_name)
        model = factory()
        model.fit(campaign.train)
        return model

    # ------------------------------------------------------------------
    def _gradient_provider(
        self, model: Localizer, campaign: LocalizationCampaign
    ) -> GradientProvider:
        """White-box gradient access: native for NN models, surrogate otherwise."""
        if hasattr(model, "loss_gradient"):
            return model  # type: ignore[return-value]
        key = id(model)
        if key not in self._surrogates:
            train = campaign.train
            surrogate = SurrogateGradientModel(
                num_aps=train.num_aps,
                num_classes=train.num_classes,
                epochs=80,
                seed=self.config.model_seed,
            )
            victim_labels = model.predict(train.features)
            surrogate.fit(train.features, victim_labels)
            self._surrogates[key] = surrogate
        return self._surrogates[key]

    def attacked_dataset(
        self,
        model: Localizer,
        dataset: FingerprintDataset,
        scenario: AttackScenario,
        campaign: LocalizationCampaign,
    ) -> FingerprintDataset:
        """Apply one attack scenario to a test dataset against ``model``."""
        if scenario.is_clean:
            return dataset
        threat = ThreatModel(
            epsilon=scenario.epsilon,
            phi_percent=scenario.phi_percent,
            seed=scenario.seed,
        )
        attack = make_attack(scenario.method, threat)
        if isinstance(attack, SignalSpoofingAttack) and attack.replay_features is None:
            # The spoofer's counterfeit baseline comes from its own offline
            # survey of the building, never from the batch under attack.
            attack.replay_features = replay_survey(campaign.train)
        victim = self._gradient_provider(model, campaign)
        return attack_dataset(dataset, attack, victim)

    # ------------------------------------------------------------------
    def evaluate_model(
        self,
        name: str,
        factory: Callable[[], Localizer],
        scenarios: Sequence[AttackScenario],
        buildings: Optional[Sequence[str]] = None,
        devices: Optional[Sequence[str]] = None,
    ) -> ResultSet:
        """Train ``factory()`` per building and evaluate it across the grid."""
        buildings = tuple(buildings) if buildings is not None else self.config.buildings
        devices = tuple(devices) if devices is not None else self.config.devices
        results = ResultSet()
        for building_name in buildings:
            campaign = self.campaign(building_name)
            model = self.train(factory, building_name)
            for device in devices:
                test = campaign.test_for(device)
                for scenario in scenarios:
                    attacked = self.attacked_dataset(model, test, scenario, campaign)
                    errors = model.evaluate(attacked)
                    results.add(
                        EvaluationRecord(
                            model=name,
                            building=building_name,
                            device=device,
                            scenario=scenario,
                            stats=error_stats(errors),
                        )
                    )
        return results

    def evaluate_models(
        self,
        factories: Dict[str, Callable[[], Localizer]],
        scenarios: Sequence[AttackScenario],
        buildings: Optional[Sequence[str]] = None,
        devices: Optional[Sequence[str]] = None,
    ) -> ResultSet:
        """Evaluate several named models over the same scenario grid."""
        results = ResultSet()
        for name, factory in factories.items():
            results.extend(
                self.evaluate_model(name, factory, scenarios, buildings, devices).records
            )
        return results
