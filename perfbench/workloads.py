"""Workload inputs generated from the benchmark seed.

The seed selects one of :data:`INPUT_SETS` input sets; each set's expected
result digests are committed in ``digests.json`` (see ``record_digests.py``).
Only the attack seed varies between sets: the campaign, model seed and grid
stay at the ``quick`` profile defaults a researcher gets from ``repro run``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

#: Number of distinct input sets; ``--seed n`` selects set ``n % INPUT_SETS``.
INPUT_SETS = 64

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

GRID_MODELS = ("CALLOC", "KNN", "DNN", "AdvLoc", "WiDeep")
QUEUE_MODELS = ("KNN", "NaiveBayes")

#: ``repro run``'s default attack seed; input set 0 reproduces it exactly.
BASE_ATTACK_SEED = 11


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def attack_seed(seed: int) -> int:
    return BASE_ATTACK_SEED + input_set(seed)


def build_spec(workload: str, seed: int):
    """The :class:`~repro.api.ExperimentSpec` a batch workload runs for ``seed``."""
    from repro.api import ExperimentSpec
    from repro.data.devices import device_acronyms
    from repro.data.floorplan import PAPER_BUILDING_SPECS
    from repro.eval.scenarios import EvaluationConfig

    quick = dataclasses.replace(EvaluationConfig.quick(), attack_seeds=(attack_seed(seed),))
    if workload == "grid-cold":
        return ExperimentSpec(
            models=GRID_MODELS,
            profile="quick",
            scenarios=tuple(quick.scenarios()),
            name=f"perfbench-grid-{input_set(seed)}",
        )
    if workload == "queue-drain":
        return ExperimentSpec(
            models=QUEUE_MODELS,
            profile="quick",
            buildings=tuple(PAPER_BUILDING_SPECS),
            devices=tuple(device_acronyms()),
            scenarios=tuple(quick.scenarios(methods=("FGSM",))),
            name=f"perfbench-queue-{input_set(seed)}",
        )
    raise ValueError(f"not a batch workload: {workload!r}")


def records_digest(records: List[dict]) -> str:
    """sha256 of a result set's records in canonical JSON."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def committed_digests() -> Dict[str, Dict[str, str]]:
    """``{workload: {input set: digest}}`` as committed next to this file."""
    return json.loads(DIGESTS_PATH.read_text())
