"""Experiment results do not depend on the BLAS thread count.

Cache artifacts and result digests are shared across hosts with different
core counts, so a baseline grid must hash the same at one and two OpenBLAS
threads.  The probe also runs the grid on a two-worker process pool and
checks it against the serial records, so the digest covers a pool run too.
(CALLOC is pinned the same way in ``tests/core/test_fused_calloc.py``.)
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: KNN (attacked through a surrogate fit) and DNN (attacked through its own
#: gradients) on one building, one device and one FGSM point.
_PROBE = """
import hashlib, json
from repro.api import ExperimentSpec, run_experiment
from repro.eval import EvaluationConfig

config = EvaluationConfig(
    buildings=("Building 1",),
    devices=("OP3",),
    attack_methods=("FGSM",),
    epsilons=(0.3,),
    phi_percents=(50.0,),
    attack_seeds=(11,),
    baseline_epochs=5,
)
spec = ExperimentSpec(models=("KNN", "DNN"), name="blas-threads")
records = run_experiment(spec, config=config).to_records()
assert [r["model"] for r in records] == ["KNN", "DNN"], records
pooled = run_experiment(spec, config=config, jobs=2).to_records()
assert pooled == records, "a jobs=2 pool run diverged from jobs=1"
print(hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest())
"""


def test_baseline_grid_digest_is_blas_thread_independent(tmp_path):
    src = Path(__file__).resolve().parents[2] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_CACHE_DIR=str(tmp_path))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        result = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(result.stdout.strip().splitlines()[-1])
    assert digests[0] == digests[1]
