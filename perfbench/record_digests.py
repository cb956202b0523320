"""Record the expected result digest of every batch-workload input set.

    python3 perfbench/record_digests.py

Each digest comes from a direct in-process ``run_experiment`` of the
workload's spec, so ``queue-drain``'s check also pins the drained results to
a direct run.  Re-record only when a change is *meant* to alter results,
and say so in the change description.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.api import run_experiment  # noqa: E402

from perfbench import workloads  # noqa: E402


def main() -> int:
    cache = ROOT / ".perfbench-work" / "digests"
    digests = {}
    try:
        for workload in ("grid-cold", "queue-drain"):
            digests[workload] = {}
            for seed in range(workloads.INPUT_SETS):
                records = run_experiment(workloads.build_spec(workload, seed), jobs=1, cache=cache).to_records()
                digests[workload][str(seed)] = workloads.records_digest(records)
                print(workload, seed, digests[workload][str(seed)], flush=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
