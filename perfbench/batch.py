"""One measured iteration of a batch workload, in a fresh interpreter.

Run by ``run.py`` as ``python perfbench/batch.py WORKLOAD SEED WORKDIR T0
TRACE``.  ``T0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports and spec/plan
generation.  Prints one JSON document as its last stdout line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.api import run_experiment  # noqa: E402
from repro.eval.engine import ArtifactCache  # noqa: E402
from repro.queue import STATE_DONE, RunLedger, collect_results, work  # noqa: E402

from perfbench import layers, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def _run(workload: str, spec, cache_dir: Path):
    """The timed work: returns ``(records, ledger or None)``."""
    if workload == "grid-cold":
        return run_experiment(spec, jobs=1, cache=cache_dir).to_records(), None
    cache = ArtifactCache(cache_dir)
    ledger = RunLedger.submit(spec, cache)
    work(cache, ledger.run_id, workers=1)
    return collect_results(ledger).to_records(), ledger


def main(argv) -> int:
    workload, seed, workdir, t0, traced = argv[0], int(argv[1]), Path(argv[2]), float(argv[3]), argv[4] == "1"
    spec = workloads.build_spec(workload, seed)
    plan = spec.resolve_plan()
    planned = plan.num_units
    tracer = None
    if traced:
        tracer = Tracer()
        layers.install_batch(tracer)
    setup_s = time.monotonic() - t0

    start = time.perf_counter()
    records, ledger = _run(workload, spec, workdir / "cache")
    wall_s = time.perf_counter() - start
    # Stop attributing before the checks below touch the ledger again.
    spans, counts, _ = tracer.drain() if tracer is not None else ([], {}, {})
    failed = 0
    if ledger is not None:
        failed = sum(1 for state in ledger.states().values() if state.state != STATE_DONE)

    digest = workloads.records_digest(records)
    expected = workloads.committed_digests().get(workload, {}).get(str(workloads.input_set(seed)))
    checks = {"digest": expected is not None and digest == expected}
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "planned": planned,
        "failed": failed,
        "digest": digest,
    }
    if tracer is not None:
        metrics = layers.batch_metrics(spans, counts, wall_s, planned)
        want = layers.expected_stage_counts(plan)
        got = {
            "campaigns": int(metrics["data.campaigns"]),
            "trainings": sum(
                int(row["calls"])
                for name, row in layers.span_table(spans).items()
                if name in ("core.calloc_fit", "baselines.fit")
            ),
            "surrogate_fits": int(metrics["attacks.surrogate_fits"]),
        }
        checks["stage_counts"] = got == want
        if workload == "queue-drain":
            direct = run_experiment(spec, jobs=1).to_records()
            checks["queue_equals_direct"] = direct == records
        out.update(
            metrics=metrics,
            stage_counts={"expected": want, "observed": got},
            self_times=layers.self_time_rows(spans),
        )
    out["checks"] = checks
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
