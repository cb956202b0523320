"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 30 --trace 0

Workloads (see RATIONALE.md): ``grid-cold`` (the quick paper grid through
``run_experiment``), ``queue-drain`` (a wide sweep drained through the run
ledger by one in-process worker) and ``serve-rows`` (``repro serve --aio``
under single-fingerprint requests).  Every measured iteration runs in a
fresh interpreter.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones.  The machine block and tables go to stderr; the last
stdout line is the JSON result.  Exits non-zero without a result when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import machine, serve, stats  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402

BATCH = ("grid-cold", "queue-drain")
WORKLOADS = (*BATCH, "serve-rows")


def log(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr, flush=True)


def child_env(workdir: Path) -> dict:
    """The program's environment: the caller's, with paths kept in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    return env


def batch_iteration(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    """One iteration of a batch workload in a fresh interpreter."""
    workdir.mkdir(parents=True)
    t0 = time.monotonic()
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "batch.py"), workload, str(seed), str(workdir), repr(t0), "1" if traced else "0"],
        cwd=ROOT, env=child_env(workdir), capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(workdir / "cache", ignore_errors=True)
    if result.returncode != 0:
        log(f"{workload} iteration failed (exit {result.returncode}):", result.stderr[-4000:])
        return {}
    return json.loads(result.stdout.strip().splitlines()[-1])


def run_batch(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    runs = []
    start = time.monotonic()
    # A traced run alternates untraced and traced iterations (at least one
    # pair): the ratio of their median wall times is the tracing overhead.
    while len(runs) < (2 if traced else 1) or time.monotonic() - start < seconds:
        runs.append(
            batch_iteration(workload, seed, workdir / f"it-{len(runs)}", traced and len(runs) % 2 == 1)
        )
    planned = next((r["planned"] for r in runs if r), 1)
    failed = 0
    for run in runs:
        ok = bool(run) and all(run["checks"].values())
        failed += run["failed"] if ok else planned
        if run and not ok:
            log(f"{workload}: output check failed: {run['checks']} digest {run['digest']}")
    out = {"attempted": planned * len(runs), "failed": failed, "correct": failed == 0}
    if failed:
        return out
    log(f"{workload}: {len(runs)} iteration(s), wall_s {[round(r['wall_s'], 3) for r in runs]}")
    if not traced:
        out["metrics"] = {name: stats.median([r[name] for r in runs]) for name in END_TO_END}
        return out
    plain, tracing = runs[0::2], runs[1::2]
    metrics = {name: stats.median([r["metrics"][name] for r in tracing]) for name in PER_LAYER}
    metrics["trace.overhead"] = stats.median([r["wall_s"] for r in tracing]) / stats.median(
        [r["wall_s"] for r in plain]
    )
    out["metrics"] = metrics
    log(f"stage counts: {tracing[0]['stage_counts']}", *tracing[0]["self_times"])
    return out


def run_serve(seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    env = child_env(workdir)
    if traced:
        result = serve.run_traced(ROOT, env, workdir, seed)
        log("ladder:", *(json.dumps(step) for step in result["ladder"]), *result["self_times"])
        metrics = result["metrics"]
    else:
        result = serve.run_measured(ROOT, env, workdir, seed, seconds)
        log(
            f"serve-rows: {result['bursts']} bursts of {serve.BURST} requests, "
            f"{result['window']} in flight per connection, {result['batch_variants']} responses "
            "equal to a batched localize call but not to the single-row one"
        )
        metrics = {name: result[name] for name in END_TO_END}
    if result["error"]:
        log(f"serve-rows: load generator stopped: {result['error']}")
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["failed"] == 0,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no program under {ROOT / 'src'}; run from a full checkout")
        return 2

    block = machine.block(ROOT)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload in BATCH:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_serve(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    block["loadavg_after"] = os.getloadavg()
    log("machine: " + json.dumps(block))
    units = PER_LAYER if args.trace else END_TO_END
    values = {name: float(value) for name, value in result.get("metrics", {}).items()}
    invalid = sorted(set(units) ^ set(values)) + sorted(
        name for name, value in values.items() if not math.isfinite(value)
    )
    if invalid:
        log(f"error: metrics {invalid} missing, unexpected or not finite")
        result["correct"] = False
    metrics = {
        name: {"value": values[name] if name in values and name not in invalid else 0.0, "unit": unit}
        for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
