"""The ``serve-rows`` workload: ``repro serve --aio`` under single-row requests.

Set-up (timed as ``setup_s``) publishes a quick CALLOC model for Building 1
into a fresh store with ``repro store publish``, starts ``repro serve --aio``
as its own process and waits for the first answered request, which includes
the lazy model load.  The load generator then runs in this process.

The closed-loop bursts behind ``wall_s`` keep the server's micro-batch
limit (``repro serve --max-batch``, 64 by default) in flight, split over
the connections: the saturating case, where every flush can be full.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import layers, stats
from perfbench.loadgen import Answers, LoadGen, Outcome, request_body

BUILDING = "Building 1"
MODEL = "calloc"
HOST = "127.0.0.1"

#: Requests per closed-loop burst (``wall_s``).
BURST = 4000
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Fixed open-loop rates: about 20 % and 50 % of the capacity measured on
#: 2 CPUs (about 2,000 rps).
LOW_RPS, HIGH_RPS = 400.0, 1000.0
STEP_S = 5.0
#: Ascending rate ladder for ``max_rps_at_slo`` and its latency limit.
LADDER_RPS = (400.0, 700.0, 1000.0, 1300.0, 1600.0, 1900.0, 2200.0, 2600.0, 3000.0)
LADDER_STEP_S = 3.0
SLO_MS = 100.0
#: Seconds the server may take to listen, and to write a trace dump.
START_TIMEOUT_S = 60.0
DUMP_TIMEOUT_S = 30.0


def connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def server_args(workdir: Path) -> List[str]:
    """``repro`` CLI arguments of the server over ``workdir``'s store."""
    return ["serve", "--aio", "--store", str(workdir / "store"), "--host", HOST, "--port", "0"]


def max_batch(workdir: Path) -> int:
    """The micro-batch limit the server runs with, read from its CLI."""
    from repro.reproduce import build_parser

    return int(build_parser().parse_args(server_args(workdir)).max_batch)


def burst_window(workdir: Path) -> int:
    """Requests in flight per connection in a burst: one full micro-batch in all."""
    return max(1, max_batch(workdir) // connections())


class Server:
    """One ``repro serve --aio`` process writing its output to a log file."""

    def __init__(self, root: Path, env: Dict[str, str], workdir: Path, trace_dir: Optional[Path] = None) -> None:
        self.log_path = workdir / f"server-{time.monotonic_ns()}.log"
        args = server_args(workdir)
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(root / "perfbench" / "traced_server.py"), str(trace_dir), *args]
        self.trace_dir = trace_dir
        self._log = self.log_path.open("wb")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.port = 0

    def wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = f"listening on http://{HOST}:"
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if marker in line:
                    self.port = int(line.split(marker, 1)[1].strip().rstrip("/"))
                    return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start:\n{self.log_path.read_text(errors='replace')}")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server; NaN (an invalid metric) once it has exited."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return math.nan

    def dump(self) -> dict:
        """Ask the traced server for everything recorded since the last dump."""
        existing = len(list(self.trace_dir.glob("dump-*.json")))
        self.proc.send_signal(signal.SIGUSR1)
        target = self.trace_dir / f"dump-{existing}.json"
        deadline = time.monotonic() + DUMP_TIMEOUT_S
        while not target.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no dump")
            time.sleep(0.01)
        return json.loads(target.read_text())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def post(port: int, body: bytes) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(HOST, port, timeout=120)
    try:
        connection.request("POST", "/v1/localize", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def set_up(root: Path, env: Dict[str, str], workdir: Path, probe: bytes) -> Tuple[Server, float]:
    """Publish into a fresh store, start the server, answer one request."""
    workdir.mkdir(parents=True)
    env = dict(env, REPRO_CACHE_DIR=str(workdir / "cache"))
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-m", "repro", "store", "--store", str(workdir / "store"),
         "publish", "--building", BUILDING, "--model", "CALLOC"],
        cwd=root, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    server = Server(root, env, workdir)
    try:
        port = server.wait_listening()
        status, _ = post(port, probe)
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - start


def request_rows():
    """Normalised test fingerprints of Building 1's quick campaign (the request pool)."""
    from repro.eval.engine import simulate_campaign
    from repro.eval.scenarios import EvaluationConfig

    config = EvaluationConfig.quick()
    campaign, _ = simulate_campaign(BUILDING, config)
    return [row for device in config.devices for row in campaign.test_for(device).features]


def _body(ref: str, label, coordinate, estimate) -> bytes:
    document = {
        "model": MODEL,
        "ref": ref,
        "count": 1,
        "labels": [int(label)],
        "coordinates": [[float(coordinate[0]), float(coordinate[1])]],
        "error_estimate": [None if math.isnan(estimate) else float(estimate)],
    }
    return json.dumps(document).encode()


def expected_answers(store_dir: Path, rows, batch_limit: int) -> List[Answers]:
    """The bodies a correct server may send for each row, built here.

    The numbers come from direct ``localize`` calls on the store-resolved
    model: the row alone, and the row at every position of every batch size
    up to ``batch_limit``, which is how the server's micro-batcher calls it.
    A row's answer depends on its batch size and position, not on the other
    rows, so cyclic batches of the pool cover every case.  The document is
    assembled by this function rather than by the server's own encoder, so a
    fault in the encoder cannot hide itself.
    """
    import numpy as np
    from repro.serve import ModelStore

    store = ModelStore(store_dir)
    ref = store.lookup(MODEL).ref
    service = store.resolve(MODEL)
    pool = np.asarray(rows)
    count = len(pool)
    singles: List[bytes] = []
    answers: List[set] = [set() for _ in range(count)]
    for size in range(1, batch_limit + 1):
        for first in range(count):
            members = [(first + offset) % count for offset in range(size)]
            result = service.localize(pool[members])
            for position, row in enumerate(members):
                answers[row].add(
                    _body(ref, result.labels[position], result.coordinates[position], result.error_estimate[position])
                )
            if size == 1:
                singles.append(_body(ref, result.labels[0], result.coordinates[0], result.error_estimate[0]))
    return [Answers(single, frozenset(answers[row] - {single})) for row, single in enumerate(singles)]


async def _bursts(gen: LoadGen, seed: int, window: int, count: int, seconds: float = 0.0) -> List[Outcome]:
    """At least ``count`` bursts, more while ``seconds`` have not elapsed."""
    outcomes: List[Outcome] = []
    start = time.monotonic()
    while len(outcomes) < count or (time.monotonic() - start < seconds and gen.error is None):
        picks = stats.pick_indices(f"{seed}:burst:{len(outcomes)}", BURST, len(gen.requests))
        outcomes.append(await gen.burst(picks, window))
    return outcomes


async def _step(gen: LoadGen, seed: int, label: str, rate: float, duration_s: float) -> Tuple[dict, Outcome]:
    due = stats.poisson_schedule(f"{seed}:{label}", rate, duration_s)
    picks = stats.pick_indices(f"{seed}:{label}", len(due), len(gen.requests))
    outcome = await gen.open_loop(due, picks)
    return stats.summarize_step(rate, due, outcome.latencies_ms, SLO_MS), outcome


def _prepare() -> Tuple[list, List[bytes]]:
    rows = request_rows()
    return rows, [request_body(MODEL, row) for row in rows]


def run_measured(root: Path, env: Dict[str, str], workdir: Path, seed: int, seconds: float) -> dict:
    """End-to-end metrics: set up ``SETUPS`` times, then closed-loop bursts."""
    rows, payloads = _prepare()
    times = []
    server = None
    for index in range(SETUPS):
        candidate, elapsed = set_up(root, env, workdir / f"setup-{index}", payloads[0])
        times.append(elapsed)
        if index < SETUPS - 1:
            candidate.stop()
        else:
            server = candidate
    served = workdir / f"setup-{SETUPS - 1}"
    try:
        answers = expected_answers(served / "store", rows, max_batch(served))
        window = burst_window(served)

        async def load() -> Tuple[List[Outcome], LoadGen]:
            async with LoadGen(HOST, server.port, payloads, answers, connections()) as gen:
                return await _bursts(gen, seed, window, 3, seconds), gen

        bursts, gen = asyncio.run(load())
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setup_s": stats.median(times),
        "wall_s": stats.median([b.wall_s for b in bursts]),
        "peak_rss_mb": rss,
        "attempted": SETUPS + BURST * len(bursts),
        "failed": sum(b.failed for b in bursts),
        "bursts": len(bursts),
        "window": window,
        "batch_variants": gen.batch_variants,
        "error": gen.error,
    }


def run_traced(root: Path, env: Dict[str, str], workdir: Path, seed: int) -> dict:
    """Per-layer metrics: an untraced ladder, then the same load on a traced server."""
    rows, payloads = _prepare()
    served = workdir / "setup-0"
    server, _ = set_up(root, env, served, payloads[0])
    try:
        answers = expected_answers(served / "store", rows, max_batch(served))
        window = burst_window(served)

        async def untraced():
            async with LoadGen(HOST, server.port, payloads, answers, connections()) as gen:
                bursts = await _bursts(gen, seed, window, 3)
                low = await _step(gen, seed, "low", LOW_RPS, STEP_S)
                high = await _step(gen, seed, "high", HIGH_RPS, STEP_S)
                ladder = []
                for rate in LADDER_RPS:
                    ladder.append(await _step(gen, seed, f"ladder-{rate}", rate, LADDER_STEP_S))
                    if not ladder[-1][0]["meets_slo"]:
                        break
                return bursts, low, high, ladder, gen

        bursts, low, high, ladder, gen = asyncio.run(untraced())
    finally:
        server.stop()
    steps = [low, high, *ladder]
    attempted = BURST * len(bursts) + sum(len(o.latencies_ms) for _, o in steps)
    failed = sum(b.failed for b in bursts) + sum(o.failed for _, o in steps)

    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    traced = Server(root, dict(env, REPRO_CACHE_DIR=str(served / "cache")), served, trace_dir)
    try:
        port = traced.wait_listening()
        if post(port, payloads[0])[0] != 200:
            raise RuntimeError("traced server failed its warm-up request")

        async def traced_load():
            async with LoadGen(HOST, port, payloads, answers, connections()) as gen:
                traced.dump()
                single = await gen.sequential(stats.pick_indices(f"{seed}:single", 100, len(payloads)))
                sequential = traced.dump()
                traced_bursts = await _bursts(gen, seed, window, 3)
                traced.dump()
                steps = [
                    await _step(gen, seed, "low", LOW_RPS, STEP_S),
                    await _step(gen, seed, "high", HIGH_RPS, STEP_S),
                ]
                return single, sequential, traced_bursts, steps, traced.dump(), gen

        single, sequential, traced_bursts, traced_steps, loaded, traced_gen = asyncio.run(traced_load())
    finally:
        traced.stop()
    attempted += 100 + BURST * len(traced_bursts) + sum(len(o.latencies_ms) for _, o in traced_steps)
    failed += single.failed + sum(b.failed for b in traced_bursts) + sum(o.failed for _, o in traced_steps)

    lateness = [v for _, o in steps for v in o.lateness_ms]
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    metrics.update(loaded["metrics"])
    metrics.update(
        {
            "serve.batch_variant_responses": float(gen.batch_variants + traced_gen.batch_variants),
            "nn.tensors_per_request": sequential["tensors"] / max(sequential["requests"], 1),
            "p50_ms.low": low[0]["p50_ms"],
            "p99_ms.low": low[0]["tail_ms"],
            "p50_ms.high": high[0]["p50_ms"],
            "p99_ms.high": high[0]["tail_ms"],
            "max_rps_at_slo": stats.max_rate_at_slo([summary for summary, _ in ladder]),
            "trace.unattributed_share": 1.0 - loaded["span_s"] / loaded["cpu_s"],
            "trace.overhead": stats.median([b.wall_s for b in traced_bursts])
            / stats.median([b.wall_s for b in bursts]),
            "loadgen.lateness_p99_ms": stats.tail(lateness)[1],
            "loadgen.connections": float(connections()),
        }
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "ladder": [summary for summary, _ in ladder],
        "self_times": loaded["self_times"],
        "error": gen.error or traced_gen.error,
    }
