"""``repro serve`` with the serving layers wrapped by the benchmark tracer.

Usage: ``python perfbench/traced_server.py DUMP_DIR <repro CLI arguments>``.
On ``SIGUSR1`` the process writes everything recorded since the previous
signal to ``DUMP_DIR/dump-<n>.json`` (atomically) and starts afresh, so the
load generator can cut the trace into phases.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.reproduce import main  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def install(dump_dir: Path) -> None:
    tracer = Tracer()
    layers.install_serve(tracer)
    state = {"dumps": 0, "cpu": time.process_time()}

    def dump(signum, frame) -> None:
        spans, counts, samples = tracer.drain()
        cpu = time.process_time()
        document = {
            "metrics": layers.serve_metrics(spans, counts, samples),
            "tensors": counts.get("nn.tensors", 0),
            "requests": counts.get("serve.requests", 0),
            "cpu_s": cpu - state["cpu"],
            # Root spans run on several threads; their summed time is compared
            # with the process CPU time.
            "span_s": sum(r[2] - r[1] for r in spans if r[3] is None),
            "self_times": layers.self_time_rows(spans),
        }
        state["cpu"] = cpu
        target = dump_dir / f"dump-{state['dumps']}.json"
        state["dumps"] += 1
        temp = target.with_suffix(".tmp")
        temp.write_text(json.dumps(document))
        os.replace(temp, target)

    signal.signal(signal.SIGUSR1, dump)


if __name__ == "__main__":
    install(Path(sys.argv[1]))
    sys.exit(main(sys.argv[2:]))
