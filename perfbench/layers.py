"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapper is installed from here, around calls into the program's layers
(``repro.data``, ``repro.core``, ``repro.baselines``, ``repro.nn``,
``repro.attacks``, ``repro.eval``, ``repro.queue``, ``repro.serve``,
``repro.obs``); nothing inside ``src/`` is edited.  Times named ``*_s`` are
inclusive busy time of the outermost calls; the self-time table printed with
a traced run subtracts nested calls.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List

from perfbench.stats import percentile, tail
from perfbench.tracer import Tracer, replace_function, replace_method, root_coverage, span_table

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "core.calloc_fit_s": "s",
    "core.lessons": "count",
    "core.backoff_share": "fraction",
    "baselines.fit_s": "s",
    "nn.train_steps": "count",
    "nn.train_step_s": "s",
    "nn.tensors_per_request": "count",
    "attacks.surrogate_fits": "count",
    "attacks.surrogate_fit_s": "s",
    "attacks.craft_s": "s",
    "attacks.gradient_calls": "count",
    "data.campaigns": "count",
    "data.campaign_s": "s",
    "eval.score_s": "s",
    "eval.useful_unit_share": "fraction",
    "eval.cache_key_calls": "count",
    "eval.cache_key_s": "s",
    "eval.cache_put_s": "s",
    "eval.cache_get_s": "s",
    "eval.cache_bytes_written": "bytes",
    "eval.cache_hits": "count",
    "eval.cache_misses": "count",
    "queue.submit_s": "s",
    "queue.lease_acquires": "count",
    "queue.lease_conflicts": "count",
    "queue.state_reads": "count",
    "queue.state_read_s": "s",
    "queue.record_s": "s",
    "queue.retries": "count",
    "serve.requests": "count",
    "serve.non200": "count",
    "serve.batch_variant_responses": "count",
    "serve.decode_s": "s",
    "serve.encode_s": "s",
    "serve.batch_flushes": "count",
    "serve.batch_rows_mean": "rows",
    "serve.batch_wait_ms.p50": "ms",
    "serve.batch_wait_ms.p99": "ms",
    "serve.predict_s": "s",
    "serve.predict_us_per_row": "us",
    "serve.guard_s": "s",
    "obs.events_written": "count",
    "p50_ms.low": "ms",
    "p99_ms.low": "ms",
    "p50_ms.high": "ms",
    "p99_ms.high": "ms",
    "max_rps_at_slo": "1/s",
    "trace.unattributed_share": "fraction",
    "trace.overhead": "ratio",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.connections": "count",
}


def _attr(path: str):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _wrap_function(tracer: Tracer, path: str, name: str, **hooks) -> None:
    original = _attr(path)
    replace_function(original, tracer.span_wrapper(name, original, **hooks))


def _wrap_methods(tracer: Tracer, classes: List[type], method: str, name: str, **hooks) -> None:
    replace_method(classes, method, lambda fn: tracer.span_wrapper(name, fn, **hooks))


def _count_methods(tracer: Tracer, classes: List[type], method: str, after: Callable) -> None:
    replace_method(classes, method, lambda fn: tracer.count_wrapper(fn, after))


def _counter(tracer: Tracer, name: str) -> Callable:
    return lambda args, kwargs, result: tracer.count(name)


def install_common(tracer: Tracer) -> None:
    """Wrappers shared by every workload: ``repro.obs`` event emission."""
    from repro.obs.events import EventSink

    _count_methods(tracer, [EventSink], "emit", _counter(tracer, "obs.events"))


def install_batch(tracer: Tracer) -> None:
    """Wrap the engine-side layers driven by ``grid-cold`` and ``queue-drain``."""
    import repro.api  # noqa: F401  (loads every layer before names are swapped)
    import repro.queue  # noqa: F401
    from repro.attacks.surrogate import SurrogateGradientModel
    from repro.core.localizer import CALLOC
    from repro.core.trainer import CALLOCTrainer
    from repro.eval.engine import ArtifactCache, CacheStats
    from repro.obs import trace
    from repro.queue.ledger import RunLedger
    from repro.registry import LOCALIZERS

    install_common(tracer)
    _wrap_function(tracer, "repro.data.campaign.collect_campaign", "data.campaign")
    _wrap_methods(tracer, [CALLOC], "fit", "core.calloc_fit")

    def lessons(args, kwargs, report) -> None:
        tracer.count("core.lessons", len(report.lessons))
        tracer.count("core.backoffs", report.total_backoffs)

    _wrap_methods(tracer, [CALLOCTrainer], "train", "core.train", after=lessons)
    baselines = [
        cls
        for cls in (LOCALIZERS.get(name) for name in LOCALIZERS.names())
        if cls.__module__.startswith("repro.baselines.")
    ]
    _wrap_methods(tracer, baselines, "fit", "baselines.fit")
    _wrap_function(tracer, "repro.nn.fastpath.train_step_ce", "nn.train_step")
    _wrap_methods(tracer, [SurrogateGradientModel], "fit", "attacks.surrogate_fit")
    _wrap_function(tracer, "repro.attacks.batched.craft_grid", "attacks.craft")

    def gradient(args, kwargs, result) -> None:
        if tracer.in_span("attacks.craft"):
            tracer.count("attacks.gradient_calls")

    for path in (
        "repro.core.localizer.CALLOC",
        "repro.baselines.neural.NeuralNetworkLocalizer",
        "repro.baselines.wideep.WiDeepLocalizer",
        "repro.baselines.gpc.GaussianProcessLocalizer",
        "repro.attacks.surrogate.SurrogateGradientModel",
    ):
        cls = _attr(path)
        setattr(cls, "loss_gradient", tracer.count_wrapper(cls.__dict__["loss_gradient"], gradient))

    _wrap_function(tracer, "repro.eval.engine.evaluate_unit", "eval.score")
    _wrap_function(tracer, "repro.eval.engine.evaluate_scenario_unit", "eval.score")
    _wrap_function(tracer, "repro.eval.engine.cache_key", "eval.cache_key")

    def written(extension: str) -> Callable:
        def after(args, kwargs, result) -> None:
            cache, kind, digest = args[0], args[1], args[2]
            path = cache.path_for(kind, digest, extension)
            if path.exists():
                tracer.count("eval.cache_bytes_written", path.stat().st_size)

        return after

    _wrap_methods(tracer, [ArtifactCache], "put_pickle", "eval.cache_put", after=written("pkl"))
    _wrap_methods(tracer, [ArtifactCache], "put_arrays", "eval.cache_put", after=written("npz"))
    for method in ("get_pickle", "get_arrays", "get_either"):
        _wrap_methods(tracer, [ArtifactCache], method, "eval.cache_get")
    _count_methods(tracer, [CacheStats], "record_hit", _counter(tracer, "eval.cache_hits"))
    _count_methods(tracer, [CacheStats], "record_miss", _counter(tracer, "eval.cache_misses"))

    _wrap_methods(tracer, [RunLedger], "submit", "queue.submit")

    def lease(args, kwargs, acquired) -> None:
        tracer.count("queue.lease_acquires" if acquired else "queue.lease_conflicts")

    _count_methods(tracer, [RunLedger], "acquire_lease", lease)
    import repro.queue.ledger as ledger_module

    read_json = ledger_module._read_json
    state_read = tracer.span_wrapper("queue.state_read", read_json)

    def read(path):
        return state_read(path) if path.parent.name == "state" else read_json(path)

    ledger_module._read_json = read
    _wrap_methods(tracer, [RunLedger], "write_result", "queue.record")
    _wrap_methods(tracer, [RunLedger], "mark_done", "queue.record")
    for method in ("record_failed_attempt", "record_expired_attempt"):
        _count_methods(tracer, [RunLedger], method, _counter(tracer, "queue.retries"))

    def unit_span(finished) -> None:
        if finished.name == "engine.unit":
            tracer.count("engine.units")

    trace.add_exporter(unit_span)


def install_serve(tracer: Tracer) -> None:
    """Wrap the serving-side layers driven by ``serve-rows`` (server process)."""
    from repro.defenses.base import Defense
    from repro.defenses.detector import FingerprintDetectorDefense
    from repro.nn.tensor import Tensor
    from repro.serve.aio import protocol
    from repro.serve.aio.server import AioServer
    from repro.serve.batching import MicroBatcher
    from repro.serve.gateway import Gateway

    install_common(tracer)
    for name in ("decode_body", "parse_localize_payload"):
        _wrap_function(tracer, f"{protocol.__name__}.{name}", "serve.decode")
    for name in ("build_localize_document", "encode_body"):
        _wrap_function(tracer, f"{protocol.__name__}.{name}", "serve.encode")

    def flush(args, kwargs) -> None:
        now = time.perf_counter()
        batch = args[1]
        tracer.count("serve.batch_flushes")
        tracer.count("serve.batch_rows", sum(item.features.shape[0] for item in batch))
        for item in batch:
            tracer.sample("serve.batch_wait_ms", (now - item.enqueued) * 1e3)

    _wrap_methods(tracer, [MicroBatcher], "_flush", "serve.flush", before=flush)

    def predicted(args, kwargs, result) -> None:
        tracer.count("serve.predict_rows", len(result))

    _wrap_methods(tracer, [Gateway], "localize", "serve.predict", after=predicted)
    _wrap_methods(tracer, [Defense, FingerprintDetectorDefense], "guard", "serve.guard")

    def tensor(args, kwargs, result) -> None:
        tracer.count("nn.tensors")

    _count_methods(tracer, [Tensor], "__init__", tensor)

    def responded(args, kwargs, data: bytes) -> None:
        tracer.count("serve.requests")
        if data[9:12] != b"200":
            tracer.count("serve.non200")

    replace_method(
        [AioServer], "_respond", lambda fn: tracer.async_count_wrapper(fn, responded)
    )


def _total(table: Dict[str, Dict[str, float]], name: str) -> float:
    return table.get(name, {}).get("total_s", 0.0)


def _calls(table: Dict[str, Dict[str, float]], name: str) -> int:
    return int(table.get(name, {}).get("calls", 0))


def batch_metrics(spans: List[list], counts, wall_s: float, planned_units: int) -> Dict[str, float]:
    """Per-layer metrics of one traced batch iteration (serve metrics are 0)."""
    table = span_table(spans)
    lessons = counts.get("core.lessons", 0)
    executed = counts.get("engine.units", 0)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "core.calloc_fit_s": _total(table, "core.calloc_fit"),
            "core.lessons": float(lessons),
            "core.backoff_share": counts.get("core.backoffs", 0) / lessons if lessons else 0.0,
            "baselines.fit_s": _total(table, "baselines.fit"),
            "nn.train_steps": float(_calls(table, "nn.train_step")),
            "nn.train_step_s": _total(table, "nn.train_step"),
            "attacks.surrogate_fits": float(_calls(table, "attacks.surrogate_fit")),
            "attacks.surrogate_fit_s": _total(table, "attacks.surrogate_fit"),
            "attacks.craft_s": _total(table, "attacks.craft"),
            "attacks.gradient_calls": float(counts.get("attacks.gradient_calls", 0)),
            "data.campaigns": float(_calls(table, "data.campaign")),
            "data.campaign_s": _total(table, "data.campaign"),
            "eval.score_s": table.get("eval.score", {}).get("self_s", 0.0),
            "eval.useful_unit_share": planned_units / executed if executed else 0.0,
            "eval.cache_key_calls": float(_calls(table, "eval.cache_key")),
            "eval.cache_key_s": _total(table, "eval.cache_key"),
            "eval.cache_put_s": _total(table, "eval.cache_put"),
            "eval.cache_get_s": _total(table, "eval.cache_get"),
            "eval.cache_bytes_written": float(counts.get("eval.cache_bytes_written", 0)),
            "eval.cache_hits": float(counts.get("eval.cache_hits", 0)),
            "eval.cache_misses": float(counts.get("eval.cache_misses", 0)),
            "queue.submit_s": _total(table, "queue.submit"),
            "queue.lease_acquires": float(counts.get("queue.lease_acquires", 0)),
            "queue.lease_conflicts": float(counts.get("queue.lease_conflicts", 0)),
            "queue.state_reads": float(_calls(table, "queue.state_read")),
            "queue.state_read_s": _total(table, "queue.state_read"),
            "queue.record_s": _total(table, "queue.record"),
            "queue.retries": float(counts.get("queue.retries", 0)),
            "obs.events_written": float(counts.get("obs.events", 0)),
            "trace.unattributed_share": 1.0 - root_coverage(spans) / wall_s,
        }
    )
    return metrics


def serve_metrics(spans: List[list], counts, samples) -> Dict[str, float]:
    """Per-layer metrics of the traced server over one load phase."""
    table = span_table(spans)
    flushes = counts.get("serve.batch_flushes", 0)
    waits = samples.get("serve.batch_wait_ms", [])
    rows = counts.get("serve.predict_rows", 0)
    predict_s = _total(table, "serve.predict")
    return {
        "serve.requests": float(counts.get("serve.requests", 0)),
        "serve.non200": float(counts.get("serve.non200", 0)),
        "serve.decode_s": _total(table, "serve.decode"),
        "serve.encode_s": _total(table, "serve.encode"),
        "serve.batch_flushes": float(flushes),
        "serve.batch_rows_mean": counts.get("serve.batch_rows", 0) / flushes if flushes else 0.0,
        "serve.batch_wait_ms.p50": percentile(waits, 50.0) if waits else 0.0,
        "serve.batch_wait_ms.p99": tail(waits)[1] if waits else 0.0,
        "serve.predict_s": predict_s,
        "serve.predict_us_per_row": predict_s / rows * 1e6 if rows else 0.0,
        "serve.guard_s": _total(table, "serve.guard"),
        "obs.events_written": float(counts.get("obs.events", 0)),
    }


def self_time_rows(spans: List[list]) -> List[str]:
    """Printable per-span table: calls, inclusive and self seconds."""
    table = span_table(spans)
    rows = [f"{'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        rows.append(
            f"{name:28s} {int(row['calls']):8d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
        )
    return rows


def expected_stage_counts(plan) -> Dict[str, int]:
    """Campaign simulations, trainings and surrogate fits one cold run must do.

    A surrogate is fitted once per trained model that exposes no native
    ``loss_gradient`` (the engine memoises it across that model's units).
    """
    stages = plan.stage_counts()
    return {
        "campaigns": stages["campaign"],
        "trainings": stages["train"],
        "surrogate_fits": sum(
            1 for unit in plan.train_units if not hasattr(unit.task.build(), "loss_gradient")
        ),
    }
