"""Unified telemetry: metrics registry, tracing, event log, Prometheus.

The observability substrate the serving/engine/queue layers report into
(and the ROADMAP's online-adaptation monitor will consume):

:mod:`repro.obs.metrics`
    Process-wide, lock-guarded metrics registry (Counter / Gauge /
    Histogram, labeled series, plain-dict ``snapshot()``).  The existing
    ``EndpointStats`` / ``BatchStats`` / ``ShadowStats`` / ``CacheStats``
    structures are thin views over registry series.
:mod:`repro.obs.trace`
    Lightweight spans (``span(name, **attrs)``), parent linkage via
    contextvars so spans nest across asyncio, threads and the
    MicroBatcher hand-off; near-zero cost when disabled.
:mod:`repro.obs.events`
    Durable JSONL event sink under ``<cache>/telemetry/``: append-only
    segment files with size-based rotation, crash-tolerant reads (a torn
    final line is skipped), and a ``tail(follow=True)`` reader.
:mod:`repro.obs.prom`
    Prometheus text exposition (``text/plain; version=0.0.4``) for
    ``GET /metrics?format=prometheus`` on the HTTP server.

Everything is opt-out: set ``REPRO_TELEMETRY=0`` (or pass
``--no-telemetry`` to the CLI) and spans/events collapse to no-ops.
Telemetry observes and never perturbs: all bit-identity invariants hold
with tracing on, enforced by ``benchmarks/bench_obs.py``.
"""

from __future__ import annotations

from . import events, metrics, prom, trace
from .events import EventLog, configure_sink, emit, read_events, tail
from .metrics import REGISTRY, MetricsRegistry
from .trace import set_enabled, span, telemetry_enabled

__all__ = [
    "events",
    "metrics",
    "prom",
    "trace",
    "EventLog",
    "EventLog",
    "MetricsRegistry",
    "REGISTRY",
    "configure_sink",
    "emit",
    "read_events",
    "tail",
    "set_enabled",
    "span",
    "telemetry_enabled",
]
