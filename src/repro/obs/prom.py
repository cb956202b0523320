"""Prometheus text-format exposition (version 0.0.4) for the registry.

Renders the metrics of one or more :class:`~repro.obs.metrics.MetricsRegistry`
instances as the plain-text scrape format every Prometheus-compatible
collector understands, served from ``GET /metrics?format=prometheus`` by
the HTTP server (content-negotiated alongside the existing JSON document,
which stays the default).

Scrape it like any other target::

    scrape_configs:
      - job_name: repro-serving
        metrics_path: /metrics
        params: { format: [prometheus] }
        static_configs:
          - targets: ["localhost:8000"]
"""

from __future__ import annotations

import math
import re
from typing import Iterable, List

from .metrics import HistogramSeries, Metric, MetricsRegistry

__all__ = ["CONTENT_TYPE_PROM", "render", "render_registries"]

#: The exposition content type (exact string Prometheus scrapers expect).
CONTENT_TYPE_PROM = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    if _NAME_OK.match(name):
        return name
    cleaned = _NAME_FIX.sub("_", name)
    return cleaned if _NAME_OK.match(cleaned) else f"_{cleaned}"


def _label_name(name: str) -> str:
    return _LABEL_FIX.sub("_", name) or "_"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: dict, extra: str = "") -> str:
    parts = [
        f'{_label_name(key)}="{_escape_label(str(val))}"'
        for key, val in labels.items()
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _render_metric(metric: Metric, lines: List[str]) -> None:
    name = _metric_name(metric.name)
    series = metric.collect()
    if not series:
        return
    if metric.help:
        lines.append(f"# HELP {name} {_escape_help(metric.help)}")
    lines.append(f"# TYPE {name} {metric.kind}")
    for labels, one in series:
        if isinstance(one, HistogramSeries):
            cumulative = one.bucket_counts()
            for bound, count in zip(one.buckets, cumulative):
                bucket_labels = _labels_text(labels, f'le="{_format_value(bound)}"')
                lines.append(f"{name}_bucket{bucket_labels} {count}")
            inf_labels = _labels_text(labels, 'le="+Inf"')
            lines.append(f"{name}_bucket{inf_labels} {one.count}")
            lines.append(f"{name}_sum{_labels_text(labels)} {_format_value(one.sum)}")
            lines.append(f"{name}_count{_labels_text(labels)} {one.count}")
        else:
            lines.append(f"{name}{_labels_text(labels)} {_format_value(one.value)}")


def render(registry: MetricsRegistry) -> str:
    """Render one registry as Prometheus exposition text."""
    return render_registries([registry])


def render_registries(registries: Iterable[MetricsRegistry]) -> str:
    """Render several registries into one exposition document.

    Later registries skip metric names already rendered by earlier ones —
    a scrape document must not repeat a metric family.
    """
    lines: List[str] = []
    seen: set = set()
    for registry in registries:
        for metric in registry.collect():
            name = _metric_name(metric.name)
            if name in seen:
                continue
            seen.add(name)
            _render_metric(metric, lines)
    return "\n".join(lines) + ("\n" if lines else "")
