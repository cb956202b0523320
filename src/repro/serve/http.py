"""``repro serve``: the serving core behind the JSON API, plus a thin client.

Endpoints
---------
``POST /v1/localize``
    Body ``{"model": "<endpoint or store ref>", "fingerprints": [[...], ...]}``
    (a single flat fingerprint list is promoted to a batch of one; pass
    ``"probabilities": true`` to include class probabilities).  Responds with
    labels, coordinates, and per-query error estimates.  Unbatched, they are
    bit-identical to a direct :meth:`LocalizationService.localize` call on
    the same arrays; micro-batched, to that request's slice of a direct call
    on the batch it was flushed in (see :mod:`repro.serve.batching`).
``GET /v1/models``
    The machine-readable model catalog: the store's published models (same
    entry shape as ``repro list-models --json``) plus the gateway's routes.
``GET /healthz``
    Liveness probe: status, version, uptime, model count.
``GET /metrics``
    Gateway per-endpoint request counters and latency percentiles, plus
    per-endpoint micro-batching stats.

This module holds the transport-free half of that API: :class:`ServingApp`
(gateway, per-endpoint :class:`~repro.serve.batching.MicroBatcher`, metrics
and the introspection documents) and the keep-alive :class:`ServiceClient`.
The one HTTP server in front of it is the asyncio
:class:`~repro.serve.aio.server.AioServer`.

Programmatic use::

    with AioServerThread(ModelStore("./store")) as server:     # any free port
        client = ServiceClient(server.base_url)
        result = client.localize(fingerprints, model="calloc@prod")
"""

from __future__ import annotations

import http.client
import threading
import time
import urllib.parse
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import prom
from ..obs.metrics import MetricsRegistry
# The client speaks the server's wire codecs, which live in the aio package.
from .aio.protocol import CONTENT_JSON, decode_body, encode_body, normalize_content_type
from .batching import MicroBatcher
from .gateway import Gateway
from .store import ModelStore

if TYPE_CHECKING:  # pragma: no cover
    from ..api import LocalizationResult

__all__ = ["ConnectionMetrics", "ServingApp", "ServiceClient"]


class ConnectionMetrics:
    """Connection lifecycle series for one transport of the server.

    Registry families labeled by transport: connections accepted and
    closed, currently active, and keep-alive reuses (requests after the
    first on one connection).
    """

    def __init__(self, registry: MetricsRegistry, transport: str) -> None:
        label = {"transport": transport}
        self.accepted = registry.counter(
            "repro_http_connections_accepted_total",
            "Connections accepted by the server", ("transport",),
        ).labels(**label)
        self.closed = registry.counter(
            "repro_http_connections_closed_total",
            "Connections closed by the server", ("transport",),
        ).labels(**label)
        self.active = registry.gauge(
            "repro_http_connections_active",
            "Connections currently open", ("transport",),
        ).labels(**label)
        self.keepalive_reuses = registry.counter(
            "repro_http_keepalive_reuses_total",
            "Requests served on an already-used keep-alive connection",
            ("transport",),
        ).labels(**label)

    def connection_opened(self) -> None:
        self.accepted.inc()
        self.active.inc()

    def connection_closed(self) -> None:
        self.closed.inc()
        self.active.dec()

    def request_on_connection(self, nth: int) -> None:
        """Record the ``nth`` (1-based) request of one connection."""
        if nth > 1:
            self.keepalive_reuses.inc()


class ServingApp:
    """The synchronous serving core behind the asyncio server (and benchmarks).

    Owns the gateway plus one :class:`MicroBatcher` per endpoint (batches
    must never mix endpoints).  ``batching=False`` routes requests straight
    through the gateway — the per-request baseline the serving benchmark
    compares against.

    Every serving metric — gateway, per-endpoint stats, batching, HTTP and
    connection counters — lives in one :class:`MetricsRegistry` owned by the
    app (a private one by default, so independent apps never share counts);
    the Prometheus exposition renders it merged with the process-global
    registry.
    """

    def __init__(
        self,
        store: ModelStore,
        routes: Optional[Mapping[str, str]] = None,
        max_loaded: int = 8,
        batching: bool = True,
        max_batch: int = 64,
        max_wait_ms: float = 5.0,
        watch_interval_s: float = 0.0,
        stats_window: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.gateway = Gateway(
            store,
            max_loaded=max_loaded,
            routes=routes,
            watch_interval_s=watch_interval_s,
            stats_window=stats_window,
            registry=self.registry,
        )
        self.batching = bool(batching)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.started_unix = time.time()
        self._batchers: Dict[str, MicroBatcher] = {}
        self._lock = threading.Lock()
        # HTTP-layer accounting: requests are counted against the endpoint
        # *they asked for*, before model resolution, so unknown endpoints
        # show up in per-endpoint error rates (the gateway deliberately never
        # creates stats entries for names it cannot resolve).  Cardinality is
        # capped by the registry's per-metric series limit.
        self._http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests received, by transport and requested endpoint",
            ("transport", "endpoint"),
        )
        self._http_responses = self.registry.counter(
            "repro_http_responses_total",
            "HTTP responses sent, by transport, requested endpoint and status",
            ("transport", "endpoint", "status"),
        )
        self._conn_metrics: Dict[str, ConnectionMetrics] = {}

    # -- http accounting -------------------------------------------------
    def connection_metrics(self, transport: str) -> ConnectionMetrics:
        with self._lock:
            existing = self._conn_metrics.get(transport)
            if existing is None:
                existing = ConnectionMetrics(self.registry, transport)
                self._conn_metrics[transport] = existing
            return existing

    def record_http_request(self, transport: str, endpoint: str) -> None:
        """Count one received request (pre-resolution; 404s included)."""
        self._http_requests.labels(transport=transport, endpoint=endpoint).inc()

    def record_http_response(
        self, transport: str, endpoint: str, status: int
    ) -> None:
        self._http_responses.labels(
            transport=transport, endpoint=endpoint, status=str(int(status))
        ).inc()

    @staticmethod
    def requested_endpoint(payload: Any) -> str:
        """The endpoint a localize payload asked for, resolvable or not."""
        if isinstance(payload, Mapping):
            model = payload.get("model")
            if isinstance(model, str) and model:
                return model
        return "_invalid"

    # -- request paths --------------------------------------------------
    def live_batcher(self, endpoint: str) -> Optional[MicroBatcher]:
        """The endpoint's batcher if one exists; never does store I/O."""
        with self._lock:
            return self._batchers.get(endpoint)

    def batcher_for(self, endpoint: str) -> MicroBatcher:
        """The endpoint's batcher, created on its first request.

        Creating one resolves the endpoint first (which may load the model
        from the store): each batcher owns a flusher thread, so unknown
        names must raise :class:`StoreError` (404), not leave one orphaned
        batcher per bogus name.  Later requests skip the resolution; the
        gateway re-pins the ref on every flush, so promotes still apply at
        once.
        """
        batcher = self.live_batcher(endpoint)
        if batcher is not None:
            return batcher
        self.gateway.service_for(endpoint)
        with self._lock:
            batcher = self._batchers.get(endpoint)
            if batcher is None:
                batcher = MicroBatcher(
                    partial(self.gateway.localize, endpoint),
                    max_batch=self.max_batch,
                    max_wait_ms=self.max_wait_ms,
                    # A failed combined flush degrades to per-request calls,
                    # which then record the user-visible error/guard stats;
                    # the probe must not pre-count them.
                    batch_fn=partial(
                        self.gateway.localize, endpoint, suppress_error_stats=True
                    ),
                    registry=self.registry,
                    endpoint=endpoint,
                )
                self._batchers[endpoint] = batcher
            return batcher

    def localize(self, endpoint: str, features: Sequence) -> "LocalizationResult":
        """One request through the configured path (micro-batched or direct)."""
        if self.batching:
            return self.batcher_for(endpoint).localize(features)
        return self.gateway.localize(endpoint, features)

    def close(self) -> None:
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()

    # -- documents ------------------------------------------------------
    def models_document(self) -> Dict[str, Any]:
        """``GET /v1/models``: the shared machine-readable catalog format."""
        from ..registry import catalog_document

        document = catalog_document("served-model", self.gateway.store.catalog())
        document["routes"] = self.gateway.routes()
        return document

    def health_document(self) -> Dict[str, Any]:
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "models": len(self.gateway.store.list_models()),
            "batching": self.batching,
        }

    def metrics_document(self) -> Dict[str, Any]:
        with self._lock:
            batching = {
                endpoint: batcher.stats.as_dict()
                for endpoint, batcher in self._batchers.items()
            }
        return {
            "gateway": self.gateway.stats(),
            "batching": {
                "enabled": self.batching,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_ms,
                "endpoints": batching,
            },
            # Additive (existing keys above are unchanged): the HTTP layer's
            # own accounting, including endpoints that never resolved.
            "server": self.server_document(),
        }

    def server_document(self) -> Dict[str, Any]:
        """Transport-level accounting: connections and raw request counts."""
        connections: Dict[str, Dict[str, int]] = {}
        with self._lock:
            conn_metrics = dict(self._conn_metrics)
        for transport, conn in conn_metrics.items():
            connections[transport] = {
                "accepted": int(conn.accepted.value),
                "closed": int(conn.closed.value),
                "active": int(conn.active.value),
                "keepalive_reuses": int(conn.keepalive_reuses.value),
            }
        requests: Dict[str, Dict[str, int]] = {}
        for labels, series in self._http_requests.collect():
            (transport, endpoint) = labels["transport"], labels["endpoint"]
            requests.setdefault(transport, {})[endpoint] = int(series.value)
        responses: Dict[str, Dict[str, Dict[str, int]]] = {}
        for labels, series in self._http_responses.collect():
            by_endpoint = responses.setdefault(labels["transport"], {})
            by_endpoint.setdefault(labels["endpoint"], {})[labels["status"]] = int(
                series.value
            )
        return {
            "connections": connections,
            "requests": requests,
            "responses": responses,
        }

    def prometheus_text(self) -> str:
        """The merged Prometheus exposition (app registry + process globals)."""
        return prom.render_registries(
            obs_metrics.registries_for_exposition(self.registry)
        )


#: Failures that mean "the server closed our idle keep-alive connection" —
#: safe to retry exactly once on a fresh connection.  Timeouts are excluded:
#: the request may have executed, so retrying could double-submit it.
_RETRYABLE = (
    http.client.BadStatusLine,  # includes RemoteDisconnected
    http.client.CannotSendRequest,
    ConnectionResetError,
    BrokenPipeError,
)


class ServiceClient:
    """Thin client for a ``repro serve`` endpoint.

    :meth:`localize` mirrors :meth:`LocalizationService.localize`: it returns
    a :class:`~repro.api.LocalizationResult` built from the response arrays.

    The client holds one keep-alive connection and reuses it across requests
    (``connections_opened`` counts how many were actually established).  A
    server may close an idle connection between requests; a send that then
    fails with a connection-level error is retried exactly once on a fresh
    connection before surfacing.  ``content_type`` selects the wire encoding
    for localize bodies: JSON (default), ``application/x-repro-ndarray``, or
    ``application/msgpack`` where available.  Not thread-safe — use one
    client per thread (the benchmark drivers do).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        content_type: str = CONTENT_JSON,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.content_type = normalize_content_type(content_type)
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"ServiceClient speaks plain http, got '{split.scheme}'")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._connection: Optional[http.client.HTTPConnection] = None
        #: Connections actually established (1 across N requests = keep-alive).
        self.connections_opened = 0

    # -- plumbing -------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )
        connection.connect()
        self.connections_opened += 1
        return connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        content_type: Optional[str] = None,
    ) -> Dict[str, Any]:
        method = "GET" if payload is None else "POST"
        encoding = content_type or self.content_type
        body = encode_body(payload, encoding) if payload is not None else None
        headers = {"Content-Type": encoding} if body is not None else {}
        for attempt in (0, 1):
            reused = self._connection is not None
            connection = self._connection or self._connect()
            self._connection = None
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except _RETRYABLE as error:
                connection.close()
                # Only a *reused* connection can have been closed while idle;
                # a failure on a fresh one is a real error.  One retry max.
                if reused and attempt == 0:
                    continue
                raise RuntimeError(
                    f"{method} {path} failed: {type(error).__name__}: {error}"
                ) from error
            except OSError:
                connection.close()
                raise
            self._connection = connection  # keep alive for the next request
            response_type = normalize_content_type(
                response.getheader("Content-Type")
            )
            if response.status != 200:
                try:
                    message = decode_body(raw, response_type).get("error", "")
                except Exception:
                    message = raw.decode("utf-8", "replace")
                raise RuntimeError(
                    f"{method} {path} failed with {response.status}: {message}"
                )
            return decode_body(raw, response_type)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoints ------------------------------------------------------
    def localize_document(
        self,
        fingerprints: Sequence,
        model: str,
        probabilities: bool = False,
    ) -> Dict[str, Any]:
        """The raw ``/v1/localize`` response document (includes the served
        ``ref``, so promote/canary tooling can see which version answered)."""
        features = np.asarray(fingerprints, dtype=np.float64)
        payload: Dict[str, Any] = {"model": model, "fingerprints": features}
        if probabilities:
            payload["probabilities"] = True
        return self._request("/v1/localize", payload)

    def localize(
        self,
        fingerprints: Sequence,
        model: str,
        probabilities: bool = False,
    ) -> "LocalizationResult":
        """Localize a batch through the HTTP API (same arrays as the server's)."""
        from ..api import LocalizationResult

        document = self.localize_document(fingerprints, model, probabilities)
        error_estimate = np.array(
            [np.nan if v is None else v for v in document["error_estimate"]],
            dtype=np.float64,
        )
        proba = document.get("probabilities")
        return LocalizationResult(
            labels=np.asarray(document["labels"], dtype=np.int64),
            coordinates=np.asarray(document["coordinates"], dtype=np.float64).reshape(
                len(document["labels"]), 2
            ),
            error_estimate=error_estimate,
            probabilities=(
                np.asarray(proba, dtype=np.float64)
                if proba is not None and len(proba)
                else None
            ),
        )

    def models(self) -> Dict[str, Any]:
        return self._request("/v1/models")

    def health(self) -> Dict[str, Any]:
        return self._request("/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("/metrics")
