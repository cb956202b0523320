"""Multi-tenant request router over a :class:`~repro.serve.store.ModelStore`.

The :class:`Gateway` is the serving-side counterpart of the store: tenants
address models by *endpoint* — either an explicit route registered with
:meth:`Gateway.add_route` (``"building-1/calloc" -> "calloc@prod"``) or a
store reference used directly (``"calloc@prod"``).  Services are loaded
lazily on first request, kept in a bounded LRU (so a gateway serving dozens
of buildings × models holds only the hot ones in memory), and every endpoint
accumulates request counters and latency statistics for ``GET /metrics``.

Routing never changes predictions: ``gateway.localize(endpoint, batch)`` is
bit-identical to ``store.resolve(ref).localize(batch)`` on the same batch.

Mutable references (``"calloc"``, ``"calloc@prod"``, ``"calloc@latest"``) are
**pinned** to the immutable version they currently select (``"calloc@v2"``)
and the pin is re-validated against the store's manifest signature — so a
``repro store promote`` (or a new publish) hot-swaps what an endpoint serves
with no restart, while every response still comes from exactly one immutable
version (in-flight requests are never torn across versions: the service
object they hold is immutable).
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..defenses.base import GuardRejectedError
from ..obs.metrics import MetricsRegistry
from .store import ModelStore

if TYPE_CHECKING:  # pragma: no cover
    from ..api import LocalizationResult, LocalizationService

__all__ = ["EndpointStats", "Gateway", "percentile"]

#: Selectors that name one immutable version forever (``@v2`` / ``@2``) —
#: refs using them never need re-validation against the manifest.
_VERSION_SELECTOR_RE = re.compile(r"v?\d+")


def percentile(samples: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample list."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class EndpointStats:
    """Rolling request counters + latency stats of one gateway endpoint.

    Thread-safe: concurrent server threads record into the same endpoint.

    The counters are a thin view over :class:`~repro.obs.metrics` registry
    series (``repro_endpoint_*`` labeled by endpoint), so the same numbers
    back both this class's byte-compatible ``as_dict()`` JSON and the
    Prometheus exposition.  The latency *window* (exact nearest-rank
    p50/p99 over recent samples) stays local — fixed histogram buckets
    cannot reproduce it.
    """

    def __init__(
        self,
        window: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        endpoint: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.endpoint = endpoint or "_unnamed"
        label = {"endpoint": self.endpoint}
        self._requests = self.registry.counter(
            "repro_endpoint_requests_total",
            "Requests served per endpoint", ("endpoint",),
        ).labels(**label)
        self._fingerprints = self.registry.counter(
            "repro_endpoint_fingerprints_total",
            "Fingerprints scored per endpoint", ("endpoint",),
        ).labels(**label)
        self._errors = self.registry.counter(
            "repro_endpoint_errors_total",
            "Failed requests per endpoint", ("endpoint",),
        ).labels(**label)
        self._guard_flagged = self.registry.counter(
            "repro_endpoint_guard_flagged_total",
            "Fingerprints the inference guard flagged as adversarial",
            ("endpoint",),
        ).labels(**label)
        self._guard_rejected = self.registry.counter(
            "repro_endpoint_guard_rejected_total",
            "Requests an enforcing guard rejected (HTTP 403)", ("endpoint",),
        ).labels(**label)
        self._latency = self.registry.histogram(
            "repro_endpoint_latency_seconds",
            "Request latency per endpoint", ("endpoint",),
        ).labels(**label)
        self.last_request_unix: Optional[float] = None
        #: Bounded window of recent request latencies (seconds) for p50/p99.
        self.latencies: deque = deque(maxlen=window)
        self._lock = threading.Lock()

    # Counter views (ints, exactly as the pre-registry fields were).
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def fingerprints(self) -> int:
        return int(self._fingerprints.value)

    @property
    def errors(self) -> int:
        return int(self._errors.value)

    @property
    def guard_flagged(self) -> int:
        return int(self._guard_flagged.value)

    @property
    def guard_rejected(self) -> int:
        return int(self._guard_rejected.value)

    @property
    def total_seconds(self) -> float:
        return self._latency.sum

    def record(self, seconds: float, fingerprints: int) -> None:
        self._requests.inc()
        self._fingerprints.inc(int(fingerprints))
        self._latency.observe(seconds)
        with self._lock:
            self.latencies.append(seconds)
            self.last_request_unix = time.time()

    def record_error(self) -> None:
        self._errors.inc()

    def record_guard(self, flagged: int, rejected: bool = False) -> None:
        self._guard_flagged.inc(int(flagged))
        if rejected:
            self._guard_rejected.inc()

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            window = list(self.latencies)
            last_request_unix = self.last_request_unix
        requests = self.requests
        mean_ms = self.total_seconds / requests * 1000.0 if requests else None
        return {
            "requests": requests,
            "fingerprints": self.fingerprints,
            "errors": self.errors,
            "guard": {"flagged": self.guard_flagged, "rejected": self.guard_rejected},
            "latency_ms": {
                "mean": round(mean_ms, 4) if mean_ms is not None else None,
                "p50": _ms(percentile(window, 50.0)),
                "p99": _ms(percentile(window, 99.0)),
                "max": _ms(max(window) if window else None),
            },
            "last_request_unix": last_request_unix,
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return round(seconds * 1000.0, 4) if seconds is not None else None


@dataclass
class _Pin:
    """What a (possibly mutable) store ref currently resolves to."""

    #: Immutable version ref (``"calloc@v2"``) — also the LRU key.
    version_ref: str
    #: Model name the ref addresses (the manifest watched for changes).
    name: str
    #: Tag/latest refs can move; ``name@vN`` refs are pinned forever.
    mutable: bool
    #: Manifest signature the pin was validated against (may be one write
    #: stale — see :meth:`Gateway._pin` — which only costs one extra lookup).
    signature: Optional[Tuple[int, int]]
    #: ``time.monotonic()`` of the last validation (throttles the stat poll).
    checked: float


class Gateway:
    """Routes ``(endpoint, batch)`` requests to lazily-loaded store services.

    Parameters
    ----------
    store:
        The :class:`ModelStore` references are resolved against.
    max_loaded:
        LRU capacity: at most this many loaded services are kept in memory;
        the least-recently-used one is evicted when a new endpoint loads.
    routes:
        Optional initial ``endpoint -> store ref`` mapping.
    watch_interval_s:
        How long a validated pin of a *mutable* ref (tag/``latest``) is
        trusted before the manifest signature is re-checked.  ``0`` (the
        default) re-checks on every :meth:`localize` call — one ``stat``
        call, cheap next to inference — so promotes take effect
        immediately.  Behind a micro-batcher that is once per flushed batch,
        not once per request.  Raise it to bound the poll rate on very hot
        endpoints.
    stats_window:
        Per-endpoint latency sample window (bounds /metrics memory).
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` endpoint and
        lifecycle counters live in.  Defaults to a private registry so
        independent gateways never share counts; the serving app passes its
        own so gateway, batchers and routes report into one store.
    """

    def __init__(
        self,
        store: ModelStore,
        max_loaded: int = 8,
        routes: Optional[Mapping[str, str]] = None,
        watch_interval_s: float = 0.0,
        stats_window: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_loaded < 1:
            raise ValueError("max_loaded must be >= 1")
        if stats_window < 1:
            raise ValueError("stats_window must be >= 1")
        self.store = store
        self.max_loaded = int(max_loaded)
        self.watch_interval_s = float(watch_interval_s)
        self.stats_window = int(stats_window)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._routes: Dict[str, str] = dict(routes or {})
        #: Pinned immutable version behind each requested ref.
        self._pins: Dict[str, _Pin] = {}
        #: version ref -> loaded service, in LRU order (most recent last).
        self._loaded: "OrderedDict[str, LocalizationService]" = OrderedDict()
        self._stats: Dict[str, EndpointStats] = {}
        self._lock = threading.Lock()
        self._loads = self.registry.counter(
            "repro_gateway_loads_total", "Services loaded into the LRU"
        ).labels()
        self._evictions = self.registry.counter(
            "repro_gateway_evictions_total", "Services evicted from the LRU"
        ).labels()
        #: Times a watched mutable ref re-resolved to a different version.
        self._promotions = self.registry.counter(
            "repro_gateway_promotions_total",
            "Watched refs that re-resolved to a new version",
        ).labels()

    # -- routing --------------------------------------------------------
    def add_route(self, endpoint: str, ref: str) -> None:
        """Map a tenant-facing endpoint name to a store reference."""
        with self._lock:
            self._routes[endpoint] = ref

    def routes(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._routes)

    def resolve_endpoint(self, endpoint: str) -> str:
        """The store reference an endpoint routes to (identity when unrouted)."""
        with self._lock:
            return self._routes.get(endpoint, endpoint)

    def endpoints(self) -> List[str]:
        """Every addressable endpoint: explicit routes + published models."""
        with self._lock:
            explicit = set(self._routes)
        return sorted(explicit | set(self.store.list_models()))

    # -- service loading ------------------------------------------------
    def _pin(self, ref: str) -> str:
        """The immutable version ref (``name@vN``) behind ``ref``, watched.

        Immutable refs pin once and are trusted forever.  Mutable refs
        (bare name / tag / ``@latest``) are re-validated against the store's
        manifest signature — one ``stat`` call — and re-resolved exactly when
        a publish/promote replaced the manifest, which is how ``repro store
        promote`` swaps a live endpoint with no restart.
        """
        name, _, selector = str(ref).partition("@")
        mutable = not (selector and _VERSION_SELECTOR_RE.fullmatch(selector))
        now = time.monotonic()
        with self._lock:
            pin = self._pins.get(ref)
            if pin is not None and (
                not pin.mutable
                or (self.watch_interval_s > 0 and now - pin.checked < self.watch_interval_s)
            ):
                return pin.version_ref
        # Signature and lookup both happen outside the lock (file I/O).  The
        # signature is read *before* the lookup: if a promote lands between
        # the two, we may cache the pre-promote signature with the
        # post-promote version — the next validation then sees a "changed"
        # signature and re-looks-up, converging in one extra cheap round
        # rather than ever serving a stale pin as fresh.
        signature = self.store.manifest_signature(name) if mutable else None
        if mutable:
            with self._lock:
                pin = self._pins.get(ref)
                if pin is not None and pin.signature == signature:
                    pin.checked = now
                    return pin.version_ref
        version = self.store.lookup(ref)
        with self._lock:
            pin = self._pins.get(ref)
            if pin is not None and pin.version_ref != version.ref:
                self._promotions.inc()
            self._pins[ref] = _Pin(
                version_ref=version.ref,
                name=name,
                mutable=mutable,
                signature=signature,
                checked=now,
            )
            return version.ref

    def resolved_version(self, endpoint: str) -> str:
        """The immutable version ref ``endpoint`` currently serves."""
        return self._pin(self.resolve_endpoint(endpoint))

    def service_for(self, endpoint: str) -> "LocalizationService":
        """The loaded service behind ``endpoint`` (lazy load + LRU update)."""
        return self._service_for_ref(self._pin(self.resolve_endpoint(endpoint)))

    def _service_for_ref(self, ref: str) -> "LocalizationService":
        """The loaded service behind an already-pinned immutable ref."""
        with self._lock:
            service = self._loaded.get(ref)
            if service is not None:
                self._loaded.move_to_end(ref)
                return service
        # Resolve outside the lock: store I/O may be slow and must not block
        # requests for already-loaded endpoints.  ``ref`` is an immutable
        # version ref, so a concurrent promote cannot change what it loads.
        service = self.store.resolve(ref)
        with self._lock:
            if ref not in self._loaded:
                self._loaded[ref] = service
                self._loads.inc()
                while len(self._loaded) > self.max_loaded:
                    self._loaded.popitem(last=False)
                    self._evictions.inc()
            self._loaded.move_to_end(ref)
            return self._loaded[ref]

    def loaded_refs(self) -> List[str]:
        """Refs currently resident, least-recently-used first."""
        with self._lock:
            return list(self._loaded)

    # Registry-backed lifecycle counter views (same ints as before).
    @property
    def loads(self) -> int:
        return int(self._loads.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def promotions(self) -> int:
        return int(self._promotions.value)

    # -- serving --------------------------------------------------------
    def _stats_for(self, endpoint: str) -> EndpointStats:
        with self._lock:
            stats = self._stats.get(endpoint)
            if stats is None:
                stats = self._stats[endpoint] = EndpointStats(
                    window=self.stats_window,
                    registry=self.registry,
                    endpoint=endpoint,
                )
            return stats

    def localize(
        self, endpoint: str, batch, suppress_error_stats: bool = False
    ) -> "LocalizationResult":
        """Route one localize call; bit-identical to the direct service call.

        The pin of a mutable ref is re-checked on every call; under
        micro-batching that is once per flushed batch, not per request.

        Services carrying an inference guard (published from defended
        training, see :mod:`repro.defenses`) are screened inside
        ``service.localize``; the gateway accounts the outcome per endpoint —
        flagged fingerprints and rejected requests surface under the
        ``guard`` key of ``GET /metrics``.

        ``suppress_error_stats`` is for callers that retry a failed call at a
        finer granularity (the micro-batcher degrades a failed batched flush
        to per-request calls): the retries are the user-visible outcomes, so
        counting the probe's failure too would double every error/rejection.
        Success-path stats are always recorded.
        """
        start = time.perf_counter()
        # Resolve before touching stats: an unknown endpoint must not leave a
        # permanent EndpointStats entry behind (a fuzzing client would grow
        # /metrics without bound, one entry per bogus name).
        ref = self._pin(self.resolve_endpoint(endpoint))
        service = self._service_for_ref(ref)
        stats = self._stats_for(endpoint)
        try:
            result = service.localize(batch)
        except GuardRejectedError as error:
            if not suppress_error_stats:
                stats.record_guard(len(error.flagged_indices), rejected=True)
            raise
        except Exception:
            if not suppress_error_stats:
                stats.record_error()
            raise
        # Stamp the version that actually scored the batch: reading the pin
        # again after the fact could race a concurrent promote and report a
        # version the labels did not come from.
        result.served_ref = ref
        flags = getattr(result, "guard_flags", None)
        if flags is not None:
            stats.record_guard(int(flags.sum()))
        stats.record(time.perf_counter() - start, len(result))
        return result

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Gateway-level metrics document (rendered by ``GET /metrics``)."""
        with self._lock:
            endpoint_stats = {
                endpoint: stats.as_dict() for endpoint, stats in self._stats.items()
            }
            loaded = list(self._loaded)
            routes = dict(self._routes)
            resolved = {ref: pin.version_ref for ref, pin in self._pins.items()}
        return {
            "endpoints": endpoint_stats,
            "loaded": loaded,
            "loads": self.loads,
            "evictions": self.evictions,
            "max_loaded": self.max_loaded,
            "promotions": self.promotions,
            "routes": routes,
            "resolved": resolved,
            "store": {
                "root": str(self.store.root),
                "models": self.store.list_models(),
                "artifact_cache": self.store.artifacts.stats.as_dict(),
            },
        }

    def __repr__(self) -> str:
        return (
            f"Gateway(store={self.store!r}, max_loaded={self.max_loaded}, "
            f"loaded={len(self._loaded)})"
        )
