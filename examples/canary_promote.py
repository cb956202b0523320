#!/usr/bin/env python3
"""Canary a new model version behind a live endpoint, then hot-promote it.

This example walks the zero-downtime deployment loop of the serving
tier (``repro.serve.aio``):

1. publish ``knn`` v1 to a versioned :class:`~repro.serve.ModelStore` and
   point the ``prod`` tag at it;
2. start the server with a **shadow route**: every request to
   ``building-1/knn`` is served by ``knn@prod`` while a deterministic
   fraction is also mirrored onto the candidate ``knn@v2`` (seeded hash of
   the fingerprint bytes — no RNG, reproducible across workers);
3. send traffic and read the paired primary-vs-shadow comparison from
   ``GET /metrics`` (latency, guard flags, label disagreement);
4. judge the canary with :func:`repro.serve.aio.routing.canary_ok` — the
   same gate behind ``repro store promote --if-canary-ok``;
5. **hot-promote**: flip the ``prod`` tag to v2 while the server keeps
   running — the gateway watches the store manifest, so the very next
   request serves v2 with zero dropped requests and no restart;
6. roll back and verify the predictions are byte-identical to step 1.

The same flow runs from the CLI against a standalone server::

    repro serve --route "building-1/knn=knn@prod,shadow=knn@v2,fraction=0.2"
    repro store promote knn@v2 prod --if-canary-ok \\
        --metrics-url http://127.0.0.1:8080 --min-requests 50

Run with:  python examples/canary_promote.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import LocalizationService, ModelStore, ServiceClient
from repro.data import CampaignConfig, collect_campaign, paper_building
from repro.serve.aio.routing import canary_ok
from repro.serve.aio.server import AioServerThread


def main() -> None:
    # ------------------------------------------------------------------
    # Offline phase: collect one campaign, publish v1, train a candidate.
    # ------------------------------------------------------------------
    building = paper_building("Building 1")
    campaign = collect_campaign(building, CampaignConfig(seed=11))
    store = ModelStore(tempfile.mkdtemp(prefix="repro-store-"))

    v1 = store.publish(
        LocalizationService("KNN", params={"k": 3}).fit(campaign.train),
        "knn",
        tags=("prod",),
    )
    v2 = store.publish(
        LocalizationService("KNN", params={"k": 1}).fit(campaign.train), "knn"
    )
    print(f"published {v1.ref} (tag: prod) and candidate {v2.ref}")

    queries = campaign.test_for("S7").features

    # ------------------------------------------------------------------
    # Online phase: serve v1, mirror 50% of traffic onto the v2 candidate.
    # watch_interval_s=0 re-checks the store manifest on every request, so
    # a promote is visible immediately (raise it to throttle the stat call).
    # ------------------------------------------------------------------
    # The primary ref MUST be the mutable tag (knn@prod), not the pinned
    # version — promotion works by re-pinning what the tag points at.
    routes = {"building-1/knn": f"knn@prod,shadow={v2.ref},fraction=0.5"}
    with AioServerThread(store, routes=routes, watch_interval_s=0.0) as server:
        with ServiceClient(server.base_url) as client:
            baseline = client.localize_document(queries, model="building-1/knn")
            print(f"serving {baseline['ref']} "
                  f"(keep-alive over {client.connections_opened} connection)")

            # Step 3: traffic. Each request deterministically hashes into
            # the mirrored fraction or not; mirrored copies are scored by
            # BOTH versions so the comparison is paired.
            for index in range(60):
                client.localize(queries[index % len(queries)], model="building-1/knn")
            server.drain_shadow_tasks()

            # Step 4: judge the canary from the live metrics document.
            shadow = client.metrics()["shadow"]["building-1/knn"]
            print(f"canary: {shadow['mirrored']}/{shadow['requests']} requests "
                  f"mirrored, {shadow['shadow_errors']} errors, "
                  f"label disagreement {shadow['mismatch_rate']}")
            ok, reasons = canary_ok(shadow, min_requests=20)
            print(f"canary_ok -> {ok}" + (f" ({'; '.join(reasons)})" if reasons else ""))

            # Step 5: hot promote. The server is not restarted; the pinned
            # ref flips atomically on the next request.
            if ok:
                store.promote(v2.ref, "prod")
                promoted = client.localize_document(queries, model="building-1/knn")
                print(f"promoted: endpoint now serves {promoted['ref']}")

                # Step 6: rollback is just another promote — byte-identical.
                store.promote(v1.ref, "prod")
                rolled = client.localize_document(queries, model="building-1/knn")
                identical = np.array_equal(rolled["labels"], baseline["labels"])
                print(f"rolled back to {rolled['ref']}; "
                      f"predictions byte-identical to v1: {identical}")

    print("done — no request was dropped across either flip")


if __name__ == "__main__":
    main()
