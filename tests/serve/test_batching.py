"""Tests for the :class:`repro.serve.MicroBatcher` micro-batching executor."""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import LocalizationResult, LocalizationService
from repro.serve import MicroBatcher


@pytest.fixture()
def service(tiny_campaign) -> LocalizationService:
    return LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)


@pytest.fixture(scope="module")
def calloc_service(tiny_campaign) -> LocalizationService:
    params = {
        "embed_dim": 16,
        "attention_dim": 8,
        "num_lessons": 2,
        "epochs_per_lesson": 2,
        "seed": 0,
    }
    return LocalizationService("CALLOC", params=params).fit(tiny_campaign.train)


def _assert_results_equal(actual, expected) -> None:
    """Bitwise equality of two results (NaN error estimates compare equal)."""
    for field in ("labels", "coordinates", "error_estimate", "probabilities"):
        a, b = getattr(actual, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


class _Gate:
    """A flush target that blocks until released, so tests can line up the
    next batch behind a flush in progress."""

    def __init__(self, localize) -> None:
        self.localize = localize
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, features):
        self.entered.set()
        assert self.release.wait(10)
        return self.localize(features)


class TestBitIdentity:
    def test_single_fingerprint_requests_match_direct_batch(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        direct = service.localize(test.features)
        with MicroBatcher(service.localize, max_batch=4, max_wait_ms=2.0) as batcher:
            futures = [batcher.submit(row) for row in test.features]
            results = [future.result(timeout=10) for future in futures]
        np.testing.assert_array_equal(
            np.concatenate([r.labels for r in results]), direct.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([r.coordinates for r in results]), direct.coordinates
        )
        np.testing.assert_array_equal(
            np.concatenate([r.error_estimate for r in results]), direct.error_estimate
        )
        np.testing.assert_array_equal(
            np.concatenate([r.probabilities for r in results]), direct.probabilities
        )

    def test_multi_row_requests_keep_their_slices(self, service, tiny_campaign):
        test = tiny_campaign.test_for("BLU")
        with MicroBatcher(service.localize, max_batch=64, max_wait_ms=2.0) as batcher:
            first = batcher.submit(test.features[:4])
            second = batcher.submit(test.features[4:7])
            a, b = first.result(timeout=10), second.result(timeout=10)
        assert len(a) == 4 and len(b) == 3
        direct = service.localize(test.features[:7])
        np.testing.assert_array_equal(np.concatenate([a.labels, b.labels]), direct.labels)

    def test_concurrent_callers(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        direct = service.localize(test.features)
        results = [None] * test.features.shape[0]
        with MicroBatcher(service.localize, max_batch=8, max_wait_ms=5.0) as batcher:
            def worker(index: int) -> None:
                results[index] = batcher.localize(test.features[index])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(test.features.shape[0])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        for index, result in enumerate(results):
            assert result is not None
            assert result.labels[0] == direct.labels[index]

    def test_calloc_answers_equal_their_flushed_batch_slice(
        self, calloc_service, tiny_campaign
    ):
        """The invariant for row-dependent models: each answer is bitwise the
        request's slice of a direct ``localize`` on the batch the flusher
        formed (CALLOC's ``error_estimate`` bits depend on batch size and
        row position, so single-row identity does not hold)."""
        features = np.concatenate(
            [tiny_campaign.test_for(device).features for device in ("S7", "BLU")]
        )[:15]
        flushed = []

        def recording(batch):
            flushed.append(batch.copy())
            return calloc_service.localize(batch)

        # The gate holds the first flush until every later request is
        # queued, so the rest flush in full batches of up to five rows.
        gate = _Gate(recording)
        with MicroBatcher(
            calloc_service.localize, max_batch=5, max_wait_ms=50.0, batch_fn=gate
        ) as batcher:
            first = batcher.submit(features[0])
            assert gate.entered.wait(10)
            futures = [first] + [batcher.submit(row) for row in features[1:]]
            gate.release.set()
            results = [future.result(timeout=30) for future in futures]
        assert [batch.shape[0] for batch in flushed] == [1, 5, 5, 4]
        np.testing.assert_array_equal(np.concatenate(flushed), features)
        position = 0
        for batch in flushed:
            direct = calloc_service.localize(batch)
            for row in range(batch.shape[0]):
                expected = LocalizationResult(
                    labels=direct.labels[row : row + 1],
                    coordinates=direct.coordinates[row : row + 1],
                    error_estimate=direct.error_estimate[row : row + 1],
                    probabilities=direct.probabilities[row : row + 1],
                )
                _assert_results_equal(results[position], expected)
                position += 1


class TestFlushPolicy:
    def test_max_batch_triggers_immediate_flush(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        # A generous max_wait: flushes must come from the size trigger.
        with MicroBatcher(service.localize, max_batch=4, max_wait_ms=60_000) as batcher:
            futures = [batcher.submit(row) for row in test.features[:8]]
            for future in futures:
                future.result(timeout=10)
            assert batcher.stats.batches >= 2
            assert batcher.stats.requests == 8
            assert max(batcher.stats.batch_sizes) <= 4

    def test_max_wait_flushes_partial_batch(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=1_000, max_wait_ms=20.0) as batcher:
            start = time.perf_counter()
            result = batcher.localize(test.features[0])
            elapsed = time.perf_counter() - start
        assert result.labels.shape == (1,)
        assert elapsed < 10.0  # flushed by the wait timer, not the size trigger

    def test_oversized_request_is_not_split(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=2, max_wait_ms=2.0) as batcher:
            result = batcher.localize(test.features)
        assert len(result) == test.features.shape[0]

    def test_stats_document(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=4, max_wait_ms=2.0) as batcher:
            for row in test.features[:4]:
                batcher.localize(row)
            stats = batcher.stats.as_dict()
        assert stats["requests"] == 4
        assert stats["fingerprints"] == 4
        assert stats["batches"] >= 1
        assert stats["mean_batch_size"] >= 1


class TestLifecycleAndErrors:
    def test_exception_propagates_to_all_callers(self):
        def failing(features):
            raise RuntimeError("model exploded")

        with MicroBatcher(failing, max_batch=8, max_wait_ms=2.0) as batcher:
            futures = [batcher.submit(np.zeros(4)) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="model exploded"):
                    future.result(timeout=10)

    def test_bad_request_neither_kills_flusher_nor_fails_batchmates(
        self, service, tiny_campaign
    ):
        """Regression: a mismatched fingerprint width co-batched with valid
        requests must fail only its own caller — the flusher survives and
        innocent batch-mates still get their results."""
        test = tiny_campaign.test_for("S7")
        with MicroBatcher(service.localize, max_batch=8, max_wait_ms=20.0) as batcher:
            good = batcher.submit(test.features[0])
            bad = batcher.submit(np.zeros(3))  # wrong AP count
            also_good = batcher.submit(test.features[1])
            assert good.result(timeout=10).labels.shape == (1,)
            with pytest.raises(ValueError, match="APs|concatenat"):
                bad.result(timeout=10)
            assert also_good.result(timeout=10).labels.shape == (1,)
            # The flusher is still alive and serving.
            later = batcher.localize(test.features[2])
            assert later.labels.shape == (1,)

    def test_cancelled_future_neither_kills_flusher_nor_starves_batchmates(
        self, service, tiny_campaign
    ):
        """Regression: delivering into a cancelled future raised
        InvalidStateError and killed the flusher thread for good."""
        test = tiny_campaign.test_for("S7")
        release = threading.Event()

        def gated_localize(features):
            release.wait(10)
            return service.localize(features)

        with MicroBatcher(gated_localize, max_batch=8, max_wait_ms=1.0) as batcher:
            first = batcher.submit(test.features[0])
            time.sleep(0.05)  # flusher is now blocked inside gated_localize
            doomed = batcher.submit(test.features[1])
            survivor = batcher.submit(test.features[2])
            assert doomed.cancel()  # still queued behind the blocked flush
            release.set()
            assert first.result(timeout=10).labels.shape == (1,)
            assert survivor.result(timeout=10).labels.shape == (1,)
            # Flusher is still alive and the endpoint still serves.
            assert batcher.localize(test.features[0]).labels.shape == (1,)

    def test_submit_after_close_raises(self, service):
        batcher = MicroBatcher(service.localize, max_batch=4, max_wait_ms=1.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.zeros(4))

    def test_close_drains_queue(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        batcher = MicroBatcher(service.localize, max_batch=1_000, max_wait_ms=60_000)
        futures = [batcher.submit(row) for row in test.features[:3]]
        batcher.close(timeout=10)
        for future in futures:
            assert future.result(timeout=1) is not None

    def test_invalid_knobs_rejected(self, service):
        with pytest.raises(ValueError):
            MicroBatcher(service.localize, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(service.localize, max_wait_ms=-1.0)


class TestLoopWaiters:
    """``submit_async``: asyncio futures resolved on their own event loop."""

    def test_async_answers_match_sync_ones(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        direct = service.localize(test.features)

        async def main(batcher):
            futures = [batcher.submit_async(row) for row in test.features]
            return await asyncio.wait_for(asyncio.gather(*futures), 10)

        with MicroBatcher(service.localize, max_batch=4, max_wait_ms=2.0) as batcher:
            results = asyncio.run(main(batcher))
        np.testing.assert_array_equal(
            np.concatenate([r.labels for r in results]), direct.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([r.error_estimate for r in results]), direct.error_estimate
        )

    def test_one_loop_wakeup_per_flush(self, service, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        requests = min(16, test.features.shape[0])
        wakeups = []

        async def main(batcher):
            loop = asyncio.get_running_loop()
            original = loop.call_soon_threadsafe

            def counting(callback, *args, **kwargs):
                wakeups.append(callback)
                return original(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            try:
                futures = [batcher.submit_async(row) for row in test.features[:requests]]
                return await asyncio.wait_for(asyncio.gather(*futures), 10)
            finally:
                del loop.call_soon_threadsafe

        with MicroBatcher(service.localize, max_batch=8, max_wait_ms=50.0) as batcher:
            results = asyncio.run(main(batcher))
            batches = batcher.stats.batches
        assert len(results) == requests
        assert batches < requests  # requests did share flushes
        assert len(wakeups) == batches

    def test_cancelled_waiter_neither_kills_flusher_nor_fails_batchmates(
        self, service, tiny_campaign
    ):
        """A client that disconnects cancels its waiter while the batch is
        queued or computing; its batch-mates and the flusher carry on."""
        test = tiny_campaign.test_for("S7")
        gate = _Gate(service.localize)

        async def main(batcher):
            blocker = batcher.submit_async(test.features[0])
            while not gate.entered.is_set():
                await asyncio.sleep(0.001)
            doomed = batcher.submit_async(test.features[1])
            survivor = batcher.submit_async(test.features[2])
            doomed.cancel()
            gate.release.set()
            first, second = await asyncio.wait_for(asyncio.gather(blocker, survivor), 10)
            return doomed, first, second

        with MicroBatcher(
            service.localize, max_batch=8, max_wait_ms=1.0, batch_fn=gate
        ) as batcher:
            doomed, first, second = asyncio.run(main(batcher))
            assert doomed.cancelled()
            assert first.labels.shape == (1,) and second.labels.shape == (1,)
            # A sync caller of the same batcher is still answered.
            later = batcher.submit(test.features[3]).result(timeout=10)
            assert later.labels.shape == (1,)
            assert batcher._flusher.is_alive()

    def test_closed_loop_neither_kills_flusher_nor_fails_batchmates(
        self, service, tiny_campaign
    ):
        """Shutdown mid-flush: the waiter's event loop closes before its
        batch is answered.  The flusher survives and a sync batch-mate in
        the same flush still gets its result."""
        test = tiny_campaign.test_for("S7")
        gate = _Gate(service.localize)
        with MicroBatcher(
            service.localize, max_batch=8, max_wait_ms=1.0, batch_fn=gate
        ) as batcher:
            blocker = batcher.submit(test.features[0])
            assert gate.entered.wait(10)

            async def enqueue():
                return batcher.submit_async(test.features[1])

            loop = asyncio.new_event_loop()
            orphan = loop.run_until_complete(enqueue())
            batchmate = batcher.submit(test.features[2])
            loop.close()
            gate.release.set()
            assert blocker.result(timeout=10).labels.shape == (1,)
            assert batchmate.result(timeout=10).labels.shape == (1,)
            later = batcher.submit(test.features[3]).result(timeout=10)
            assert later.labels.shape == (1,)
            assert batcher._flusher.is_alive()
            assert not orphan.done()
            assert batcher.stats.requests == 4

    def test_sync_and_loop_callers_under_thread_churn(self, service, tiny_campaign):
        """Stress: threads and an event loop submit at once with a tiny switch
        interval.  A lost update to the running row count would leave it
        above zero once every caller is answered, or misroute an answer."""
        features = tiny_campaign.test_for("S7").features
        direct = service.localize(features).labels
        rounds = 40
        answers = {"sync": [], "loop": []}

        def sync_caller() -> None:
            for step in range(rounds):
                index = step % len(features)
                result = batcher.submit(features[index]).result(timeout=10)
                answers["sync"].append(result.labels[0] == direct[index])

        async def loop_caller() -> None:
            for step in range(0, rounds, 4):
                indices = [(step + k) % len(features) for k in range(4)]
                futures = [batcher.submit_async(features[i]) for i in indices]
                results = await asyncio.wait_for(asyncio.gather(*futures), 10)
                for index, result in zip(indices, results):
                    answers["loop"].append(result.labels[0] == direct[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatcher(service.localize, max_batch=4, max_wait_ms=1.0) as batcher:
                threads = [threading.Thread(target=sync_caller) for _ in range(4)]
                threads.append(threading.Thread(target=asyncio.run, args=(loop_caller(),)))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                queued = batcher._queued_rows
                stats = batcher.stats.as_dict()
        finally:
            sys.setswitchinterval(interval)
        assert len(answers["sync"]) == 4 * rounds and all(answers["sync"])
        assert len(answers["loop"]) == rounds and all(answers["loop"])
        assert queued == 0
        assert stats["requests"] == stats["fingerprints"] == 5 * rounds
