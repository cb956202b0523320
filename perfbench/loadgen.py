"""Single-threaded asyncio load generator for ``POST /v1/localize``.

Requests are pipelined over a few keep-alive connections.  Three modes:

* :meth:`LoadGen.open_loop` sends on a precomputed Poisson schedule
  (``stats.poisson_schedule``) regardless of replies and times every
  request from its *due* time, so a stall is charged to every request it
  delays; how late the sender itself ran is reported separately;
* :meth:`LoadGen.burst` keeps a fixed window of requests in flight per
  connection and reports the wall time to answer all of them;
* :meth:`LoadGen.sequential` sends one request at a time.

Every response body must be byte-identical to one of the bodies a direct
``LocalizationService.localize`` call can produce for that fingerprint
(:class:`Answers`).  A mismatch, a non-200 status or a missing reply counts
as a failed request (latency ``inf``).  A connection that fails or a phase
that times out leaves its unanswered requests failed and stops the
generator: later phases fail every request at once, so the run still ends
with a result.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Deque, List, Optional, Sequence


def request_body(model: str, fingerprint: Sequence[float]) -> bytes:
    return json.dumps({"model": model, "fingerprint": [float(v) for v in fingerprint]}).encode()


#: Seconds an open-loop step may run past its last due time.
GRACE_S = 10.0
#: Seconds a burst may take in all.
BURST_TIMEOUT_S = 60.0
#: Seconds one sequential request may take.
REPLY_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Answers:
    """The bodies a correct server may send for one fingerprint.

    ``single`` is the body of a direct single-row ``localize`` call.
    ``batched`` holds every other body a direct ``localize`` call on a batch
    containing that row produces (the micro-batcher's case): the row's
    ``error_estimate`` may differ from ``single`` in its last bits.
    """

    single: bytes
    batched: frozenset

    def admits(self, body: bytes) -> bool:
        return body == self.single or body in self.batched


def http_request(host: str, port: int, body: bytes) -> bytes:
    return (
        f"POST /v1/localize HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> tuple:
    """``(status, body)`` of one HTTP/1.1 response with a Content-Length."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
    return int(head[9:12]), await reader.readexactly(length)


@dataclass
class Outcome:
    """Results of one phase; ``latencies_ms`` aligns with the phase's requests."""

    latencies_ms: List[float]
    lateness_ms: List[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0


class _Phase:
    """Completion bookkeeping of one phase's requests."""

    def __init__(self, total: int, on_reply: Optional[Callable[[int], None]] = None) -> None:
        self.done = [math.inf] * total
        self.remaining = total
        self.complete = asyncio.Event()
        self.on_reply = on_reply
        if not total:
            self.complete.set()

    def record(self, index: int, good: bool, connection: int) -> None:
        if good:
            self.done[index] = time.perf_counter()
        self.remaining -= 1
        if self.on_reply is not None:
            self.on_reply(connection)
        if not self.remaining:
            self.complete.set()


class LoadGen:
    """Client side of the ``serve-rows`` workload."""

    def __init__(self, host: str, port: int, payloads: Sequence[bytes], answers: Sequence[Answers], connections: int) -> None:
        self.host = host
        self.port = port
        self.requests = [http_request(host, port, body) for body in payloads]
        self.answers = list(answers)
        self.connections = connections
        #: Correct responses that match a batched call but not the single-row one.
        self.batch_variants = 0
        #: Why the generator stopped (a failed connection or a timeout), if it did.
        self.error: Optional[str] = None
        self._streams: list = []
        # Per connection: (request index, admissible answers) awaiting a reply.
        self._pending: List[Deque[tuple]] = []

    async def __aenter__(self) -> "LoadGen":
        for _ in range(self.connections):
            self._streams.append(await asyncio.open_connection(self.host, self.port))
            self._pending.append(deque())
        return self

    async def __aexit__(self, *exc_info) -> None:
        for _, writer in self._streams:
            writer.close()
        for _, writer in self._streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._streams, self._pending = [], []

    def _send(self, connection: int, index: int, pick: int) -> None:
        self._pending[connection].append((index, self.answers[pick]))
        self._streams[connection][1].write(self.requests[pick])

    async def _reader(self, connection: int, phase: _Phase) -> None:
        reader = self._streams[connection][0]
        pending = self._pending[connection]
        while True:
            status, body = await read_response(reader)
            index, answers = pending.popleft()
            phase.record(index, self._check(status, body, answers), connection)

    def _check(self, status: int, body: bytes, answers: Answers) -> bool:
        correct = status == 200 and answers.admits(body)
        self.batch_variants += correct and body != answers.single
        return correct

    async def _run(self, phase: _Phase, send: Callable[[], Awaitable[None]], timeout_s: float) -> None:
        """Send and collect one phase until every reply is in.

        A connection that fails or a phase that outlasts ``timeout_s`` stops
        the generator; requests left unanswered keep latency ``inf``.
        """
        if self.error is not None:
            return

        async def sent_and_answered() -> None:
            await send()
            await phase.complete.wait()

        # Readers only ever end by raising, so whichever task ends first
        # either completes the phase or reports a failed connection.
        tasks = [asyncio.create_task(sent_and_answered())]
        tasks += [asyncio.create_task(self._reader(c, phase)) for c in range(self.connections)]
        await asyncio.wait(tasks, timeout=timeout_s, return_when=asyncio.FIRST_COMPLETED)
        for task in tasks:
            task.cancel()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        if phase.remaining:
            errors = [r for r in results if isinstance(r, BaseException) and not isinstance(r, asyncio.CancelledError)]
            self.error = repr(errors[0]) if errors else f"{phase.remaining} requests unanswered after {timeout_s:.0f} s"

    async def open_loop(self, due: Sequence[float], picks: Sequence[int]) -> Outcome:
        """Send request ``i`` (payload ``picks[i]``) at ``start + due[i]``."""
        phase = _Phase(len(picks))
        sent = [math.inf] * len(picks)
        start = time.perf_counter() + 0.01

        async def send() -> None:
            for index, offset in enumerate(due):
                wait = start + offset - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                self._send(index % self.connections, index, picks[index])
                sent[index] = time.perf_counter()

        await self._run(phase, send, (due[-1] if due else 0.0) + GRACE_S)
        latencies = [(phase.done[i] - start - due[i]) * 1e3 for i in range(len(picks))]
        return Outcome(
            latencies_ms=latencies,
            lateness_ms=[(sent[i] - start - due[i]) * 1e3 for i in range(len(picks))],
            failed=sum(1 for v in latencies if math.isinf(v)),
            wall_s=max((d for d in phase.done if not math.isinf(d)), default=start) - start,
        )

    async def burst(self, picks: Sequence[int], window: int) -> Outcome:
        """Answer ``len(picks)`` requests with ``window`` in flight per connection."""
        slots = [asyncio.Semaphore(window) for _ in range(self.connections)]
        phase = _Phase(len(picks), on_reply=lambda connection: slots[connection].release())
        start = time.perf_counter()

        async def send() -> None:
            for index, pick in enumerate(picks):
                connection = index % self.connections
                await slots[connection].acquire()
                self._send(connection, index, pick)

        await self._run(phase, send, BURST_TIMEOUT_S)
        latencies = [(d - start) * 1e3 for d in phase.done]
        return Outcome(
            latencies_ms=latencies,
            failed=sum(1 for v in latencies if math.isinf(v)),
            wall_s=max((d for d in phase.done if not math.isinf(d)), default=start) - start,
        )

    async def sequential(self, picks: Sequence[int]) -> Outcome:
        """One request at a time on the first connection (every batch holds one row)."""
        reader = self._streams[0][0]
        failed = 0
        start = time.perf_counter()
        for index, pick in enumerate(picks):
            if self.error is not None:
                failed += len(picks) - index
                break
            self._send(0, index, pick)
            try:
                status, body = await asyncio.wait_for(read_response(reader), REPLY_TIMEOUT_S)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError, ValueError) as exc:
                self.error = repr(exc)
                failed += 1
                continue
            _, answers = self._pending[0].popleft()
            failed += not self._check(status, body, answers)
        return Outcome(latencies_ms=[], failed=failed, wall_s=time.perf_counter() - start)
