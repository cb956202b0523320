"""Benchmark-side tracing: spans and counts recorded around calls into the program.

The program under test is not modified.  :class:`Tracer` replaces chosen
functions and methods with wrappers that record one span per call (name,
start, end, parent span on the same thread) or bump a counter, and swaps the
replacement into every loaded ``repro`` module that imported the original
by name.  Spans stay in memory until :meth:`Tracer.drain` hands them out.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.stats import covered, self_times

Hook = Callable[..., None]


class Tracer:
    """Collects spans, counters and sampled values from wrapped calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        # Re-entrant: a signal handler that drains the tracer may interrupt
        # the same thread while it holds the lock.
        self._lock = threading.RLock()
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name: str) -> bool:
        """True when a span called ``name`` is open on the calling thread."""
        return any(record[0] == name for record in self._stack())

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        # [name, start, end, parent record]; end stays 0.0 while open.
        record = [name, 0.0, 0.0, stack[-1] if stack else None]
        with self._lock:
            self.spans.append(record)
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def drain(self) -> Tuple[List[list], Counter, Dict[str, List[float]]]:
        """Hand out everything recorded so far and start empty.

        Spans still open at this moment are dropped from the result.
        """
        with self._lock:
            spans, counts, samples = self.spans, self.counts, self.samples
            self.spans, self.counts, self.samples = [], Counter(), defaultdict(list)
        return [s for s in spans if s[2]], counts, samples

    # -- installing wrappers -----------------------------------------------
    def span_wrapper(
        self,
        name: str,
        fn: Callable,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; hooks see ``(args, kwargs[, result])``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn: Callable, after: Hook) -> Callable:
        """``fn`` followed by ``after(args, kwargs, result)``, no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def async_count_wrapper(self, fn: Callable, after: Hook) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            result = await fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper


#: The package under test; only its modules have functions swapped.
PROGRAM_PACKAGE = "repro"


def replace_function(original: Callable, replacement: Callable) -> int:
    """Swap ``original`` for ``replacement`` in every loaded program module."""
    swapped = 0
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == PROGRAM_PACKAGE or name.startswith(PROGRAM_PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                swapped += 1
    if not swapped:
        raise RuntimeError(f"{original!r} is not referenced by any {PROGRAM_PACKAGE} module")
    return swapped


def replace_method(classes: Iterable[type], method: str, make: Callable[[Callable], Callable]) -> int:
    """Wrap ``method`` once on each class of ``classes``' MROs that defines it."""
    done = set()
    for cls in classes:
        for klass in cls.__mro__:
            fn = klass.__dict__.get(method)
            if fn is None:
                continue
            if (klass, method) in done:
                break
            done.add((klass, method))
            if isinstance(fn, classmethod):
                setattr(klass, method, classmethod(make(fn.__func__)))
            else:
                setattr(klass, method, make(fn))
            break
    if not done:
        raise RuntimeError(f"no class defines {method!r}")
    return len(done)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def span_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total (outermost spans only) and self seconds."""
    index = {id(record): i for i, record in enumerate(spans)}
    flat = [
        (record[1], record[2], index.get(id(record[3])) if record[3] is not None else None)
        for record in spans
    ]
    own = self_times(flat)
    table: Dict[str, Dict[str, float]] = {}
    for record, self_s in zip(spans, own):
        row = table.setdefault(record[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["self_s"] += self_s
        parent = record[3]
        nested = False
        while parent is not None:
            if parent[0] == record[0]:
                nested = True
                break
            parent = parent[3]
        if not nested:
            row["calls"] += 1
            row["total_s"] += record[2] - record[1]
    return table


def root_coverage(spans: List[list]) -> float:
    """Seconds covered by the union of the spans that have no parent."""
    return covered((r[1], r[2]) for r in spans if r[3] is None)
