"""Spans recorded from outside the program, around layer entry points.

The traced run wraps bound methods on the live instances (the service,
its lock manager, admission controller, tuner pass, growth provider,
network client) with :meth:`SpanRecorder.wrap`.  Every call is timed;
self time is the call's duration minus the time its child spans took,
tracked with a per-thread stack so the tuner thread's spans never nest
under the driver's.  Full span records (name, start, end, parent,
session) are kept in memory for one transaction in ``keep_every`` plus
every tuner-thread span, and written out once the run has ended.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[index]


class SpanRecorder:
    """Per-name durations and self times, plus sampled span records."""

    def __init__(self, keep_every: int = 64) -> None:
        self.keep_every = keep_every
        self.durations: Dict[str, array] = defaultdict(lambda: array("d"))
        self.self_times: Dict[str, array] = defaultdict(lambda: array("d"))
        self.true_results: Dict[str, int] = defaultdict(int)
        #: (span_id, name, start, end, parent_id, session) of kept spans.
        self.records: List[Tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._txns = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            # A thread other than the driver's (the tuner) keeps all of
            # its spans: there are only a few per second.
            local.stack = []
            local.keep = threading.current_thread() is not threading.main_thread()
            local.session = -1
        return local

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Scope one driver transaction; decides whether its spans are kept."""
        local = self._state()
        local.keep = self._txns % self.keep_every == 0
        self._txns += 1
        local.session = -1
        try:
            with self.span("bench.txn"):
                yield
        finally:
            # Driver spans outside a transaction (rollout rows) are
            # timed but never kept: one rollout holds 100k of them.
            local.keep = False

    def set_session(self, app_id: int) -> None:
        self._state().session = app_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the driver's own code as a span."""
        token = self._open(name)
        try:
            yield
        finally:
            self._close(token)

    def _open(self, name: str):
        local = self._state()
        frame = [0.0, next(self._ids), name, time.perf_counter()]
        local.stack.append(frame)
        return local, frame

    def _close(self, token) -> None:
        local, frame = token
        end = time.perf_counter()
        local.stack.pop()
        children, span_id, name, start = frame
        duration = end - start
        self.durations[name].append(duration)
        self.self_times[name].append(duration - children)
        if local.stack:
            local.stack[-1][0] += duration
        if local.keep:
            parent = local.stack[-1][1] if local.stack else 0
            self.records.append((span_id, name, start, end, parent, local.session))

    def wrap(self, name: str, fn: Callable, *, count_true: bool = False) -> Callable:
        """``fn`` timed as span ``name`` (``count_true`` tallies truthy results)."""
        open_, close = self._open, self._close
        true_results = self.true_results

        def traced(*args, **kwargs):
            token = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(token)
            if count_true and result:
                true_results[name] += 1
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """``fn`` returns a generator; time each slice it runs as a span.

        The lock manager's slow path hands the service a generator that
        the service drives to completion; every resumption is one span,
        so waits between slices (none in these closed loops) are not
        counted as lock-manager time.
        """
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            send_value: object = None
            error: Optional[BaseException] = None
            while True:
                token = open_(name)
                try:
                    if error is not None:
                        yielded = inner.throw(error)
                    else:
                        yielded = inner.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(token)
                error = None
                try:
                    send_value = yield yielded
                except BaseException as exc:  # noqa: BLE001 - relayed to inner
                    error = exc

        return traced

    def wrap_session(self, name: str, session_cm: Callable) -> Callable:
        """A ``session()`` context manager whose enter and exit are timed.

        Opening and closing are recorded as ``<name>.open`` and
        ``<name>.close``; the locks taken inside the scope belong to the
        transaction, not to the session span.
        """

        @contextmanager
        def traced():
            token = self._open(f"{name}.open")
            try:
                manager = session_cm()
                app_id = manager.__enter__()
            finally:
                self._close(token)
            self.set_session(app_id)
            try:
                yield app_id
            except BaseException as exc:
                token = self._open(f"{name}.close")
                try:
                    if not manager.__exit__(type(exc), exc, exc.__traceback__):
                        raise
                finally:
                    self._close(token)
            else:
                token = self._open(f"{name}.close")
                try:
                    manager.__exit__(None, None, None)
                finally:
                    self._close(token)

        return traced

    # -- read side ---------------------------------------------------------

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_times.get(name, ()))

    def mean(self, name: str, *, self_time: bool = False) -> float:
        values = (self.self_times if self_time else self.durations).get(name, ())
        return sum(values) / len(values) if values else 0.0

    def quantile(self, name: str, q: float) -> float:
        return percentile(sorted(self.durations.get(name, ())), q)

    def write(self, path: str) -> int:
        """Write the kept span records as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, session in self.records:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "session": session,
                        }
                    )
                )
                out.write("\n")
        return len(self.records)
