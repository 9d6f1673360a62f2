"""Open-loop load generation timed from each request's due time.

:class:`OpenLoop` sends requests on a fixed schedule from one thread,
whatever the system does; :class:`CompletionWatcher` notes when each
handle resolves.  A request's latency runs from when it was *due*, not
from when it was sent, so a generator stall counts against the system's
latency instead of hiding it, and the generator's lateness is reported
beside it.  Clock and sleep are injectable for tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional


#: The generator's schedule starts this long after :meth:`OpenLoop.run`
#: is called, so the first request is not late by the set-up of the call.
LEAD_SECONDS = 0.005

#: How often :class:`CompletionWatcher` polls; bounds its stamping error.
POLL_SECONDS = 0.001


@dataclass
class Sent:
    """One scheduled request: when it was due and what became of it."""

    index: int
    due: float
    sent: float
    handle: object = None  # None when the system refused the request

    @property
    def late(self) -> float:
        return self.sent - self.due


class OpenLoop:
    """Send on schedule from the calling thread; refusals are recorded."""

    def __init__(self, clock=time.perf_counter, sleep=time.sleep):
        self.clock = clock
        self.sleep = sleep

    def run(self, offsets, submit: Callable[[int], object],
            refused: tuple = ()) -> List[Sent]:
        """Call ``submit(i)`` at ``start + offsets[i]``.

        ``submit`` returns a handle with ``done()``; an exception of a
        type in ``refused`` marks the request refused (handle ``None``).
        """
        start = self.clock() + LEAD_SECONDS
        out = []
        for index, offset in enumerate(offsets):
            due = start + offset
            wait = due - self.clock()
            if wait > 0:
                self.sleep(wait)
            sent = self.clock()
            try:
                handle = submit(index)
            except refused:
                handle = None
            out.append(Sent(index, due, sent, handle))
        return out


class CompletionWatcher:
    """Polls outstanding handles and stamps the first time each is done.

    Runs on its own thread, polling every :data:`POLL_SECONDS`.  Call :meth:`poll_once` directly (with ``start=False``) to drive it
    from a test.
    """

    def __init__(self, clock=time.perf_counter, start: bool = True):
        self.clock = clock
        self.done_at: dict = {}
        self._pending: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if start:
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="perfbench-watcher")
            self._thread.start()

    def watch(self, key, handle) -> None:
        with self._lock:
            self._pending.append((key, handle))

    def poll_once(self) -> int:
        """Stamp every handle that is done now; returns how many remain."""
        now = self.clock()
        with self._lock:
            pending = self._pending
            still = []
            for key, handle in pending:
                if handle.done():
                    self.done_at[key] = now
                else:
                    still.append((key, handle))
            self._pending = still
            return len(still)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.poll_once()
            time.sleep(POLL_SECONDS)

    def wait_idle(self, timeout: float) -> bool:
        """Block until nothing is outstanding, or ``timeout`` passes."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                if not self._pending:
                    return True
            time.sleep(POLL_SECONDS)
        return False

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)


def latencies_from_due(sent: List[Sent], done_at: dict, key=lambda s: s.index):
    """Seconds from due time to completion; ``inf`` if refused or unfinished."""
    out = []
    for item in sent:
        finished = done_at.get(key(item)) if item.handle is not None else None
        out.append(float("inf") if finished is None else finished - item.due)
    return out
