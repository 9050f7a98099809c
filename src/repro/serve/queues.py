"""Bounded ingestion queues and backpressure policies.

The service broadcasts every stream chunk to every worker over a
per-worker bounded queue. When a worker falls behind and its queue
fills, the configured :class:`BackpressurePolicy` decides what the
producer does:

* ``BLOCK`` — wait for space. Ingestion slows to the slowest shard;
  nothing is lost (the only policy under which the sharded output is
  provably identical to the single-process detector).
* ``DROP_OLDEST`` — steal the oldest queued chunk to make room. The
  worker never sees the stolen chunk, so its window clock falls behind
  the stream: subsequent matches from that shard carry shifted frame
  coordinates. This is deliberate load shedding, not transparent
  degradation (see ``docs/serving.md``).
* ``SHED`` — reject the new chunk for that worker; the queue's contents
  survive. Same caveat as ``DROP_OLDEST``, biased toward old data.

Every outcome is observable: the service counts delivered / dropped /
shed chunks and blocked wall-clock per worker under the ``serve.*``
metric namespace.

The service only applies a non-blocking policy to *chunk* messages;
control messages (flush, subscribe, checkpoint, stop) are always
delivered with ``BLOCK`` so a queue under pressure can never lose them.
"""

from __future__ import annotations

import enum
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ServeError

__all__ = [
    "BackpressurePolicy",
    "BoundedChannel",
    "PutOutcome",
    "put_with_policy",
    "queue_depth",
]


class BackpressurePolicy(enum.Enum):
    """What the producer does when a worker's chunk queue is full."""

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    SHED = "shed"


@dataclass
class PutOutcome:
    """What happened to one producer-side put.

    Attributes
    ----------
    delivered:
        Whether the item entered the queue (False only under ``SHED``).
    dropped:
        Items stolen from the queue to make room (``DROP_OLDEST``); the
        service uses their sequence numbers to track which chunks a
        worker will never process.
    blocked_seconds:
        Wall-clock the producer spent waiting (``BLOCK``).
    """

    delivered: bool
    dropped: List[object] = field(default_factory=list)
    blocked_seconds: float = 0.0


class BoundedChannel:
    """A bounded FIFO with policy-aware puts between threads.

    :class:`queue.Queue` cannot atomically steal its oldest element, so
    the gateway's credit window and the ingest scheduler's per-stream
    queues use this small condition-variable channel instead. ``get``
    blocks until an item is available; ``put`` applies a
    :class:`BackpressurePolicy`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServeError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(
        self,
        item: object,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
    ) -> PutOutcome:
        """Append ``item`` under ``policy``; never raises on pressure."""
        with self._lock:
            if len(self._items) < self.capacity:
                self._items.append(item)
                self._not_empty.notify()
                return PutOutcome(delivered=True)
            if policy is BackpressurePolicy.SHED:
                return PutOutcome(delivered=False)
            if policy is BackpressurePolicy.DROP_OLDEST:
                dropped = [self._items.popleft()]
                self._items.append(item)
                self._not_empty.notify()
                return PutOutcome(delivered=True, dropped=dropped)
            started = time.perf_counter()
            while len(self._items) >= self.capacity:
                self._not_full.wait()
            self._items.append(item)
            self._not_empty.notify()
            return PutOutcome(
                delivered=True,
                blocked_seconds=time.perf_counter() - started,
            )

    def get(self) -> object:
        """Pop the oldest item, blocking until one is available."""
        with self._lock:
            while not self._items:
                self._not_empty.wait()
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def take_ready(
        self, limit: int, accept: Callable[[object], bool]
    ) -> List[object]:
        """Pop up to ``limit`` head items while ``accept`` holds for
        each; never blocks (an empty or refused head returns what was
        taken so far).

        The gateway's service thread coalesces the chunks already
        queued behind the one it took, and stops at the first control
        message so ordering with it is unchanged.
        """
        taken: List[object] = []
        with self._lock:
            items = self._items
            while items and len(taken) < limit and accept(items[0]):
                taken.append(items.popleft())
            if taken:
                self._not_full.notify(len(taken))
        return taken

    def peek(self) -> Optional[object]:
        """The oldest item without removing it (None when empty).

        Deficit-weighted scheduling (``repro.ingest``) must price a
        chunk before deciding whether the stream's credit covers it.
        """
        with self._lock:
            return self._items[0] if self._items else None


def put_with_policy(
    target: "queue_module.Queue",
    item: object,
    policy: BackpressurePolicy,
    poll_seconds: float = 0.05,
    on_full: Optional[Callable[[float], None]] = None,
) -> PutOutcome:
    """Policy-aware put onto a multiprocessing (or stdlib) queue.

    ``multiprocessing.Queue`` offers no atomic steal either, so
    ``DROP_OLDEST`` is emulated: steal the oldest pending message (the
    parent is a legal consumer of its own queue), then retry the put.
    The loop handles the race where the worker drains the queue between
    the steal and the retry.

    A ``BLOCK`` put wakes every ``poll_seconds`` while the queue stays
    full and calls ``on_full(seconds_waited)``, which gives up by
    raising (the process executor's check for a dead or stalled
    worker); without it the put waits for as long as the queue is full.
    """
    try:
        target.put_nowait(item)
        return PutOutcome(delivered=True)
    except queue_module.Full:
        pass

    if policy is BackpressurePolicy.SHED:
        return PutOutcome(delivered=False)

    if policy is BackpressurePolicy.DROP_OLDEST:
        dropped: List[object] = []
        while True:
            try:
                dropped.append(target.get_nowait())
            except queue_module.Empty:
                pass
            try:
                target.put_nowait(item)
                return PutOutcome(delivered=True, dropped=dropped)
            except queue_module.Full:
                continue

    started = time.perf_counter()
    while True:
        try:
            target.put(item, timeout=poll_seconds)
            return PutOutcome(
                delivered=True,
                blocked_seconds=time.perf_counter() - started,
            )
        except queue_module.Full:
            if on_full is not None:
                on_full(time.perf_counter() - started)


def queue_depth(target: object) -> Optional[int]:
    """Best-effort queue depth (``qsize`` is unimplemented on some
    platforms for multiprocessing queues)."""
    try:
        return int(target.qsize())
    except (NotImplementedError, AttributeError):
        return None
