"""Shard executors: how a :class:`~repro.serve.service.DetectionService`
reaches its workers.

Both executors run :class:`~repro.serve.workers.ShardWorker` over the
same request/reply protocol and keep one contract, per worker id:

* ``send(wid, msg, policy) -> PutOutcome`` — deliver one request under
  a :class:`~repro.serve.queues.BackpressurePolicy`.
  :class:`ProcessExecutor`'s also takes ``timeout=None``, and its
  ``BLOCK`` put onto a full inbox never parks forever. It raises
  :class:`~repro.errors.WorkerDeadError` once the worker is gone, and
  :class:`~repro.errors.WorkerStallError` when it is alive but has
  freed no slot within ``timeout``;
* ``recv(wid, timeout=None)`` — the next reply, in request order, with
  the same contract: ``WorkerDeadError`` once the worker is gone with
  no reply in flight, ``WorkerStallError`` when it is alive but silent
  past ``timeout``;
* ``try_recv(wid)`` — a reply already waiting, or ``None``;
* ``is_alive(wid)``, ``depth(wid)`` (queued requests; ``None`` where the
  platform cannot tell) and ``join()`` (release every worker);
* ``kill(wid)`` / ``respawn(wid, spec)`` — :class:`ProcessExecutor`
  only: the one executor whose workers can die, and so the one a
  :class:`~repro.serve.supervisor.ShardSupervisor` wraps.

:class:`SerialExecutor` calls workers in-process, in shard order:
deterministic, dependency-free, the equivalence suite's reference. Its
workers never die, stall or queue, so its ``send`` and ``recv`` never
raise.
:class:`ProcessExecutor` runs one OS process per worker over
``multiprocessing`` queues (fork start method where available, so query
sketches are inherited rather than re-pickled).
"""

from __future__ import annotations

import queue as queue_module
import time
from typing import List, Optional, Tuple

from repro.errors import WorkerDeadError, WorkerStallError
from repro.serve.queues import (
    BackpressurePolicy,
    PutOutcome,
    put_with_policy,
    queue_depth,
)
from repro.serve.workers import ShardWorker, WorkerSpec, _worker_loop

__all__ = ["ProcessExecutor", "SerialExecutor"]

#: Poll interval for liveness-aware sends and receives: a blocked
#: ``send`` or ``recv`` wakes at this cadence to check whether its
#: worker still exists.
_RECV_POLL_SECONDS = 0.05

#: After a worker is first seen dead, one final longer poll lets any
#: reply already in flight through the queue/pipe arrive before recv
#: gives up and raises.
_DEAD_GRACE_SECONDS = 0.2


class SerialExecutor:
    """In-process workers; replies buffered to keep the protocol uniform."""

    def __init__(self, specs: List[WorkerSpec]) -> None:
        self.workers = [ShardWorker(spec) for spec in specs]
        self._replies: List[List[Tuple]] = [[] for _ in specs]

    def send(
        self, worker_id: int, message: Tuple, policy: BackpressurePolicy
    ) -> PutOutcome:
        reply = self.workers[worker_id].handle(message)
        self._replies[worker_id].append(reply)
        return PutOutcome(delivered=True)

    def recv(self, worker_id: int, timeout: Optional[float] = None) -> Tuple:
        return self._replies[worker_id].pop(0)

    def try_recv(self, worker_id: int) -> Optional[Tuple]:
        replies = self._replies[worker_id]
        return replies.pop(0) if replies else None

    def is_alive(self, worker_id: int) -> bool:
        return True

    def depth(self, worker_id: int) -> Optional[int]:
        return 0

    def join(self) -> None:
        pass


class ProcessExecutor:
    """One OS process per worker over multiprocessing queues."""

    def __init__(self, specs: List[WorkerSpec], capacity: int) -> None:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.capacity = capacity
        count = len(specs)
        self.inboxes = [None] * count
        self.outboxes = [None] * count
        self.processes = [None] * count
        self.acked = [0] * count
        for spec in specs:
            self._spawn(spec)

    def _spawn(self, spec: WorkerSpec) -> None:
        worker_id = spec.worker_id
        inbox = self._context.Queue(self.capacity)
        outbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_loop,
            args=(spec, inbox, outbox),
            name=f"repro-serve-w{worker_id}",
            daemon=True,
        )
        self.inboxes[worker_id] = inbox
        self.outboxes[worker_id] = outbox
        self.processes[worker_id] = process
        process.start()

    def send(
        self,
        worker_id: int,
        message: Tuple,
        policy: BackpressurePolicy,
        timeout: Optional[float] = None,
    ) -> PutOutcome:
        def still_waiting(waited: float) -> None:
            if not self.is_alive(worker_id):
                raise WorkerDeadError(worker_id, self.acked[worker_id])
            if timeout is not None and waited >= timeout:
                raise WorkerStallError(
                    worker_id, self.acked[worker_id], timeout
                )

        return put_with_policy(
            self.inboxes[worker_id],
            message,
            policy,
            poll_seconds=_RECV_POLL_SECONDS,
            on_full=still_waiting,
        )

    def recv(self, worker_id: int, timeout: Optional[float] = None) -> Tuple:
        outbox = self.outboxes[worker_id]
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        while True:
            try:
                reply = outbox.get(timeout=_RECV_POLL_SECONDS)
            except queue_module.Empty:
                reply = None
            if reply is None and not self.is_alive(worker_id):
                # One grace poll: a reply written just before death may
                # still be crossing the mp feeder pipe.
                try:
                    reply = outbox.get(timeout=_DEAD_GRACE_SECONDS)
                except queue_module.Empty:
                    raise WorkerDeadError(
                        worker_id, self.acked[worker_id]
                    ) from None
            if reply is not None:
                self.acked[worker_id] += 1
                return reply
            if deadline is not None and time.perf_counter() >= deadline:
                raise WorkerStallError(
                    worker_id, self.acked[worker_id], timeout
                )

    def try_recv(self, worker_id: int) -> Optional[Tuple]:
        try:
            reply = self.outboxes[worker_id].get_nowait()
        except queue_module.Empty:
            return None
        self.acked[worker_id] += 1
        return reply

    def is_alive(self, worker_id: int) -> bool:
        return self.processes[worker_id].is_alive()

    def kill(self, worker_id: int) -> None:
        self._reap(self.processes[worker_id])

    @staticmethod
    def _reap(process) -> None:
        # SIGTERM first; escalate to SIGKILL because workers forked
        # mid-run inherit whatever handler the host installed (the CLI
        # swallows SIGTERM for graceful drains, for one).
        if process.is_alive():
            process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=2.0)

    @staticmethod
    def _discard_queue(mp_queue) -> None:
        try:
            mp_queue.close()
            mp_queue.cancel_join_thread()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def respawn(self, worker_id: int, spec: WorkerSpec) -> None:
        self._discard_queue(self.inboxes[worker_id])
        self._discard_queue(self.outboxes[worker_id])
        self._spawn(spec)

    def depth(self, worker_id: int) -> Optional[int]:
        return queue_depth(self.inboxes[worker_id])

    def join(self) -> None:
        for process in self.processes:
            process.join(timeout=10.0)
        for process in self.processes:
            if process.is_alive():
                self._reap(process)
        # A dead child's queues can pin the parent's feeder threads at
        # interpreter exit; detach them once nothing reads anymore.
        for mp_queue in list(self.inboxes) + list(self.outboxes):
            self._discard_queue(mp_queue)
