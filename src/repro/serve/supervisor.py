"""Self-healing shard supervision: detect, restart, replay, quarantine.

:class:`ShardSupervisor` sits between :class:`DetectionService` and its
:class:`~repro.serve.executors.ProcessExecutor`, presenting the same
``send``/``recv``/``depth``/``join`` surface (the executor contract,
:mod:`repro.serve.executors`) while making worker death survivable. It
exploits the protocol's one-reply-per-request discipline
(:mod:`repro.serve.workers`): requests to a worker are logged with a
per-worker sequence number, replies are matched FIFO against that log,
and the *acked watermark* — the highest logged request whose reply has
been consumed — tells the supervisor exactly which messages a dead
worker had finished.

Failure detection uses three signals:

* **dead** — the executor's liveness-aware ``recv``/``send`` report the
  worker's process gone (:class:`~repro.errors.WorkerDeadError`);
* **stalled** — the worker is alive but produced no reply within the
  configured deadline (:class:`~repro.errors.WorkerStallError`);
* **poisoned** — a reply arrived that does not validate against the
  request at the head of the log (wrong kind, wrong worker id, wrong
  sequence), i.e. protocol corruption.

Recovery is *local to the shard* and invisible to the merged match
stream: the worker is killed and respawned from the shard's most recent
rolling snapshot — a ``("state",)`` probe the supervisor injects into
the request stream every ``snapshot_every`` stream messages, whose
reply carries the full :func:`~repro.serve.state.worker_state` dict —
and every logged request after that snapshot is replayed in order.
Replayed requests that were already acked before death have their
replies silently discarded (the service saw them once); the rest flow
to the service exactly as an uninterrupted worker's would, so the
output is bit-for-bit identical. Shared-memory batches are replayed
from their inline shadow copies (the service provides them at ``send``
time), never from ring slots that may since have been reused — and the
service's drain loop still releases each armed slot exactly once
because every outstanding ``batch_shm`` request still produces exactly
one reply.

A per-shard circuit breaker (``max_restarts`` with exponential backoff)
bounds how hard a flapping shard is fought for. Past the budget the
shard is **quarantined**: its worker is killed for good and the
supervisor synthesizes protocol-shaped empty replies (no matches, ok
barriers, snapshot state frozen at the last good snapshot) so the
service keeps running degraded — surviving shards bit-for-bit correct,
the quarantined shard's queries reported ``degraded`` and its matches
missing rather than the whole service wedged. Everything is counted
under ``serve.supervisor.*``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.query import Query, QuerySet
from repro.errors import ServeError, WorkerDeadError, WorkerStallError
from repro.obs.export import snapshot as registry_snapshot
from repro.obs.registry import MetricsRegistry
from repro.serve.chaos import rebase_events
from repro.serve.executors import ProcessExecutor
from repro.serve.queues import BackpressurePolicy, PutOutcome
from repro.serve.workers import STREAM_KINDS, ShardWorker, WorkerSpec

__all__ = ["ShardSupervisor", "SupervisorConfig"]

#: Expected reply kind per request kind (the protocol table).
_REPLY_KIND = {
    "batch": "matches_batch",
    "batch_shm": "matches_batch",
    "flush": "flushed",
    "lifecycle": "ok",
    "state": "state",
    "snapshot": "snapshot",
    "stop": "stopped",
}


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervision loop.

    Attributes
    ----------
    recv_deadline:
        Seconds a worker may go silent (while alive) before it is
        declared stalled and recovered. Also bounds how long a blocked
        ``send`` waits for an inbox slot before the same happens.
    snapshot_every:
        Rolling-snapshot cadence in *stream* messages per worker; this
        is also the bound on the replay buffer (at most one cadence of
        batches is kept and replayed).
    max_restarts:
        Per-shard circuit breaker: restarts past this budget quarantine
        the shard.
    backoff_seconds:
        Base of the exponential restart backoff (doubling per restart).
    backoff_cap:
        Upper bound on a single backoff sleep.
    """

    recv_deadline: float = 5.0
    snapshot_every: int = 8
    max_restarts: int = 3
    backoff_seconds: float = 0.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.recv_deadline <= 0:
            raise ServeError(
                f"recv_deadline must be > 0, got {self.recv_deadline}"
            )
        if self.snapshot_every < 1:
            raise ServeError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.max_restarts < 0:
            raise ServeError(
                f"max_restarts cannot be negative ({self.max_restarts})"
            )
        if self.backoff_seconds < 0 or self.backoff_cap < 0:
            raise ServeError("backoff settings cannot be negative")


class _Poisoned(Exception):
    """Internal: the head-of-log reply failed validation."""


@dataclass
class _Entry:
    """One logged request awaiting (or replayed for) its reply."""

    seq: int
    kind: str
    sent_message: Tuple
    replay_message: Tuple
    origin: str  # "service" | "probe"
    stream_index: Optional[int]
    num_chunks: int = 0
    discard: bool = False
    synthesize: bool = False
    # Probe-only capture of the shard's logical state at enqueue time:
    queries: Optional[QuerySet] = None
    cap_hint: int = 0
    epoch: int = 0
    stream_count: int = 0


@dataclass
class _Snapshot:
    """The restore point a respawned worker is rebuilt from."""

    state: Optional[Dict]
    queries: QuerySet
    cap_hint: int
    epoch: int
    seq: int
    stream_count: int


class _Shard:
    """Supervision state for one worker."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.id = spec.worker_id
        self.seq = 0
        self.acked = 0
        self.stream_sent = 0
        self.since_snapshot = 0
        self.pending: Deque[_Entry] = deque()
        self.log: List[_Entry] = []
        self.out: Deque[Tuple] = deque()
        self.snapshot = _Snapshot(
            state=spec.state,
            queries=spec.queries,
            cap_hint=spec.cap_hint,
            epoch=spec.epoch,
            seq=0,
            stream_count=0,
        )
        self.mirror: Dict[int, Query] = {
            qid: spec.queries.get(qid) for qid in spec.queries.query_ids
        }
        self.cap_hint = spec.cap_hint
        self.epoch = spec.epoch
        self.chaos = tuple(spec.chaos or ())
        self.restarts = 0
        self.quarantined = False
        self.stopping = False
        self.generation = 0


class ShardSupervisor:
    """Executor wrapper that makes shard workers self-healing.

    Parameters
    ----------
    executor:
        The :class:`~repro.serve.executors.ProcessExecutor` whose
        workers it heals (``kill`` / ``respawn`` are what it needs
        beyond the shared contract).
    specs:
        The :class:`WorkerSpec` each worker was built from — the
        zero-point snapshot (and respawn template) per shard.
    config:
        :class:`SupervisorConfig`; defaults are production-ish.
    registry:
        Service registry for the ``serve.supervisor.*`` series.
    """

    def __init__(
        self,
        executor: ProcessExecutor,
        specs: List[WorkerSpec],
        config: Optional[SupervisorConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._base = executor
        self.config = config or SupervisorConfig()
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._shards = [_Shard(spec) for spec in specs]
        self._family = specs[0].queries.family
        self._shutdown = False
        for name in (
            "serve.supervisor.kills",
            "serve.supervisor.restarts",
            "serve.supervisor.replayed_batches",
            "serve.supervisor.replayed_messages",
            "serve.supervisor.quarantines",
            "serve.supervisor.snapshots",
            "serve.supervisor.stalls",
            "serve.supervisor.poisoned",
        ):
            self.registry.inc(name, 0)
        self.registry.set_gauge("serve.supervisor.quarantined", 0)

    # ------------------------------------------------------------------
    # executor surface
    # ------------------------------------------------------------------

    def send(
        self,
        worker_id: int,
        message: Tuple,
        policy: BackpressurePolicy,
        shadow: Optional[Tuple] = None,
    ) -> PutOutcome:
        """Log and forward one request.

        ``shadow`` is the inline-replayable form of a message whose
        wire form is not durable (a ``batch_shm`` descriptor whose ring
        slot will be recycled); the log stores the shadow, the wire
        carries the original. A blocked put is bounded by
        ``recv_deadline``, and a dead or stalled worker is recovered,
        never raised.
        """
        shard = self._shards[worker_id]
        entry = self._make_entry(shard, message, shadow)
        self._apply_mirror(shard, message)
        if shard.quarantined or (
            self._shutdown and not self._base.is_alive(worker_id)
        ):
            entry.synthesize = True
            shard.pending.append(entry)
            return PutOutcome(delivered=True)
        if policy is BackpressurePolicy.BLOCK:
            outcome = self._put_bounded(shard, entry)
        else:
            outcome = self._base.send(worker_id, entry.sent_message, policy)
        if entry.synthesize:
            return outcome
        if not outcome.delivered:
            # Shed before entering the queue: no reply will ever come,
            # so the request must not occupy the log.
            return outcome
        shard.log.append(entry)
        shard.pending.append(entry)
        for item in outcome.dropped:
            self._forget(shard, item)
        if (
            entry.stream_index is not None
            and not shard.stopping
            and not shard.quarantined
        ):
            shard.since_snapshot += 1
            if shard.since_snapshot >= self.config.snapshot_every:
                self._probe(shard)
        return outcome

    def recv(
        self, worker_id: int, timeout: Optional[float] = None
    ) -> Tuple:
        """Produce the next service-visible reply for ``worker_id``.

        Absorbs snapshot-probe replies, discards replies to replayed
        requests the service already saw, synthesizes replies for
        quarantined shards, and triggers recovery on death, stall or
        poison — the caller only ever sees the healthy protocol.
        """
        shard = self._shards[worker_id]
        while True:
            if shard.out:
                return shard.out.popleft()
            if not shard.pending:
                raise ServeError(
                    f"worker {worker_id} has no outstanding request to "
                    "receive a reply for"
                )
            head = shard.pending[0]
            if shard.quarantined or head.synthesize:
                entry = shard.pending.popleft()
                reply = self._synthesize(shard, entry)
                if entry.origin == "probe" or entry.discard:
                    continue
                return reply
            try:
                reply = self._base.recv(
                    worker_id, timeout=self.config.recv_deadline
                )
            except WorkerDeadError:
                self._drain_safe(shard)
                if shard.out or not shard.pending:
                    continue
                if self._end_of_life(shard):
                    continue
                self._recover(shard, "dead")
                continue
            except WorkerStallError:
                self._drain_safe(shard)
                if shard.out:
                    continue
                if self._end_of_life(shard):
                    continue
                self._recover(shard, "stalled")
                continue
            try:
                self._consume(shard, reply)
            except _Poisoned:
                if not self._end_of_life(shard):
                    self._recover(shard, "poisoned")
                continue

    def depth(self, worker_id: int) -> Optional[int]:
        return self._base.depth(worker_id)

    def is_alive(self, worker_id: int) -> bool:
        shard = self._shards[worker_id]
        if shard.quarantined:
            return False
        return self._base.is_alive(worker_id)

    def join(self) -> None:
        self._base.join()

    # ------------------------------------------------------------------
    # degraded-mode surface (service/gateway introspection)
    # ------------------------------------------------------------------

    def quarantined_workers(self) -> List[int]:
        return [s.id for s in self._shards if s.quarantined]

    def restarts(self, worker_id: int) -> int:
        return self._shards[worker_id].restarts

    def shard_queries_override(
        self, worker_id: int
    ) -> Optional[QuerySet]:
        """The query set matching a quarantined shard's frozen state.

        A checkpoint of a degraded service must pair the quarantined
        worker's last good state with the queries *that state covers*,
        not with whatever the control plane has since subscribed there.
        """
        shard = self._shards[worker_id]
        if not shard.quarantined:
            return None
        return shard.snapshot.queries

    def begin_shutdown(self) -> None:
        """Disable recovery: from here on dead workers' pending and
        future requests get synthesized replies (close path)."""
        self._shutdown = True

    # ------------------------------------------------------------------
    # logging and validation
    # ------------------------------------------------------------------

    def _make_entry(
        self, shard: _Shard, message: Tuple, shadow: Optional[Tuple]
    ) -> _Entry:
        kind = message[0]
        shard.seq += 1
        stream_index = None
        num_chunks = 0
        if kind in STREAM_KINDS:
            shard.stream_sent += 1
            stream_index = shard.stream_sent
            num_chunks = int((shadow or message)[1].num_chunks)
        if kind == "stop":
            shard.stopping = True
        return _Entry(
            seq=shard.seq,
            kind=kind,
            sent_message=message,
            replay_message=shadow if shadow is not None else message,
            origin="service",
            stream_index=stream_index,
            num_chunks=num_chunks,
        )

    def _apply_mirror(self, shard: _Shard, message: Tuple) -> None:
        """Track the shard's logical query state as requests pass by,
        so probe snapshots know which queries their state covers."""
        if message[0] != "lifecycle":
            return
        _, epoch, ops, cap_hint = message
        for op in ops:
            if op[0] == "subscribe":
                shard.mirror[op[1].qid] = op[1]
            elif op[0] == "unsubscribe":
                shard.mirror.pop(op[1], None)
        shard.cap_hint = int(cap_hint)
        shard.epoch = int(epoch)

    def _forget(self, shard: _Shard, item) -> None:
        """Unlog a request stolen from the queue by a lossy policy."""
        if not isinstance(item, tuple) or item[0] not in STREAM_KINDS:
            return
        for entry in list(shard.pending):
            if entry.sent_message is item:
                shard.pending.remove(entry)
                try:
                    shard.log.remove(entry)
                except ValueError:  # pragma: no cover
                    pass
                return

    def _valid(self, shard: _Shard, entry: _Entry, reply) -> bool:
        if not isinstance(reply, tuple) or len(reply) < 2:
            return False
        kind, worker_id = reply[0], reply[1]
        if worker_id != shard.id:
            return False
        if kind == "error":
            return True
        if kind != _REPLY_KIND[entry.kind]:
            return False
        if kind == "matches_batch":
            return (
                len(reply) == 4
                and reply[2] == entry.replay_message[1].base_seq
                and len(reply[3]) == entry.num_chunks
            )
        return True

    def _consume(self, shard: _Shard, reply) -> None:
        entry = shard.pending[0]
        if not self._valid(shard, entry, reply):
            self.registry.inc("serve.supervisor.poisoned")
            raise _Poisoned()
        shard.pending.popleft()
        shard.acked = entry.seq
        if entry.origin == "probe":
            if reply[0] == "state":
                self._store_snapshot(shard, entry, reply[2])
            return
        if entry.discard:
            return
        shard.out.append(reply)

    def _drain_outbox(self, shard: _Shard) -> None:
        """Consume whatever replies already crossed the queue — they
        advance the acked watermark and must not be replayed."""
        while True:
            reply = self._base.try_recv(shard.id)
            if reply is None:
                return
            self._consume(shard, reply)

    def _drain_safe(self, shard: _Shard) -> None:
        try:
            self._drain_outbox(shard)
        except _Poisoned:
            # The corrupt reply's request stays pending and will be
            # replayed (or synthesized); nothing is lost by stopping.
            pass

    def _end_of_life(self, shard: _Shard) -> bool:
        """During shutdown (or after a final ``stop``) a dead worker is
        not recovered — its pending requests get synthetic replies."""
        if not (self._shutdown or shard.stopping):
            return False
        for entry in shard.pending:
            entry.synthesize = True
        return True

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def _mirror_queryset(self, shard: _Shard) -> QuerySet:
        return QuerySet(
            [shard.mirror[qid] for qid in sorted(shard.mirror)],
            self._family,
        )

    def _probe(self, shard: _Shard) -> None:
        shard.seq += 1
        entry = _Entry(
            seq=shard.seq,
            kind="state",
            sent_message=("state",),
            replay_message=("state",),
            origin="probe",
            stream_index=None,
            queries=self._mirror_queryset(shard),
            cap_hint=shard.cap_hint,
            epoch=shard.epoch,
            stream_count=shard.stream_sent,
        )
        shard.since_snapshot = 0
        outcome = self._put_bounded(shard, entry)
        if entry.synthesize or not outcome.delivered:
            return
        shard.log.append(entry)
        shard.pending.append(entry)

    def _store_snapshot(
        self, shard: _Shard, entry: _Entry, state: Dict
    ) -> None:
        shard.snapshot = _Snapshot(
            state=state,
            queries=entry.queries,
            cap_hint=entry.cap_hint,
            epoch=entry.epoch,
            seq=entry.seq,
            stream_count=entry.stream_count,
        )
        shard.log = [e for e in shard.log if e.seq > entry.seq]
        self.registry.inc("serve.supervisor.snapshots")

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def _put_bounded(
        self, shard: _Shard, entry: _Entry, replaying: bool = False
    ) -> PutOutcome:
        """BLOCK-policy delivery that can never deadlock on a corpse:
        the executor's put raises on a dead worker, or on a live one
        that frees no slot within ``recv_deadline``, and either
        escalates to recovery instead of waiting forever.

        ``replaying`` marks an entry already in the log: if a nested
        recovery fires mid-put it will have re-sent that entry itself,
        so this put must bail instead of delivering a duplicate. A
        replay also delivers ``replay_message`` — the shared-memory
        ring recycles slots once their replies are drained, so a stale
        ``batch_shm`` descriptor may point at a *newer* batch's bytes;
        only the logged inline shadow is stable.
        """
        generation = shard.generation
        message = entry.replay_message if replaying else entry.sent_message
        while True:
            try:
                return self._base.send(
                    shard.id,
                    message,
                    BackpressurePolicy.BLOCK,
                    timeout=self.config.recv_deadline,
                )
            except WorkerDeadError:
                reason = "dead"
            except WorkerStallError:
                reason = "stalled"
            if shard.quarantined or (self._shutdown and reason == "dead"):
                if not replaying:
                    entry.synthesize = True
                    shard.pending.append(entry)
                return PutOutcome(delivered=True)
            self._recover(shard, reason)
            if replaying and shard.generation != generation:
                return PutOutcome(delivered=True)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self, shard: _Shard, reason: str) -> None:
        """Kill → (maybe quarantine) → respawn from snapshot → replay."""
        started = time.perf_counter()
        self.registry.inc("serve.supervisor.kills")
        if reason == "stalled":
            self.registry.inc("serve.supervisor.stalls")
        self._base.kill(shard.id)
        try:
            self._drain_outbox(shard)
        except _Poisoned:
            # Post-poison replies are junk; their requests stay pending
            # and will be replayed, so dropping them loses nothing.
            pass
        shard.restarts += 1
        self.registry.set_gauge(
            f"serve.supervisor.restarts.w{shard.id}", shard.restarts
        )
        if shard.restarts > self.config.max_restarts:
            self._quarantine(shard)
            return
        self.registry.inc("serve.supervisor.restarts")
        backoff = min(
            self.config.backoff_cap,
            self.config.backoff_seconds * (2 ** (shard.restarts - 1)),
        )
        if backoff > 0:
            time.sleep(backoff)
        for entry in shard.log:
            entry.discard = entry.discard or entry.seq <= shard.acked
        self._base.respawn(shard.id, self._respawn_spec(shard))
        shard.generation += 1
        generation = shard.generation
        shard.pending = deque(shard.log)
        replayed_batches = 0
        replayed = 0
        for entry in list(shard.log):
            self._put_bounded(shard, entry, replaying=True)
            replayed += 1
            if entry.stream_index is not None:
                replayed_batches += 1
            if shard.generation != generation or shard.quarantined:
                # A nested recovery (or quarantine) already rebuilt and
                # replayed the log itself; this pass must not double-send.
                return
        self.registry.inc(
            "serve.supervisor.replayed_batches", replayed_batches
        )
        self.registry.inc("serve.supervisor.replayed_messages", replayed)
        timer = self.registry.timer("serve.supervisor.recovery")
        timer.calls += 1
        timer.seconds += time.perf_counter() - started

    def _respawn_spec(self, shard: _Shard) -> WorkerSpec:
        snap = shard.snapshot
        processed = snap.stream_count
        for entry in shard.log:
            if entry.stream_index is not None and entry.discard:
                processed = max(processed, entry.stream_index)
        cutoff = processed + 1
        shard.chaos = tuple(
            event for event in shard.chaos if event.at_seq > cutoff
        )
        epoch = snap.epoch
        if snap.state is not None and "epoch" in snap.state:
            epoch = int(snap.state["epoch"][0])
        return replace(
            shard.spec,
            queries=snap.queries,
            cap_hint=snap.cap_hint,
            state=snap.state,
            epoch=epoch,
            chaos=rebase_events(shard.chaos, 0, snap.stream_count),
        )

    def _quarantine(self, shard: _Shard) -> None:
        shard.quarantined = True
        self.registry.inc("serve.supervisor.quarantines")
        self.registry.set_gauge(
            "serve.supervisor.quarantined",
            len(self.quarantined_workers()),
        )
        self._base.kill(shard.id)
        for entry in shard.pending:
            entry.synthesize = True

    # ------------------------------------------------------------------
    # synthesis (quarantine / shutdown)
    # ------------------------------------------------------------------

    def _synthesize(self, shard: _Shard, entry: _Entry) -> Tuple:
        wid = shard.id
        kind = entry.kind
        if kind in ("batch", "batch_shm"):
            base_seq = entry.replay_message[1].base_seq
            return (
                "matches_batch",
                wid,
                base_seq,
                [[] for _ in range(entry.num_chunks)],
            )
        if kind == "flush":
            return ("flushed", wid, [])
        if kind == "state":
            return ("state", wid, self._synth_state(shard))
        if kind == "snapshot":
            return ("snapshot", wid, registry_snapshot(MetricsRegistry()))
        if kind == "stop":
            return ("stopped", wid)
        return ("ok", wid)

    def _synth_state(self, shard: _Shard) -> Dict:
        """A quarantined shard's checkpointable state: its last good
        snapshot, or a pristine worker's if it never reached one."""
        snap = shard.snapshot
        if snap.state is not None:
            return dict(snap.state)
        pristine = ShardWorker(
            replace(
                shard.spec,
                queries=snap.queries,
                cap_hint=snap.cap_hint,
                state=None,
                epoch=snap.epoch,
                chaos=(),
            )
        )
        return pristine.handle(("state",))[2]
