"""The asyncio TCP gateway in front of a :class:`DetectionService`.

Everything behind the socket already exists — sketch-once fan-out,
bounded ingestion with backpressure policies, lifecycle epochs,
checkpoint/resume. :class:`GatewayServer` puts the wire in front of it:
a ``repro.wire/1`` endpoint (:mod:`repro.gateway.protocol`) speaking
three session kinds, all multiplexed onto **one service thread** so
chunk processing and admin barriers serialise exactly like in-process
callers — every admin op lands at a chunk boundary, which is what the
PR 5 epoch-barrier machinery requires.

Session kinds
-------------
* **ingest** — pushes ``chunk`` frames (cell ids or encoded
  bitstreams). Chunks route through a
  :class:`~repro.ingest.session.StreamSession` over the shared service,
  so sequence-number dedupe, resilient decode and every degradation
  policy (``skip_window`` gaps included) apply before the service's
  front end sees a frame. One stream binding exists per gateway;
  a second live ingest connection is refused, and a dead one can be
  resumed with the binding's token.
* **admin** — request/response ops: ``subscribe`` / ``unsubscribe``
  (the service's epoch-barrier lifecycle), ``list_queries``, ``stats``,
  ``checkpoint``.
* **watch** — receives server-pushed ``match`` events in canonical
  :class:`~repro.serve.collector.MatchCollector` order. The watcher's
  cursor walks the collector's already-merged stream, so a slow watcher
  costs the server **nothing**: no per-watcher queue exists, unsent
  matches simply stay where they already live.

Flow control
------------
Ingest is credit-based: the server grants a window of ``credits`` at
WELCOME; each chunk spends one, and the credit returns with the ``ack``
that the chunk **finished processing** (or with an explicit ``drop``
notice). Credits map one-to-one onto slots of the gateway's
:class:`~repro.serve.queues.BoundedChannel`, so the configured
backpressure policy surfaces on the wire exactly as documented in
``docs/serving.md``:

* ``block`` — acks lag the service; the client runs out of credits and
  stalls (*credit starvation*). Nothing is dropped, server memory is
  capped at the credit window.
* ``drop_oldest`` / ``shed`` — the put drops or refuses chunks; each
  loss is reported as a counted ``drop`` notice (``gateway.drops``)
  that also refunds the credit.

The service thread coalesces what is already waiting: with a chunk it
takes every chunk queued behind it (up to the credit window, stopping
at the first control message) into one
:meth:`~repro.ingest.session.StreamSession.process_chunks` call, so a
run of small chunks pays one shard round trip. It never waits to fill
a batch. Acks, credits and drops stay per chunk.

Watch flow control mirrors it from the client side: the watcher grants
credits (HELLO, then ``credit`` frames); the server never has more
unacknowledged match frames in flight than granted.

Heartbeats, drain, resume
-------------------------
The server pings idle connections every ``heartbeat_seconds`` and
closes them after ``idle_timeout_seconds`` without inbound traffic.
:meth:`GatewayServer.shutdown` performs a graceful drain: stop
accepting, process every queued chunk, optionally flush the stream
tail, write a final checkpoint, push remaining matches, and send every
connection a ``goaway`` carrying its resume state. Resume is
replay-free and loss-free by construction: ingest resumes re-send from
``last_seq + 1`` (anything older is seq-deduped by the session), watch
resumes continue from the last acked match id against the collector's
durable stream.
"""

from __future__ import annotations

import asyncio
import pathlib
import secrets
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.codec.gop import EncodedVideo
from repro.core.query import Query
from repro.errors import GatewayError, ReproError
from repro.features.pipeline import FingerprintExtractor
from repro.gateway.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameReader,
    WIRE_FORMAT,
    encode_frame,
)
from repro.ingest.decoder import DegradationPolicy
from repro.ingest.session import StreamSession
from repro.ingest.sources import StreamChunk
from repro.obs.export import snapshot
from repro.obs.registry import MetricsRegistry
from repro.serve.checkpoint import CheckpointManager
from repro.serve.queues import BackpressurePolicy, BoundedChannel

__all__ = ["GatewayHandle", "GatewayServer"]

_ENCODED_META_FIELDS = (
    "width", "height", "block_size", "quality", "gop_size", "num_frames"
)


def _is_chunk(message) -> bool:
    return message[0] == "chunk"


@dataclass
class _Connection:
    """Per-socket bookkeeping shared by all three session kinds."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    role: str = "?"
    last_rx: float = 0.0
    last_tx: float = 0.0
    credits: int = 0          # ingest: grants held by the client
    closed: bool = False


@dataclass
class _Watcher:
    """One live match-watch session."""

    conn: _Connection
    token: str
    cursor: int = 0           # next collector index to push
    credits: int = 0          # match frames the client has allowed
    last_acked: int = -1
    wake: asyncio.Event = field(default_factory=asyncio.Event)


class GatewayServer:
    """A ``repro.wire/1`` TCP endpoint over one detection service.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.DetectionService` to front. The
        gateway serialises every interaction with it onto one internal
        thread; the caller must not drive the service concurrently.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    credits:
        Ingest credit window == bound on chunks the server holds in
        memory (queued + processing).
    policy:
        Backpressure policy applied to chunk puts on the internal
        channel; ``block`` starves credits, the lossy policies emit
        ``drop`` notices.
    degrade:
        Degradation policy for damaged encoded chunks.
    extractor:
        Fingerprint pipeline for encoded chunk frames (defaults to a
        fresh :class:`~repro.features.pipeline.FingerprintExtractor`).
    max_frame_bytes, heartbeat_seconds, idle_timeout_seconds:
        Wire guards.
    checkpoint_dir:
        When set, ``admin checkpoint`` ops and the shutdown drain write
        service snapshots there.
    registry:
        Registry for the ``gateway.*`` metrics (fresh one by default).
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        credits: int = 8,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        degrade: DegradationPolicy = DegradationPolicy.ZERO_FILL,
        extractor: Optional[FingerprintExtractor] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_seconds: float = 10.0,
        idle_timeout_seconds: float = 60.0,
        checkpoint_dir: Union[str, pathlib.Path, None] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if credits < 1:
            raise GatewayError(f"credit window must be >= 1, got {credits}")
        self.service = service
        self.host = host
        self.port = int(port)
        self.credit_window = int(credits)
        self.policy = policy
        self.degrade = degrade
        self.extractor = extractor or FingerprintExtractor()
        self.max_frame_bytes = int(max_frame_bytes)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.idle_timeout_seconds = float(idle_timeout_seconds)
        self.checkpoint_manager = (
            CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        )
        self.registry = registry if registry is not None else MetricsRegistry()

        # One slot above the credit window: the window caps chunks the
        # client may have unacked, and one of those is always *out* of
        # the channel being processed, so a compliant client can never
        # block the event loop on a put.
        self._pending = BoundedChannel(self.credit_window + 1)
        self._service_thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._closing = False
        self._ended = False          # stream flushed
        self._session: Optional[StreamSession] = None
        self._stream_id = 0
        self._ingest_token: Optional[str] = None
        self._ingest_conn: Optional[_Connection] = None
        self._inflight = 0           # chunks queued or processing
        self._last_done_seq = -1     # highest seq fully processed
        self._watchers: Dict[str, _Watcher] = {}
        self._watch_archive: Dict[str, int] = {}   # token -> last_acked
        self._conns: List[_Connection] = []
        self._tasks: List[asyncio.Task] = []
        for name in (
            "gateway.connections", "gateway.frames_in", "gateway.frames_out",
            "gateway.bytes_in", "gateway.bytes_out", "gateway.chunks",
            "gateway.credit_stalls", "gateway.drops", "gateway.resumes",
            "gateway.matches_pushed", "gateway.heartbeats",
            "gateway.errors", "gateway.goaways",
        ):
            self.registry.inc(name, 0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the service thread."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._service_thread = threading.Thread(
            target=self._service_loop, name="repro-gateway-svc", daemon=True
        )
        self._service_thread.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True, flush: bool = True) -> None:
        """Graceful drain: queued chunks, tails, checkpoint, GOAWAY."""
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        if drain:
            barrier = threading.Event()
            await loop.run_in_executor(
                None,
                self._pending.put,
                ("barrier", barrier),
                BackpressurePolicy.BLOCK,
            )
            await loop.run_in_executor(None, barrier.wait)
            if flush and not self._ended:
                await loop.run_in_executor(None, self._flush_stream)
            if self.checkpoint_manager is not None:
                await loop.run_in_executor(
                    None, self.service.checkpoint, self.checkpoint_manager
                )
                self.registry.inc("gateway.checkpoints")
            # Let watchers with credit drain the final matches.
            self._wake_watchers()
            await asyncio.sleep(0)
        self._goaway_all()
        self._pending.put(("stop",), BackpressurePolicy.BLOCK)
        await loop.run_in_executor(None, self._service_thread.join)
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for conn in list(self._conns):
            self._close_conn(conn)
        self._stopped.set()

    def _flush_stream(self) -> None:
        """Flush the stream tail through the session (service thread is
        idle at this point, so calling in from the drain is safe)."""
        if self._ended:
            return
        self._ended = True
        if self._session is not None:
            self._session.finish()
        else:
            self.service.flush()

    def _goaway_all(self) -> None:
        for conn in list(self._conns):
            resume: Dict[str, object] = {}
            if conn is self._ingest_conn and self._ingest_token:
                resume = {
                    "token": self._ingest_token,
                    "last_seq": self._last_done_seq,
                }
            else:
                for watcher in self._watchers.values():
                    if watcher.conn is conn:
                        resume = {
                            "token": watcher.token,
                            "last_pushed": watcher.cursor - 1,
                        }
            try:
                self._post(conn, {
                    "type": "goaway",
                    "reason": "server draining",
                    "resume": resume,
                })
                self.registry.inc("gateway.goaways")
            except Exception:
                pass

    # ------------------------------------------------------------------
    # the service thread: the only caller of the DetectionService
    # ------------------------------------------------------------------

    def _service_loop(self) -> None:
        while True:
            message = self._pending.get()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "barrier":
                message[1].set()
                continue
            if kind == "chunk":
                # Coalesce, never wait: every chunk already queued behind
                # this one (up to the credit window, stopping at the
                # first control message) shares one session call.
                chunks = [message[1]] + [
                    queued[1]
                    for queued in self._pending.take_ready(
                        self.credit_window - 1, _is_chunk
                    )
                ]
                outcomes = self._session.process_chunks(chunks)
                done = []
                for chunk, outcome in zip(chunks, outcomes):
                    error: Optional[str] = None
                    if outcome.error is None:
                        self._last_done_seq = max(
                            self._last_done_seq, chunk.seq
                        )
                    else:
                        error = str(outcome.error)
                    done.append((chunk.seq, len(outcome.matches), error))
                self._call_soon(self._on_chunks_done, done)
                continue
            if kind == "end":
                error = None
                try:
                    if not self._ended:
                        if self._session is not None:
                            self._session.finish()
                        else:
                            self.service.flush()
                    self._ended = True
                except ReproError as exc:
                    error = str(exc)
                self._call_soon(self._on_end_done, error)
                continue
            if kind == "admin":
                _, op, args, payload, conn, rid = message
                try:
                    reply, reply_payload = self._admin_op(op, args, payload)
                    reply["rid"] = rid
                except ReproError as exc:
                    reply = {
                        "type": "error", "rid": rid,
                        "code": "admin", "message": str(exc),
                    }
                    reply_payload = None
                self._call_soon(self._post_safe, conn, reply, reply_payload)
                continue

    def _admin_op(self, op: str, args: Dict, payload) -> tuple:
        service = self.service
        if op == "subscribe":
            cells = np.unique(np.asarray(payload, dtype=np.int64))
            query = Query(
                qid=int(args["qid"]),
                cell_ids=cells,
                num_frames=int(args["num_frames"]),
                sketch=service.family.sketch(cells),
                label=str(args.get("label", "")),
            )
            backfill = int(args.get("backfill", 0))
            shard = service.subscribe(query, backfill=backfill)
            reply = {"type": "subscribed", "qid": query.qid,
                     "shard": shard, "epoch": service.epoch}
            if backfill:
                total, done, found = service.backfill_progress().get(
                    query.qid, (0, 0, 0)
                )
                reply["backfill"] = {"total": total, "done": done,
                                     "retro_matches": found}
            return reply, None
        if op == "unsubscribe":
            service.unsubscribe(int(args["qid"]))
            return {"type": "unsubscribed", "qid": int(args["qid"]),
                    "epoch": service.epoch}, None
        if op == "list_queries":
            return {"type": "queries", "queries": [
                {"qid": info.qid, "shard": info.shard,
                 "cap_windows": info.cap_windows,
                 "num_frames": info.num_frames, "label": info.label,
                 "status": info.status,
                 "backfill_total": info.backfill_total,
                 "backfill_done": info.backfill_done,
                 "retro_matches": info.retro_matches}
                for info in service.list_queries()
            ]}, None
        if op == "stats":
            merged = service.metrics_snapshot()
            merged["gateway"] = snapshot(self.registry)
            if self._session is not None:
                merged["gateway"]["stream"] = snapshot(
                    self._session.registry
                )
            return {"type": "stats", "snapshot": merged}, None
        if op == "checkpoint":
            if self.checkpoint_manager is None:
                raise GatewayError(
                    "this gateway was started without a checkpoint dir"
                )
            path = service.checkpoint(self.checkpoint_manager)
            self.registry.inc("gateway.checkpoints")
            return {"type": "checkpointed", "path": str(path)}, None
        raise GatewayError(f"unknown admin op {op!r}")

    def _call_soon(self, fn, *args) -> None:
        self._loop.call_soon_threadsafe(fn, *args)

    # ------------------------------------------------------------------
    # event-loop callbacks fed by the service thread
    # ------------------------------------------------------------------

    def _on_chunks_done(
        self, done: List[Tuple[int, int, Optional[str]]]
    ) -> None:
        """Ack (or ``chunk_error``) each chunk of one session call, in
        seq order, one credit apiece."""
        for seq, num_matches, error in done:
            self._inflight -= 1
            conn = self._ingest_conn
            if conn is None or conn.closed:
                continue
            if conn.credits == 0:
                # The client was starved while this chunk cooked; the
                # refund below un-starves it.
                self.registry.inc("gateway.credit_stalls")
            conn.credits += 1
            header: Dict[str, object] = {
                "type": "ack", "seq": seq, "credit": 1,
                "matches": num_matches,
            }
            if error is not None:
                header = {"type": "chunk_error", "seq": seq, "credit": 1,
                          "message": error}
                self.registry.inc("gateway.errors")
            self._post_safe(conn, header)
        self._wake_watchers()

    def _on_end_done(self, error: Optional[str]) -> None:
        conn = self._ingest_conn
        if conn is not None and not conn.closed:
            if error is None:
                header = {"type": "ended",
                          "total_matches": len(self.service.collector),
                          "partial": bool(
                              getattr(self.service, "partial", False)
                          )}
            else:
                header = {"type": "error", "code": "end", "message": error}
            self._post_safe(conn, header)
        self._wake_watchers()

    def _wake_watchers(self) -> None:
        for watcher in self._watchers.values():
            watcher.wake.set()

    # ------------------------------------------------------------------
    # wire helpers
    # ------------------------------------------------------------------

    def _post(
        self, conn: _Connection, header: Dict[str, object], payload=None
    ) -> None:
        data = encode_frame(
            header, payload, max_frame_bytes=self.max_frame_bytes
        )
        conn.writer.write(data)
        conn.last_tx = self._loop.time()
        self.registry.inc("gateway.frames_out")
        self.registry.inc("gateway.bytes_out", len(data))

    def _post_safe(self, conn, header, payload=None) -> None:
        if conn.closed:
            return
        try:
            self._post(conn, header, payload)
        except Exception:
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            conn.writer.close()
        except Exception:
            pass
        if conn in self._conns:
            self._conns.remove(conn)
        if conn is self._ingest_conn:
            self._ingest_conn = None
        for token, watcher in list(self._watchers.items()):
            if watcher.conn is conn:
                self._watch_archive[token] = watcher.last_acked
                watcher.wake.set()
                del self._watchers[token]
        self.registry.set_gauge("gateway.open_connections", len(self._conns))

    async def _frames(self, conn: _Connection):
        """Yield frames off one connection until EOF or framing error."""
        reader = FrameReader(max_frame_bytes=self.max_frame_bytes)
        while not conn.closed:
            data = await conn.reader.read(65536)
            if not data:
                return
            conn.last_rx = self._loop.time()
            self.registry.inc("gateway.bytes_in", len(data))
            for header, payload in reader.feed(data):
                self.registry.inc("gateway.frames_in")
                yield header, payload

    async def _heartbeat(self, conn: _Connection) -> None:
        interval = max(self.heartbeat_seconds / 2.0, 0.05)
        while not conn.closed:
            await asyncio.sleep(interval)
            now = self._loop.time()
            if now - conn.last_rx > self.idle_timeout_seconds:
                self.registry.inc("gateway.idle_closes")
                self._close_conn(conn)
                return
            if now - conn.last_tx >= self.heartbeat_seconds:
                self.registry.inc("gateway.heartbeats")
                self._post_safe(conn, {"type": "ping"})

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader=reader, writer=writer)
        conn.last_rx = conn.last_tx = self._loop.time()
        self._conns.append(conn)
        self.registry.inc("gateway.connections")
        self.registry.set_gauge("gateway.open_connections", len(self._conns))
        heartbeat = asyncio.ensure_future(self._heartbeat(conn))
        self._tasks.append(heartbeat)
        try:
            await self._run_session(conn)
        except GatewayError as error:
            self.registry.inc("gateway.errors")
            self._post_safe(conn, {
                "type": "error", "code": "protocol", "message": str(error),
            })
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            heartbeat.cancel()
            if heartbeat in self._tasks:
                self._tasks.remove(heartbeat)
            self._close_conn(conn)

    async def _run_session(self, conn: _Connection) -> None:
        frames = self._frames(conn)
        hello = None
        async for header, payload in frames:
            hello = header
            break
        if hello is None:
            return
        if hello.get("type") != "hello":
            raise GatewayError(
                f"expected a hello frame, got {hello.get('type')!r}"
            )
        proto = hello.get("proto")
        if proto != WIRE_FORMAT:
            self._post_safe(conn, {
                "type": "error", "code": "version",
                "message": f"unsupported protocol {proto!r}",
                "supported": [WIRE_FORMAT],
            })
            self.registry.inc("gateway.version_rejects")
            return
        if self._closing:
            self._post_safe(conn, {
                "type": "goaway", "reason": "server draining", "resume": {},
            })
            return
        role = hello.get("role")
        conn.role = str(role)
        if role == "ingest":
            self.registry.inc("gateway.sessions.ingest")
            await self._run_ingest(conn, hello, frames)
        elif role == "watch":
            self.registry.inc("gateway.sessions.watch")
            await self._run_watch(conn, hello, frames)
        elif role == "admin":
            self.registry.inc("gateway.sessions.admin")
            self._post(conn, {
                "type": "welcome", "proto": WIRE_FORMAT, "role": "admin",
            })
            await self._run_admin(conn, frames)
        else:
            raise GatewayError(f"unknown session role {role!r}")

    # -- ingest ---------------------------------------------------------

    def _bind_ingest(self, conn: _Connection, hello: Dict) -> None:
        if self._ingest_conn is not None and not self._ingest_conn.closed:
            raise GatewayError(
                "the stream is already attached to a live ingest session"
            )
        token = hello.get("resume_token")
        if self._ingest_token is None:
            if token:
                raise GatewayError(
                    "nothing to resume: this gateway holds no stream yet"
                )
            self._stream_id = int(hello.get("stream_id", 0))
            self._ingest_token = secrets.token_hex(8)
            self._session = StreamSession(
                self._stream_id,
                extractor=self.extractor,
                policy=self.degrade,
                service=self.service,
            )
        else:
            if token != self._ingest_token:
                raise GatewayError(
                    "this gateway already holds a stream; reconnecting "
                    "requires its resume token"
                )
            self.registry.inc("gateway.resumes")
        self._ingest_conn = conn

    async def _run_ingest(self, conn, hello, frames) -> None:
        self._bind_ingest(conn, hello)
        conn.credits = max(0, self.credit_window - self._inflight)
        self._post(conn, {
            "type": "welcome", "proto": WIRE_FORMAT, "role": "ingest",
            "token": self._ingest_token, "credits": conn.credits,
            "last_seq": self._last_done_seq,
            "policy": self.policy.value,
        })
        loop = asyncio.get_running_loop()
        async for header, payload in frames:
            kind = header.get("type")
            if kind == "pong":
                continue
            if kind == "bye":
                return
            if kind == "chunk":
                if self._ended:
                    raise GatewayError("the stream has already been flushed")
                if conn.credits <= 0:
                    raise GatewayError(
                        "credit overrun: chunk pushed with zero credits"
                    )
                chunk = self._decode_chunk(header, payload)
                conn.credits -= 1
                self.registry.inc("gateway.chunks")
                outcome = self._pending.put(("chunk", chunk), self.policy)
                dropped_seqs: List[int] = []
                if outcome.delivered:
                    self._inflight += 1
                else:  # shed: the chunk never entered the channel
                    dropped_seqs.append(chunk.seq)
                for item in outcome.dropped:  # drop_oldest casualties
                    if (
                        isinstance(item, tuple)
                        and item
                        and item[0] == "chunk"
                    ):
                        dropped_seqs.append(item[1].seq)
                        self._inflight -= 1
                    else:
                        # The steal grabbed a queued control message
                        # (admin op / end marker). Those must never be
                        # lost: re-deliver off-loop with BLOCK — the
                        # service thread always drains, so it lands.
                        loop.run_in_executor(
                            None, self._pending.put, item,
                            BackpressurePolicy.BLOCK,
                        )
                if dropped_seqs:
                    conn.credits += len(dropped_seqs)
                    self.registry.inc("gateway.drops", len(dropped_seqs))
                    self._post_safe(conn, {
                        "type": "drop", "seqs": dropped_seqs,
                        "count": len(dropped_seqs),
                        "policy": self.policy.value,
                    })
                continue
            if kind == "end":
                await loop.run_in_executor(
                    None, self._pending.put, ("end",),
                    BackpressurePolicy.BLOCK,
                )
                continue
            raise GatewayError(f"unexpected {kind!r} frame on an ingest "
                               "session")

    def _decode_chunk(self, header: Dict, payload) -> StreamChunk:
        seq = header.get("seq")
        if not isinstance(seq, int) or seq < 0:
            raise GatewayError(f"chunk frame needs a non-negative integer "
                               f"seq, got {seq!r}")
        if payload is None:
            raise GatewayError(f"chunk {seq} carries no payload")
        kind = header.get("kind", "cells")
        if kind == "cells":
            return StreamChunk(
                stream_id=self._stream_id, seq=seq,
                payload=np.asarray(payload, dtype=np.int64),
            )
        if kind == "encoded":
            meta = header.get("meta")
            if not isinstance(meta, dict):
                raise GatewayError(f"encoded chunk {seq} lacks meta")
            try:
                video = EncodedVideo(
                    data=np.asarray(payload, dtype=np.uint8).tobytes(),
                    fps=float(meta["fps"]),
                    entropy_coding=bool(meta.get("entropy_coding", False)),
                    **{name: int(meta[name]) for name in _ENCODED_META_FIELDS},
                )
            except (KeyError, TypeError, ValueError) as error:
                raise GatewayError(
                    f"encoded chunk {seq} has bad meta: {error}"
                )
            return StreamChunk(
                stream_id=self._stream_id, seq=seq, payload=video
            )
        raise GatewayError(f"unknown chunk kind {kind!r}")

    # -- watch ----------------------------------------------------------

    async def _run_watch(self, conn, hello, frames) -> None:
        token = hello.get("resume_token")
        if token:
            if token not in self._watch_archive:
                raise GatewayError("unknown watch resume token")
            archived = self._watch_archive.pop(token)
            last_acked = int(hello.get("last_acked", archived))
            self.registry.inc("gateway.resumes")
        else:
            token = secrets.token_hex(8)
            last_acked = int(hello.get("last_acked", -1))
        watcher = _Watcher(
            conn=conn,
            token=token,
            cursor=last_acked + 1,
            credits=int(hello.get("credits", 8)),
            last_acked=last_acked,
        )
        self._watchers[token] = watcher
        self._post(conn, {
            "type": "welcome", "proto": WIRE_FORMAT, "role": "watch",
            "token": token, "next_match": watcher.cursor,
        })
        pump = asyncio.ensure_future(self._watch_pump(watcher))
        self._tasks.append(pump)
        try:
            async for header, payload in frames:
                kind = header.get("type")
                if kind == "pong":
                    continue
                if kind == "bye":
                    return
                if kind in ("match_ack", "credit"):
                    if "id" in header:
                        watcher.last_acked = max(
                            watcher.last_acked, int(header["id"])
                        )
                    grant = int(header.get("credit", 0))
                    if grant > 0:
                        watcher.credits += grant
                        watcher.wake.set()
                    continue
                raise GatewayError(
                    f"unexpected {kind!r} frame on a watch session"
                )
        finally:
            pump.cancel()
            if pump in self._tasks:
                self._tasks.remove(pump)

    async def _watch_pump(self, watcher: _Watcher) -> None:
        """Push matches as the collector grows, within granted credit.

        The cursor walks the collector's own list — the server holds no
        per-watcher copy, so a stalled watcher pins no extra memory.
        """
        conn = watcher.conn
        try:
            while not conn.closed:
                matches = self.service.collector.matches
                while watcher.cursor < len(matches) and watcher.credits > 0:
                    match = matches[watcher.cursor]
                    self._post(conn, {
                        "type": "match", "id": watcher.cursor,
                        "qid": match.qid,
                        "window_index": match.window_index,
                        "start_frame": match.start_frame,
                        "end_frame": match.end_frame,
                        "similarity": match.similarity,
                    })
                    watcher.cursor += 1
                    watcher.credits -= 1
                    self.registry.inc("gateway.matches_pushed")
                    await conn.writer.drain()
                matches = self.service.collector.matches
                if self._ended and watcher.cursor >= len(matches):
                    self._post_safe(conn, {
                        "type": "stream_end", "total": len(matches),
                    })
                    return
                watcher.wake.clear()
                # Re-check before sleeping: a wake may have landed
                # between the scan above and the clear.
                if watcher.cursor < len(matches) and watcher.credits > 0:
                    continue
                await watcher.wake.wait()
        except (ConnectionError, RuntimeError):
            self._close_conn(conn)

    # -- admin ----------------------------------------------------------

    async def _run_admin(self, conn, frames) -> None:
        loop = asyncio.get_running_loop()
        async for header, payload in frames:
            kind = header.get("type")
            if kind == "pong":
                continue
            if kind == "bye":
                return
            if kind in (
                "subscribe", "unsubscribe", "list_queries", "stats",
                "checkpoint",
            ):
                rid = header.get("rid", 0)
                await loop.run_in_executor(
                    None, self._pending.put,
                    ("admin", kind, header, payload, conn, rid),
                    BackpressurePolicy.BLOCK,
                )
                continue
            raise GatewayError(
                f"unexpected {kind!r} frame on an admin session"
            )

    # ------------------------------------------------------------------
    # threaded embedding
    # ------------------------------------------------------------------

    def run_in_thread(self) -> "GatewayHandle":
        """Start the whole server on a background thread.

        Returns a :class:`GatewayHandle` whose ``port`` is bound and
        whose ``stop()`` performs the graceful drain. Used by tests,
        benchmarks and anything embedding a gateway next to other work.
        """
        started = threading.Event()
        failure: List[BaseException] = []

        async def _main() -> None:
            try:
                await self.start()
            except BaseException as error:  # surface bind failures
                failure.append(error)
                started.set()
                raise
            started.set()
            await self.wait_stopped()

        def _thread_main() -> None:
            try:
                asyncio.run(_main())
            except BaseException:
                if not failure:
                    raise

        thread = threading.Thread(
            target=_thread_main, name="repro-gateway", daemon=True
        )
        thread.start()
        started.wait(timeout=30.0)
        if failure:
            raise GatewayError(f"gateway failed to start: {failure[0]}")
        if self._loop is None:
            raise GatewayError("gateway failed to start within 30s")
        return GatewayHandle(self, thread)


class GatewayHandle:
    """A gateway running on its own thread (see ``run_in_thread``)."""

    def __init__(self, server: GatewayServer, thread: threading.Thread):
        self.server = server
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def stop(
        self, drain: bool = True, flush: bool = True, timeout: float = 60.0
    ) -> None:
        """Graceful drain + shutdown; joins the server thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain, flush=flush),
            self.server._loop,
        )
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise GatewayError("gateway thread failed to stop")
