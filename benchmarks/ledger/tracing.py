"""Harness-side spans around the public entry points of each layer.

Nothing inside ``src/`` knows it is being traced. For a traced pass the
harness swaps each public function in :data:`TARGETS` for a wrapper
that records a span (name, start, end, parent span) in memory;
:meth:`Tracer.uninstall` puts the originals back, so untraced passes
run the unmodified code. A target that a later refactor moved or
renamed is skipped and listed in ``Tracer.missing`` rather than failing
the run.

Spans nest per thread, so a layer's *self* time is its span's duration
minus what its child spans cover; a thread's root span is the request
every span under it belongs to. Forked shard workers inherit the
wrappers; each process keeps its own spans and writes them to the trace
directory when it ends (workers: on the protocol's final ``stop``
message), where the harness merges them by name.

Two kinds of span exist. ``busy`` spans are work and make up the ledger
rows. ``wait`` spans are a thread parked on a queue — the service
waiting for shard replies, a worker or the gateway's service thread
waiting for input — and are kept out of the rows so a shard's work is
not counted again as its caller's wait.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "Tracer", "merge_span_files"]

_now = time.perf_counter_ns

#: (module, owner class or None, attribute, span name, kind, wrapper).
#: ``wrapper`` picks how the call is spanned: ``call`` (the default),
#: ``generator`` (one span per item produced), or a ``call`` plus a
#: number accumulated per span name (``result_len``, ``arg1_len``,
#: ``result``), or one of the three special cases below.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str, str], ...] = (
    ("repro.gateway.protocol", None, "encode_frame",
     "gateway.protocol.encode", "busy", "result_len"),
    ("repro.gateway.protocol", "FrameReader", "feed",
     "gateway.protocol.decode", "busy", "arg1_len"),
    ("repro.gateway.server", "ServiceSink", "push_cell_ids",
     "gateway.sink.push_cell_ids", "busy", "call"),
    ("repro.serve.queues", "BoundedChannel", "put",
     "serve.queues.put", "busy", "channel_put"),
    ("repro.serve.queues", "BoundedChannel", "get",
     "serve.queues.get", "wait", "channel_get"),
    ("repro.serve.queues", None, "put_with_policy",
     "serve.queues.put_with_policy", "busy", "call"),
    ("multiprocessing.queues", "Queue", "get",
     "serve.wait.queue", "wait", "call"),
    ("repro.ingest.session", "StreamSession", "process_chunk",
     "ingest.session.process_chunk", "busy", "call"),
    ("repro.ingest.session", "StreamSession", "finish",
     "ingest.session.finish", "busy", "call"),
    ("repro.ingest.decoder", "ResilientDecoder", "decode_chunk",
     "ingest.decode_chunk", "busy", "call"),
    ("repro.codec.gop", None, "decode_dc_coefficients",
     "codec.dc_decode", "busy", "generator"),
    ("repro.codec.resync", None, "resilient_dc_scan",
     "codec.resync_scan", "busy", "call"),
    ("repro.features.pipeline", "FingerprintExtractor",
     "features_from_encoded", "features.from_encoded", "busy", "call"),
    ("repro.features.pipeline", "FingerprintExtractor",
     "features_from_dc_grids", "features.from_dc_grids", "busy", "call"),
    ("repro.partition.gridpyramid", "GridPyramidPartitioner", "cell_ids",
     "partition.cell_ids", "busy", "call"),
    ("repro.core.live", "LiveMonitor", "push_cell_ids",
     "core.live.push_cell_ids", "busy", "call"),
    ("repro.core.live", "LiveMonitor", "flush",
     "core.live.flush", "busy", "call"),
    ("repro.serve.service", "DetectionService", "run",
     "serve.service.run", "busy", "call"),
    ("repro.serve.service", "DetectionService", "flush",
     "serve.service.flush", "busy", "call"),
    ("repro.serve.service", "DetectionService", "subscribe",
     "serve.service.subscribe", "busy", "call"),
    ("repro.serve.service", "DetectionService", "unsubscribe",
     "serve.service.unsubscribe", "busy", "call"),
    ("repro.serve.service", "DetectionService", "checkpoint",
     "serve.service.checkpoint", "busy", "call"),
    ("repro.serve.service", "DetectionService", "metrics_snapshot",
     "serve.service.metrics_snapshot", "busy", "call"),
    ("repro.serve.frontend", "StreamFrontend", "build",
     "serve.frontend.build", "busy", "call"),
    ("repro.serve.frontend", "StreamFrontend", "flush_tail",
     "serve.frontend.flush_tail", "busy", "call"),
    ("repro.minhash.family", "MinHashFamily", "sketch_many",
     "minhash.sketch_many", "busy", "call"),
    ("repro.signature.bitsig", None, "encode_planes_many",
     "signature.encode_planes_many", "busy", "call"),
    ("repro.signature.bitsig", None, "encode_planes",
     "signature.encode_planes", "busy", "call"),
    ("repro.signature.bitsig", None, "pack_bool_planes",
     "signature.pack_bool_planes", "busy", "call"),
    ("repro.signature.bitsig", None, "popcount_planes",
     "signature.popcount_planes", "busy", "call"),
    ("repro.signature.pruning", None, "lemma2_prunable",
     "signature.lemma2_prunable", "busy", "call"),
    ("repro.serve.shm", "ShmBatchRing", "publish",
     "serve.shm.publish", "busy", "call"),
    ("repro.serve.shm", "ShmBatchReader", "read",
     "serve.shm.read", "busy", "call"),
    ("repro.serve.workers", "ShardWorker", "handle",
     "serve.workers.handle", "busy", "worker_handle"),
    ("repro.index.probe", None, "probe_index",
     "index.probe", "busy", "result_len"),
    ("repro.index.hq", "HashQueryIndex", "build",
     "index.build", "busy", "call"),
    ("repro.index.hq", "HashQueryIndex", "insert",
     "index.insert", "busy", "call"),
    ("repro.index.hq", "HashQueryIndex", "remove",
     "index.remove", "busy", "call"),
    ("repro.index.hq", "HashQueryIndex", "warm_caches",
     "index.warm_caches", "busy", "call"),
    ("repro.core.detector", "StreamingDetector", "process_window",
     "core.process_window", "busy", "call"),
    ("repro.core.detector", "StreamingDetector", "subscribe",
     "core.subscribe", "busy", "call"),
    ("repro.core.detector", "StreamingDetector", "unsubscribe",
     "core.unsubscribe", "busy", "call"),
    ("repro.serve.collector", "MatchCollector", "merge",
     "serve.collector.merge", "busy", "call"),
    ("repro.serve.checkpoint", "CheckpointManager", "save",
     "serve.checkpoint.save", "busy", "call"),
    ("repro.serve.checkpoint", "CheckpointManager", "load",
     "serve.checkpoint.load", "busy", "call"),
    ("repro.archive.ring", "SketchArchive", "append",
     "archive.append", "busy", "call"),
    ("repro.archive.ring", "SketchArchive", "seal_open_run",
     "archive.seal_open_run", "busy", "call"),
    ("repro.archive.backfill", "BackfillEngine", "pump",
     "archive.backfill.pump", "busy", "result"),
    ("repro.archive.backfill", "BackfillEngine", "request",
     "archive.backfill.request", "busy", "call"),
)

_VALUE_HOOKS: Dict[str, Callable] = {
    "result_len": lambda args, result: len(result),
    "arg1_len": lambda args, result: len(args[1]),
    "result": lambda args, result: result,
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []
        self.spans: Optional[list] = None


class Tracer:
    """Per-process span store plus the wrappers that feed it."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self.missing: List[str] = []
        self._names: Dict[str, int] = {}
        self._kinds: Dict[str, str] = {}
        self._restore: List[Tuple[object, str, object]] = []
        self._reset_process_state()

    def _reset_process_state(self) -> None:
        self._pid = os.getpid()
        self._local = _ThreadState()
        self._threads: List[list] = []
        self._values: Dict[str, float] = {}
        self._handoff: Dict[int, int] = {}
        self._residency_ns = 0
        self._residency_count = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _begin(self, name_id: int) -> Tuple[list, int, int]:
        if os.getpid() != self._pid:
            # A forked worker: the parent's spans stay the parent's.
            self._reset_process_state()
        local = self._local
        spans = local.spans
        if spans is None:
            spans = local.spans = []
            with self._lock:
                self._threads.append(spans)
        stack = local.stack
        index = len(spans)
        spans.append((name_id, _now(), 0, stack[-1] if stack else -1))
        stack.append(index)
        return spans, index, spans[index][1]

    def _end(self, token: Tuple[list, int, int]) -> None:
        end = _now()
        spans, index, _ = token
        name_id, start, _, parent = spans[index]
        spans[index] = (name_id, start, end, parent)
        self._local.stack.pop()

    def _name_id(self, name: str, kind: str) -> int:
        self._kinds[name] = kind
        return self._names.setdefault(name, len(self._names))

    def _wrap_call(self, original, name: str, kind: str, hook=None):
        name_id = self._name_id(name, kind)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            token = begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                end(token)
            if hook is not None:
                store = self._values
                store[name] = store.get(name, 0) + hook(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _wrap_generator(self, original, name: str, kind: str):
        """One span per item the generator produces, so the producer's
        work is told apart from its consumer's."""
        name_id = self._name_id(name, kind)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                token = begin(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end(token)
                yield item

        traced.__wrapped__ = original
        return traced

    def _wrap_channel_put(self, original, name: str, kind: str):
        """A busy span that also stamps the item, so the matching
        ``get`` can tell how long the item sat in the channel."""
        traced = self._wrap_call(original, name, kind)

        def put(channel, item, *args, **kwargs):
            self._handoff[id(item)] = _now()
            return traced(channel, item, *args, **kwargs)

        put.__wrapped__ = original
        return put

    def _wrap_channel_get(self, original, name: str, kind: str):
        traced = self._wrap_call(original, name, kind)

        def get(channel, *args, **kwargs):
            item = traced(channel, *args, **kwargs)
            stamped = self._handoff.pop(id(item), None)
            if stamped is not None:
                self._residency_ns += _now() - stamped
                self._residency_count += 1
            return item

        get.__wrapped__ = original
        return get

    def _wrap_worker_handle(self, original, name: str, kind: str):
        """The worker-side root span. A forked worker writes its spans
        out when it handles the final ``stop``: nothing else runs in
        that process afterwards."""
        traced = self._wrap_call(original, name, kind)

        def handle(worker, message):
            reply = traced(worker, message)
            if message[0] == "stop" and os.getpid() != self.owner_pid:
                self.dump()
            return reply

        handle.__wrapped__ = original
        return handle

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        special = {
            "generator": self._wrap_generator,
            "channel_put": self._wrap_channel_put,
            "channel_get": self._wrap_channel_get,
            "worker_handle": self._wrap_worker_handle,
        }
        for module_name, owner_name, attr, name, kind, wrapper in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = (
                    module if owner_name is None
                    else getattr(module, owner_name)
                )
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{owner_name}.{attr}")
                continue
            function = (
                raw.__func__
                if isinstance(raw, (classmethod, staticmethod)) else raw
            )
            if wrapper in special:
                wrapped = special[wrapper](function, name, kind)
            else:
                wrapped = self._wrap_call(
                    function, name, kind, _VALUE_HOOKS.get(wrapper)
                )
            if function is not raw:
                wrapped = type(raw)(wrapped)
            if owner_name is None:
                self._rebind_everywhere(raw, attr, wrapped)
            else:
                self._set(owner, attr, raw, wrapped)

    def _set(self, owner, attr: str, raw, wrapped) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _rebind_everywhere(self, raw, attr: str, wrapped) -> None:
        """A module-level function is bound by name wherever it was
        imported; rebind every ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            if module.__dict__.get(attr) is raw:
                self._set(module, attr, raw, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def dump(self) -> Path:
        """Write this process's spans; returns the file written."""
        if os.getpid() != self._pid:
            self._reset_process_state()
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        names = sorted(self._names, key=self._names.get)
        path = self.directory / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({
            "pid": os.getpid(),
            "names": names,
            "kinds": [self._kinds[name] for name in names],
            "values": self._values,
            "residency_ns": self._residency_ns,
            "residency_count": self._residency_count,
            # one list per thread of [name, start_ns, end_ns, parent]
            "threads": threads,
        }))
        return path


def merge_span_files(
    directory: Path, timed: Tuple[float, float]
) -> Dict[str, object]:
    """Merge every process's span file under ``directory`` by name.

    ``timed`` is the pass's measured interval in ``perf_counter``
    seconds (one monotonic clock for every process on the host). Spans
    that start inside it land in ``"spans"`` — what the ledger rows are
    made of; set-up and tear-down spans land in ``"outside"``. Both map
    name to ``{"count", "total_s", "self_s", "kind"}``; the rest of the
    result is ``"values"``, ``"residency_s"``, ``"residency_count"``,
    ``"num_spans"`` and ``"processes"``. A span still open when its
    process dumped (end 0) is ignored.
    """
    begin_ns, end_ns = (int(1e9 * edge) for edge in timed)
    inside: Dict[str, List[float]] = {}
    outside: Dict[str, List[float]] = {}
    kinds: Dict[str, str] = {}
    values: Dict[str, float] = {}
    residency_ns = residency_count = num_spans = processes = 0
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        processes += 1
        names = payload["names"]
        kinds.update(zip(names, payload["kinds"]))
        for name, value in payload["values"].items():
            values[name] = values.get(name, 0) + value
        residency_ns += payload["residency_ns"]
        residency_count += payload["residency_count"]
        for spans in payload["threads"]:
            child_ns = [0] * len(spans)
            for _, start, end, parent in spans:
                if end and parent >= 0:
                    child_ns[parent] += end - start
            for index, (name_id, start, end, _) in enumerate(spans):
                if not end:
                    continue
                num_spans += 1
                totals = inside if begin_ns <= start <= end_ns else outside
                entry = totals.setdefault(names[name_id], [0, 0, 0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child_ns[index]

    def table(totals: Dict[str, List[float]]) -> Dict[str, Dict]:
        return {
            name: {
                "count": int(count),
                "total_s": total / 1e9,
                "self_s": self_ns / 1e9,
                "kind": kinds.get(name, "busy"),
            }
            for name, (count, total, self_ns) in sorted(totals.items())
        }

    return {
        "spans": table(inside),
        "outside": table(outside),
        "values": values,
        "residency_s": residency_ns / 1e9,
        "residency_count": residency_count,
        "num_spans": num_spans,
        "processes": processes,
    }
