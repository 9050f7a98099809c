"""Shared-memory ring transport for :class:`WindowBatch` fan-out.

A :class:`WindowBatch` is a handful of flat numpy arrays; pickling it
once per process worker would put O(workers × batch bytes) of
serialization on the hot path, so the service instead writes them
**once** into a reusable
``multiprocessing.shared_memory`` slot and sends each worker only a tiny
picklable :class:`BatchDescriptor`; workers map the slot and build
zero-copy array views over it.

Slot lifecycle (producer side, :class:`ShmBatchRing`):

* ``publish`` finds a slot with no outstanding references (growing or
  allocating it as needed — a grown slot gets a fresh name so stale
  worker attachments can never alias it), copies the batch arrays in,
  and arms the reference count with one reference per intended
  delivery.
* The service releases one reference per worker reply — or immediately
  for a shed/stolen delivery. A slot is reusable once its count is
  zero, which is safe because workers copy what they keep: the sketch
  matrix is copied on receipt, so no view into the slot survives the
  handling of its message.
* When every slot is busy the producer drains one worker reply first
  (workers reply into unbounded outboxes, so this cannot deadlock);
  each such wait is counted as ``serve.transport.shm_waits``.

Worker side, :class:`ShmBatchReader`: attaches slots lazily, caches the
mapping per slot id, swaps the attachment when a descriptor carries a
new name (slot growth), and detaches from the resource tracker so the
worker's exit cannot unlink memory the producer still owns.

When ``multiprocessing.shared_memory`` is unavailable the service falls
back to pickling the :class:`WindowBatch` inline — same protocol, no
zero-copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServeError
from repro.minhash.windows import WindowBlock
from repro.serve.frontend import WindowBatch

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "BatchDescriptor",
    "ShmBatchReader",
    "ShmBatchRing",
    "shm_available",
]

#: The arrays of a WindowBatch's ``block`` (a WindowBlock).
_BLOCK_FIELDS = ("indices", "starts", "frames", "sketch_values")

#: The WindowBatch arrays that travel through shared memory, the block
#: flattened into its fields, in the order they are laid out in a slot.
_ARRAY_FIELDS = ("chunk_windows", *_BLOCK_FIELDS)


def shm_available() -> bool:
    """Whether the shared-memory transport can be used at all."""
    return _shared_memory is not None


#: Segment names created by a ring in *this* process. An in-process
#: reader (serial tests) must not untrack them — the producer's own
#: tracker registration is the one that matters.
_OWNED_NAMES: set = set()

#: True in a forked child that inherited an already-running resource
#: tracker from its parent. Such a child must not unregister attached
#: segments: the registration it shares belongs to the producer, whose
#: later unlink would then double-unregister (noisy KeyError inside
#: the tracker process). A child whose tracker starts fresh (spawn, or
#: fork before the parent ever registered anything) has its *own*
#: tracker, which would unlink the producer's live segments at exit —
#: there the unregister is required.
_INHERITED_TRACKER = False


def _note_tracker_inheritance() -> None:  # pragma: no cover - fork hook
    global _INHERITED_TRACKER
    try:
        from multiprocessing import resource_tracker

        _INHERITED_TRACKER = (
            getattr(resource_tracker._resource_tracker, "_fd", None)
            is not None
        )
    except Exception:
        _INHERITED_TRACKER = False


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix
    os.register_at_fork(after_in_child=_note_tracker_inheritance)


def _untrack(shm) -> None:
    """Detach an *attached* segment from this process's resource tracker.

    Only the creating process may unlink; without this, a worker whose
    own tracker outlives the attachment would unlink segments the
    producer still serves to its siblings. Skipped when the tracker is
    shared with the producer (see :data:`_INHERITED_TRACKER`).
    """
    if shm._name.lstrip("/") in _OWNED_NAMES:
        return
    if _INHERITED_TRACKER:
        return
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


@dataclass(frozen=True)
class BatchDescriptor:
    """Everything a worker needs to rebuild a batch from a slot.

    Attributes
    ----------
    slot:
        Ring slot index (stable attachment-cache key).
    name:
        The slot's current shared-memory segment name; changes when the
        slot is grown, telling workers to re-attach.
    base_seq:
        Mirror of :attr:`WindowBatch.base_seq` so the service can track
        outstanding batches without reading the slot back.
    num_chunks:
        Mirror of :attr:`WindowBatch.num_chunks` (drop accounting).
    windows_skipped, frames_skipped:
        Mirrors of the batch's in-band gap (inline scalars).
    fields:
        ``(field, dtype, shape, offset)`` per shipped array.
    total_bytes:
        Payload size in bytes (transport accounting).
    """

    slot: int
    name: str
    base_seq: int
    num_chunks: int
    fields: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    total_bytes: int
    windows_skipped: int = 0
    frames_skipped: int = 0


class _Slot:
    def __init__(self, index: int) -> None:
        self.index = index
        self.shm = None
        self.capacity = 0
        self.readers: set = set()
        self.generation = 0

    @property
    def refs(self) -> int:
        return len(self.readers)

    def ensure(self, nbytes: int) -> None:
        if self.shm is not None and self.capacity >= nbytes:
            return
        if self.shm is not None:
            self.shm.close()
            self.shm.unlink()
            _OWNED_NAMES.discard(self.shm.name)
        size = max(1, nbytes)
        self.generation += 1
        self.shm = _shared_memory.SharedMemory(create=True, size=size)
        _OWNED_NAMES.add(self.shm.name)
        self.capacity = size

    def close(self) -> None:
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        _OWNED_NAMES.discard(self.shm.name)
        self.shm = None
        self.capacity = 0


class ShmBatchRing:
    """Producer-side ring of reusable shared-memory batch slots."""

    def __init__(self, num_slots: int) -> None:
        if _shared_memory is None:  # pragma: no cover
            raise ServeError(
                "multiprocessing.shared_memory is unavailable"
            )
        if num_slots < 1:
            raise ServeError(
                f"ring needs at least one slot, got {num_slots}"
            )
        self._slots = [_Slot(index) for index in range(num_slots)]
        self._closed = False

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    def _free_slot(self) -> Optional[_Slot]:
        for slot in self._slots:
            if slot.refs == 0:
                return slot
        return None

    def publish(
        self,
        batch: WindowBatch,
        readers,
        wait_for_slot: Callable[[], None],
    ) -> BatchDescriptor:
        """Write ``batch`` into a free slot; arm one reference per reader.

        ``readers`` is the sequence of worker ids the batch will be
        delivered to — references are held *by identity*, so a crashed
        reader's pin can be swept (:meth:`sweep_reader`) instead of
        leaking the slot forever. ``wait_for_slot`` is invoked
        (repeatedly if needed) while every slot has outstanding
        references; it must release at least one reference — the
        service drains one worker reply per call.
        """
        if self._closed:
            raise ServeError("the shared-memory ring has been closed")
        arrays: List[Tuple[str, np.ndarray]] = []
        for field_name in _ARRAY_FIELDS:
            owner = batch.block if field_name in _BLOCK_FIELDS else batch
            arrays.append(
                (field_name, np.ascontiguousarray(getattr(owner, field_name)))
            )
        total = sum(array.nbytes for _, array in arrays)
        slot = self._free_slot()
        while slot is None:
            wait_for_slot()
            slot = self._free_slot()
        slot.ensure(total)
        fields: List[Tuple[str, str, Tuple[int, ...], int]] = []
        offset = 0
        buffer = slot.shm.buf
        for field_name, array in arrays:
            nbytes = array.nbytes
            if nbytes:
                destination = np.frombuffer(
                    buffer,
                    dtype=array.dtype,
                    count=array.size,
                    offset=offset,
                ).reshape(array.shape)
                np.copyto(destination, array)
                del destination
            fields.append(
                (field_name, array.dtype.str, array.shape, offset)
            )
            offset += nbytes
        slot.readers = set(int(reader) for reader in readers)
        return BatchDescriptor(
            slot=slot.index,
            name=slot.shm.name,
            base_seq=batch.base_seq,
            num_chunks=batch.num_chunks,
            fields=tuple(fields),
            total_bytes=total,
            windows_skipped=batch.windows_skipped,
            frames_skipped=batch.frames_skipped,
        )

    def release(self, slot_index: int, reader: int) -> None:
        """Drop ``reader``'s reference on a slot.

        Idempotent per reader: releasing a reference the reader no
        longer holds (already released, or force-swept after a crash)
        is a no-op — a recovered worker's replayed reply must not blow
        up the drain path. Releasing a slot nobody references at all is
        still an error (protocol bug, not a crash artifact).
        """
        slot = self._slots[slot_index]
        if not slot.readers:
            raise ServeError(
                f"slot {slot_index} released more times than referenced"
            )
        slot.readers.discard(int(reader))

    def sweep_reader(self, reader: int) -> int:
        """Force-release every slot reference held by ``reader``.

        Called when a worker is declared dead or quarantined: whatever
        it was still mapping will never be acknowledged, and without
        the sweep those slots stay pinned forever. Returns the number
        of references released.
        """
        swept = 0
        for slot in self._slots:
            if int(reader) in slot.readers:
                slot.readers.discard(int(reader))
                swept += 1
        return swept

    def outstanding(self) -> Dict[int, Tuple[int, ...]]:
        """Live references per slot — ``{slot: (reader, ...)}``.

        Empty at any quiescent point (all batches drained); test
        teardowns assert exactly that to catch leaked segments.
        """
        return {
            slot.index: tuple(sorted(slot.readers))
            for slot in self._slots
            if slot.readers
        }

    def total_outstanding_refs(self) -> int:
        return sum(len(slot.readers) for slot in self._slots)

    def sweep_all(self) -> int:
        """Force-release everything (shutdown path). Returns refs freed."""
        swept = 0
        for slot in self._slots:
            swept += len(slot.readers)
            slot.readers.clear()
        return swept

    def close(self) -> None:
        """Unlink every slot. Call after the workers have stopped."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            slot.close()


class ShmBatchReader:
    """Worker-side attachment cache and batch decoder."""

    def __init__(self) -> None:
        self._attached: Dict[int, Tuple[str, object]] = {}

    def _segment(self, descriptor: BatchDescriptor):
        cached = self._attached.get(descriptor.slot)
        if cached is not None and cached[0] == descriptor.name:
            return cached[1]
        if cached is not None:
            try:
                cached[1].close()
            except Exception:  # pragma: no cover
                pass
        try:
            shm = _shared_memory.SharedMemory(
                name=descriptor.name, track=False
            )
        except TypeError:  # pragma: no cover - Python < 3.13
            shm = _shared_memory.SharedMemory(name=descriptor.name)
            _untrack(shm)
        self._attached[descriptor.slot] = (descriptor.name, shm)
        return shm

    def read(self, descriptor: BatchDescriptor) -> WindowBatch:
        """Rebuild the batch as zero-copy views over the slot.

        The views are only valid while the message is being handled;
        the worker copies anything it retains (see module docstring).
        """
        shm = self._segment(descriptor)
        values: Dict[str, np.ndarray] = {}
        for field_name, dtype, shape, offset in descriptor.fields:
            count = int(np.prod(shape, dtype=np.int64))
            values[field_name] = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
            ).reshape(shape)
        return WindowBatch(
            base_seq=descriptor.base_seq,
            chunk_windows=values["chunk_windows"],
            block=WindowBlock(**{name: values[name] for name in _BLOCK_FIELDS}),
            windows_skipped=descriptor.windows_skipped,
            frames_skipped=descriptor.frames_skipped,
        )

    def close(self) -> None:
        """Detach from every cached slot (worker shutdown)."""
        for _, shm in self._attached.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass
        self._attached.clear()
