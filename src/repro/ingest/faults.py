"""Deterministic fault injection for stream chunks.

:class:`FaultInjector` wraps any :class:`~repro.ingest.sources.StreamSource`
and damages its chunk stream the way real delivery paths do: flipped
bits inside the compressed payload, truncated tails, whole chunks lost,
chunks delivered twice, and delivery stalls. Every decision is drawn
from a per-chunk substream —
``make_rng(seed, f"fault:s{stream_id}:c{seq}")`` — so a given (seed,
stream, chunk) triple always suffers exactly the same damage regardless
of scheduling order or how many other streams run alongside. That is
what makes chaos tests reproducible and lets the equivalence suite
re-run a damaged stream in isolation.

Bit flips and truncation only apply to encoded-bitstream payloads (a
lost UDP datagram corrupts bytes on the wire, not the decoded arrays a
test source hands over); drops, duplicates and stalls apply to every
payload kind. The stream header can be protected (default): real
transports resend stream metadata out of band, and an unprotected
header turns a one-bit fault into a whole-chunk loss — still a valid
scenario, so ``protect_header=False`` is available for the harshest
chaos runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.codec.bitstream import BitstreamReader
from repro.codec.gop import EncodedVideo
from repro.errors import BitstreamError, IngestError
from repro.ingest.sources import StreamChunk, StreamSource
from repro.utils.rng import make_rng

__all__ = ["FAULT_PRESETS", "FaultInjector", "FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Per-chunk fault probabilities and magnitudes.

    Attributes
    ----------
    bit_flip:
        Probability a chunk's payload gets 1..``max_flips`` bits flipped.
    max_flips:
        Upper bound on flipped bits per damaged chunk.
    truncate:
        Probability a chunk's payload is cut short at a random point.
    drop:
        Probability a chunk is never delivered at all.
    duplicate:
        Probability a chunk is delivered twice (same ``seq``).
    stall:
        Probability a chunk arrives late by ``stall_seconds``.
    stall_seconds:
        Simulated delay attached to stalled chunks.
    protect_header:
        Keep the magic + header bytes intact under flips/truncation.
    """

    bit_flip: float = 0.0
    max_flips: int = 1
    truncate: float = 0.0
    drop: float = 0.0
    duplicate: float = 0.0
    stall: float = 0.0
    stall_seconds: float = 0.05
    protect_header: bool = True

    def __post_init__(self) -> None:
        for name in ("bit_flip", "truncate", "drop", "duplicate", "stall"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise IngestError(
                    f"fault probability {name} must be in [0, 1], got {value}"
                )
        if self.max_flips < 1:
            raise IngestError(
                f"max_flips must be >= 1, got {self.max_flips}"
            )
        if self.stall_seconds < 0:
            raise IngestError(
                f"stall_seconds cannot be negative ({self.stall_seconds})"
            )


#: Named plans for the CLI / CI chaos runs.
FAULT_PRESETS = {
    "none": FaultPlan(),
    "light": FaultPlan(bit_flip=0.1, max_flips=1, stall=0.05),
    "heavy": FaultPlan(
        bit_flip=0.4,
        max_flips=4,
        truncate=0.1,
        drop=0.1,
        duplicate=0.1,
        stall=0.2,
    ),
}


def _header_length(data: bytes) -> int:
    """Byte length of magic + header, or a 4-byte floor if unparseable."""
    reader = BitstreamReader(data)
    try:
        reader.read_magic()
        for _ in range(8):
            reader.read_uvarint()
    except BitstreamError:
        return min(len(data), 4)
    return reader.position


class FaultInjector(StreamSource):
    """Damage a wrapped source's chunks deterministically.

    The ``chunks_offered`` / ``keyframes_offered`` counters report what
    the *underlying* source produced — the ground truth the scheduler
    reconciles against — while the injector's own counters
    (``chunks_dropped``, ``keyframes_dropped``, ``chunks_duplicated``,
    ``bits_flipped``, ``chunks_truncated``, ``chunks_stalled``) describe
    the damage done in flight.
    """

    def __init__(
        self,
        source: StreamSource,
        plan: FaultPlan,
        seed: int,
    ) -> None:
        super().__init__(source.stream_id)
        self.source = source
        self.plan = plan
        self.seed = seed
        self.chunks_dropped = 0
        self.keyframes_dropped = 0
        self.chunks_duplicated = 0
        self.bits_flipped = 0
        self.chunks_truncated = 0
        self.chunks_stalled = 0

    # The truth counters live on the wrapped source.
    @property
    def chunks_offered(self) -> int:  # type: ignore[override]
        return self.source.chunks_offered

    @property
    def keyframes_offered(self) -> int:  # type: ignore[override]
        return self.source.keyframes_offered

    @chunks_offered.setter
    def chunks_offered(self, value: int) -> None:
        pass  # StreamSource.__init__ assigns 0; the wrapped source owns it

    @keyframes_offered.setter
    def keyframes_offered(self, value: int) -> None:
        pass

    def _corrupt_payload(
        self,
        payload: EncodedVideo,
        rng,
    ) -> EncodedVideo:
        plan = self.plan
        data = bytearray(payload.data)
        protected = _header_length(payload.data) if plan.protect_header else 0
        if len(data) <= protected:
            return payload
        changed = False
        if plan.truncate and rng.random() < plan.truncate:
            cut = int(rng.integers(protected, len(data)))
            del data[cut:]
            self.chunks_truncated += 1
            changed = True
        if (
            plan.bit_flip
            and len(data) > protected
            and rng.random() < plan.bit_flip
        ):
            flips = int(rng.integers(1, plan.max_flips + 1))
            for _ in range(flips):
                position = int(rng.integers(protected, len(data)))
                data[position] ^= 1 << int(rng.integers(0, 8))
            self.bits_flipped += flips
            changed = True
        if not changed:
            return payload
        return replace(payload, data=bytes(data))

    def _deliveries(self, chunk: StreamChunk) -> Iterator[StreamChunk]:
        plan = self.plan
        rng = make_rng(
            self.seed, f"fault:s{chunk.stream_id}:c{chunk.seq}"
        )
        if plan.drop and rng.random() < plan.drop:
            self.chunks_dropped += 1
            self.keyframes_dropped += chunk.expected_keyframes
            return
        copies = 1
        if plan.duplicate and rng.random() < plan.duplicate:
            copies = 2
            self.chunks_duplicated += 1
        payload = chunk.payload
        if isinstance(payload, EncodedVideo):
            payload = self._corrupt_payload(payload, rng)
        stall_seconds = 0.0
        if plan.stall and rng.random() < plan.stall:
            stall_seconds = plan.stall_seconds
            self.chunks_stalled += 1
        for _ in range(copies):
            yield StreamChunk(
                stream_id=chunk.stream_id,
                seq=chunk.seq,
                payload=payload,
                stall_seconds=stall_seconds,
            )

    def __iter__(self) -> Iterator[StreamChunk]:
        for chunk in self.source:
            yield from self._deliveries(chunk)
