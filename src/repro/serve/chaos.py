"""Deterministic service-layer chaos: kill, stall and poison shard workers.

PR 4's :class:`~repro.ingest.faults.FaultInjector` drills the codec and
transport layers; this module drills the *serving* layer. A
:class:`ChaosPlan` is a frozen list of :class:`ChaosEvent` objects, each
naming a worker, a failure mode and the 1-based index of the stream
message (``batch`` / ``batch_shm``) at which it fires —
control traffic (lifecycle barriers, snapshots, flushes) never triggers
an event, so a plan written against a workload stays valid regardless
of how often the supervisor injects its own probes.

The events execute *inside* the worker loop, which makes them faithful
crash simulations rather than cooperative shutdowns:

``kill``
    The worker process calls ``os._exit(1)`` — no cleanup, no reply,
    exactly what a segfault or OOM kill looks like from the parent.
``stall``
    The worker sleeps ``stall_seconds`` before handling the message.
    A stall longer than the supervisor's recv deadline is
    indistinguishable from a livelock and triggers recovery.
``poison``
    The worker emits a malformed reply instead of handling the message,
    modelling protocol corruption; the supervisor must detect the bad
    frame and rebuild the shard.

Plans come from two places: an explicit comma-separated spec
(``kill:1@3,stall:0@2:0.5,poison:1@5``, i.e. ``kind:worker@seq`` with
an optional ``:seconds`` for stalls) or a seeded generator built on
:func:`~repro.utils.rng.make_rng`, so a chaos run is reproducible from
``(seed, num_workers, horizon)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.errors import ServeError
from repro.utils.rng import make_rng

__all__ = ["ChaosEvent", "ChaosPlan"]

_KINDS = ("kill", "stall", "poison")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure: ``kind`` hits ``worker_id`` immediately
    before it handles its ``at_seq``-th stream message (1-based)."""

    kind: str
    worker_id: int
    at_seq: int
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServeError(
                f"unknown chaos kind {self.kind!r} (expected one of {_KINDS})"
            )
        if self.worker_id < 0:
            raise ServeError(
                f"chaos worker_id cannot be negative ({self.worker_id})"
            )
        if self.at_seq < 1:
            raise ServeError(
                f"chaos at_seq is 1-based, got {self.at_seq}"
            )
        if self.stall_seconds < 0:
            raise ServeError(
                f"stall_seconds cannot be negative ({self.stall_seconds})"
            )
        if self.kind == "stall" and self.stall_seconds == 0:
            raise ServeError("a stall event needs stall_seconds > 0")

    def spec(self) -> str:
        """Render back to the ``kind:worker@seq[:seconds]`` spec form."""
        text = f"{self.kind}:{self.worker_id}@{self.at_seq}"
        if self.kind == "stall":
            text += f":{self.stall_seconds:g}"
        return text


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable schedule of :class:`ChaosEvent` objects."""

    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        seen = set()
        for event in self.events:
            key = (event.worker_id, event.at_seq)
            if key in seen:
                raise ServeError(
                    f"duplicate chaos event for worker {event.worker_id} "
                    f"at stream message {event.at_seq}"
                )
            seen.add(key)

    def __bool__(self) -> bool:
        return bool(self.events)

    def validate_workers(self, num_workers: int) -> None:
        for event in self.events:
            if event.worker_id >= num_workers:
                raise ServeError(
                    f"chaos event targets worker {event.worker_id} but the "
                    f"service only has {num_workers} workers"
                )

    def for_worker(self, worker_id: int) -> Tuple[ChaosEvent, ...]:
        """The worker's events, sorted by firing position."""
        return tuple(
            sorted(
                (e for e in self.events if e.worker_id == worker_id),
                key=lambda e: e.at_seq,
            )
        )

    def spec(self) -> str:
        return ",".join(
            event.spec()
            for event in sorted(
                self.events, key=lambda e: (e.at_seq, e.worker_id)
            )
        )

    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        """Parse a ``kind:worker@seq[:seconds]`` comma-separated spec."""
        events: List[ChaosEvent] = []
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise ServeError(
                    f"bad chaos event {token!r} "
                    "(expected kind:worker@seq[:seconds])"
                )
            kind = parts[0].strip()
            target = parts[1].strip()
            if "@" not in target:
                raise ServeError(
                    f"bad chaos event {token!r}: missing '@seq'"
                )
            worker_text, seq_text = target.split("@", 1)
            try:
                worker_id = int(worker_text)
                at_seq = int(seq_text)
            except ValueError as exc:
                raise ServeError(
                    f"bad chaos event {token!r}: {exc}"
                ) from None
            stall_seconds = 0.0
            if len(parts) == 3:
                try:
                    stall_seconds = float(parts[2])
                except ValueError:
                    raise ServeError(
                        f"bad chaos event {token!r}: bad stall seconds"
                    ) from None
            events.append(
                ChaosEvent(
                    kind=kind,
                    worker_id=worker_id,
                    at_seq=at_seq,
                    stall_seconds=stall_seconds,
                )
            )
        return cls(events=tuple(events))

    @classmethod
    def generate(
        cls,
        seed: int,
        num_workers: int,
        horizon: int,
        events_per_worker: int = 1,
        kinds: Sequence[str] = _KINDS,
        stall_seconds: float = 0.5,
    ) -> "ChaosPlan":
        """Draw a reproducible plan from a seeded substream.

        Each worker gets ``events_per_worker`` events at distinct
        positions in ``[1, horizon]``; kinds rotate through the seeded
        stream. The same ``(seed, num_workers, horizon)`` triple always
        yields the same plan, independent of process or platform.
        """
        if horizon < 1:
            raise ServeError(f"chaos horizon must be >= 1, got {horizon}")
        events: List[ChaosEvent] = []
        for worker_id in range(num_workers):
            rng = make_rng(seed, f"chaos:w{worker_id}")
            count = min(events_per_worker, horizon)
            positions = rng.choice(
                horizon, size=count, replace=False
            )
            for position in sorted(int(p) + 1 for p in positions):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                events.append(
                    ChaosEvent(
                        kind=kind,
                        worker_id=worker_id,
                        at_seq=position,
                        stall_seconds=(
                            stall_seconds if kind == "stall" else 0.0
                        ),
                    )
                )
        return cls(events=tuple(events))


def rebase_events(
    events: Sequence[ChaosEvent], consumed_cutoff: int, new_origin: int
) -> Tuple[ChaosEvent, ...]:
    """Shift a worker's surviving events into a respawned worker's frame.

    ``consumed_cutoff`` is the absolute stream-message index at or
    before which events are considered fired (or moot — the worker died
    there); ``new_origin`` is the absolute index the respawned worker's
    count restarts after (its snapshot's stream watermark). Events keep
    absolute positions > ``cutoff`` and are renumbered so the replay
    stream lines up.
    """
    survivors: List[ChaosEvent] = []
    for event in events:
        if event.at_seq <= consumed_cutoff:
            continue
        rebased = event.at_seq - new_origin
        if rebased < 1:
            continue
        survivors.append(replace(event, at_seq=rebased))
    return tuple(survivors)


def chaos_by_seq(
    events: Sequence[ChaosEvent],
) -> Dict[int, ChaosEvent]:
    """Index a single worker's events by firing position."""
    return {event.at_seq: event for event in events}
