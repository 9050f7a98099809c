"""Sketch archive + retrospective backfill for late-subscribed queries.

The live pipeline evaluates each basic window once, against the queries
subscribed *at that moment*, and moves on. This package retains the
query-independent half of that work — every window's K-min sketch and
coordinates — in a bounded in-memory ring
(:class:`~repro.archive.ring.SketchArchive`) that seals full contiguous
runs to disk as atomic, CRC-guarded ``repro.arch/1`` segments
(:class:`~repro.archive.store.SegmentStore`, with retention by
windows/bytes/age, compaction of gap-stranded runts and crash-safe
recovery). When a query subscribes late with ``backfill=N``, the
:class:`~repro.archive.backfill.BackfillEngine` replays the archived
windows through a single-query detector on the same columnar kernels
the live path uses, emitting ``retro`` matches that are bit-for-bit
what the query would have reported from stream start over the overlap.

See ``docs/archive.md`` for the file format, retention semantics and
the equivalence argument.
"""

from repro.archive.backfill import BackfillEngine, BackfillJob
from repro.archive.ring import SketchArchive
from repro.archive.store import ARCHIVE_FORMAT, SegmentInfo, SegmentStore

__all__ = [
    "ARCHIVE_FORMAT",
    "BackfillEngine",
    "BackfillJob",
    "SegmentInfo",
    "SegmentStore",
    "SketchArchive",
]
