"""The single-process oracle: bitstream / frame chunks in, matches out.

:class:`StreamingDetector` consumes whole basic windows of cell ids; a
stream arrives in arbitrary-sized chunks — a few encoded GOPs from a
capture card, a burst of key frames. :class:`LiveMonitor` is the
in-process adapter: it runs the compressed-domain feature pipeline on
whatever arrives (encoded bitstreams via the partial decoder, raw
frames via the pixel path, or pre-extracted cell ids), buffers the
signature stream, and feeds one detector exactly one basic window at a
time.

It is the reference every served configuration is held to: the
service's :class:`~repro.serve.frontend.StreamFrontend` cuts windows and
gaps exactly as :meth:`LiveMonitor.push_cell_ids` and
:meth:`LiveMonitor.skip_frames` do, and the equivalence suites compare
the two. The runtime (ingest, serve, gateway, archive) never uses it;
the evaluation runner and the examples do.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codec.gop import EncodedVideo
from repro.core.detector import StreamingDetector
from repro.core.results import Match
from repro.errors import DetectionError
from repro.features.pipeline import FingerprintExtractor
from repro.video.clip import VideoClip

__all__ = ["LiveMonitor"]


class LiveMonitor:
    """Incremental front end for a :class:`StreamingDetector`.

    Parameters
    ----------
    detector:
        The configured detector (queries already subscribed).
    extractor:
        Fingerprint pipeline used for encoded/raw-frame input; must use
        the same configuration the query fingerprints were built with.
        Optional: a monitor fed pre-extracted cell ids only (the
        evaluation runner, the equivalence oracles) may omit it, in
        which case :meth:`push_encoded` / :meth:`push_frames` raise
        :class:`~repro.errors.DetectionError`.

    Example
    -------
    >>> monitor = LiveMonitor(detector, extractor)     # doctest: +SKIP
    >>> for chunk in capture_card:                     # doctest: +SKIP
    ...     for match in monitor.push_encoded(chunk):
    ...         alert(match)
    >>> monitor.flush()                                # doctest: +SKIP
    """

    def __init__(
        self,
        detector: StreamingDetector,
        extractor: Optional[FingerprintExtractor] = None,
    ) -> None:
        self.detector = detector
        self.extractor = extractor
        self._pending = np.empty(0, dtype=np.int64)
        self._flushed = False
        # Real frames still to arrive and be dropped so that the next
        # kept frame lands on a basic-window boundary (see skip_frames).
        # Invariant: _skip_remaining > 0 implies _pending is empty.
        self._skip_remaining = 0

    def _require_extractor(self) -> FingerprintExtractor:
        if self.extractor is None:
            raise DetectionError(
                "this LiveMonitor was built without a fingerprint "
                "extractor; push pre-extracted cell ids instead"
            )
        return self.extractor

    @property
    def pending_frames(self) -> int:
        """Key frames buffered but not yet forming a full basic window."""
        return int(self._pending.shape[0])

    @property
    def skip_remaining(self) -> int:
        """Arriving frames still to be dropped to re-align the window
        clock after a :meth:`skip_frames` gap."""
        return self._skip_remaining

    @property
    def frames_consumed(self) -> int:
        """Key frames already handed to the detector.

        Reads the registry's exact frame counter rather than deriving
        ``windows_processed * window_frames`` — the latter overcounts
        once :meth:`flush` has processed a partial tail window, which
        contributes fewer than ``window_frames`` frames.
        """
        return self.detector.frames_processed

    # ------------------------------------------------------------------
    # input adapters
    # ------------------------------------------------------------------

    def push_encoded(self, encoded: EncodedVideo) -> List[Match]:
        """Feed an encoded bitstream chunk (I frames partially decoded)."""
        extractor = self._require_extractor()
        return self.push_cell_ids(extractor.cell_ids_from_encoded(encoded))

    def push_frames(
        self, frames: Union[np.ndarray, VideoClip]
    ) -> List[Match]:
        """Feed raw key frames (or a clip) through the pixel path."""
        extractor = self._require_extractor()
        if isinstance(frames, VideoClip):
            frames = frames.frames
        return self.push_cell_ids(extractor.cell_ids_from_frames(frames))

    def push_cell_ids(
        self, cell_ids: Union[Sequence[int], np.ndarray]
    ) -> List[Match]:
        """Feed pre-extracted frame signatures.

        Buffers until whole basic windows are available, then runs the
        detector on them; returns any matches produced by this push.
        """
        if self._flushed:
            raise DetectionError(
                "monitor already flushed; create a new LiveMonitor to "
                "process another stream"
            )
        ids = np.asarray(cell_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise DetectionError(
                f"cell ids must be 1-D, got shape {ids.shape}"
            )
        if self._skip_remaining:
            # The leading frames of this push fall inside a window
            # already sacrificed to a gap: drop them without touching
            # the clock (acknowledge_gap advanced it past them).
            drop = min(self._skip_remaining, int(ids.shape[0]))
            if drop:
                ids = ids[drop:]
                self._skip_remaining -= drop
                self.detector.stats.frames_skipped += drop
        self._pending = np.concatenate([self._pending, ids])
        window_frames = self.detector.window_frames
        full = (self._pending.shape[0] // window_frames) * window_frames
        if full == 0:
            return []
        ready, self._pending = self._pending[:full], self._pending[full:]
        return self.detector.process_cell_ids(ready)

    def skip_frames(self, count: int) -> None:
        """Acknowledge that ``count`` stream frames cannot be delivered.

        A decode-side gap (corrupt GOP, dropped chunk) means the frames
        existed in the stream but will never reach the detector. Simply
        not pushing them would silently shift every later window index
        and match position; ``skip_frames`` instead keeps the stream
        clock honest by sacrificing every basic window the gap overlaps:

        * buffered frames of the current partial window are dropped
          (their window can never complete cleanly),
        * the detector clock is advanced over all touched windows via
          :meth:`~repro.core.detector.StreamingDetector.acknowledge_gap`,
        * if the gap ends mid-window, the remaining real frames of that
          window are dropped as they arrive (``skip_remaining``), so the
          next kept frame starts exactly on a window boundary.

        Every frame lost this way — the ``count`` gap frames plus any
        intact frames sacrificed with their window — is accounted in the
        ``stream.frames_skipped`` counter; sacrificed windows are
        counted in ``stream.windows_skipped``.
        """
        if self._flushed:
            raise DetectionError(
                "monitor already flushed; create a new LiveMonitor to "
                "process another stream"
            )
        count = int(count)
        if count < 0:
            raise DetectionError(f"cannot skip a negative frame count ({count})")
        if count == 0:
            return
        window_frames = self.detector.window_frames
        clock = self.detector.frames_processed
        if self._skip_remaining:
            position = clock - self._skip_remaining
        else:
            position = clock + int(self._pending.shape[0])
        dropped_pending = int(self._pending.shape[0])
        if dropped_pending:
            self._pending = np.empty(0, dtype=np.int64)
        end = position + count
        boundary = -(-end // window_frames) * window_frames
        if boundary > clock:
            self.detector.acknowledge_gap((boundary - clock) // window_frames)
        self._skip_remaining = max(boundary, clock) - end
        self.detector.stats.frames_skipped += count + dropped_pending

    def flush(self) -> List[Match]:
        """Process the trailing partial window (end of stream).

        After flushing, further pushes are rejected: the detector's
        window clock can no longer stay aligned. Flushing with a pending
        gap (``skip_remaining > 0``) is legal — there is nothing to
        process, and the clock stays at the already-acknowledged window
        boundary (a deliberate overshoot past the true stream end).
        """
        if self._flushed:
            return []
        self._flushed = True
        self._skip_remaining = 0
        if self._pending.shape[0] == 0:
            return []
        tail, self._pending = self._pending, np.empty(0, dtype=np.int64)
        return self.detector.process_cell_ids(tail)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------

    def buffer_state(self) -> Tuple[np.ndarray, bool, int]:
        """``(pending cell ids, flushed, skip_remaining)`` — the
        monitor's restorable state, captured for checkpointing
        (``repro.serve``)."""
        return self._pending.copy(), self._flushed, self._skip_remaining

    def restore_buffer(
        self,
        pending: np.ndarray,
        flushed: bool,
        skip_remaining: int = 0,
    ) -> None:
        """Reinstate a :meth:`buffer_state` snapshot on a fresh monitor."""
        pending = np.asarray(pending, dtype=np.int64).copy()
        skip_remaining = int(skip_remaining)
        if skip_remaining < 0:
            raise DetectionError(
                f"skip_remaining cannot be negative ({skip_remaining})"
            )
        if skip_remaining and pending.shape[0]:
            raise DetectionError(
                "corrupt monitor snapshot: pending frames alongside an "
                "unfinished gap window"
            )
        self._pending = pending
        self._flushed = bool(flushed)
        self._skip_remaining = skip_remaining
