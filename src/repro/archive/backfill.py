"""Retrospective probing of archived windows for late-subscribed queries.

A query subscribed mid-stream is blind to everything already streamed.
The :class:`BackfillEngine` closes that gap: when
``DetectionService.subscribe(query, backfill=N)`` is requested, it
builds a **single-query** :class:`~repro.core.detector.StreamingDetector`
and replays the archived windows ``[live_start - N, live_start)``
through it, exactly as a live worker would have — same
:meth:`~repro.core.detector.StreamingDetector.process_batch` entry, one
archived block per call, same index probe, same columnar kernels, same
Lemma 2 pruning.

**Why a single-query replay is exact.** In the sharded service a
query's match stream depends only on its own candidate state, except
candidate expiry, which uses the *global* cap hint; the engine is
therefore constructed with the service's cap hint at subscription time
(which already includes the new query). Replaying from window 0 — or
from any point at least one candidate horizon before the overlap of
interest — reproduces bit-for-bit the matches the query would have
reported had it been subscribed from stream start. That is the golden
guarantee the equivalence suite pins down.

**Epoch boundary / dedupe.** ``live_start`` is the front end's
``windows_emitted`` at the subscription barrier: every window below it
was processed live *without* the query, every window at or above it
*with* it. The two streams partition the match axis by **candidate
start**, not by match window: a candidate that began before the
barrier spans it, and the live engine cannot evaluate it faithfully —
engine candidates created before the subscribe carry *empty*
signatures for the new query over the pre-subscribe windows, so their
matches (and misses) are phantoms of partial information. The job
therefore probes one candidate horizon **past** the barrier, to
``live_start + cap_hint``, where every boundary-spanning candidate has
expired: the replay detector — which has the full archived history —
emits exactly the matches whose candidate started below ``live_start``,
and the service suppresses the live engine's matches for this query in
that same start range (:meth:`BackfillEngine.suppress_bounds`).
Matches whose candidate starts at or after ``live_start`` are the live
engine's alone — its post-barrier candidates are built from complete
information and equal the from-start run's bit for bit. No match is
double-reported, none is phantom, and the union is exactly the
from-start stream.

**Pumped by its caller.** Jobs run only when the service's caller
pumps them (:meth:`BackfillEngine.pump`), on the caller's thread and
at a chunk barrier, in steps of at most :data:`SLICE_WINDOWS` windows;
the service's final ``flush`` finishes every job. So retro matches
land at a deterministic point of the stream, and a checkpoint (taken
between calls) always sees ``emitted_through`` watermarks consistent
with the retro matches already collected. A resumed job re-probes from
its ``start`` (candidate state is cheap to rebuild and deterministic)
but suppresses emission below the watermark: no retro match is lost,
none is duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.query import Query, QuerySet
from repro.core.results import Match
from repro.errors import ArchiveError
from repro.minhash.family import MinHashFamily
from repro.minhash.windows import WindowBlock
from repro.obs.registry import MetricsRegistry
from repro.archive.ring import SketchArchive

__all__ = ["BackfillEngine", "BackfillJob", "SLICE_WINDOWS"]

#: Windows one probe step reads from the archive and replays; it bounds
#: the blocks a single ``iter_blocks`` call loads into memory.
SLICE_WINDOWS = 128


@dataclass
class BackfillJob:
    """One query's retrospective probe over ``[start, end)``.

    ``live_start`` is the subscription barrier (the first window the
    live engine processed *with* the query); ``end`` extends one
    candidate horizon past it so boundary-spanning candidates are
    evaluated with full information. Only matches whose candidate
    started below ``live_start`` are emitted. ``emitted_through`` is
    the exclusive window watermark below which retro matches have
    already been handed to the collector — the resume-suppression
    point persisted in the service checkpoint. ``failed`` marks a job
    retired because the archive could not load its windows; it is
    ``done`` but reports only the windows it probed.
    """

    query: Query
    start: int
    end: int
    cap_hint: int
    live_start: int = -1
    emitted_through: int = -1
    requested: int = 0
    probed: int = 0
    retro_found: int = 0
    done: bool = False
    cancelled: bool = False
    failed: bool = False
    pin_token: Optional[int] = None
    _detector: Optional[StreamingDetector] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.emitted_through < 0:
            self.emitted_through = self.start
        if self.live_start < 0:
            self.live_start = self.end

    @property
    def qid(self) -> int:
        return self.query.qid

    @property
    def total_windows(self) -> int:
        return max(0, self.end - self.start)

    @property
    def done_windows(self) -> int:
        if self.done and not self.failed:
            return self.total_windows
        return max(0, min(self.emitted_through, self.end) - self.start)

    def as_tuple(self) -> Tuple[int, int, int, int, int, int, int]:
        """Checkpoint row:
        ``(qid, start, live_start, end, emitted, cap_hint, found)``."""
        return (
            self.qid,
            self.start,
            self.live_start,
            self.end,
            self.emitted_through,
            self.cap_hint,
            self.retro_found,
        )


class BackfillEngine:
    """Runs backfill jobs against a :class:`SketchArchive`.

    Parameters
    ----------
    config / family / keyframes_per_second:
        The service's detector configuration and stream cadence; the
        replay detector is built with exactly these.
    archive:
        The archive to probe. Its family fingerprint must match.
    emit:
        Callback receiving each slice's retro matches in canonical
        order (the service points this at
        ``MatchCollector.add_retro``).
    registry:
        Service registry for ``archive.backfill_*`` / ``retro_matches``.

    Jobs stay queued until :meth:`pump` (or :meth:`drain`) runs them.
    """

    def __init__(
        self,
        config: DetectorConfig,
        family: MinHashFamily,
        keyframes_per_second: float,
        archive: SketchArchive,
        emit: Callable[[List[Match]], None],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if family.fingerprint != archive.family_fingerprint:
            raise ArchiveError(
                "backfill family does not match the archive's: "
                f"{family.fingerprint} vs {archive.family_fingerprint}"
            )
        self.config = config
        self.family = family
        self.keyframes_per_second = float(keyframes_per_second)
        self.window_frames = max(
            1, round(config.window_seconds * keyframes_per_second)
        )
        self.archive = archive
        self.emit = emit
        self.registry = registry or MetricsRegistry(timing_enabled=False)
        self.jobs: List[BackfillJob] = []
        self.registry.inc("archive.backfill_probes", 0)
        self.registry.inc("archive.backfill_jobs", 0)
        self.registry.inc("archive.backfill_failures", 0)
        self.registry.inc("archive.retro_matches", 0)

    # -- job admission -------------------------------------------------

    def request(
        self,
        query: Query,
        backfill: int,
        live_start: int,
        cap_hint: int,
    ) -> BackfillJob:
        """Queue a retrospective probe of the last ``backfill`` windows
        before ``live_start``, clamped to what the archive retains.

        The probe extends to ``live_start + cap_hint`` so candidates
        that span the subscription barrier reach expiry under full
        information; windows past ``live_start`` arrive in the archive
        as the live stream advances, and the job simply waits for them
        (:meth:`finalize` truncates the horizon when the stream ends).
        """
        if backfill < 0:
            raise ArchiveError(
                f"backfill must be >= 0, got {backfill}"
            )
        if query.sketch.family != self.family.fingerprint:
            raise ArchiveError(
                f"query {query.qid} was sketched under a different "
                "family than the archive"
            )
        lo, _ = self.archive.available()
        start = max(lo, live_start - backfill)
        job = BackfillJob(
            query=query,
            start=start,
            end=live_start + int(cap_hint) if start < live_start else start,
            cap_hint=int(cap_hint),
            live_start=int(live_start),
            requested=int(backfill),
        )
        if job.total_windows == 0:
            # Nothing retained below the barrier: nothing to replay, so
            # the legacy join semantics (no shadow, no suppression)
            # apply.
            job.done = True
        else:
            job.pin_token = self.archive.pin(job.start, job.end)
        self.jobs.append(job)
        self.registry.inc("archive.backfill_jobs")
        return job

    def restore_job(
        self,
        row: Tuple[int, int, int, int, int, int, int],
        queries: Dict[int, Query],
    ) -> Optional[BackfillJob]:
        """Re-queue a checkpointed job; ``None`` if its query is gone."""
        qid, start, live_start, end, emitted, cap_hint, found = (
            int(v) for v in row
        )
        query = queries.get(qid)
        if query is None:
            return None
        job = BackfillJob(
            query=query,
            start=start,
            end=end,
            cap_hint=cap_hint,
            live_start=live_start,
            emitted_through=emitted,
            retro_found=found,
        )
        if job.emitted_through >= job.end:
            job.done = True
        else:
            job.pin_token = self.archive.pin(job.start, job.end)
        self.jobs.append(job)
        return job

    def cancel(self, qid: int) -> None:
        """Abandon any in-flight or queued jobs for ``qid``
        (unsubscribe during backfill). Completed jobs are cancelled
        too: their live-suppression bound must not outlive the
        subscription, or a later re-subscribe of the same qid would
        inherit a stale boundary."""
        for job in self.jobs:
            if job.qid == qid and not job.cancelled:
                job.cancelled = True
                if not job.done:
                    job.done = True
                    self._release_pin(job)

    # -- execution -----------------------------------------------------

    def pump(self, max_windows: Optional[int] = None) -> int:
        """Probe up to ``max_windows`` archived windows (all that are
        ready when ``None``) on the caller's thread; returns windows
        probed (0 when no job can advance).

        Jobs run oldest first; a job waiting on windows the live stream
        has not archived yet stops the pump until more arrive. A job
        whose windows the archive cannot load (a sealed segment that
        fails its format or CRC check) is retired as ``failed`` and the
        :class:`~repro.errors.ArchiveError` raised; later pumps go on
        with the other jobs.
        """
        probed = 0
        while max_windows is None or probed < max_windows:
            job = next((job for job in self.jobs if not job.done), None)
            if job is None:
                break
            step = SLICE_WINDOWS
            if max_windows is not None:
                step = min(step, max_windows - probed)
            try:
                advanced = self._probe_slice(job, step)
            except ArchiveError as exc:
                job.done = job.failed = True
                job._detector = None
                self._release_pin(job)
                self.registry.inc("archive.backfill_failures")
                raise ArchiveError(
                    f"backfill of query {job.qid} failed: {exc}"
                ) from exc
            if advanced == 0:
                break
            probed += advanced
        return probed

    def _probe_slice(self, job: BackfillJob, max_windows: int) -> int:
        """Probe one slice of ``job``, at most ``max_windows`` long."""
        if job._detector is None:
            job._detector = StreamingDetector(
                self.config,
                QuerySet([job.query], self.family),
                self.keyframes_per_second,
                registry=MetricsRegistry(timing_enabled=False),
                cap_hint=job.cap_hint,
            )
            job._cursor = job.start
        detector = job._detector
        cursor = job._cursor
        # Never advance past the archive watermark: the shadow stretch
        # of the job waits for the live stream to archive its windows.
        upto = min(
            job.end,
            cursor + max_windows,
            max(cursor, self.archive.next_index),
        )
        if upto <= cursor:
            return 0
        # Only matches whose candidate began before the subscription
        # barrier belong to the retro stream; later starts are the live
        # engine's (which the service leaves unsuppressed).
        boundary_frame = job.live_start * self.window_frames
        probed = 0
        emitted: List[Match] = []
        for indices, starts, frames, values in self.archive.iter_blocks(
            cursor, upto
        ):
            per_window = detector.process_batch(
                WindowBlock(indices, starts, frames, values)
            )
            probed += indices.shape[0]
            for index, matches in zip(indices.tolist(), per_window):
                if index >= job.emitted_through:
                    emitted.extend(
                        match for match in matches
                        if match.start_frame < boundary_frame
                    )
        self.registry.inc("archive.backfill_probes", probed)
        job.probed += probed
        if emitted:
            emitted.sort(
                key=lambda m: (m.window_index, m.start_frame, m.qid)
            )
            self.emit(emitted)
            job.retro_found += len(emitted)
            self.registry.inc("archive.retro_matches", len(emitted))
        job._cursor = upto
        job.emitted_through = max(job.emitted_through, upto)
        if upto >= job.end:
            job.done = True
            job._detector = None
            self._release_pin(job)
        return upto - cursor

    def _release_pin(self, job: BackfillJob) -> None:
        if job.pin_token is not None:
            self.archive.unpin(job.pin_token)
            job.pin_token = None

    def finalize(self) -> None:
        """Truncate every job's horizon to the archive watermark and
        run every job to completion: the stream has ended, so the
        shadow windows a job was waiting for will never arrive. Called
        by the service's final flush, after the tail window is
        archived. A failed job does not stop the others; the first
        failure is raised once every job has ended."""
        for job in self.jobs:
            if job.done:
                continue
            job.end = min(job.end, max(job.start, self.archive.next_index))
            if job.emitted_through >= job.end:
                job.done = True
                job._detector = None
                self._release_pin(job)
        failure: Optional[ArchiveError] = None
        while True:
            try:
                self.pump()
                break
            except ArchiveError as exc:
                # pump retired the failing job; go on with the rest.
                failure = failure or exc
        if failure is not None:
            raise failure

    def drain(self) -> bool:
        """Pump every job as far as the archive allows; returns whether
        none is left pending (a job waiting on windows the live stream
        has not archived yet stays pending until a later pump or the
        final flush)."""
        self.pump()
        return not self.pending

    # -- introspection / checkpoint -----------------------------------

    @property
    def pending(self) -> bool:
        return any(not job.done for job in self.jobs)

    def progress(self) -> Dict[int, Tuple[int, int, int]]:
        """qid → ``(total, done, retro_found)`` over that qid's jobs."""
        out: Dict[int, Tuple[int, int, int]] = {}
        for job in self.jobs:
            total, done, found = out.get(job.qid, (0, 0, 0))
            out[job.qid] = (
                total + job.total_windows,
                done + job.done_windows,
                found + job.retro_found,
            )
        return out

    def suppress_bounds(self) -> Dict[int, int]:
        """qid → start-frame bound below which the live engine's
        matches are phantoms (candidates that predate the query's
        subscription, evaluated with empty pre-barrier signatures).
        The replay detector emits the true matches for those starts,
        so the service drops the live ones. Bounds persist after a job
        completes (inert by then: the spanning candidates have
        expired) and die with :meth:`cancel`."""
        bounds: Dict[int, int] = {}
        for job in self.jobs:
            if job.cancelled or job.start >= job.live_start:
                continue
            frame = job.live_start * self.window_frames
            bounds[job.qid] = max(bounds.get(job.qid, 0), frame)
        return bounds

    def checkpoint_rows(
        self,
    ) -> List[Tuple[int, int, int, int, int, int, int]]:
        """Unfinished jobs as service-checkpoint rows
        (:meth:`BackfillJob.as_tuple`)."""
        return [job.as_tuple() for job in self.jobs if not job.done]
