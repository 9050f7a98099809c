"""Golden equivalence for retrospective backfill.

The archive subsystem promises that subscribing late with enough
backfill is *indistinguishable* from having subscribed at stream start:
over the overlap, the combined retro + live match stream is bit-for-bit
(same matches, same similarities, same canonical order) what a service
that carried the query from chunk 0 reports. This suite drives
hypothesis workloads through the configuration the service runs
(Sequential, bit, with the index) and shard counts 1/2/5,
checks the process executor, and kills a service *mid-backfill* to prove a checkpoint
resume loses no retro matches and duplicates none.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archive import SketchArchive
from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.query import Query, QuerySet
from repro.minhash.family import MinHashFamily
from repro.serve import CheckpointManager, DetectionService

CELL_SPACE = 400
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0
WINDOW_FRAMES = 5  # round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND)
SHARD_COUNTS = (1, 2, 5)
LATE_QID = 100
DEEP_BACKFILL = 10**6  # clamped to the archive's retained range

#: The one configuration the service runs.
SERVED = [pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT, True,
                       id="sequential-bit-idx")]


def _config(order, representation, use_index, threshold):
    return DetectorConfig(
        num_hashes=NUM_HASHES,
        threshold=threshold,
        window_seconds=WINDOW_SECONDS,
        order=order,
        representation=representation,
        use_index=use_index,
    )


@st.composite
def backfill_workloads(draw):
    """Base queries, one late query, stream chunks, a subscribe barrier.

    The late query's length is clamped to the longest base query so the
    global ``cap_hint`` is identical whether it subscribes at chunk 0
    or late — the archive's equivalence guarantee then holds exactly.
    """
    family_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_base = draw(st.integers(2, 4))
    queries = {}
    frames = {}
    for qid in range(num_base):
        n = draw(st.integers(8, 40))
        queries[qid] = rng.integers(0, CELL_SPACE, size=n)
        frames[qid] = n
    late_frames = min(draw(st.integers(8, 40)), max(frames.values()))
    late_cells = rng.integers(0, CELL_SPACE, size=late_frames)

    threshold = draw(st.sampled_from([0.05, 0.3, 0.5, 0.7]))
    num_chunks = draw(st.integers(3, 5))
    chunks = []
    for position in range(num_chunks):
        num_windows = draw(st.integers(2, 6))
        length = num_windows * WINDOW_FRAMES
        if position == num_chunks - 1 and draw(st.booleans()):
            length += draw(st.integers(1, WINDOW_FRAMES - 1))
        chunk = rng.integers(0, CELL_SPACE, size=length)
        if draw(st.booleans()):
            source = draw(
                st.sampled_from(sorted(queries) + [LATE_QID])
            )
            copy = np.asarray(
                late_cells if source == LATE_QID else queries[source]
            )[:length]
            at = draw(st.integers(0, length - copy.size))
            chunk[at : at + copy.size] = copy
        chunks.append(chunk)
    subscribe_at = draw(st.integers(1, num_chunks - 1))
    return (
        family_seed, queries, frames, late_cells, late_frames,
        threshold, chunks, subscribe_at,
    )


def _query(family, qid, cells, num_frames):
    distinct = np.unique(np.asarray(cells, dtype=np.int64))
    return Query(qid=qid, cell_ids=distinct, num_frames=num_frames,
                 sketch=family.sketch(distinct))


def _from_start(config, family, queries, frames, late_cells,
                late_frames, chunks, num_workers=1, backend="serial"):
    """Reference: every query (late one included) from chunk 0."""
    all_cells = dict(queries)
    all_frames = dict(frames)
    all_cells[LATE_QID] = late_cells
    all_frames[LATE_QID] = late_frames
    service = DetectionService(
        config,
        QuerySet.from_cell_ids(all_cells, all_frames, family),
        KEYFRAMES_PER_SECOND,
        num_workers=num_workers,
        backend=backend,
    )
    for position, chunk in enumerate(chunks):
        service.run([chunk], flush=position == len(chunks) - 1)
    keys = [_match_key(m) for m in service.all_matches()]
    service.close()
    return keys


def _late_subscribe(config, family, queries, frames, late_cells,
                    late_frames, chunks, subscribe_at, num_workers=1,
                    backend="serial", directory=None):
    """Candidate: late query joins at ``subscribe_at`` with deep
    backfill over an archive taken since chunk 0."""
    archive = SketchArchive(
        family.fingerprint, NUM_HASHES,
        directory=directory, segment_windows=8,
    )
    service = DetectionService(
        config,
        QuerySet.from_cell_ids(queries, frames, family),
        KEYFRAMES_PER_SECOND,
        num_workers=num_workers,
        backend=backend,
        archive=archive,
        backfill_async=False,
    )
    late = _query(family, LATE_QID, late_cells, late_frames)
    for position, chunk in enumerate(chunks):
        service.run([chunk], flush=position == len(chunks) - 1)
        if position + 1 == subscribe_at:
            service.subscribe(late, backfill=DEEP_BACKFILL)
    assert service.drain_backfill()
    keys = [_match_key(m) for m in service.all_matches()]
    assert service.retro_matches or True  # stream may simply not match
    service.close()
    return keys


# ----------------------------------------------------------------------
# the served configuration, shards 1/2/5
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order,representation,use_index", SERVED)
@settings(max_examples=6, deadline=None)
@given(workload=backfill_workloads())
def test_late_subscribe_backfill_equals_from_start(
    order, representation, use_index, workload
):
    (family_seed, queries, frames, late_cells, late_frames,
     threshold, chunks, subscribe_at) = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    config = _config(order, representation, use_index, threshold)
    reference = _from_start(
        config, family, queries, frames, late_cells, late_frames, chunks
    )
    for num_workers in SHARD_COUNTS:
        got = _late_subscribe(
            config, family, queries, frames, late_cells, late_frames,
            chunks, subscribe_at, num_workers=num_workers,
        )
        assert got == reference


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["process"])
def test_backfill_across_executor_backends(backend):
    """Retro equivalence holds when shards run on real executors."""
    rng = np.random.default_rng(23)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=9)
    queries = {0: rng.integers(0, CELL_SPACE, size=25),
               1: rng.integers(0, CELL_SPACE, size=35)}
    frames = {0: 25, 1: 35}
    late_cells = rng.integers(0, CELL_SPACE, size=30)
    chunks = []
    for position in range(5):
        chunk = rng.integers(0, CELL_SPACE, size=7 * WINDOW_FRAMES)
        if position % 2 == 0:
            chunk[: late_cells.size] = late_cells
        chunks.append(chunk)
    config = _config(
        CombinationOrder.SEQUENTIAL, Representation.BIT, True, 0.3
    )
    reference = _from_start(
        config, family, queries, frames, late_cells, 30, chunks
    )
    got = _late_subscribe(
        config, family, queries, frames, late_cells, 30, chunks,
        subscribe_at=3, num_workers=2, backend=backend,
    )
    assert got == reference


# ----------------------------------------------------------------------
# mid-backfill kill / resume
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "order,representation,use_index",
    [
        pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT,
                     True, id="seq-bit-idx"),
    ],
)
@settings(max_examples=5, deadline=None)
@given(workload=backfill_workloads(), pump=st.integers(0, 12))
def test_mid_backfill_kill_resume_loses_and_duplicates_nothing(
    order, representation, use_index, workload, pump
):
    """Kill a service while a backfill job is mid-flight; the resumed
    service finishes the job and the combined stream is exactly the
    uninterrupted run's — no retro match lost, none emitted twice."""
    (family_seed, queries, frames, late_cells, late_frames,
     threshold, chunks, subscribe_at) = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    config = _config(order, representation, use_index, threshold)
    reference = _from_start(
        config, family, queries, frames, late_cells, late_frames, chunks
    )
    late = _query(family, LATE_QID, late_cells, late_frames)

    with tempfile.TemporaryDirectory() as scratch:
        arch_dir = Path(scratch) / "arch"
        manager = CheckpointManager(Path(scratch) / "ckpt")
        archive = SketchArchive(
            family.fingerprint, NUM_HASHES,
            directory=arch_dir, segment_windows=8,
        )
        service = DetectionService(
            config,
            QuerySet.from_cell_ids(queries, frames, family),
            KEYFRAMES_PER_SECOND,
            num_workers=2,
            archive=archive,
            backfill_async=False,
        )
        for position in range(subscribe_at):
            service.run([chunks[position]], flush=False)
        service.subscribe(late, backfill=DEEP_BACKFILL)
        # Probe only part of the job, then die at the chunk barrier.
        service.pump_backfill(pump)
        progress = service.backfill_progress()
        service.checkpoint(manager)
        service.close()

        revived_archive = SketchArchive(
            family.fingerprint, NUM_HASHES,
            directory=arch_dir, segment_windows=8,
        )
        revived = DetectionService.restore(
            manager,
            expected_config=config,
            archive=revived_archive,
            backfill_async=False,
        )
        # The in-flight job survived the round trip.
        assert revived.backfill_progress() == progress
        for position in range(subscribe_at, len(chunks)):
            revived.run(
                [chunks[position]], flush=position == len(chunks) - 1
            )
        assert revived.drain_backfill()
        got = [_match_key(m) for m in revived.all_matches()]
        revived.close()

    assert got == reference
