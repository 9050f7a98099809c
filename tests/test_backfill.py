"""Golden equivalence for retrospective backfill.

The archive subsystem promises that subscribing late with enough
backfill is *indistinguishable* from having subscribed at stream start:
over the overlap, the combined retro + live match stream is bit-for-bit
(same matches, same similarities, same canonical order) what a service
that carried the query from chunk 0 reports. This suite drives
hypothesis workloads through the configuration the service runs
(Sequential, bit, with the index) and shard counts 1/2/5, in both
orders a caller may end a stream in (drain backfill, then flush; or
flush, then drain), checks the process executor, and kills a service
*mid-backfill* to prove a checkpoint resume loses no retro matches and
duplicates none.
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
from repro.errors import ArchiveError, ServeError
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
#: ``drain_first``: drain backfill before the final flush (the CLI's
#: order) or after it.
DRAIN_ORDERS = (True, False)

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


def _finish(service, drain_first):
    """End the stream in the given order: drain backfill, then flush
    (the CLI's order), or flush, then drain; return the combined
    stream's match keys. Either way, flush must leave no job pending
    and every job's windows done."""
    if drain_first:
        service.drain_backfill()
    service.flush()
    assert service.drain_backfill()
    assert all(
        done == total
        for total, done, _ in service.backfill_progress().values()
    )
    return [_match_key(m) for m in service.all_matches()]


def _late_subscribe(config, family, queries, frames, late_cells,
                    late_frames, chunks, subscribe_at, num_workers=1,
                    backend="serial", directory=None, drain_first=True):
    """Candidate: late query joins at ``subscribe_at`` with deep
    backfill over an archive taken since chunk 0, pumped after every
    chunk, the stream ended in the ``drain_first`` order."""
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
        service.run([chunk], flush=False)
        if position + 1 == subscribe_at:
            service.subscribe(late, backfill=DEEP_BACKFILL)
        service.pump_backfill()
    keys = _finish(service, drain_first)
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
        for drain_first in DRAIN_ORDERS:
            got = _late_subscribe(
                config, family, queries, frames, late_cells, late_frames,
                chunks, subscribe_at, num_workers=num_workers,
                drain_first=drain_first,
            )
            assert got == reference, (num_workers, drain_first)


def test_draining_before_the_final_flush_keeps_the_tail_match():
    """The tail window is archived by the final flush, after a
    drain-first caller's last pump: flush must probe it itself.

    Chunks of 10/10/11 frames (window 6 is the one-frame tail), the
    late query subscribed after chunk 1, δ = 0.05: the from-start run
    matches the late query at the tail window, and both drain orders
    must report it.
    """
    rng = np.random.default_rng(2)
    queries = {0: rng.integers(0, CELL_SPACE, size=30),
               1: rng.integers(0, CELL_SPACE, size=24)}
    frames = {0: 30, 1: 24}
    late_cells = rng.integers(0, CELL_SPACE, size=24)
    chunks = [rng.integers(0, CELL_SPACE, size=n) for n in (10, 10, 11)]
    chunks[1][:10] = late_cells[:10]
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=11)
    config = _config(
        CombinationOrder.SEQUENTIAL, Representation.BIT, True, 0.05
    )
    reference = _from_start(
        config, family, queries, frames, late_cells, 24, chunks
    )
    assert any(
        key[0] == LATE_QID and key[1] == 6 for key in reference
    ), "the tail window must hold a late-query match"
    for drain_first in DRAIN_ORDERS:
        got = _late_subscribe(
            config, family, queries, frames, late_cells, 24, chunks,
            subscribe_at=1, drain_first=drain_first,
        )
        assert got == reference, drain_first


def test_backfill_runs_only_when_pumped():
    """There is no backfill thread: asking for one is refused, and a
    job advances only when the caller pumps it."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=3)
    config = _config(
        CombinationOrder.SEQUENTIAL, Representation.BIT, True, 0.3
    )
    queries = QuerySet.from_cell_ids(
        {0: np.arange(20)}, {0: 20}, family
    )
    archive = SketchArchive(family.fingerprint, NUM_HASHES)
    with pytest.raises(ServeError, match="pump_backfill"):
        DetectionService(
            config, queries, KEYFRAMES_PER_SECOND,
            archive=archive, backfill_async=True,
        )
    service = DetectionService(
        config, queries, KEYFRAMES_PER_SECOND,
        archive=archive, backfill_async=False,
    )
    try:
        service.run([np.arange(40) % CELL_SPACE], flush=False)
        late = _query(family, LATE_QID, np.arange(20, 40), 20)
        service.subscribe(late, backfill=DEEP_BACKFILL)
        total, done, _ = service.backfill_progress()[LATE_QID]
        assert total > 0 and done == 0
        assert service.pump_backfill(3) == 3
        assert service.backfill_progress()[LATE_QID][1] == 3
        service.flush()
        total, done, _ = service.backfill_progress()[LATE_QID]
        assert done == total
    finally:
        service.close()


def _damage_sealed_segments(directory):
    """Rewrite every sealed segment's payload without refreshing its
    CRC, so loading it raises ``ArchiveError``."""
    for path in sorted(Path(directory).glob("seg-*.npz")):
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        members["starts"] = members["starts"] + 1
        np.savez(path, **members)


def test_backfill_failure_at_flush_keeps_the_live_tail(tmp_path):
    """A sealed segment that fails its CRC check makes the final
    flush's backfill raise ``ArchiveError`` only after the live tail is
    merged: the live stream equals an undamaged run's. The failed job
    is retired with the windows it probed, so nothing stays pending and
    a repeated flush raises nothing."""
    rng = np.random.default_rng(5)
    queries = {0: rng.integers(0, CELL_SPACE, size=20)}
    frames = {0: 20}
    stream = rng.integers(0, CELL_SPACE, size=133)
    stream[113:133] = queries[0]
    chunks = np.split(stream, [50, 100])
    late_cells = rng.integers(0, CELL_SPACE, size=20)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=7)
    config = _config(
        CombinationOrder.SEQUENTIAL, Representation.BIT, True, 0.3
    )

    def run_until_flush(directory):
        service = DetectionService(
            config,
            QuerySet.from_cell_ids(queries, frames, family),
            KEYFRAMES_PER_SECOND,
            archive=SketchArchive(
                family.fingerprint, NUM_HASHES,
                directory=directory, segment_windows=8,
            ),
            backfill_async=False,
        )
        for chunk in chunks:
            service.run([chunk], flush=False)
        service.subscribe(
            _query(family, LATE_QID, late_cells, 20), backfill=DEEP_BACKFILL
        )
        return service

    clean = run_until_flush(tmp_path / "clean")
    damaged = run_until_flush(tmp_path / "damaged")
    try:
        tail = clean.flush()
        assert any(match.qid == 0 for match in tail)
        _damage_sealed_segments(tmp_path / "damaged")
        with pytest.raises(ArchiveError, match=f"query {LATE_QID}"):
            damaged.flush()
        assert damaged.matches == clean.matches
        assert damaged.drain_backfill()
        total, done, _ = damaged.backfill_progress()[LATE_QID]
        assert done < total
        assert damaged.flush() == []
    finally:
        clean.close()
        damaged.close()


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
@given(
    workload=backfill_workloads(),
    pump=st.integers(0, 12),
    drain_first=st.booleans(),
)
def test_mid_backfill_kill_resume_loses_and_duplicates_nothing(
    order, representation, use_index, workload, pump, drain_first
):
    """Kill a service while a backfill job is mid-flight; the resumed
    service finishes the job (pumped after every chunk, the stream
    ended in either drain order) and the combined stream is exactly
    the uninterrupted run's — no retro match lost, none emitted
    twice."""
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
        )
        # The in-flight job survived the round trip.
        assert revived.backfill_progress() == progress
        for position in range(subscribe_at, len(chunks)):
            revived.run([chunks[position]], flush=False)
            revived.pump_backfill()
        got = _finish(revived, drain_first)
        revived.close()

    assert got == reference
