"""``StreamSession.process_chunks``: one call over a list of chunks has
the outcomes of a loop of ``process_chunk`` calls.

The list mixes every per-chunk path the session has — duplicates, seq
gaps (with and without ``chunk_keyframes_hint``), key frames destroyed
by a flipped bit under each degradation policy, a ``fail``-policy error
and a foreign stream's chunk mid-list — and the batched twin must still
agree with the loop twin on each chunk's matches or error, on every
``ingest.*`` counter, on the service's match stream and on the engine
counters, while making fewer service calls.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import functools

import numpy as np
import pytest

from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.errors import ReproError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest import (
    DegradationPolicy, StreamChunk, StreamSession, SyntheticSource,
)
from repro.minhash.family import MinHashFamily
from repro.serve import DetectionService
from tests.test_ingest_scheduler import _corrupt_keyframe_bit

KEYFRAMES_PER_SECOND = 2.0
NUM_CHUNKS = 12
DAMAGED = (3, 8)
#: (stream, seq) in delivery order: a duplicate of the previous chunk, a
#: damaged chunk, one chunk lost (5), a stale replay, a foreign stream's
#: chunk, a second damaged chunk and two chunks lost (9, 10).
DELIVERY = ((0, 0), (0, 1), (0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
            (0, 7), (0, 0), (1, 7), (0, 8), (0, 11))


@functools.lru_cache(maxsize=None)
def _workload():
    """Encoded 4-key-frame chunks (windows are 5 key frames, so some
    chunks complete none), two of them damaged, and two queries cut
    from the clean stream."""
    source = SyntheticSource(0, seed=61, num_chunks=NUM_CHUNKS)
    clean = [source.encode_chunk(index) for index in range(NUM_CHUNKS)]
    extractor = FingerprintExtractor()
    cells = [extractor.cell_ids_from_encoded(video) for video in clean]
    payloads = list(clean)
    for index in DAMAGED:
        payloads[index] = _corrupt_keyframe_bit(clean[index], 1)
    qcells = {0: np.concatenate(cells[1:3])[2:],
              1: np.concatenate(cells[6:8])[:6]}
    return qcells, payloads


def _session(policy, hint):
    qcells, _ = _workload()
    family = MinHashFamily(num_hashes=32, seed=3)
    queries = QuerySet.from_cell_ids(
        qcells, {qid: len(ids) for qid, ids in qcells.items()}, family
    )
    service = DetectionService(
        DetectorConfig(num_hashes=32, threshold=0.5, window_seconds=2.5),
        queries, KEYFRAMES_PER_SECOND,
        num_workers=2, backend="serial", batch_chunks=2,
    )
    calls = []
    run_chunks = service.run_chunks

    def counted(arrays):
        calls.append(len(arrays))
        return run_chunks(arrays)

    service.run_chunks = counted
    session = StreamSession(
        0, extractor=FingerprintExtractor(), policy=policy,
        chunk_keyframes_hint=hint, service=service,
    )
    return session, calls


def _outcome(matches, error):
    return ([_match_key(m) for m in matches],
            None if error is None else (type(error).__name__, str(error)))


@pytest.mark.parametrize("hint", [0, 4], ids=["no-hint", "hint"])
@pytest.mark.parametrize("policy", list(DegradationPolicy),
                         ids=lambda p: p.value)
def test_process_chunks_equals_a_process_chunk_loop(policy, hint):
    _, payloads = _workload()
    chunks = [StreamChunk(stream, seq, payloads[seq])
              for stream, seq in DELIVERY]

    looped, loop_calls = _session(policy, hint)
    expected = []
    for chunk in chunks:
        try:
            expected.append(_outcome(looped.process_chunk(chunk), None))
        except ReproError as error:
            expected.append(_outcome([], error))

    batched, batch_calls = _session(policy, hint)
    got = [_outcome(*outcome) for outcome in batched.process_chunks(chunks)]

    assert got == expected
    errors = [outcome[1] for outcome in got if outcome[1] is not None]
    assert len(errors) == (3 if policy is DegradationPolicy.FAIL else 1)
    assert batched.failed == looped.failed
    assert batched.chunks_ingested == looped.chunks_ingested == 12
    assert len(batch_calls) < len(loop_calls)
    for session in (looped, batched):
        session.finish()
    assert [_match_key(m) for m in batched.matches] == \
        [_match_key(m) for m in looped.matches]
    assert looped.matches, "the workload must produce matches"
    counters = [dict(session.registry.counters()) for session in
                (looped, batched)]
    assert counters[0] == counters[1]
    assert counters[0]["ingest.frames_damaged"] > 0
    assert counters[0]["ingest.chunks_missing"] == 3
    engines = [
        {name: value
         for name, value in session.service.metrics_snapshot()[
             "counters"].items()
         if name.startswith(("engine.", "stream."))}
        for session in (looped, batched)
    ]
    assert engines[0] == engines[1]
    for session in (looped, batched):
        session.service.close()
