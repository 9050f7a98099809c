"""Tests for the resilient decoder, segment placement and degradation
policies."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.codec.resync import DCSegment
from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.errors import IngestError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest import (
    DegradationPolicy,
    ResilientDecoder,
    StreamChunk,
    StreamSession,
    SyntheticSource,
)
from repro.ingest.decoder import _place_segments
from repro.minhash.family import MinHashFamily

KFPS = 2.0  # INGEST_FORMAT fps 12 / gop 6


def _grid(value):
    return np.full((2, 2), float(value))


def _segment(slots, values):
    return DCSegment(
        kf_slots=slots,
        dc_grids=[_grid(v) for v in values],
        record_count=len(values),
    )


class TestPlaceSegments:
    def _values(self, placed):
        return [
            (start, [float(g[0, 0]) for g in grids])
            for start, grids in placed
        ]

    def test_anchored_segments_keep_their_slots(self):
        placed = _place_segments(
            [_segment([0, 1], [0, 1]), _segment([3], [3])], 4
        )
        assert self._values(placed) == [(0, [0.0, 1.0]), (3, [3.0])]

    def test_unanchored_run_packs_against_next_anchor(self):
        placed = _place_segments(
            [_segment([0], [0]), _segment(None, [9]), _segment([3], [3])],
            4,
        )
        # The orphan most plausibly sits just before the re-anchor point.
        assert self._values(placed) == [
            (0, [0.0]), (2, [9.0]), (3, [3.0])
        ]

    def test_unanchored_overlap_trimmed(self):
        placed = _place_segments(
            [
                _segment([0, 1], [0, 1]),
                _segment(None, [7, 8, 9]),
                _segment([3], [3]),
            ],
            4,
        )
        # Only slot 2 is free between the anchors; the run keeps its
        # rightmost grid.
        assert self._values(placed) == [
            (0, [0.0, 1.0]), (2, [9.0]), (3, [3.0])
        ]

    def test_trailing_unanchored_clamped_to_total(self):
        placed = _place_segments(
            [_segment([0], [0]), _segment(None, [5, 6, 7, 8, 9])], 4
        )
        values = self._values(placed)
        assert values[0] == (0, [0.0])
        occupied = sum(len(grids) for _, grids in values)
        assert occupied <= 4


class TestResilientDecoder:
    @pytest.fixture()
    def extractor(self):
        return FingerprintExtractor()

    def test_clean_chunk_single_segment(self, extractor):
        src = SyntheticSource(0, seed=5, num_chunks=1)
        chunk = StreamChunk(0, 0, src.encode_chunk(0))
        decoded = ResilientDecoder(extractor).decode_chunk(chunk)
        assert decoded.clean
        assert decoded.keyframes_decoded == chunk.expected_keyframes
        assert [s for s, _ in decoded.segments] == [0]
        expected = extractor.cell_ids_from_encoded(chunk.payload)
        np.testing.assert_array_equal(decoded.segments[0][1], expected)

    def test_corrupt_chunk_bounded_and_positional(self, extractor):
        src = SyntheticSource(0, seed=6, num_chunks=1, chunk_seconds=4.0)
        encoded = src.encode_chunk(0)
        clean_ids = extractor.cell_ids_from_encoded(encoded)
        data = bytearray(encoded.data)
        data[len(data) // 2] = 0x00
        chunk = StreamChunk(
            0, 0, dataclasses.replace(encoded, data=bytes(data))
        )
        decoded = ResilientDecoder(extractor).decode_chunk(chunk)
        assert decoded.keyframes_decoded <= chunk.expected_keyframes
        prev_end = -1
        for start, ids in decoded.segments:
            assert start > prev_end
            prev_end = start + ids.shape[0] - 1
            assert prev_end < chunk.expected_keyframes
        # Anchored recoveries reproduce the clean fingerprints.
        for start, ids in decoded.segments:
            np.testing.assert_array_equal(
                ids, clean_ids[start : start + ids.shape[0]]
            )

    def test_destroyed_header_counts_whole_chunk(self, extractor):
        """A broken magic — or byte 9, the ``num_frames`` varint, zeroed:
        a header promising no frames parses cleanly, and used to escape
        as ``FeatureError: encoded stream contains no key frames``."""
        src = SyntheticSource(0, seed=7, num_chunks=1)
        encoded = src.encode_chunk(0)
        assert encoded.data[9] == encoded.num_frames == 24
        for offset, value in ((0, encoded.data[0] ^ 0xFF), (9, 0)):
            data = bytearray(encoded.data)
            data[offset] = value
            chunk = StreamChunk(
                0, 0, dataclasses.replace(encoded, data=bytes(data))
            )
            decoded = ResilientDecoder(extractor).decode_chunk(chunk)
            assert decoded.header_lost and decoded.decode_errors >= 1
            assert decoded.keyframes_decoded == 0
            assert decoded.keyframes_damaged == chunk.expected_keyframes == 4

    def test_cell_id_passthrough_needs_no_extractor(self):
        ids = np.arange(9)
        decoded = ResilientDecoder().decode_chunk(StreamChunk(0, 0, ids))
        assert decoded.clean
        np.testing.assert_array_equal(decoded.segments[0][1], ids)

    def test_encoded_without_extractor_rejected(self):
        src = SyntheticSource(0, seed=8, num_chunks=1)
        chunk = StreamChunk(0, 0, src.encode_chunk(0))
        with pytest.raises(IngestError):
            ResilientDecoder().decode_chunk(chunk)


def _session(policy, extractor, hint=0, threshold=0.7):
    src = SyntheticSource(0, seed=40, num_chunks=1)
    query_ids = extractor.cell_ids_from_encoded(src.encode_chunk(0))
    family = MinHashFamily(num_hashes=64, seed=0)
    queries = QuerySet.from_cell_ids(
        {1: query_ids}, {1: int(query_ids.shape[0])}, family
    )
    config = DetectorConfig(
        num_hashes=64, threshold=threshold, window_seconds=2.0
    )
    return StreamSession(
        0, config, queries, KFPS,
        extractor=extractor, policy=policy, chunk_keyframes_hint=hint,
    )


class TestStreamSessionPolicies:
    @pytest.fixture()
    def extractor(self):
        return FingerprintExtractor()

    def _damaged_chunk(self, seed=41):
        """A chunk whose second key frame is unrecoverable: its I record
        type byte is smashed, so resync can only lock onto the next GOP."""
        from tests.test_ingest_scheduler import _corrupt_keyframe_bit

        src = SyntheticSource(0, seed=seed, num_chunks=1, chunk_seconds=4.0)
        return StreamChunk(0, 0, _corrupt_keyframe_bit(src.encode_chunk(0), 1))

    def test_skip_window_keeps_clock_honest(self, extractor):
        session = _session(DegradationPolicy.SKIP_WINDOW, extractor)
        chunk = self._damaged_chunk()
        session.process_chunk(chunk)
        counter = session.registry.counter
        expected = counter("ingest.frames_expected")
        assert expected == chunk.expected_keyframes
        # Clock covers every expected frame: decoded + skipped.
        frontend = session.service.frontend
        clock = frontend.frames_emitted
        assert clock + frontend.pending_frames - frontend.skip_remaining == (
            expected
        )

    def test_zero_fill_processes_every_frame(self, extractor):
        session = _session(DegradationPolicy.ZERO_FILL, extractor)
        chunk = self._damaged_chunk()
        session.process_chunk(chunk)
        counter = session.registry.counter
        assert counter("ingest.frames_filled") > 0
        frontend = session.service.frontend
        assert frontend.frames_emitted + frontend.pending_frames == (
            counter("ingest.frames_expected")
        )

    def test_fail_policy_raises_and_marks_failed(self, extractor):
        session = _session(DegradationPolicy.FAIL, extractor)
        with pytest.raises(IngestError):
            session.process_chunk(self._damaged_chunk())
        assert session.failed

    def test_duplicate_chunks_deduplicated(self, extractor):
        session = _session(DegradationPolicy.SKIP_WINDOW, extractor)
        src = SyntheticSource(0, seed=40, num_chunks=1)
        chunk = StreamChunk(0, 0, src.encode_chunk(0))
        session.process_chunk(chunk)
        frames_after_first = session.registry.counter(
            "ingest.frames_expected"
        )
        assert session.process_chunk(chunk) == []
        counter = session.registry.counter
        assert counter("ingest.chunks_duplicate") == 1
        assert counter("ingest.frames_expected") == frames_after_first

    def test_sequence_gap_advances_clock_with_hint(self, extractor):
        session = _session(
            DegradationPolicy.SKIP_WINDOW, extractor, hint=4
        )
        src = SyntheticSource(0, seed=40, num_chunks=3)
        session.process_chunk(StreamChunk(0, 0, src.encode_chunk(0)))
        # Chunk 1 lost in flight; chunk 2 arrives next.
        session.process_chunk(StreamChunk(0, 2, src.encode_chunk(2)))
        counter = session.registry.counter
        assert counter("ingest.chunks_missing") == 1
        assert counter("ingest.frames_missing") == 4
        frontend = session.service.frontend
        clock = frontend.frames_emitted
        assert clock + frontend.pending_frames - frontend.skip_remaining == (
            12  # 3 chunks' worth
        )

    def test_wrong_stream_rejected(self, extractor):
        session = _session(DegradationPolicy.SKIP_WINDOW, extractor)
        src = SyntheticSource(5, seed=40, num_chunks=1)
        with pytest.raises(IngestError):
            session.process_chunk(StreamChunk(5, 0, src.encode_chunk(0)))

    def test_clean_chunk_detects_planted_query(self, extractor):
        session = _session(
            DegradationPolicy.SKIP_WINDOW, extractor, threshold=0.6
        )
        src = SyntheticSource(0, seed=40, num_chunks=1)
        matches = session.process_chunk(
            StreamChunk(0, 0, src.encode_chunk(0))
        )
        matches += session.finish()
        assert matches
        assert session.registry.counter("ingest.matches") == len(matches)
