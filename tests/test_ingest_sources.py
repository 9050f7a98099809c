"""Tests for ingest stream sources, record/replay and fault injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IngestError
from repro.ingest import (
    CellIdSource,
    EncodedChunkSource,
    FaultInjector,
    FaultPlan,
    ReplaySource,
    StreamChunk,
    SyntheticSource,
    record_stream,
)
from repro.utils.rng import derive_seed


def _drain(source):
    return list(source)


class TestStreamChunk:
    def test_expected_keyframes_per_payload_kind(self):
        src = SyntheticSource(0, seed=1, num_chunks=1)
        encoded = src.encode_chunk(0)
        assert StreamChunk(0, 0, encoded).expected_keyframes == (
            encoded.num_keyframes
        )
        frames = np.zeros((5, 8, 8))
        assert StreamChunk(0, 0, frames).expected_keyframes == 5
        cells = np.arange(7, dtype=np.int64)
        assert StreamChunk(0, 0, cells).expected_keyframes == 7

    def test_bad_payload_shape_rejected(self):
        with pytest.raises(IngestError):
            StreamChunk(0, 0, np.zeros((2, 2))).expected_keyframes


class TestSyntheticSource:
    def test_deterministic_across_instances(self):
        a = _drain(SyntheticSource(3, seed=9, num_chunks=3))
        b = _drain(SyntheticSource(3, seed=9, num_chunks=3))
        assert [c.seq for c in a] == [0, 1, 2]
        for left, right in zip(a, b):
            assert left.payload.data == right.payload.data

    def test_streams_differ_by_id(self):
        a = SyntheticSource(0, seed=9, num_chunks=1).encode_chunk(0)
        b = SyntheticSource(1, seed=9, num_chunks=1).encode_chunk(0)
        assert a.data != b.data

    def test_offered_counters(self):
        source = SyntheticSource(0, seed=2, num_chunks=3)
        chunks = _drain(source)
        assert source.chunks_offered == 3
        assert source.keyframes_offered == sum(
            c.expected_keyframes for c in chunks
        )

    def test_copies_override_content(self):
        plain = SyntheticSource(0, seed=4, num_chunks=2)
        clip_source = SyntheticSource(0, seed=5, num_chunks=1)
        # Re-encode chunk 0 of a different stream seed as the copy.
        from repro.video.synth import ClipSynthesizer, SynthesisConfig
        from repro.ingest import INGEST_FORMAT

        synth = ClipSynthesizer(
            SynthesisConfig(video_format=INGEST_FORMAT), seed=77
        )
        clip = synth.generate_clip(2.0, "copy")
        copied = SyntheticSource(0, seed=4, num_chunks=2, copies={1: clip})
        assert copied.encode_chunk(0).data == plain.encode_chunk(0).data
        assert copied.encode_chunk(1).data != plain.encode_chunk(1).data
        del clip_source

    def test_invalid_parameters_rejected(self):
        with pytest.raises(IngestError):
            SyntheticSource(0, seed=1, num_chunks=0)
        with pytest.raises(IngestError):
            SyntheticSource(0, seed=1, num_chunks=1, chunk_seconds=0.0)


class TestWrapperSources:
    def test_cell_id_source_validates_shape(self):
        with pytest.raises(IngestError):
            CellIdSource(0, [np.zeros((2, 2))])

    def test_cell_id_source_round_trip(self):
        chunks = [np.arange(5), np.arange(3)]
        delivered = _drain(CellIdSource(0, chunks))
        assert [c.seq for c in delivered] == [0, 1]
        np.testing.assert_array_equal(delivered[0].payload, chunks[0])

    def test_encoded_chunk_source(self):
        src = SyntheticSource(0, seed=6, num_chunks=2)
        payloads = [src.encode_chunk(0), src.encode_chunk(1)]
        delivered = _drain(EncodedChunkSource(0, payloads))
        assert [c.payload.data for c in delivered] == [
            p.data for p in payloads
        ]


class TestRecordReplay:
    def test_encoded_round_trip_byte_exact(self, tmp_path):
        path = tmp_path / "stream.npz"
        original = _drain(SyntheticSource(2, seed=11, num_chunks=3))
        count = record_stream(
            path, SyntheticSource(2, seed=11, num_chunks=3)
        )
        assert count == 3
        replayed = _drain(ReplaySource(2, path))
        assert len(replayed) == 3
        for left, right in zip(original, replayed):
            assert left.seq == right.seq
            assert left.payload.data == right.payload.data
            assert left.payload.num_frames == right.payload.num_frames
            assert left.payload.fps == right.payload.fps

    def test_cell_round_trip(self, tmp_path):
        path = tmp_path / "cells.npz"
        chunks = [np.arange(6), np.arange(4) + 100]
        record_stream(path, CellIdSource(1, chunks))
        replayed = _drain(ReplaySource(1, path))
        for chunk, original in zip(replayed, chunks):
            np.testing.assert_array_equal(chunk.payload, original)

    def test_replay_preserves_injected_damage(self, tmp_path):
        """Recording a fault-wrapped source captures the corruption."""
        path = tmp_path / "damaged.npz"
        plan = FaultPlan(bit_flip=1.0, max_flips=2)
        injector = FaultInjector(
            SyntheticSource(0, seed=3, num_chunks=2), plan, seed=5
        )
        record_stream(path, injector)
        replayed = _drain(ReplaySource(0, path))
        clean = _drain(SyntheticSource(0, seed=3, num_chunks=2))
        assert any(
            r.payload.data != c.payload.data
            for r, c in zip(replayed, clean)
        )

    def test_missing_recording_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="no stream recording"):
            ReplaySource(0, tmp_path / "nope.npz")

    def test_object_array_recording_is_refused_not_unpickled(
        self, tmp_path, tripwire
    ):
        """A recording is a file from outside the program: one whose tags
        are object arrays (as older recordings' were) is refused with the
        module's typed error — never unpickled."""
        path = tmp_path / "cells.npz"
        record_stream(path, CellIdSource(0, [np.arange(10)]))
        with np.load(path) as archive:
            assert archive["format"].dtype.kind == "U"
            assert archive["chunk0_kind"].dtype.kind == "U"
            members = dict(archive)
        for member in ("format", "chunk0_kind"):
            damaged = dict(members)
            damaged[member] = np.asarray([tripwire()], dtype=object)
            np.savez(path, **damaged)
            with pytest.raises(IngestError, match="Object arrays"):
                ReplaySource(0, path)
        assert not tripwire.fired


class TestFaultInjector:
    def test_plan_validation(self):
        with pytest.raises(IngestError):
            FaultPlan(drop=1.5)
        with pytest.raises(IngestError):
            FaultPlan(max_flips=0)
        with pytest.raises(IngestError):
            FaultPlan(stall_seconds=-1.0)

    def test_deterministic_damage(self):
        def run():
            injector = FaultInjector(
                SyntheticSource(1, seed=21, num_chunks=6),
                FaultPlan(bit_flip=0.5, max_flips=2, drop=0.3,
                          duplicate=0.3, stall=0.3),
                seed=derive_seed(21, "faults-1"),
            )
            return [
                (c.seq, c.payload.data, c.stall_seconds) for c in injector
            ]

        assert run() == run()

    def test_delivery_accounting(self):
        injector = FaultInjector(
            SyntheticSource(1, seed=22, num_chunks=20),
            FaultPlan(drop=0.4, duplicate=0.3),
            seed=7,
        )
        delivered = _drain(injector)
        unique = {c.seq for c in delivered}
        assert injector.chunks_offered == 20
        assert len(unique) == 20 - injector.chunks_dropped
        assert len(delivered) == (
            20 - injector.chunks_dropped + injector.chunks_duplicated
        )
        # Dropped keyframes reconcile against the truth counters.
        per_seq = {c.seq: c.expected_keyframes for c in delivered}
        assert injector.keyframes_dropped == (
            injector.keyframes_offered - sum(per_seq.values())
        )

    def test_header_survives_protected_flips(self):
        from repro.codec.resync import resilient_dc_scan

        injector = FaultInjector(
            SyntheticSource(0, seed=23, num_chunks=5),
            FaultPlan(bit_flip=1.0, max_flips=8),
            seed=3,
        )
        for chunk in injector:
            # Header intact: the scan never raises (it may find damage).
            scan = resilient_dc_scan(chunk.payload)
            assert scan.keyframes_decoded <= chunk.expected_keyframes
        assert injector.bits_flipped > 0

    def test_duplicates_share_seq(self):
        injector = FaultInjector(
            SyntheticSource(0, seed=24, num_chunks=12),
            FaultPlan(duplicate=1.0),
            seed=9,
        )
        delivered = _drain(injector)
        assert injector.chunks_duplicated == 12
        assert len(delivered) == 24
        seqs = [c.seq for c in delivered]
        assert seqs == sorted(seqs)
        assert {seqs.count(s) for s in set(seqs)} == {2}
