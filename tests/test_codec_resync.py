"""Tests for GOP resynchronisation and the typed-error contract.

The resilient scanner promises three things: corruption raises only the
codec's typed errors (never a bare ``ValueError``/``IndexError``/
``struct.error``), every GOP that still parses after a corruption point
is recovered, and recovered key frames carry trustworthy absolute slots
whenever anchoring is possible (stream head, clean tail).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.codec.bitstream import BitstreamReader
from repro.codec.gop import (
    _read_header,
    decode_dc_coefficients,
    encode_video,
)
from repro.codec.resync import (
    resilient_dc_scan,
    resync_to_next_gop,
)
from repro.errors import BitstreamError, CodecError
from repro.video.synth import ClipSynthesizer
from tests.test_codec_array_scan import walk_dc_record


def _encoded(seconds=4.0, gop_size=6, entropy=False, seed=7):
    synth = ClipSynthesizer(seed=seed)
    clip = synth.generate_clip(seconds, label="resync", fps=12.0)
    return encode_video(
        clip.frames,
        fps=clip.fps,
        quality=75,
        gop_size=gop_size,
        entropy_coding=entropy,
    )


def _stream_geometry(encoded):
    """(header_end, num_blocks, entropy) parsed from the bitstream."""
    reader = BitstreamReader(encoded.data)
    width, height, block_size, _q, _g, _n, _fps, entropy = _read_header(
        reader, len(encoded.data)
    )
    grid_cols = -(-width // block_size)
    grid_rows = -(-height // block_size)
    return reader.position, grid_rows * grid_cols, entropy


def _record_offsets(encoded):
    """Byte offset and frame type of every record, by walking cleanly."""
    start, num_blocks, entropy = _stream_geometry(encoded)
    reader = BitstreamReader(encoded.data)
    reader.seek(start)
    offsets = []
    for _ in range(encoded.num_frames):
        position = reader.position
        frame_type, _levels = walk_dc_record(reader, num_blocks, entropy)
        offsets.append((position, frame_type))
    return offsets


class TestWalkDcRecord:
    def test_walks_every_record_of_a_clean_stream(self):
        encoded = _encoded()
        offsets = _record_offsets(encoded)
        assert len(offsets) == encoded.num_frames
        i_count = sum(1 for _, t in offsets if t == b"I")
        assert i_count == encoded.num_keyframes
        # I frames sit exactly on the GOP cadence.
        for index, (_, frame_type) in enumerate(offsets):
            assert (frame_type == b"I") == (index % encoded.gop_size == 0)

    def test_rejects_unknown_frame_type(self):
        encoded = _encoded()
        start, num_blocks, entropy = _stream_geometry(encoded)
        data = bytearray(encoded.data)
        data[start] = 0x00  # smash the first record's type byte
        reader = BitstreamReader(bytes(data))
        reader.seek(start)
        with pytest.raises(BitstreamError):
            walk_dc_record(reader, num_blocks, entropy)


@pytest.mark.parametrize("entropy", [False, True])
class TestTypedErrorsOnly:
    """Random damage must surface as CodecError, nothing rawer."""

    def test_bit_flip_fuzz(self, entropy):
        encoded = _encoded(entropy=entropy)
        rng = np.random.default_rng(13)
        for _ in range(40):
            data = bytearray(encoded.data)
            for _ in range(int(rng.integers(1, 5))):
                position = int(rng.integers(0, len(data)))
                data[position] ^= 1 << int(rng.integers(0, 8))
            damaged = dataclasses.replace(encoded, data=bytes(data))
            try:
                list(decode_dc_coefficients(damaged))
            except CodecError:
                pass  # BitstreamError is a CodecError; both are legal

    def test_truncation_fuzz(self, entropy):
        encoded = _encoded(entropy=entropy)
        rng = np.random.default_rng(17)
        for _ in range(40):
            cut = int(rng.integers(0, len(encoded.data)))
            damaged = dataclasses.replace(encoded, data=encoded.data[:cut])
            try:
                list(decode_dc_coefficients(damaged))
            except CodecError:
                pass


class TestResyncToNextGop:
    def test_finds_the_true_next_keyframe(self):
        encoded = _encoded()
        offsets = _record_offsets(encoded)
        _start, num_blocks, entropy = _stream_geometry(encoded)
        keyframes = [o for o, t in offsets if t == b"I"]
        # From just past the first I record, the scan locks onto the
        # second one — not a stray 0x49 inside coefficient data.
        found = resync_to_next_gop(
            encoded.data,
            keyframes[0] + 1,
            num_blocks=num_blocks,
            entropy=entropy,
        )
        assert found == keyframes[1]

    def test_none_when_no_keyframe_remains(self):
        encoded = _encoded()
        offsets = _record_offsets(encoded)
        _start, num_blocks, entropy = _stream_geometry(encoded)
        last_keyframe = max(o for o, t in offsets if t == b"I")
        assert (
            resync_to_next_gop(
                encoded.data,
                last_keyframe + 1,
                num_blocks=num_blocks,
                entropy=entropy,
            )
            is None
        )


@pytest.mark.parametrize("entropy", [False, True])
class TestResilientScan:
    def test_clean_stream_fully_anchored(self, entropy):
        encoded = _encoded(entropy=entropy)
        scan = resilient_dc_scan(encoded)
        assert scan.decode_errors == 0
        assert scan.resyncs == 0
        assert scan.reached_end
        assert scan.keyframes_decoded == encoded.num_keyframes
        assert len(scan.segments) == 1
        assert scan.segments[0].kf_slots == list(
            range(encoded.num_keyframes)
        )
        clean = [grid for _, grid in decode_dc_coefficients(encoded)]
        for got, expected in zip(scan.segments[0].dc_grids, clean):
            np.testing.assert_array_equal(got, expected)

    def test_single_corruption_recovers_every_other_gop(self, entropy):
        encoded = _encoded(entropy=entropy)
        offsets = _record_offsets(encoded)
        # Smash the record right after the second keyframe: the head
        # stays anchored with 2 key frames, the tail back-anchors.
        keyframes = [i for i, (_, t) in enumerate(offsets) if t == b"I"]
        victim = offsets[keyframes[1] + 1][0]
        data = bytearray(encoded.data)
        data[victim] = 0x00
        damaged = dataclasses.replace(encoded, data=bytes(data))
        scan = resilient_dc_scan(damaged)
        assert scan.decode_errors >= 1
        assert scan.resyncs >= 1
        assert scan.keyframes_decoded == encoded.num_keyframes
        clean = [grid for _, grid in decode_dc_coefficients(encoded)]
        slots_seen = []
        for segment in scan.segments:
            assert segment.kf_slots is not None  # head + tail both anchor
            for slot, grid in zip(segment.kf_slots, segment.dc_grids):
                np.testing.assert_array_equal(grid, clean[slot])
                slots_seen.append(slot)
        assert slots_seen == list(range(encoded.num_keyframes))

    def test_tail_corruption_does_not_duplicate_segments(self, entropy):
        """Regression: corruption after the final key frame used to
        append the head segment twice (the early 'everything in hand'
        break left the open segment to be closed again)."""
        encoded = _encoded(entropy=entropy)
        offsets = _record_offsets(encoded)
        last_keyframe = max(
            i for i, (_, t) in enumerate(offsets) if t == b"I"
        )
        victim = offsets[last_keyframe + 1][0]  # a P record past all Is
        data = bytearray(encoded.data)
        data[victim] = 0x00
        damaged = dataclasses.replace(encoded, data=bytes(data))
        scan = resilient_dc_scan(damaged)
        assert scan.keyframes_decoded == encoded.num_keyframes
        assert len({id(s) for s in scan.segments}) == len(scan.segments)

    def test_two_corruption_points_leave_interior_unanchored(self, entropy):
        encoded = _encoded(seconds=6.0, entropy=entropy)
        offsets = _record_offsets(encoded)
        keyframes = [i for i, (_, t) in enumerate(offsets) if t == b"I"]
        assert len(keyframes) >= 4
        data = bytearray(encoded.data)
        data[offsets[keyframes[1] + 1][0]] = 0x00
        data[offsets[keyframes[2] + 1][0]] = 0x00
        damaged = dataclasses.replace(encoded, data=bytes(data))
        scan = resilient_dc_scan(damaged)
        anchoring = [s.kf_slots is not None for s in scan.segments]
        assert anchoring[0] and anchoring[-1]
        assert not all(anchoring[1:-1])
        assert scan.keyframes_decoded <= encoded.num_keyframes


def test_header_corruption_raises_codec_error():
    encoded = _encoded()
    data = bytearray(encoded.data)
    data[0] ^= 0xFF  # destroy the magic
    damaged = dataclasses.replace(encoded, data=bytes(data))
    with pytest.raises(CodecError):
        resilient_dc_scan(damaged)
