"""Tests for the bitstream format and the GOP encoder/decoders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.bitstream import BitstreamReader, BitstreamWriter, MAGIC
from repro.codec.gop import decode_dc_coefficients, decode_video, encode_video
from repro.errors import BitstreamError, CodecError
from tests.test_codec_array_scan import skip_uvarints


def _random_frames(num_frames=6, height=16, width=24, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(30, 220, size=(height, width))
    drift = rng.normal(0, 2, size=(num_frames, height, width)).cumsum(axis=0)
    return np.clip(base[np.newaxis] + drift, 0, 255)


class TestVarints:
    @given(st.integers(min_value=0, max_value=(1 << 62) - 1))
    def test_uvarint_roundtrip(self, value):
        writer = BitstreamWriter()
        writer.write_uvarint(value)
        assert BitstreamReader(writer.getvalue()).read_uvarint() == value

    @given(st.integers(min_value=-(1 << 61), max_value=(1 << 61) - 1))
    def test_svarint_roundtrip(self, value):
        writer = BitstreamWriter()
        writer.write_svarint(value)
        assert BitstreamReader(writer.getvalue()).read_svarint() == value

    def test_uvarint_rejects_negative(self):
        with pytest.raises(BitstreamError):
            BitstreamWriter().write_uvarint(-1)

    def test_truncated_varint_detected(self):
        with pytest.raises(BitstreamError):
            BitstreamReader(b"\x80").read_uvarint()

    def test_truncated_bytes_detected(self):
        with pytest.raises(BitstreamError):
            BitstreamReader(b"ab").read_bytes(3)

    def test_magic_roundtrip(self):
        writer = BitstreamWriter()
        writer.write_magic()
        BitstreamReader(writer.getvalue()).read_magic()

    def test_bad_magic_detected(self):
        with pytest.raises(BitstreamError):
            BitstreamReader(b"XXXX").read_magic()

    def test_skip_uvarints(self):
        writer = BitstreamWriter()
        for value in (5, 10, 15):
            writer.write_uvarint(value)
        reader = BitstreamReader(writer.getvalue())
        skip_uvarints(reader, 2)  # the serial oracle's skip
        assert reader.read_uvarint() == 15

    def test_position_and_exhausted(self):
        reader = BitstreamReader(b"ab")
        assert reader.position == 0
        reader.read_bytes(2)
        assert reader.exhausted


class TestEncodeVideo:
    def test_header_fields(self):
        frames = _random_frames()
        encoded = encode_video(frames, fps=25.0, quality=80, gop_size=3)
        assert encoded.width == 24 and encoded.height == 16
        assert encoded.quality == 80
        assert encoded.gop_size == 3
        assert encoded.num_frames == 6
        assert encoded.fps == pytest.approx(25.0)
        assert encoded.data.startswith(MAGIC)

    def test_num_keyframes(self):
        frames = _random_frames(num_frames=7)
        encoded = encode_video(frames, fps=25.0, gop_size=3)
        # I frames at 0, 3, 6.
        assert encoded.num_keyframes == 3

    def test_all_intra(self):
        frames = _random_frames(num_frames=4)
        encoded = encode_video(frames, fps=25.0, gop_size=1)
        assert encoded.num_keyframes == 4

    def test_rejects_bad_inputs(self):
        frames = _random_frames()
        with pytest.raises(CodecError):
            encode_video(frames[0], fps=25.0)
        with pytest.raises(CodecError):
            encode_video(frames[:0], fps=25.0)
        with pytest.raises(CodecError):
            encode_video(frames, fps=0.0)
        with pytest.raises(CodecError):
            encode_video(frames, fps=25.0, gop_size=0)

    def test_higher_quality_bigger_stream(self):
        frames = _random_frames()
        small = encode_video(frames, fps=25.0, quality=20)
        big = encode_video(frames, fps=25.0, quality=95)
        assert big.size_bytes > small.size_bytes


class TestDecodeVideo:
    def test_roundtrip_quality(self):
        frames = _random_frames()
        encoded = encode_video(frames, fps=25.0, quality=90, gop_size=3)
        decoded = decode_video(encoded)
        assert decoded.shape == frames.shape
        # Quality 90 keeps frames close.
        assert np.abs(decoded - frames).mean() < 4.0

    def test_p_frames_track_content(self):
        frames = _random_frames(num_frames=8)
        encoded = encode_video(frames, fps=25.0, quality=85, gop_size=8)
        decoded = decode_video(encoded)
        # Even the last P frame should stay close to the source.
        assert np.abs(decoded[-1] - frames[-1]).mean() < 6.0

    def test_lower_quality_more_error(self):
        frames = _random_frames()
        err = {}
        for quality in (30, 90):
            encoded = encode_video(frames, fps=25.0, quality=quality)
            err[quality] = np.abs(decode_video(encoded) - frames).mean()
        assert err[30] > err[90]

    def test_output_in_range(self):
        frames = _random_frames()
        decoded = decode_video(encode_video(frames, fps=25.0, quality=10))
        assert decoded.min() >= 0.0 and decoded.max() <= 255.0

    def test_unaligned_frame_size(self):
        frames = _random_frames(height=10, width=13)
        encoded = encode_video(frames, fps=25.0, quality=85)
        decoded = decode_video(encoded)
        assert decoded.shape == frames.shape
        assert np.abs(decoded - frames).mean() < 6.0


class TestPartialDecode:
    def test_yields_only_keyframes(self):
        frames = _random_frames(num_frames=7)
        encoded = encode_video(frames, fps=25.0, gop_size=3)
        indices = [idx for idx, _dc in decode_dc_coefficients(encoded)]
        assert indices == [0, 3, 6]

    def test_dc_grid_shape(self):
        frames = _random_frames(height=16, width=24)
        encoded = encode_video(frames, fps=25.0)
        _, dc_grid = next(iter(decode_dc_coefficients(encoded)))
        assert dc_grid.shape == (2, 3)

    def test_dc_matches_block_means(self):
        frames = _random_frames()
        encoded = encode_video(frames, fps=25.0, quality=95, gop_size=1)
        for index, dc_grid in decode_dc_coefficients(encoded):
            means = dc_grid / encoded.block_size + 128.0
            frame = frames[index]
            for r in range(dc_grid.shape[0]):
                for c in range(dc_grid.shape[1]):
                    block = frame[r * 8 : (r + 1) * 8, c * 8 : (c + 1) * 8]
                    assert means[r, c] == pytest.approx(block.mean(), abs=2.0)

    def test_partial_agrees_with_full_decode(self):
        frames = _random_frames(num_frames=5)
        encoded = encode_video(frames, fps=25.0, quality=85, gop_size=2)
        decoded = decode_video(encoded)
        for index, dc_grid in decode_dc_coefficients(encoded):
            means = dc_grid / encoded.block_size + 128.0
            block = decoded[index][:8, :8]
            assert means[0, 0] == pytest.approx(block.mean(), abs=1.0)

    def test_corrupt_stream_detected(self):
        frames = _random_frames()
        encoded = encode_video(frames, fps=25.0)
        corrupted = encoded.data[: len(encoded.data) // 2]
        bad = type(encoded)(
            data=corrupted,
            width=encoded.width,
            height=encoded.height,
            block_size=encoded.block_size,
            quality=encoded.quality,
            gop_size=encoded.gop_size,
            num_frames=encoded.num_frames,
            fps=encoded.fps,
        )
        with pytest.raises(BitstreamError):
            list(decode_dc_coefficients(bad))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
    def test_keyframe_count_invariant(self, num_frames, gop_size):
        frames = _random_frames(num_frames=num_frames, height=8, width=8)
        encoded = encode_video(frames, fps=25.0, gop_size=gop_size)
        yielded = sum(1 for _ in decode_dc_coefficients(encoded))
        assert yielded == encoded.num_keyframes
