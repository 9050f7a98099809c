"""The array-at-a-time DC scan against the record-at-a-time walker.

``decode_dc_coefficients`` scans a byte-aligned chunk whole
(``_scan_dc_levels`` over ``decode_uvarints``) and a chunk it rejects goes
to ``resilient_dc_scan``. The contract is that nobody downstream can
tell: ``ResilientDecoder.decode_chunk`` returns what a decoder built only
from ``walk_dc_record`` + ``resilient_dc_scan`` — the oracle below, the
path every chunk took before the scan existed — returns for the same
bytes, damaged or not.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.bitstream import (
    BitstreamReader,
    BitstreamWriter,
    MAGIC,
    decode_uvarints,
)
from repro.codec.gop import (
    EncodedVideo,
    _read_header,
    decode_dc_coefficients,
    encode_video,
    walk_dc_record,
)
from repro.codec.quantize import quantization_matrix
from repro.codec.resync import resilient_dc_scan
from repro.errors import BitstreamError, CodecError, FeatureError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest import (
    FAULT_PRESETS,
    EncodedChunkSource,
    FaultInjector,
    FaultPlan,
    ResilientDecoder,
    StreamChunk,
    SyntheticSource,
)
from repro.ingest.decoder import DecodedChunk, _place_segments

EXTRACTOR = FingerprintExtractor()
DECODER = ResilientDecoder(EXTRACTOR)


# -- the serial oracle -------------------------------------------------


def _serial_dc_grids(encoded: EncodedVideo):
    """The partial decoder as one ``walk_dc_record`` call per frame."""
    reader = BitstreamReader(encoded.data)
    (width, height, block_size, quality, _gop, num_frames, _fps,
     entropy) = _read_header(reader, len(encoded.data))
    step = float(quantization_matrix(quality, block_size)[0, 0])
    rows, cols = -(-height // block_size), -(-width // block_size)
    indices, grids = [], []
    for frame_index in range(num_frames):
        frame_type, levels = walk_dc_record(reader, rows * cols, entropy)
        if frame_type == b"I":
            indices.append(frame_index)
            grids.append(
                np.asarray(levels, dtype=np.float64).reshape(rows, cols) * step
            )
    return indices, grids


def _oracle_decode(encoded: EncodedVideo) -> DecodedChunk:
    """``ResilientDecoder._decode_encoded`` with the serial walker in
    place of ``decode_dc_coefficients``."""
    expected = encoded.num_keyframes
    try:
        _indices, grids = _serial_dc_grids(encoded)
        ids = EXTRACTOR.cell_ids_from_dc_grids(grids, encoded.block_size)
    except (CodecError, FeatureError):
        pass
    else:
        if ids.shape[0] == expected:
            return DecodedChunk(
                expected_keyframes=expected, segments=[(0, ids)]
            )
    try:
        scan = resilient_dc_scan(encoded)
    except CodecError:
        scan = None
    if scan is None or not (scan.segments or scan.decode_errors):
        return DecodedChunk(
            expected_keyframes=expected, decode_errors=1, header_lost=True
        )
    decoded = DecodedChunk(
        expected_keyframes=expected,
        decode_errors=scan.decode_errors,
        resyncs=scan.resyncs,
        bytes_skipped=scan.bytes_skipped,
    )
    for start, grids in _place_segments(scan.segments, expected):
        decoded.segments.append(
            (start, EXTRACTOR.cell_ids_from_dc_grids(grids, encoded.block_size))
        )
    return decoded


def _outcome(decode, argument):
    """Everything a session reads off a decoded chunk. No damage makes
    ``decode`` raise: an unprotected header damaged into something no
    fingerprint fits (zero frames, say) is a lost chunk like any other."""
    decoded = decode(argument)
    return decoded, (
        decoded.expected_keyframes,
        [(start, ids.tolist()) for start, ids in decoded.segments],
        decoded.decode_errors,
        decoded.resyncs,
        decoded.bytes_skipped,
        decoded.header_lost,
    )


def _assert_equivalent(encoded: EncodedVideo):
    decoded, flat = _outcome(DECODER.decode_chunk, StreamChunk(0, 0, encoded))
    assert flat == _outcome(_oracle_decode, encoded)[1]
    return decoded


def _assert_scan_matches_walker(encoded: EncodedVideo) -> bool:
    """Whatever the scan accepts, the walker accepts with the same
    grids; returns whether the scan accepted."""
    try:
        scanned = list(decode_dc_coefficients(encoded))
    except CodecError:
        return False
    indices, grids = _serial_dc_grids(encoded)
    assert [index for index, _ in scanned] == indices
    for (_, got), want in zip(scanned, grids):
        assert got.tobytes() == want.tobytes()
    return True


# -- streams to damage -------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pool():
    """Byte-aligned chunks that between them use every record shape."""
    rng = np.random.default_rng(5)
    noise = rng.uniform(0, 255, size=(8, 48, 48))
    ramp = np.clip(
        np.linspace(0, 255, 128)[None, None, :]
        + rng.normal(0, 30, size=(6, 96, 128)), 0, 255
    )
    return (
        # the benchmark's own chunks: 48 blocks, P records
        SyntheticSource(0, seed=11, num_chunks=2).encode_chunk(0),
        SyntheticSource(0, seed=11, num_chunks=2).encode_chunk(1),
        # M records (a motion vector ahead of every block)
        encode_video(noise, fps=12.0, gop_size=4, use_motion=True,
                     search_range=2),
        # 192 blocks: the block count is a two-byte varint
        encode_video(ramp, fps=12.0, gop_size=3),
        # 16x16 blocks of noise at high quality: n_values up to 256, so
        # block counts and many levels are two-byte varints too
        encode_video(noise, fps=12.0, gop_size=2, block_size=16, quality=98),
    )


def _header_end(encoded: EncodedVideo) -> int:
    reader = BitstreamReader(encoded.data)
    _read_header(reader)
    return reader.position


def _damage(encoded, flips, cut, protect):
    data = bytearray(encoded.data)
    floor = _header_end(encoded) if protect else 0
    if cut is not None:
        del data[floor + int(cut * (len(data) - floor)):]
    for where, bit in flips:
        if len(data) > floor:
            data[floor + int(where * (len(data) - floor - 1))] ^= 1 << bit
    return dataclasses.replace(encoded, data=bytes(data))


def test_pool_has_every_record_shape():
    pool = _pool()
    for encoded in pool:
        assert not encoded.entropy_coding
        assert _assert_scan_matches_walker(encoded)
        assert _assert_equivalent(encoded).clean
    assert b"M" in pool[2].data
    long_counts = [
        decode_uvarints(e.data, _header_end(e)).long_at.size for e in pool
    ]
    assert long_counts[3] > 0 and long_counts[4] > 100


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 4),
    flips=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 7)), min_size=0, max_size=4
    ),
    cut=st.one_of(st.none(), st.floats(0, 1)),
    protect=st.booleans(),
)
def test_decode_chunk_equals_the_serial_oracle(which, flips, cut, protect):
    damaged = _damage(_pool()[which], flips, cut, protect)
    _assert_equivalent(damaged)
    _assert_scan_matches_walker(damaged)


@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from(["light", "heavy"]), seed=st.integers(0, 10**6))
def test_fault_presets_equal_the_serial_oracle(preset, seed):
    source = EncodedChunkSource(0, list(_pool()[:2]) * 4)
    for chunk in FaultInjector(source, FAULT_PRESETS[preset], seed=seed):
        _assert_equivalent(chunk.payload)


# -- named cases, on a stream written by hand --------------------------

WIDTH = HEIGHT = 24  # 3 x 3 blocks of 8 x 8: the smallest grid that fingerprints
NUM_BLOCKS = 9


def _uv(value: int) -> bytes:
    writer = BitstreamWriter()
    writer.write_uvarint(value)
    return writer.getvalue()


def _block(levels) -> bytes:
    writer = BitstreamWriter()
    writer.write_uvarint(len(levels))
    for level in levels:
        writer.write_svarint(level)
    return writer.getvalue()


def _stream(records, num_frames=None, gop_size=2, tail=b""):
    """``records``: one ``(type byte, [block bytes, ...])`` per frame."""
    num_frames = len(records) if num_frames is None else num_frames
    writer = BitstreamWriter()
    writer.write_bytes(MAGIC)
    for value in (WIDTH, HEIGHT, 8, 75, gop_size, num_frames, 12000, 0):
        writer.write_uvarint(value)
    for frame_type, blocks in records:
        writer.write_bytes(frame_type + _uv(len(blocks)) + b"".join(blocks))
    return EncodedVideo(
        data=writer.getvalue() + tail, width=WIDTH, height=HEIGHT,
        block_size=8, quality=75, gop_size=gop_size, num_frames=num_frames,
        fps=12.0,
    )


def _records():
    """I P I P; DC levels vary per block so the fingerprint is not flat."""
    def intra(base):
        return (b"I", [_block([base + 5 * b, 3, -2]) for b in range(NUM_BLOCKS)])
    predicted = (b"P", [_block([1, 0, -1, 2]) for _ in range(NUM_BLOCKS)])
    return [intra(-20), predicted, intra(10), predicted]


def _first_dc_offset(encoded) -> int:
    return _header_end(encoded) + 3  # type byte, block count, n_values


def test_hand_written_stream_is_sound():
    encoded = _stream(_records())
    assert _assert_scan_matches_walker(encoded)
    decoded = _assert_equivalent(encoded)
    assert decoded.clean and decoded.segments[0][1].shape == (2,)


def test_flip_inside_a_dc_value_is_accepted_with_the_new_value():
    encoded = _stream(_records())
    data = bytearray(encoded.data)
    data[_first_dc_offset(encoded)] ^= 0x20
    damaged = dataclasses.replace(encoded, data=bytes(data))
    assert _assert_scan_matches_walker(damaged)
    assert _assert_equivalent(damaged).clean
    (_, before), *_ = decode_dc_coefficients(encoded)
    (_, after), *_ = decode_dc_coefficients(damaged)
    assert before[0, 0] != after[0, 0]
    assert np.array_equal(before.ravel()[1:], after.ravel()[1:])


def test_continuation_bit_flip_merges_varints_and_falls_back():
    encoded = _stream(_records())
    data = bytearray(encoded.data)
    data[_first_dc_offset(encoded)] |= 0x80  # DC now swallows the next level
    damaged = dataclasses.replace(encoded, data=bytes(data))
    with pytest.raises(BitstreamError):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.decode_errors >= 1 and not decoded.clean


@pytest.mark.parametrize(
    "length, scan_accepts, walker_accepts",
    [(9, True, True), (10, False, True), (11, False, True), (12, False, False)],
)
def test_varint_length_limits(length, scan_accepts, walker_accepts):
    """``read_uvarint`` takes 11 bytes, the array scan 9 (an int64)."""
    long_dc = b"\x81" + b"\x80" * (length - 2) + b"\x00"  # the value 1
    reader = BitstreamReader(long_dc)
    if walker_accepts:
        assert reader.read_uvarint() == 1 and reader.exhausted
    else:
        with pytest.raises(BitstreamError, match="longer than 11 bytes"):
            reader.read_uvarint()
    decoded = decode_uvarints(long_dc)
    assert len(decoded.small) == (1 if scan_accepts else 0)

    records = _records()
    records[0][1][0] = _uv(3) + long_dc + _block([3, -2])[1:]
    encoded = _stream(records)
    assert _assert_scan_matches_walker(encoded) == scan_accepts
    # Rejected by the scan, the chunk is walked serially — and is clean
    # whenever the walker takes the varint.
    assert _assert_equivalent(encoded).clean == walker_accepts


def test_truncated_tail():
    encoded = _stream(_records())
    damaged = dataclasses.replace(encoded, data=encoded.data[:-7])
    with pytest.raises(BitstreamError):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.keyframes_decoded == 2 and decoded.decode_errors == 1
    # ... and cut inside a varint: the unterminated tail is no varint.
    records = _records()
    records[3][1][-1] = _block([1, 0, -1, 200])
    encoded = _stream(records)
    assert encoded.data[-1] < 0x80 <= encoded.data[-2]
    _assert_equivalent(dataclasses.replace(encoded, data=encoded.data[:-1]))


def test_trailing_bytes_after_the_last_record_are_ignored():
    encoded = _stream(_records(), tail=b"\x00I\x09\xff\xff\xff")
    assert _assert_scan_matches_walker(encoded)
    assert _assert_equivalent(encoded).clean


def test_zero_values_in_a_predicted_block_but_not_an_intra_block():
    records = _records()
    records[1][1][4] = _uv(0)
    assert _assert_scan_matches_walker(_stream(records))
    assert _assert_equivalent(_stream(records)).clean
    records[2][1][4] = _uv(0)
    damaged = _stream(records)
    with pytest.raises(BitstreamError, match="zero stored values"):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.keyframes_decoded == 1 and decoded.decode_errors == 1


def test_more_i_frames_than_the_metadata_promises():
    encoded = _stream(_records())
    # The bytes hold two GOPs; the chunk's metadata announces one.
    short = dataclasses.replace(encoded, num_frames=2)
    assert len(list(decode_dc_coefficients(short))) == 2
    decoded = _assert_equivalent(short)
    assert decoded.expected_keyframes == 1
    assert decoded.keyframes_decoded == 1 and decoded.decode_errors == 1


def test_header_quality_is_read_in_band_by_both_paths():
    """``protect_header=False`` can flip the header's quality byte: the
    scan and the resync walker must dequantise with the same step."""
    encoded = SyntheticSource(0, seed=3, num_chunks=1).encode_chunk(0)
    quality_at = len(MAGIC) + 3  # width, height, block_size: one byte each
    assert encoded.data[quality_at] == encoded.quality == 75
    data = bytearray(encoded.data)
    data[quality_at] ^= 0x08  # 67: still a legal quality, a coarser step
    damaged = dataclasses.replace(encoded, data=bytes(data))
    scanned = [grid for _, grid in decode_dc_coefficients(damaged)]
    (segment,) = resilient_dc_scan(damaged).segments
    assert len(scanned) == len(segment.dc_grids) == encoded.num_keyframes
    for got, want in zip(segment.dc_grids, scanned):
        assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(
        EXTRACTOR.cell_ids_from_dc_grids(segment.dc_grids, encoded.block_size),
        EXTRACTOR.cell_ids_from_encoded(damaged),
    )
    # An injector that does not protect the header reaches such bytes.
    plan = FaultPlan(bit_flip=1.0, max_flips=4, protect_header=False)
    source = EncodedChunkSource(0, [encoded] * 8)
    for chunk in FaultInjector(source, plan, seed=9):
        _assert_equivalent(chunk.payload)
